"""CI benchmark regression gate.

Measures the calc-workload translation throughput (the cheap,
per-input half of the paper's §V economics) and the cold-vs-warm build
cost (the expensive, once-per-grammar half, which ``repro.buildcache``
amortizes), then compares throughput against the committed baseline in
``benchmarks/results/baseline_t4.json``:

* **throughput gate** — fail when measured lines/min drops more than
  ``THRESHOLD`` (25%) below the baseline;
* **cache smoke** — fail unless a warm (cache-rehydrated) ``Linguist``
  construction is measurably faster than a cold build (< half the
  cold time; in practice it is ~20x faster, so this margin absorbs CI
  noise);
* **codec gate** — fail unless the calc initial-APT stream has exactly
  the baseline record count and its sealed spool exactly the baseline
  file bytes (the APT encoding is the constant that multiplies through
  every pass's I/O; both numbers are deterministic, so enforced exactly
  on every host);
* **fusion gate** — fail when the calc grammar's scheduled pass count
  exceeds the baseline (a fusion regression silently doubles the
  streaming work per translation);
* **provenance gate** — fail when translation throughput with
  provenance recording *disabled* drops more than
  ``PROVENANCE_THRESHOLD`` (3%) below the baseline: the recorder is
  opt-in, and the ``rec is None`` checks threaded through the
  evaluators must stay free when nobody opted in;
* **serve gate** — fail when the serve daemon's sustained requests/s
  (in-process, supervised workers — see ``docs/serving.md`` and
  ``bench_t8_serve.py``) drops more than ``THRESHOLD`` below the
  baseline;
* **incremental gate** — fail when the memo-spliced single-token-edit
  re-translation speedup (see ``bench_t10_incremental.py`` and
  docs/performance.md) drops more than ``THRESHOLD`` below the
  baseline, or when the spliced-record hit rate falls below
  ``INCREMENTAL_HIT_FLOOR`` (the hit rate is deterministic for a
  given grammar + edit, so a drop means the memo keying broke, not
  noise); the memo-disabled no-tax promise rides the existing 3%
  provenance disabled-mode gate, which times the same ``translate``
  path with both opt-in features off;
* **batch-scaling gate** — fail when parallel batch efficiency
  (speedup/jobs at ``-j 4`` — see ``bench_t9_batch_scaling.py`` and
  docs/performance.md) drops below ``SCALING_FLOOR`` (skipped on hosts
  with fewer than 4 CPUs, which cannot express parallel speedup);
* **worker-start gate** — fail unless a forkserver batch worker's
  start does exactly ``WORKER_CACHE_COUNTS``: one build-cache hit per
  entry kind (alias, grammar, scanner), no miss and no write
  (deterministic, so enforced exactly on every host).

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py            # gate
    PYTHONPATH=src python benchmarks/check_regression.py --update-baseline

Refresh the baseline (on the reference machine) whenever a deliberate
performance change lands, and commit the JSON diff alongside it.
Exit status: 0 pass, 1 regression/smoke failure, 2 missing baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time

BASELINE_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "results", "baseline_t4.json"
)

#: Maximum tolerated throughput drop relative to the committed baseline.
THRESHOLD = 0.25

#: The warm build must cost less than this fraction of the cold build.
WARM_FRACTION = 0.5

#: Maximum tolerated throughput drop with provenance recording DISABLED
#: (the feature's pay-for-use promise — see bench_t7_provenance.py).
PROVENANCE_THRESHOLD = 0.03

#: Minimum parallel batch efficiency (speedup / jobs) at -j 4, enforced
#: only on hosts with >= 4 CPUs.
SCALING_FLOOR = 0.75

#: The ``cache.*`` counters a batch worker's start must bump, exactly:
#: it rehydrates from the cache the driver has just written.
WORKER_CACHE_COUNTS = {
    "cache.hit": 3,
    "cache.alias.hit": 1,
    "cache.grammar.hit": 1,
    "cache.scanner.hit": 1,
}

#: Minimum fraction of output records a single-token-edit re-run must
#: splice from the memo (deterministic, so the floor is tight).
INCREMENTAL_HIT_FLOOR = 0.90


def measure_calc_throughput(rounds: int = 5, n_statements: int = 200) -> dict:
    """Best-of-``rounds`` translation throughput over a generated calc
    program (lines per minute, generated backend, warm translator)."""
    from repro.core import Linguist
    from repro.grammars import load_source, scanner_and_library
    from repro.workloads import generate_calc_program

    spec, library = scanner_and_library("calc")
    translator = Linguist(load_source("calc")).make_translator(
        spec, library=library
    )
    program = generate_calc_program(n_statements, seed=17)
    n_lines = len(program.splitlines())
    translator.translate(program)  # warm the path once
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        translator.translate(program)
        best = min(best, time.perf_counter() - start)
    return {
        "n_lines": n_lines,
        "rounds": rounds,
        "best_seconds": best,
        "lines_per_minute": n_lines / best * 60.0,
    }


def measure_cold_vs_warm(rounds: int = 3) -> dict:
    """Once-per-grammar build cost, cold (full pipeline + seal) vs warm
    (cache rehydration), best-of-``rounds`` each."""
    from repro.buildcache import BuildCache
    from repro.core import Linguist
    from repro.grammars import load_source

    source = load_source("calc")
    cold_best = warm_best = float("inf")
    with tempfile.TemporaryDirectory() as root:
        for _ in range(rounds):
            cache = BuildCache(root)
            cache.clear()
            start = time.perf_counter()
            Linguist(source, cache=cache)
            cold_best = min(cold_best, time.perf_counter() - start)
            # cache is now sealed: time the warm rebuild
            start = time.perf_counter()
            warm = Linguist(source, cache=BuildCache(root))
            warm_best = min(warm_best, time.perf_counter() - start)
            assert warm.from_cache, "warm rebuild missed the cache"
    return {
        "cold_seconds": cold_best,
        "warm_seconds": warm_best,
        "speedup": cold_best / warm_best if warm_best > 0 else float("inf"),
    }


def measure_spool_codec(n_statements: int = 200) -> dict:
    """Record count and sealed file bytes of a real calc initial-APT
    stream spooled to disk, and the fused pass count the scheduler
    produced for calc."""
    from repro.apt.build import APTBuilder
    from repro.apt.storage import DiskSpool, MemorySpool
    from repro.core import Linguist
    from repro.grammars import load_source, scanner_and_library
    from repro.workloads import generate_calc_program

    spec, library = scanner_and_library("calc")
    linguist = Linguist(load_source("calc"))
    translator = linguist.make_translator(spec, library=library)
    program = generate_calc_program(n_statements, seed=17)
    tokens = list(translator.scanner.tokens(program))
    mem = MemorySpool(channel="initial")
    builder = APTBuilder(linguist.ag, mem, build_tree=False)
    translator.parser.parse(tokens, listener=builder, build_tree=False)
    builder.finish()
    records = list(mem.read_forward())

    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "calc.spool")
        spool = DiskSpool(path)
        for record in records:
            spool.append(record)
        spool.finalize()
        file_bytes = os.path.getsize(path)
    return {
        "n_records": len(records),
        "file_bytes": file_bytes,
        "bytes_per_record": file_bytes / len(records),
        "calc_n_passes": linguist.n_passes,
    }


def measure_provenance_overhead(
    rounds: int = 5, n_statements: int = 200
) -> dict:
    """Throughput with provenance recording disabled vs enabled, on the
    same warm translator and workload as :func:`measure_calc_throughput`
    (the disabled number is what the 3% gate compares)."""
    import shutil

    from repro.core import Linguist
    from repro.grammars import load_source, scanner_and_library
    from repro.workloads import generate_calc_program

    spec, library = scanner_and_library("calc")
    translator = Linguist(load_source("calc")).make_translator(
        spec, library=library
    )
    program = generate_calc_program(n_statements, seed=17)
    n_lines = len(program.splitlines())
    translator.translate(program)  # warm
    off_best = on_best = float("inf")
    with tempfile.TemporaryDirectory() as root:
        record_dir = os.path.join(root, "rec")
        for _ in range(rounds):
            start = time.perf_counter()
            translator.translate(program)
            off_best = min(off_best, time.perf_counter() - start)
            if os.path.exists(record_dir):
                shutil.rmtree(record_dir)
            start = time.perf_counter()
            translator.translate(program, record=record_dir)
            on_best = min(on_best, time.perf_counter() - start)
    return {
        "off_lines_per_minute": n_lines / off_best * 60.0,
        "on_lines_per_minute": n_lines / on_best * 60.0,
        "record_slowdown": on_best / off_best,
    }


def measure_serve(n_requests: int = 60, workers: int = 2) -> dict:
    """Serve-daemon latency and sustained throughput vs ``run_batch``
    over the same inputs (in-process server, HTTP layer excluded so the
    gate measures the service, not the socket stack)."""
    import asyncio
    import statistics

    from repro.batch import WorkerSpec, build_batch_translator
    from repro.grammars import load_source, source_path
    from repro.serve.daemon import ServeConfig, TranslationServer
    from repro.workloads import generate_calc_program

    texts = [
        generate_calc_program(5, seed=900 + i) for i in range(n_requests)
    ]
    with tempfile.TemporaryDirectory() as root:
        spec = WorkerSpec(
            source=load_source("calc"),
            filename=source_path("calc"),
            grammar_name="calc",
            direction="r2l",
            cache_dir=os.path.join(root, "cache"),
        )
        translator = build_batch_translator(spec)
        start = time.perf_counter()
        report = translator.translate_many(texts, jobs=workers)
        batch_seconds = time.perf_counter() - start
        assert report.ok, "batch reference run failed"

        async def drive():
            server = TranslationServer(
                {"calc": spec},
                ServeConfig(
                    workers=workers,
                    queue_depth=n_requests,  # gate measures service time
                ),
            )
            await server.start()
            try:
                await server.submit("calc", texts[0])  # warm
                latencies = []
                for text in texts:  # closed loop: per-request latency
                    t0 = time.perf_counter()
                    result = await server.submit("calc", text)
                    assert result.ok
                    latencies.append(time.perf_counter() - t0)
                t0 = time.perf_counter()  # open loop: sustained RPS
                await asyncio.gather(
                    *[server.submit("calc", text) for text in texts]
                )
                concurrent_seconds = time.perf_counter() - t0
            finally:
                server.request_shutdown()
                await server.drain()
            return latencies, concurrent_seconds

        latencies, concurrent_seconds = asyncio.run(drive())
    latencies.sort()
    return {
        "n_requests": n_requests,
        "workers": workers,
        "p50_ms": statistics.median(latencies) * 1000.0,
        "p99_ms": latencies[
            min(len(latencies) - 1, int(len(latencies) * 0.99))
        ] * 1000.0,
        "serve_rps": n_requests / concurrent_seconds,
        "batch_rps": n_requests / batch_seconds,
    }


def _worker_cache_counts(spec) -> dict:
    """Hydrate a translator exactly as a batch worker does and return
    the ``cache.*`` counters that bumped."""
    from repro.batch import build_batch_translator
    from repro.obs import MetricsRegistry

    metrics = MetricsRegistry()
    build_batch_translator(spec, metrics=metrics)
    return {
        key: value
        for key, value in metrics.snapshot().items()
        if key.startswith("cache.")
    }


def measure_batch_scaling(
    n_inputs: int = 24, n_statements: int = 40, rehydrate_rounds: int = 7
) -> dict:
    """Parallel batch fan-out (see bench_t9_batch_scaling.py for the
    full experiment): -j 1 vs -j 4 wall time, warm per-worker cache
    rehydration cost, and the cache counters of a forkserver worker's
    start."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    from repro.batch import WorkerSpec, build_batch_translator
    from repro.workloads import generate_calc_program

    texts = [
        generate_calc_program(n_statements, seed=950 + i)
        for i in range(n_inputs)
    ]
    with tempfile.TemporaryDirectory() as root:
        spec = WorkerSpec(
            source=open("src/repro/grammars/calc.ag").read(),
            filename="src/repro/grammars/calc.ag",
            grammar_name="calc",
            direction="r2l",
            cache_dir=os.path.join(root, "cache"),
        )
        translator = build_batch_translator(spec)
        translator.translate_many(texts[:2], jobs=1)  # warm
        start = time.perf_counter()
        seq = translator.translate_many(texts, jobs=1)
        seq_seconds = time.perf_counter() - start
        start = time.perf_counter()
        par = translator.translate_many(texts, jobs=4)
        par_seconds = time.perf_counter() - start
        assert seq.ok and par.ok, "batch scaling reference run failed"

        rehydrate_best = float("inf")
        for _ in range(rehydrate_rounds):
            t0 = time.perf_counter()
            build_batch_translator(spec)
            rehydrate_best = min(rehydrate_best, time.perf_counter() - t0)
        ctx = multiprocessing.get_context("forkserver")
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            cache_counts = pool.submit(_worker_cache_counts, spec).result()
    speedup = seq_seconds / par_seconds
    return {
        "n_inputs": n_inputs,
        "seq_seconds": seq_seconds,
        "par_seconds": par_seconds,
        "speedup": speedup,
        "efficiency": speedup / 4,
        "rehydrate_ms": rehydrate_best * 1000.0,
        "cache_counts": cache_counts,
    }


def measure_incremental(rounds: int = 3, n_statements: int = 200) -> dict:
    """Memo-spliced single-token-edit re-translation speedup and hit
    rate (the bench_t10_incremental.py experiment, condensed): each
    round warms a fresh memo from the base program, then times the
    edited re-translation against the from-scratch reference."""
    import re

    from repro.core import Linguist
    from repro.grammars import load_source, scanner_and_library
    from repro.obs import MetricsRegistry
    from repro.workloads import generate_calc_program

    spec, library = scanner_and_library("calc")
    translator = Linguist(load_source("calc")).make_translator(
        spec, library=library
    )
    program = generate_calc_program(n_statements, seed=17)
    lines = program.split(" ;\n")
    edited_last, n = re.subn(
        r"\d+", lambda m: str(int(m.group()) + 1), lines[-1], count=1
    )
    assert n == 1, "no literal to edit in the last calc statement"
    edited = " ;\n".join(lines[:-1] + [edited_last])
    translator.translate(program)  # warm
    cold_best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        translator.translate(edited)
        cold_best = min(cold_best, time.perf_counter() - start)
    inc_best = float("inf")
    with tempfile.TemporaryDirectory() as root:
        for r in range(rounds):
            memo = os.path.join(root, f"memo{r}")
            translator.translate(program, memo_dir=memo)
            start = time.perf_counter()
            translator.translate(edited, memo_dir=memo)
            inc_best = min(inc_best, time.perf_counter() - start)
        # Hit rate: spliced records on the edit over the full stream
        # length (a pure re-run splices every record).
        memo = os.path.join(root, "memo-count")
        translator.translate(program, memo_dir=memo)
        full = MetricsRegistry()
        translator.translate(program, memo_dir=memo, metrics=full)
        total = full.counter("incremental.spliced_records").value
        translator.translate(program, memo_dir=memo)  # re-warm
        metrics = MetricsRegistry()
        translator.translate(edited, memo_dir=memo, metrics=metrics)
        spliced = metrics.counter("incremental.spliced_records").value
    return {
        "cold_seconds": cold_best,
        "spliced_seconds": inc_best,
        "speedup": cold_best / inc_best if inc_best > 0 else float("inf"),
        "hit_rate": spliced / total if total else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update-baseline", action="store_true",
        help=f"rewrite {BASELINE_PATH} from this run's measurements",
    )
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)

    throughput = measure_calc_throughput(rounds=args.rounds)
    cache = measure_cold_vs_warm()
    codec = measure_spool_codec()
    provenance = measure_provenance_overhead(rounds=args.rounds)
    serve = measure_serve()
    scaling = measure_batch_scaling()
    incremental = measure_incremental()

    lpm = throughput["lines_per_minute"]
    print(
        f"calc throughput: {lpm:,.0f} lines/min "
        f"({throughput['n_lines']} lines, best of {throughput['rounds']})"
    )
    print(
        f"build cost: cold {cache['cold_seconds'] * 1000:.1f} ms, "
        f"warm {cache['warm_seconds'] * 1000:.1f} ms "
        f"({cache['speedup']:.1f}x speedup from the artifact cache)"
    )
    print(
        f"spool codec: {codec['n_records']} records in "
        f"{codec['file_bytes']:,} bytes "
        f"({codec['bytes_per_record']:.1f} bytes/record); "
        f"calc schedules {codec['calc_n_passes']} fused pass(es)"
    )
    print(
        f"provenance: {provenance['off_lines_per_minute']:,.0f} lines/min "
        f"disabled, {provenance['on_lines_per_minute']:,.0f} recording "
        f"({provenance['record_slowdown']:.1f}x slowdown when opted in)"
    )
    print(
        f"serve: p50 {serve['p50_ms']:.1f} ms, p99 {serve['p99_ms']:.1f} ms, "
        f"{serve['serve_rps']:,.0f} req/s sustained "
        f"({serve['workers']} workers; batch over the same inputs: "
        f"{serve['batch_rps']:,.0f} req/s)"
    )
    print(
        f"batch scaling: -j 1 {scaling['seq_seconds']:.2f} s, "
        f"-j 4 {scaling['par_seconds']:.2f} s "
        f"({scaling['speedup']:.2f}x, efficiency "
        f"{scaling['efficiency']:.2f}); warm worker cache rehydration "
        f"{scaling['rehydrate_ms']:.2f} ms"
    )
    print(
        f"incremental: from-scratch {incremental['cold_seconds'] * 1000:.1f}"
        f" ms, memo-spliced edit {incremental['spliced_seconds'] * 1000:.1f}"
        f" ms ({incremental['speedup']:.2f}x speedup, hit rate "
        f"{incremental['hit_rate']:.1%})"
    )

    if args.update_baseline:
        baseline = {
            "benchmark": "calc-workload throughput (EXP-T4 family)",
            "lines_per_minute": lpm,
            "threshold": THRESHOLD,
            "machine": platform.platform(),
            "python": platform.python_version(),
            "cold_seconds": cache["cold_seconds"],
            "warm_seconds": cache["warm_seconds"],
            "spool_n_records": codec["n_records"],
            "spool_v3_file_bytes": codec["file_bytes"],
            "calc_n_passes": codec["calc_n_passes"],
            "provenance_off_lines_per_minute": provenance[
                "off_lines_per_minute"
            ],
            "provenance_threshold": PROVENANCE_THRESHOLD,
            "serve_rps": serve["serve_rps"],
            "serve_p99_ms": serve["p99_ms"],
            "batch_scaling_floor": SCALING_FLOOR,
            "incremental_speedup": incremental["speedup"],
            "incremental_hit_rate": incremental["hit_rate"],
        }
        os.makedirs(os.path.dirname(BASELINE_PATH), exist_ok=True)
        with open(BASELINE_PATH, "w", encoding="utf-8") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    if not os.path.exists(BASELINE_PATH):
        print(
            f"error: no baseline at {BASELINE_PATH}; run with "
            "--update-baseline on the reference machine and commit it",
            file=sys.stderr,
        )
        return 2
    with open(BASELINE_PATH, "r", encoding="utf-8") as f:
        baseline = json.load(f)
    floor = baseline["lines_per_minute"] * (1.0 - THRESHOLD)

    ok = True
    if lpm < floor:
        drop = 100.0 * (1.0 - lpm / baseline["lines_per_minute"])
        print(
            f"FAIL throughput regression: {lpm:,.0f} lines/min is "
            f"{drop:.0f}% below baseline "
            f"{baseline['lines_per_minute']:,.0f} "
            f"(tolerated: {100 * THRESHOLD:.0f}%)",
            file=sys.stderr,
        )
        ok = False
    else:
        print(
            f"PASS throughput: {lpm:,.0f} >= floor {floor:,.0f} lines/min "
            f"(baseline {baseline['lines_per_minute']:,.0f} - "
            f"{100 * THRESHOLD:.0f}%)"
        )

    warm_limit = cache["cold_seconds"] * WARM_FRACTION
    if cache["warm_seconds"] >= warm_limit:
        print(
            f"FAIL cache smoke: warm build {cache['warm_seconds'] * 1000:.1f} ms "
            f"is not measurably faster than cold "
            f"{cache['cold_seconds'] * 1000:.1f} ms "
            f"(must be < {100 * WARM_FRACTION:.0f}%)",
            file=sys.stderr,
        )
        ok = False
    else:
        print(
            f"PASS cache smoke: warm {cache['warm_seconds'] * 1000:.1f} ms < "
            f"{100 * WARM_FRACTION:.0f}% of cold "
            f"{cache['cold_seconds'] * 1000:.1f} ms"
        )

    base_codec = (baseline.get("spool_n_records"),
                  baseline.get("spool_v3_file_bytes"))
    if None not in base_codec:
        got_codec = (codec["n_records"], codec["file_bytes"])
        if got_codec != base_codec:
            print(
                f"FAIL codec: calc stream is {got_codec[0]} records in "
                f"{got_codec[1]:,} spool bytes, baseline {base_codec[0]} "
                f"records in {base_codec[1]:,} bytes (exact gate)",
                file=sys.stderr,
            )
            ok = False
        else:
            print(
                f"PASS codec: {got_codec[0]} records in {got_codec[1]:,} "
                f"spool bytes, exactly the baseline"
            )

    base_passes = baseline.get("calc_n_passes")
    if base_passes is not None:
        if codec["calc_n_passes"] > base_passes:
            print(
                f"FAIL fusion regression: calc schedules "
                f"{codec['calc_n_passes']} passes, baseline fused it to "
                f"{base_passes}",
                file=sys.stderr,
            )
            ok = False
        else:
            print(
                f"PASS fusion: calc schedules {codec['calc_n_passes']} "
                f"pass(es) (baseline {base_passes})"
            )

    base_off = baseline.get("provenance_off_lines_per_minute")
    if base_off is not None:
        off_lpm = provenance["off_lines_per_minute"]
        off_floor = base_off * (1.0 - PROVENANCE_THRESHOLD)
        if off_lpm < off_floor:
            tax = 100.0 * (1.0 - off_lpm / base_off)
            print(
                f"FAIL provenance disabled-mode tax: {off_lpm:,.0f} "
                f"lines/min with recording off is {tax:.1f}% below "
                f"baseline {base_off:,.0f} "
                f"(tolerated: {100 * PROVENANCE_THRESHOLD:.0f}%)",
                file=sys.stderr,
            )
            ok = False
        else:
            print(
                f"PASS provenance: {off_lpm:,.0f} >= floor "
                f"{off_floor:,.0f} lines/min with recording disabled "
                f"(baseline {base_off:,.0f} - "
                f"{100 * PROVENANCE_THRESHOLD:.0f}%)"
            )

    base_rps = baseline.get("serve_rps")
    if base_rps is not None:
        rps_floor = base_rps * (1.0 - THRESHOLD)
        if serve["serve_rps"] < rps_floor:
            drop = 100.0 * (1.0 - serve["serve_rps"] / base_rps)
            print(
                f"FAIL serve regression: {serve['serve_rps']:,.0f} req/s "
                f"sustained is {drop:.0f}% below baseline "
                f"{base_rps:,.0f} (tolerated: {100 * THRESHOLD:.0f}%)",
                file=sys.stderr,
            )
            ok = False
        else:
            print(
                f"PASS serve: {serve['serve_rps']:,.0f} >= floor "
                f"{rps_floor:,.0f} req/s sustained "
                f"(baseline {base_rps:,.0f} - {100 * THRESHOLD:.0f}%; "
                f"p99 {serve['p99_ms']:.1f} ms)"
            )

    # Batch gates (bench_t9_batch_scaling.py): a worker's cache counts
    # are exact on every host; the efficiency floor needs real cores.
    if scaling["cache_counts"] != WORKER_CACHE_COUNTS:
        print(
            f"FAIL worker start: a forkserver batch worker counted "
            f"{scaling['cache_counts']} (must be exactly "
            f"{WORKER_CACHE_COUNTS})",
            file=sys.stderr,
        )
        ok = False
    else:
        print(
            "PASS worker start: one cache hit per entry kind, no miss, "
            "no write"
        )
    scaling_floor = baseline.get("batch_scaling_floor", SCALING_FLOOR)
    n_cpus = os.cpu_count() or 1
    if n_cpus < 4:
        print(
            f"SKIP batch scaling efficiency: {n_cpus} CPU(s) cannot "
            f"express -j 4 speedup (measured {scaling['efficiency']:.2f}, "
            f"floor {scaling_floor})"
        )
    elif scaling["efficiency"] < scaling_floor:
        print(
            f"FAIL batch scaling: -j 4 efficiency "
            f"{scaling['efficiency']:.2f} (speedup "
            f"{scaling['speedup']:.2f}x) below floor {scaling_floor}",
            file=sys.stderr,
        )
        ok = False
    else:
        print(
            f"PASS batch scaling: -j 4 efficiency "
            f"{scaling['efficiency']:.2f} >= floor {scaling_floor} "
            f"(speedup {scaling['speedup']:.2f}x)"
        )
    base_inc = baseline.get("incremental_speedup")
    if base_inc is not None:
        inc_floor = base_inc * (1.0 - THRESHOLD)
        if incremental["speedup"] < inc_floor:
            drop = 100.0 * (1.0 - incremental["speedup"] / base_inc)
            print(
                f"FAIL incremental regression: memo-spliced edit re-run "
                f"speedup {incremental['speedup']:.2f}x is {drop:.0f}% "
                f"below baseline {base_inc:.2f}x "
                f"(tolerated: {100 * THRESHOLD:.0f}%)",
                file=sys.stderr,
            )
            ok = False
        else:
            print(
                f"PASS incremental: {incremental['speedup']:.2f}x >= floor "
                f"{inc_floor:.2f}x (baseline {base_inc:.2f}x - "
                f"{100 * THRESHOLD:.0f}%)"
            )
        if incremental["hit_rate"] < INCREMENTAL_HIT_FLOOR:
            print(
                f"FAIL incremental hit rate: {incremental['hit_rate']:.1%} "
                f"of output records spliced on a single-token edit "
                f"(floor {INCREMENTAL_HIT_FLOOR:.0%} — the memo keying "
                f"broke, this figure is deterministic)",
                file=sys.stderr,
            )
            ok = False
        else:
            print(
                f"PASS incremental hit rate: {incremental['hit_rate']:.1%} "
                f">= floor {INCREMENTAL_HIT_FLOOR:.0%}"
            )

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""EXP-T9 — batch fan-out economics.

The paper's §V economics assume the expensive once-per-grammar build is
paid *once*.  Parallel batch execution keeps that promise through the
build cache: the driver builds (or rehydrates) the translator, and
every worker process rehydrates it from the cache entries the driver
has just written, so adding a worker costs a cache read and an
``exec``-compile of the cached pass text, not a rebuild.  This
benchmark quantifies the fan-out:

* **scaling** — wall-clock throughput of ``translate_many`` at
  ``jobs=1`` (in-process sequential) vs ``jobs=2`` and ``jobs=4``
  (supervised workers), with byte-identical outputs
  asserted across all of them;
* **warm startup** — per-worker build-cache rehydration cost,
  best-of-N in-process (the same code path a freshly spawned or
  supervisor-restarted batch worker runs).

The scaling-efficiency assertion only fires when the machine actually
has ≥4 CPUs (a single-core host cannot exhibit parallel speedup); the
byte-identity assertion always fires.  The regression gate
(``check_regression.py``) enforces the efficiency floor on CI hardware
and the exact cache counts of a worker's start.
"""

import os
import time

from repro.workloads import generate_calc_program

N_INPUTS = 48
N_STATEMENTS = 60
SEED = 900
JOBS = (1, 2, 4)
REHYDRATE_ROUNDS = 7
#: Minimum parallel efficiency (speedup / jobs) demanded at -j 4 when
#: the hardware can express it (mirrors check_regression.py).
EFFICIENCY_FLOOR = 0.75


def _summarize(report):
    from tests.evalharness import canonical_attrs

    return [
        (item.index, item.ok,
         canonical_attrs(item.result.root_attrs) if item.ok else item.error_type)
        for item in report.items
    ]


def test_t9_batch_scaling(report, tmp_path):
    from repro.batch import WorkerSpec, build_batch_translator

    texts = [
        generate_calc_program(N_STATEMENTS, seed=SEED + i)
        for i in range(N_INPUTS)
    ]
    n_lines = sum(len(t.splitlines()) for t in texts)
    spec = WorkerSpec(
        source=open("src/repro/grammars/calc.ag").read(),
        filename="src/repro/grammars/calc.ag",
        grammar_name="calc",
        direction="r2l",
        cache_dir=str(tmp_path / "cache"),
    )
    translator = build_batch_translator(spec)
    translator.translate_many(texts[:2], jobs=1)  # warm the hot path

    elapsed = {}
    reports = {}
    for jobs in JOBS:
        start = time.perf_counter()
        reports[jobs] = translator.translate_many(texts, jobs=jobs)
        elapsed[jobs] = time.perf_counter() - start
        assert reports[jobs].ok, f"-j {jobs} run failed"
    # Byte-identical outputs at every parallelism level.
    reference = _summarize(reports[1])
    for jobs in JOBS[1:]:
        assert _summarize(reports[jobs]) == reference, (
            f"-j {jobs} output differs from sequential"
        )

    speedup4 = elapsed[1] / elapsed[4]
    efficiency4 = speedup4 / 4

    # Warm startup per extra worker, in-process (the exact hydration
    # code a spawned batch worker runs).
    build_batch_translator(spec)  # warm
    rehydrate_best = float("inf")
    for _ in range(REHYDRATE_ROUNDS):
        t0 = time.perf_counter()
        build_batch_translator(spec)
        rehydrate_best = min(rehydrate_best, time.perf_counter() - t0)

    cpus = os.cpu_count() or 1
    lines = [
        f"EXP-T9: batch fan-out over the build cache "
        f"({N_INPUTS} inputs x {N_STATEMENTS} statements, "
        f"{n_lines} lines total, {cpus} CPU(s))",
    ]
    for jobs in JOBS:
        rate = n_lines / elapsed[jobs] * 60.0
        lines.append(
            f"  -j {jobs}: {elapsed[jobs]:.3f} s  "
            f"({rate:,.0f} lines/min"
            + (")" if jobs == 1 else
               f", {elapsed[1] / elapsed[jobs]:.2f}x vs -j 1)")
        )
    lines += [
        f"  -j 4 scaling efficiency: {efficiency4:.2f} "
        f"(floor {EFFICIENCY_FLOOR} enforced when CPUs >= 4)",
        f"  warm worker startup: cache rehydration "
        f"{rehydrate_best * 1000:.2f} ms (best of {REHYDRATE_ROUNDS})",
    ]
    if cpus >= 4:
        assert efficiency4 >= EFFICIENCY_FLOOR, (
            f"-j 4 efficiency {efficiency4:.2f} below {EFFICIENCY_FLOOR}"
        )
        lines.append("  efficiency floor: PASS")
    else:
        lines.append(
            f"  efficiency floor: SKIPPED ({cpus} CPU(s) cannot express "
            "parallel speedup)"
        )
    report("t9_batch_scaling", "\n".join(lines))
    assert rehydrate_best > 0

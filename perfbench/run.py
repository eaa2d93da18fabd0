"""The repository benchmark: four workloads, layer-attributed.

One run measures one workload in this process::

    python3 perfbench/run.py --workload compile --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` repeats the
work with spans around each layer's public entry points and prints the
per-layer metrics instead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Metric
names, units, bounds and the reasoning behind each workload are in
``BENCHMARK.json`` and ``perfbench/spec.json``.

``--steadiness N`` runs each workload N times, each in a fresh
process with its own seed, and prints each metric's median, spread
(inter-quartile range over the median) and range, marking every metric
whose spread exceeds its bound as unresolved.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

#: Items per end-to-end run, so that at least ten lie beyond the p90.
MIN_ITEMS = 110
#: Span-timed layers measured per set-up rather than per item: they run
#: while a translator warm-starts or a memo is opened, not per input.
SETUP_LAYERS = ("buildcache.load", "incremental.load")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def fingerprint() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "kernel": platform.release(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def host_ticks() -> tuple:
    """(steal, total) CPU ticks of the whole host, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return ordered[rank - 1]


def end_to_end(workload, seconds: float, tracer) -> tuple:
    from workloads import HostGauge, SetupSampler

    # One set-up readies the phase; the others are spread over it (see
    # SetupSampler), so their median spans the same host time as the phase.
    state, first = workload.timed_setup(0)
    gauge = HostGauge()
    sampler = SetupSampler(workload, workload.setup_repeats - 1, seconds, gauge)
    try:
        gc.collect()
        workload.reset_peak_rss(state)
        steal0, total0 = host_ticks()
        cpu0 = time.process_time()
        phase = workload.run(state, seconds, tracer, min_items=MIN_ITEMS, sampler=sampler,
                             gauge=gauge)
        cpu = time.process_time() - cpu0
        steal1, total1 = host_ticks()
        peak = phase.peak_rss_mb if phase.peak_rss_mb is not None else workload.peak_rss_mb(state)
    finally:
        workload.teardown(state)
    sampler.finish()
    setups = [(first, 0)] + sampler.times
    setup_times = [t for t, _ in setups]
    lat_ms = [x * 1000.0 for x in phase.latencies]
    # Times on the reference host (see HostGauge); the notes keep them raw.
    ref_ms = [x * gauge.scale_at(g) for x, g in zip(lat_ms, phase.gauge_index)]
    raw = {
        "setup_s": statistics.median(setup_times),
        "lines_per_s": phase.lines_per_s,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": percentile(lat_ms, 90),
    }
    metrics = {
        "setup_s": (statistics.median(t * gauge.scale_at(g) for t, g in setups), "s"),
        "lines_per_s": (phase.lines / (sum(ref_ms) / 1000.0), "lines/s"),
        "latency_p50_ms": (statistics.median(ref_ms), "ms"),
        "latency_p90_ms": (percentile(ref_ms, 90), "ms"),
        "peak_rss_mb": (peak, "MiB"),
        "evaluator_code_bytes": (workload.evaluator_code_bytes, "bytes"),
    }
    notes = {
        "samples": len(lat_ms),
        "beyond_p90": sum(1 for x in ref_ms if x > metrics["latency_p90_ms"][0]),
        "raw": raw,
        "gauge_median_s": statistics.median(gauge.samples),
        "gauge_samples": len(gauge.samples),
        "setup_samples": [round(t, 4) for t in setup_times],
        "failed_ratio": phase.failed / max(1, phase.attempted),
        "host_steal_share": round((steal1 - steal0) / max(1, total1 - total0), 4),
        "cpu_over_wall": round(cpu / phase.wall, 4),
    }
    return phase, metrics, notes


def per_layer(workload, seconds: float, tracer) -> tuple:
    """Untraced half-phase, then a traced set-up and traced half-phase;
    the difference in throughput is the tracing overhead.  Every metric
    BENCHMARK.json lists under per_layer is printed; a layer the workload
    does not exercise reads 0."""
    half = seconds / 2.0
    state, _ = workload.timed_setup(0)
    try:
        gc.collect()
        untraced = workload.run(state, half, tracer)
    finally:
        workload.teardown(state)
    tracer.install()
    try:
        state, _ = workload.timed_setup(1)
        setup_seconds = dict(tracer.self_seconds)
        tracer.reset()
        try:
            before = workload.layer_snapshot(state)
            gc.collect()
            traced = workload.run(state, half, tracer)
            values = workload.layer_values(state, before, traced)
        finally:
            workload.teardown(state)
    finally:
        tracer.uninstall()
    items = max(1, len(traced.latencies))
    for m in SPEC["per_layer"]:
        # A "<layer>_s" metric in seconds is that span's self time, unless
        # the workload read it outside the spans (serve's, from /stats).
        if m["unit"] == "s" and m["name"].endswith("_s"):
            layer = m["name"][:-2]
            if layer in SETUP_LAYERS:
                span_s = setup_seconds.get(layer, 0.0)
            else:
                span_s = tracer.self_seconds.get(layer, 0.0) / items
            values.setdefault(m["name"], span_s)
    counts = workload.counts
    values.update(counts)
    hits, misses = counts.get("incremental.hits", 0), counts.get("incremental.misses", 0)
    if hits + misses:
        values["incremental.hit_ratio"] = hits / (hits + misses)
    if counts.get("evalgen.records_written"):
        values["incremental.splice_ratio"] = (
            counts.get("incremental.spliced_records", 0) / counts["evalgen.records_written"])
    values["trace.overhead_lines_per_s"] = untraced.lines_per_s - traced.lines_per_s
    metrics = {m["name"]: (values.get(m["name"], 0), m["unit"]) for m in SPEC["per_layer"]}
    phase = untraced
    phase.attempted += traced.attempted
    phase.failed += traced.failed
    phase.errors += traced.errors
    notes = {
        "untraced_lines_per_s": untraced.lines_per_s,
        "traced_lines_per_s": traced.lines_per_s,
        "traced_items": len(traced.latencies),
        "cycle_items": len(workload.cycle),
    }
    return phase, metrics, notes


def run_once(args) -> int:
    from layers import LayerTracer
    from workloads import WORKLOADS

    # One CPU for the run and every process it starts (serve's daemon and
    # workers): the host steals time from one vCPU at a time, and the
    # gauge (see HostGauge) only sees the CPU it runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tmp = os.path.join(ROOT, ".bench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp)
    os.environ["TMPDIR"] = tmp
    try:
        workload = WORKLOADS[args.workload](args.seed, tmp, tiny=args.tiny)
        workload.prepare()
        tracer = LayerTracer()
        if args.trace:
            phase, metrics, notes = per_layer(workload, args.seconds, tracer)
        else:
            phase, metrics, notes = end_to_end(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:  # another run still uses it
            pass
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<8} {name:<36} {value:>16.6g} {unit}")
    for error in phase.errors:
        print(f"# failure: {error}")
    print("# " + json.dumps({"workload": args.workload, "seed": args.seed,
                             "notes": notes, "machine": fingerprint()}))
    print(json.dumps({
        "correct": phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


# ---------------------------------------------------------------------------
# steadiness report
# ---------------------------------------------------------------------------


def steadiness(args) -> int:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    unresolved = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        values = {}
        for i in range(args.steadiness):
            seed = args.seed + i
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            lines = out.strip().splitlines()
            result = json.loads(lines[-1])
            notes = json.loads(lines[-2][2:])["notes"]
            summary = {k: round(m["value"], 4) for k, m in result["metrics"].items()}
            print(f"# {workload} seed {seed}: {summary} gauge {notes.get('gauge_median_s', 0):.5f} "
                  f"steal {notes.get('host_steal_share')} "
                  f"cpu/wall {notes.get('cpu_over_wall')}", flush=True)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
                unresolved += 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if spread > bounds[name]:
                flag = "  UNRESOLVED"
                unresolved += 1
            print(f"{workload:<8} {name:<22} median {med:<14.6g} spread {spread:7.2%} "
                  f"(bound {bounds[name]:.0%}) min {min(vals):<12.6g} max {max(vals):.6g}{flag}")
    return 1 if unresolved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few inputs per workload (for the exact-count check)")
    parser.add_argument("--steadiness", type=int, metavar="N",
                        help="run each workload N times (seeds seed..seed+N-1) and report spreads")
    args = parser.parse_args(argv)
    try:
        import repro
    except ImportError as exc:
        print(f"error: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"error: repro imported from {repro.__file__}, not from this checkout's src/",
              file=sys.stderr)
        return 2
    if args.steadiness:
        return steadiness(args)
    if not args.workload:
        parser.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())

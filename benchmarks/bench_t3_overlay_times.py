"""EXP-T3 — §V per-overlay times, processing the system's own grammar.

Paper (seconds on the 8086):

    parser overlay             - 80   first attrib eval overlay - 25
    second attrib eval overlay - 42   evaluability test overlay -  9
    third attrib eval overlay  - 24   listing generation        - 63
    TOTAL                      - 243

Shape to reproduce: the pipeline is dominated by the input-consuming
and output-producing overlays (parse + listing ≈ 60 % of the paper's
total), while the evaluability test is a small fraction.  Absolute
times differ by four decades of hardware, so we compare *shares*.
"""

import statistics

from repro.core import Linguist
from repro.grammars import load_source
from repro.obs import MetricsRegistry

PAPER_SECONDS = {
    "parser overlay": 80,
    "first attrib eval overlay": 25,
    "second attrib eval overlay": 42,
    "evaluability test overlay": 9,
    "third attrib eval overlay": 24,
    "listing generation overlay": 63,
}
PAPER_TOTAL = 243
GENERATION = "evaluator generation overlay"

#: Builds per table.  One build's overlay times swing by a third between
#: back-to-back runs, so every figure is the median over these builds,
#: printed next to its inter-quartile range.
BUILDS = 7


def median_iqr(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def test_t3_overlay_times_table(benchmark, report, metrics_snapshot):
    source = load_source("linguist")
    snaps = []

    def build():
        linguist = Linguist(source, metrics=MetricsRegistry())
        # Per-overlay times come from the unified telemetry registry — the
        # same "overlay.<name>.seconds" counters `python -m repro profile`
        # renders — so the benchmark cannot diverge from the telemetry.
        snaps.append(metrics_snapshot(linguist))
        return linguist

    benchmark.pedantic(build, rounds=BUILDS, iterations=1)
    while len(snaps) < BUILDS:  # benchmarking disabled: one round ran
        build()
    names = list(PAPER_SECONDS) + [GENERATION]
    timing = {
        name: median_iqr([snap.get(f"overlay.{name}.seconds", 0.0) for snap in snaps])
        for name in names
    }
    # The paper's table excludes evaluator generation ("we exclude this
    # time for comparison purposes"), and so do the shares below.
    totals = [
        sum(snap.get(f"overlay.{name}.seconds", 0.0) for name in PAPER_SECONDS)
        for snap in snaps
    ]
    measured_total = sum(timing[name][0] for name in PAPER_SECONDS)

    lines = [
        "EXP-T3: per-overlay time, processing the self grammar "
        f"(median and IQR over {len(snaps)} builds)",
        f"{'overlay':<30} {'paper s':>8} {'paper %':>8} "
        f"{'median ms':>10} {'IQR ms':>7} {'measured %':>11}",
    ]
    for name, paper_s in PAPER_SECONDS.items():
        med, iqr = timing[name]
        lines.append(
            f"{name:<30} {paper_s:>8} {100 * paper_s / PAPER_TOTAL:>7.0f}% "
            f"{med * 1000:>10.1f} {iqr * 1000:>7.1f} "
            f"{100 * med / measured_total:>10.0f}%"
        )
    med, iqr = timing[GENERATION]
    lines.append(
        f"{'(evaluator generation)':<30} {'excl':>8} {'':>8} "
        f"{med * 1000:>10.1f} {iqr * 1000:>7.1f}"
    )
    lines.append(
        f"{'TOTAL (excl. generation)':<30} {PAPER_TOTAL:>8} {'100':>7}% "
        f"{measured_total * 1000:>10.1f} {'':>7} {'100':>10}%"
    )
    med, iqr = median_iqr(totals)
    lines.append(
        f"per-build total (excl. generation): median {med * 1000:.1f} ms, "
        f"IQR {iqr * 1000:.1f} ms, range {min(totals) * 1000:.1f}-"
        f"{max(totals) * 1000:.1f} ms"
    )
    report("t3_overlay_times", "\n".join(lines))

    # Shape: the evaluability test is a minor share, as in the paper (4%).
    assert timing["evaluability test overlay"][0] < 0.5 * measured_total
    # Every overlay ran in every build.
    for snap in snaps:
        assert all(f"overlay.{name}.seconds" in snap for name in PAPER_SECONDS)

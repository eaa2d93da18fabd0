"""Tests for the telemetry subsystem (repro.obs).

Covers span nesting, the disabled-tracer no-op path, Chrome-trace and
NDJSON export validity, the metrics registry, and the compatibility
shims that unify the historical accounting objects (IOAccountant,
MemoryGauge, OverlayClock) behind the registry.
"""

import json

import pytest

from repro.core import Linguist
from repro.errors import TelemetryError
from repro.grammars import library_for, load_source
from repro.grammars.scanners import calc_scanner_spec
from repro.obs import (
    IOAccountant,
    IOStats,
    MemoryGauge,
    MetricsRegistry,
    NullTracer,
    Tracer,
    chrome_trace_json,
    ndjson,
    summary,
)
from repro.obs.trace import NULL_TRACER


# ---------------------------------------------------------------------------
# Tracer core
# ---------------------------------------------------------------------------


class TestTracer:
    def test_span_nesting_depths(self):
        tracer = Tracer()
        with tracer.span("outer", cat="overlay"):
            with tracer.span("middle", cat="pass"):
                with tracer.span("inner", cat="visit"):
                    tracer.instant("evt", cat="evt")
        assert tracer.open_spans() == 0
        by_name = {r.name: r for r in tracer.records}
        assert by_name["outer"].depth == 0
        assert by_name["middle"].depth == 1
        assert by_name["inner"].depth == 2
        assert by_name["evt"].depth == 3

    def test_span_timestamps_contain_children(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = next(r for r in tracer.records if r.name == "outer")
        inner = next(r for r in tracer.records if r.name == "inner")
        assert outer.ts <= inner.ts
        assert inner.ts + inner.dur <= outer.ts + outer.dur

    def test_span_closed_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        assert tracer.open_spans() == 0
        assert tracer.records[0].dur >= 0

    def test_span_args_mutable_after_begin(self):
        tracer = Tracer()
        with tracer.span("parse", cat="parse") as span:
            span.args["n_shifts"] = 7
        assert tracer.records[0].args["n_shifts"] == 7

    def test_filters(self):
        tracer = Tracer()
        with tracer.span("a", cat="pass"):
            tracer.instant("x", cat="evt")
        assert [r.name for r in tracer.spans(cat="pass")] == ["a"]
        assert [r.name for r in tracer.instants(name="x")] == ["x"]
        assert tracer.spans(cat="nope") == []


class TestNullTracer:
    def test_records_nothing(self):
        tracer = NullTracer()
        with tracer.span("a", cat="x"):
            tracer.instant("b")
        tracer.begin("c")
        tracer.end()
        assert len(tracer) == 0
        assert list(tracer) == []
        assert tracer.enabled is False

    def test_shared_singleton_is_stateless(self):
        with NULL_TRACER.span("a"):
            NULL_TRACER.instant("b")
        assert len(NULL_TRACER) == 0


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        reg.gauge("g").add(10)
        reg.gauge("g").sub(3)
        reg.histogram("h").observe(2.0)
        reg.histogram("h").observe(4.0)
        snap = reg.snapshot()
        assert snap["c"] == 5
        assert snap["g"] == 7
        assert snap["g.peak"] == 10
        assert snap["h"]["count"] == 2
        assert snap["h"]["mean"] == 3.0
        assert snap["h"]["min"] == 2.0 and snap["h"]["max"] == 4.0

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TelemetryError):
            reg.gauge("x")

    def test_register_source_prefixes_keys(self):
        reg = MetricsRegistry()
        reg.register_source("io", lambda: {"bytes_read": 12})
        assert reg.snapshot()["io.bytes_read"] == 12

    def test_timer_observes_seconds(self):
        reg = MetricsRegistry()
        with reg.timer("t.seconds"):
            pass
        snap = reg.snapshot()
        assert snap["t.seconds"]["count"] == 1
        assert snap["t.seconds"]["sum"] >= 0

    def test_render_mentions_metrics(self):
        reg = MetricsRegistry()
        reg.counter("alpha").inc(3)
        assert "alpha" in reg.render()


# ---------------------------------------------------------------------------
# Unification shims: IOAccountant / MemoryGauge / OverlayClock
# ---------------------------------------------------------------------------


class TestIOAccountantShim:
    def test_util_iotrack_reexports_obs_classes(self):
        from repro.util.iotrack import IOAccountant as Shim, ChannelStats

        assert Shim is IOAccountant
        assert ChannelStats is IOStats  # dedup: one shared dataclass

    def test_by_channel_in_snapshot(self):
        acc = IOAccountant()
        acc.charge_write(10, "pass1.out")
        acc.charge_read(10, "pass1.out")
        acc.charge_write(5)  # unattributed traffic
        snap = acc.snapshot()
        assert snap["bytes_written"] == 15
        assert snap["by_channel"]["pass1.out"] == {
            "records_read": 1,
            "records_written": 1,
            "bytes_read": 10,
            "bytes_written": 10,
        }

    def test_bind_registers_as_source(self):
        reg = MetricsRegistry()
        acc = IOAccountant().bind(reg)
        acc.charge_read(7, "x")
        snap = reg.snapshot()
        assert snap["io.bytes_read"] == 7
        assert snap["io.by_channel"]["x"]["records_read"] == 1


class TestMemoryGauge:
    def test_release_clamps_at_zero(self):
        gauge = MemoryGauge()
        gauge.acquire(10)
        gauge.release(25)  # would go negative: clamp, count
        assert gauge.current_bytes == 0
        assert gauge.current_nodes == 0
        assert gauge.unbalanced_releases == 1
        gauge.release(5)  # release with nothing resident
        assert gauge.current_bytes == 0
        assert gauge.unbalanced_releases == 2

    def test_strict_mode_raises_on_underflow(self):
        gauge = MemoryGauge(strict=True)
        gauge.acquire(10)
        with pytest.raises(TelemetryError):
            gauge.release(25)

    def test_assert_balanced(self):
        gauge = MemoryGauge()
        gauge.acquire(10)
        gauge.release(10)
        gauge.assert_balanced()  # fine
        gauge.acquire(4)
        with pytest.raises(TelemetryError):
            gauge.assert_balanced()

    def test_snapshot_parity_with_accountant(self):
        gauge = MemoryGauge()
        gauge.acquire(10)
        snap = gauge.snapshot()
        assert snap["current_bytes"] == 10
        assert snap["peak_bytes"] == 10
        assert snap["peak_nodes"] == 1
        assert snap["unbalanced_releases"] == 0


class TestOverlayClockShim:
    def test_clock_feeds_registry_and_tracer(self):
        from repro.core.overlays import OverlayClock

        tracer = Tracer()
        reg = MetricsRegistry()
        clock = OverlayClock(tracer=tracer, metrics=reg)
        assert clock.run("parser overlay", lambda: 41) == 41
        snap = reg.snapshot()
        assert "overlay.parser overlay.seconds" in snap
        assert snap["overlay.total.seconds"] >= 0
        assert [s.name for s in tracer.spans(cat="overlay")] == ["parser overlay"]


# ---------------------------------------------------------------------------
# End-to-end round trips
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def traced_calc():
    tracer = Tracer()
    metrics = MetricsRegistry()
    linguist = Linguist(load_source("calc"), tracer=tracer, metrics=metrics)
    translator = linguist.make_translator(
        calc_scanner_spec(), library=library_for("calc"), backend="interp"
    )
    result = translator.translate(
        "let a = 6 ; print a * 7", tracer=tracer, metrics=metrics
    )
    return tracer, metrics, result


class TestEndToEnd:
    def test_overlay_pass_visit_hierarchy(self, traced_calc):
        tracer, _, _ = traced_calc
        assert tracer.open_spans() == 0
        overlays = tracer.spans(cat="overlay")
        passes = tracer.spans(cat="pass")
        visits = tracer.spans(cat="visit")
        semfns = tracer.spans(cat="semfn")
        assert {s.name for s in overlays} >= {
            "parser overlay",
            "evaluation overlay",
        }
        # calc's two alternating passes fuse into one left-to-right
        # traversal (repro.passes.fusion), so one pass span is traced.
        assert len(passes) == 1
        assert visits and semfns
        # Nesting: every pass span sits inside the evaluation overlay,
        # every visit inside some pass, every semfn inside some visit.
        evaluation = next(s for s in overlays if s.name == "evaluation overlay")

        def inside(inner, outer):
            return (
                outer.ts <= inner.ts
                and inner.ts + inner.dur <= outer.ts + outer.dur
            )

        assert all(inside(p, evaluation) for p in passes)
        assert all(any(inside(v, p) for p in passes) for v in visits)
        assert all(any(inside(f, v) for v in visits) for f in semfns)
        assert all(p.depth > evaluation.depth for p in passes)

    def test_structured_events_emitted(self, traced_calc):
        tracer, _, _ = traced_calc
        names = {r.name for r in tracer.instants()}
        assert {"spool.read", "spool.write", "copyrule.elided",
                "subsume.save", "subsume.restore", "dead.skip"} <= names

    def test_chrome_export_is_valid(self, traced_calc):
        tracer, _, _ = traced_calc
        doc = json.loads(chrome_trace_json(tracer.records))
        events = doc["traceEvents"]
        assert events
        for event in events:
            assert "ph" in event and "ts" in event and "name" in event
            assert event["ph"] in ("X", "i")
            if event["ph"] == "X":
                assert "dur" in event

    def test_ndjson_export_parses_per_line(self, traced_calc):
        tracer, _, _ = traced_calc
        lines = ndjson(tracer.records).splitlines()
        assert len(lines) == len(tracer.records)
        parsed = [json.loads(line) for line in lines]
        assert all("name" in obj and "ts_us" in obj for obj in parsed)
        # ordered by start time
        times = [obj["ts_us"] for obj in parsed]
        assert times == sorted(times)

    def test_summary_renders(self, traced_calc):
        tracer, metrics, _ = traced_calc
        text = summary(tracer.records, metrics)
        assert "trace summary" in text
        assert "spool.write" in text
        assert "io.bytes_written" in text

    def test_metrics_unify_io_mem_pass_overlay(self, traced_calc):
        _, metrics, _ = traced_calc
        snap = metrics.snapshot()
        assert snap["io.records_written"] > 0
        assert snap["io.by_channel"]["initial"]["records_written"] > 0
        assert snap["mem.peak_bytes"] > 0
        assert snap["mem.unbalanced_releases"] == 0
        assert snap["pass.n_passes"] == 1  # fused: calc's 2 passes merge
        assert snap["fusion.passes_eliminated"] == 1
        assert snap["pass.1.bytes_read"] > 0
        assert "overlay.parser overlay.seconds" in snap
        assert snap["evt.copyrule_elided"] > 0

    def test_disabled_path_equivalent_and_silent(self):
        linguist = Linguist(load_source("calc"))
        translator = linguist.make_translator(
            calc_scanner_spec(), library=library_for("calc"), backend="interp"
        )
        plain = translator.translate("let a = 6 ; print a * 7")
        tracer = Tracer()
        traced = translator.translate(
            "let a = 6 ; print a * 7", tracer=tracer, metrics=MetricsRegistry()
        )
        assert list(plain["OUT"]) == list(traced["OUT"])
        # The disabled run left the runtime without a tracer: no records
        # other than the ones the enabled run made.
        assert len(tracer.records) > 0

    def test_disabled_tracer_overhead_is_noop(self):
        """The no-tracer path must not allocate trace records at all —
        the <5% wall-time budget is enforced by construction (a single
        ``is not None`` check per hook)."""
        linguist = Linguist(load_source("calc"))
        translator = linguist.make_translator(
            calc_scanner_spec(), library=library_for("calc")
        )
        translator.translate("let a = 6 ; print a * 7")
        driver = translator.last_driver
        assert driver.tracer is None
        # Residency is telemetry too: no gauge runs unless asked for.
        assert driver.gauge is None
        assert not any(k.startswith("mem.") for k in driver.metrics.snapshot())
        translator.translate("let a = 6 ; print a * 7", metrics=MetricsRegistry())
        driver = translator.last_driver
        assert driver.tracer is None
        assert driver.metrics.snapshot()["mem.peak_bytes"] > 0


class TestCLI:
    def test_trace_chrome_to_file(self, tmp_path, capsys):
        from repro.cli import main
        from repro.grammars import source_path

        out = tmp_path / "trace.json"
        assert main([
            "trace", source_path("calc"), "let a = 2 ; print a + 1",
            "--format", "chrome", "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]
        cats = {e["cat"] for e in doc["traceEvents"]}
        assert {"overlay", "pass", "visit"} <= cats

    def test_trace_summary_stdout(self, capsys):
        from repro.cli import main
        from repro.grammars import source_path

        assert main([
            "trace", source_path("binary"), "101.01", "--format", "summary",
        ]) == 0
        captured = capsys.readouterr().out
        assert "trace summary" in captured

    def test_trace_unknown_scanner(self, tmp_path, capsys):
        from repro.cli import main

        f = tmp_path / "custom.ag"
        f.write_text(load_source("calc"))
        assert main(["trace", str(f), "print 1"]) == 2

    def test_trace_with_grammar_override(self, tmp_path, capsys):
        from repro.cli import main

        f = tmp_path / "custom.ag"
        f.write_text(load_source("calc"))
        assert main([
            "trace", str(f), "print 1", "--grammar", "calc",
            "--format", "summary",
        ]) == 0

    def test_profile_with_input(self, capsys):
        from repro.cli import main
        from repro.grammars import source_path

        assert main([
            "profile", source_path("calc"), "let a = 2 ; print a + 1",
        ]) == 0
        captured = capsys.readouterr().out
        assert "parser overlay" in captured
        assert "evaluation pass" in captured
        assert "peak resident" in captured

    def test_profile_without_input(self, capsys):
        from repro.cli import main
        from repro.grammars import source_path

        assert main(["profile", source_path("binary")]) == 0
        captured = capsys.readouterr().out
        assert "TOTAL" in captured

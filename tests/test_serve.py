"""Tests for the fault-tolerant translation service (``repro.serve``).

Covers the robustness contract end to end:

* the pure admission primitives (deadline, backoff, circuit breaker)
  with a fake clock — every automaton transition is pinned;
* the SRVJ1 request journal — write/replay round trip, torn-tail
  crash artifacts vs real corruption, salvage, and the ``repro fsck``
  routing;
* the supervised worker handle — crash/hang detection and restart;
* the daemon — admission control, per-request timeouts, worker death
  mid-request with bounded idempotent retries, breaker degradation,
  graceful drain, and byte-identical outputs vs ``repro batch``.
"""

import asyncio
import json
import os
import threading
from types import SimpleNamespace

import pytest

from repro.errors import (
    GrammarUnavailable,
    JournalCorruptionError,
    ServeError,
    ServerOverloaded,
    TranslationTimeout,
    WorkerCrashed,
)
from repro.evalgen.runtime import EvaluationResult
from repro.grammars import load_source, source_path
from repro.obs import MetricsRegistry
from repro.serve.admission import Backoff, CircuitBreaker, Deadline
from repro.serve.daemon import ServeConfig, TranslationServer
from repro.serve.journal import (
    RequestJournal,
    journal_path,
    replay_journal,
    salvage_journal,
    scan_journal,
)
from repro.serve.workers import WorkerHandle
from repro.testing.faults import (
    DIE_MARKER_ENV,
    HANG_MARKER_ENV,
    HANG_SECONDS_ENV,
    bit_flip,
)
from repro.workloads.generators import generate_calc_program


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def make_spec(tmp_path):
    from repro.batch import WorkerSpec

    return WorkerSpec(
        source=load_source("calc"),
        filename=source_path("calc"),
        grammar_name="calc",
        direction="r2l",
        cache_dir=str(tmp_path / "cache"),
    )


# ---------------------------------------------------------------------------
# admission primitives
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_counts_down_and_expires(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.remaining() == pytest.approx(2.0)
        assert not deadline.expired
        clock.tick(1.5)
        assert deadline.remaining() == pytest.approx(0.5)
        clock.tick(1.0)
        assert deadline.expired
        assert deadline.remaining() == 0.0

    def test_none_is_unbounded(self):
        deadline = Deadline(None, clock=FakeClock())
        assert deadline.remaining() is None
        assert not deadline.expired


class TestBackoff:
    def test_grows_exponentially_to_cap(self):
        backoff = Backoff(base=0.1, factor=2.0, cap=5.0)
        delays = [backoff.next_delay() for _ in range(10)]
        # monotone up to the cap (jitter is at most 10%)
        assert delays[0] < delays[1] < delays[2]
        assert all(d <= 5.0 * 1.1 for d in delays)
        assert delays[-1] >= 5.0

    def test_deterministic(self):
        a = Backoff()
        b = Backoff()
        assert [a.next_delay() for _ in range(6)] == [
            b.next_delay() for _ in range(6)
        ]

    def test_reset(self):
        backoff = Backoff()
        first = backoff.next_delay()
        backoff.next_delay()
        backoff.reset()
        assert backoff.next_delay() == first


class TestCircuitBreaker:
    def make(self, clock, threshold=3, reset=5.0, metrics=None):
        return CircuitBreaker(
            grammar="calc",
            failure_threshold=threshold,
            reset_seconds=reset,
            max_reset_seconds=20.0,
            clock=clock,
            metrics=metrics,
        )

    def test_opens_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(2):
            breaker.admit()
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        with pytest.raises(GrammarUnavailable) as excinfo:
            breaker.admit()
        assert excinfo.value.retry_after == pytest.approx(5.0)
        assert not breaker.available

    def test_success_resets_failure_count(self):
        breaker = self.make(FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # e.g. a per-input error: service worked
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.tick(5.1)
        assert breaker.available
        breaker.admit()  # the probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        with pytest.raises(GrammarUnavailable):
            breaker.admit()  # second request while the probe is out

    def test_probe_success_closes(self):
        clock = FakeClock()
        metrics = MetricsRegistry()
        breaker = self.make(clock, metrics=metrics)
        for _ in range(3):
            breaker.record_failure()
        clock.tick(5.1)
        breaker.admit()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.admit()  # freely admitting again
        snap = metrics.snapshot()
        assert snap["serve.breaker_state"] == 0
        assert snap["serve.breaker.open"] == 1
        assert snap["serve.breaker.closed"] == 1

    def test_probe_failure_doubles_reset_time(self):
        clock = FakeClock()
        breaker = self.make(clock, reset=5.0)
        for _ in range(3):
            breaker.record_failure()
        clock.tick(5.1)
        breaker.admit()
        breaker.record_failure()  # probe failed
        assert breaker.state == CircuitBreaker.OPEN
        clock.tick(5.1)  # old reset time is NOT enough any more
        with pytest.raises(GrammarUnavailable):
            breaker.admit()
        clock.tick(5.1)  # 10s total: doubled reset reached
        breaker.admit()
        assert breaker.state == CircuitBreaker.HALF_OPEN
        # ...and a success restores the base reset time
        breaker.record_success()
        assert breaker.reset_seconds == 5.0

    def test_release_probe_unwedges_half_open(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.tick(5.1)
        breaker.admit()
        # The probe got rejected at a full queue: neither success nor
        # failure — without release_probe() the breaker would wedge.
        breaker.release_probe()
        breaker.admit()
        assert breaker.state == CircuitBreaker.HALF_OPEN


# ---------------------------------------------------------------------------
# the request journal
# ---------------------------------------------------------------------------


class TestJournal:
    def write_journal(self, path, seal=True):
        journal = RequestJournal(str(path), grammars=["calc"])
        journal.admitted(1, "calc", "in-1")
        journal.completed(1, "calc", "out-1\n", 0.01, worker_id=0)
        journal.admitted(2, "calc", "in-2")
        journal.failed(2, "calc", "ParseError", "bad input")
        journal.admitted(3, "calc", "in-3")  # in flight at the "kill"
        if seal:
            journal.seal()
        else:
            journal.close()
        return journal.path

    def test_directory_vs_file_paths(self, tmp_path):
        assert journal_path(str(tmp_path)) == str(
            tmp_path / "requests.ndjson"
        )
        missing_dir = str(tmp_path / "not-yet")
        assert journal_path(missing_dir) == os.path.join(
            missing_dir, "requests.ndjson"
        )
        explicit = str(tmp_path / "mine.ndjson")
        assert journal_path(explicit) == explicit

    def test_write_scan_replay_round_trip(self, tmp_path):
        path = self.write_journal(tmp_path / "j")
        report = scan_journal(path)
        assert report.ok and report.sealed and not report.torn_tail
        state = replay_journal(path)
        assert state.sealed
        assert set(state.completed) == {1}
        assert state.failed[2][0] == "ParseError"
        assert state.in_flight == [3]
        assert state.duplicates == []
        assert state.n_admitted == 3

    def test_unsealed_journal_is_ok_not_corrupt(self, tmp_path):
        path = self.write_journal(tmp_path / "j", seal=False)
        report = scan_journal(path)
        assert report.ok and not report.sealed
        assert replay_journal(path).completed == {
            1: replay_journal(path).completed[1]
        }

    def test_torn_tail_is_expected_after_kill(self, tmp_path):
        path = self.write_journal(tmp_path / "j", seal=False)
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"e":"done","i":5,"id":9,"sha":"abc')  # torn mid-write
        report = scan_journal(path)
        assert report.ok and report.torn_tail and not report.sealed
        state = replay_journal(path)
        assert state.torn_tail
        assert 9 not in state.completed  # the torn record does not count

    def test_bit_flip_is_corruption(self, tmp_path):
        path = self.write_journal(tmp_path / "j")
        bit_flip(path, os.path.getsize(path) // 2)
        report = scan_journal(path)
        assert not report.ok
        assert report.error.reason in ("checksum", "framing", "seal")
        with pytest.raises(JournalCorruptionError):
            replay_journal(path)

    def test_truncated_seal_detected(self, tmp_path):
        path = self.write_journal(tmp_path / "j")
        # drop one mid-stream record: the seal no longer matches
        with open(path, "r", encoding="utf-8") as f:
            lines = f.readlines()
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(lines[:2] + lines[3:])
        report = scan_journal(path)
        assert not report.ok
        assert "SRVJ1, seal does not match the stream" in report.render()

    def test_salvage_recovers_valid_prefix(self, tmp_path):
        path = self.write_journal(tmp_path / "j", seal=False)
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"torn')
        out = str(tmp_path / "salvaged.ndjson")
        salvage_journal(path, out)
        report = scan_journal(out)
        assert report.ok and report.sealed
        state = replay_journal(out)
        assert set(state.completed) == {1} and set(state.failed) == {2}

    def test_duplicate_done_records_are_reported(self, tmp_path):
        journal = RequestJournal(str(tmp_path / "j"), grammars=["calc"])
        journal.admitted(1, "calc", "x")
        journal.completed(1, "calc", "out\n", 0.01)
        journal.completed(1, "calc", "out\n", 0.01)  # the invariant breach
        journal.seal()
        state = replay_journal(journal.path)
        assert state.duplicates == [1]

    def test_rotation_preserves_previous_run(self, tmp_path):
        first = self.write_journal(tmp_path / "j")
        journal = RequestJournal(str(tmp_path / "j"), grammars=["calc"])
        journal.seal()
        assert journal.rotated_from is not None
        assert os.path.exists(journal.rotated_from)
        assert scan_journal(journal.rotated_from).ok
        assert journal.path == first

    def test_writing_after_seal_raises(self, tmp_path):
        journal = RequestJournal(str(tmp_path / "j"))
        journal.seal()
        journal.seal()  # idempotent
        with pytest.raises(JournalCorruptionError):
            journal.admitted(1, "calc", "late")


class TestFsckJournalCLI:
    def run_cli(self, argv):
        from repro.cli import main

        return main(argv)

    def test_sealed_journal_fscks_clean(self, tmp_path, capsys):
        path = TestJournal().write_journal(tmp_path / "j")
        assert self.run_cli(["fsck", path]) == 0
        out = capsys.readouterr().out
        assert "SRVJ1, sealed" in out
        assert "1 completed, 1 failed, 1 in flight" in out

    def test_unsealed_journal_fscks_clean(self, tmp_path, capsys):
        path = TestJournal().write_journal(tmp_path / "j", seal=False)
        assert self.run_cli(["fsck", path]) == 0
        assert "UNSEALED" in capsys.readouterr().out

    def test_corrupt_journal_exits_one(self, tmp_path, capsys):
        path = TestJournal().write_journal(tmp_path / "j")
        bit_flip(path, os.path.getsize(path) // 2)
        assert self.run_cli(["fsck", path]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_damage_before_the_seal_is_not_called_unsealed(
        self, tmp_path, capsys
    ):
        path = TestJournal().write_journal(tmp_path / "j")
        with open(path, "rb") as f:
            record_1 = len(f.readline())
        bit_flip(path, record_1 + 8, bit=3)
        assert self.run_cli(["fsck", path]) == 1
        out = capsys.readouterr().out
        assert "SRVJ1, seal not reached (the scan stopped at the damage)" in out
        assert "UNSEALED" not in out
        assert "CORRUPT at record 1" in out
        assert self.run_cli(["fsck", path, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["sealed"] is None and doc["error"]["locus"] == "record 1"

    def test_salvage_then_clean(self, tmp_path, capsys):
        path = TestJournal().write_journal(tmp_path / "j", seal=False)
        with open(path, "a", encoding="utf-8") as f:
            f.write('{"torn')
        out = str(tmp_path / "fixed.ndjson")
        assert self.run_cli(["fsck", path, "--salvage", out]) == 0
        capsys.readouterr()
        assert self.run_cli(["fsck", out]) == 0


# ---------------------------------------------------------------------------
# supervised workers
# ---------------------------------------------------------------------------


class TestWorkerHandle:
    def test_call_round_trip(self, tmp_path):
        handle = WorkerHandle(make_spec(tmp_path)).start()
        try:
            answer = handle.call(7, "let a = 6 ; print a * 7")
            job_id, ok, attrs, _, _, _, seconds = answer
            assert job_id == 7 and ok
            assert seconds >= 0
        finally:
            handle.stop()
        assert not handle.alive

    def test_worker_death_raises_typed_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv(DIE_MARKER_ENV, "@@die@@")
        handle = WorkerHandle(make_spec(tmp_path)).start()
        try:
            with pytest.raises(WorkerCrashed) as excinfo:
                handle.call(1, "let a = 1 ; print a @@die@@")
            assert excinfo.value.exitcode == 3
        finally:
            handle.kill()

    def test_hang_raises_timeout_and_restart_recovers(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(HANG_MARKER_ENV, "@@hang@@")
        metrics = MetricsRegistry()
        handle = WorkerHandle(make_spec(tmp_path), metrics=metrics).start()
        try:
            with pytest.raises(TranslationTimeout):
                handle.call(1, "@@hang@@", timeout=0.4)
            handle.restart()
            answer = handle.call(2, "let a = 2 ; print a")
            assert answer[1] is True
            assert metrics.snapshot()["serve.worker_restarts"] == 1
        finally:
            handle.kill()


class _FakeTranslator:
    """A translator with a scanner that records how each job ran."""

    def __init__(self):
        self.scanner = SimpleNamespace(tokens=lambda text: iter(text.split()))
        self.calls = []

    def translate(self, text, memo_dir=None):
        threads = sorted(t.name for t in threading.enumerate())
        self.calls.append(("translate", text, memo_dir, threads))
        if text == "bad":
            raise ValueError("bad input")
        return EvaluationResult({"OUT": [len(text)]}, 1)

    def translate_tokens(self, tokens, memo_dir=None):
        self.calls.append(("translate_tokens", list(tokens), memo_dir, []))
        return EvaluationResult({"OUT": []}, 1)


class TestWorkerLoop:
    def test_each_job_is_one_translate_call(self):
        """The worker loop runs every job through the same
        ``translate(text, memo_dir=...)`` call as sequential batch, on
        its own thread, with no scan-ahead stage beside it."""
        import queue

        from repro.serve.workers import worker_main

        translator = _FakeTranslator()
        request_q, response_q = queue.Queue(), queue.Queue()
        for job in [(1, "a b"), (2, "bad"), (3, "c"), None]:
            request_q.put(job)
        worker_main(
            SimpleNamespace(memo_dir="memo-w0"),
            request_q,
            response_q,
            None,
            0.5,
            translator=translator,
        )
        assert [call[:3] for call in translator.calls] == [
            ("translate", "a b", "memo-w0"),
            ("translate", "bad", "memo-w0"),
            ("translate", "c", "memo-w0"),
        ]
        assert not any(
            "repro-worker-scan" in call[3] for call in translator.calls
        )
        answers = [response_q.get_nowait() for _ in range(3)]
        assert [a[:6] for a in answers] == [
            (1, True, {"OUT": [3]}, 1, None, None),
            (2, False, None, 0, "ValueError", "bad input"),
            (3, True, {"OUT": [1]}, 1, None, None),
        ]
        assert response_q.empty()


# ---------------------------------------------------------------------------
# the daemon
# ---------------------------------------------------------------------------


def serve_config(tmp_path, **overrides):
    defaults = dict(
        workers=2,
        queue_depth=8,
        request_timeout=30.0,
        drain_timeout=10.0,
        journal_dir=str(tmp_path / "journal"),
        breaker_reset_seconds=0.5,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def run_server(tmp_path, body, metrics=None, **config_overrides):
    """Start a calc server, run ``await body(server)``, always drain."""

    async def main():
        server = TranslationServer(
            {"calc": make_spec(tmp_path)},
            serve_config(tmp_path, **config_overrides),
            metrics=metrics,
        )
        await server.start()
        try:
            return await body(server)
        finally:
            server.request_shutdown()
            await server.drain()

    return asyncio.run(main())


class TestTranslationServer:
    def test_submit_matches_batch_output(self, tmp_path):
        from repro.batch import build_batch_translator
        from repro.evalgen.runtime import render_root_attrs

        texts = [generate_calc_program(4 + i % 3, seed=i) for i in range(6)]
        translator = build_batch_translator(make_spec(tmp_path))
        expected = [
            "\n".join(render_root_attrs(translator.translate(t).root_attrs))
            + "\n"
            for t in texts
        ]

        async def body(server):
            results = await asyncio.gather(
                *[server.submit("calc", t) for t in texts]
            )
            return [r.output for r in results]

        served = run_server(tmp_path, body)
        assert served == expected  # byte-identical to the batch renderer

    def test_per_input_error_is_not_infrastructure(self, tmp_path):
        metrics = MetricsRegistry()

        async def body(server):
            result = await server.submit("calc", "let ( = broken")
            assert not result.ok
            assert result.error_type == "ParseError"
            assert server.services["calc"].breaker.state == "closed"

        run_server(tmp_path, body, metrics=metrics)
        snap = metrics.snapshot()
        assert snap["serve.input_errors"] == 1
        assert "serve.failed" not in snap

    def test_unknown_grammar_raises(self, tmp_path):
        async def body(server):
            with pytest.raises(ServeError, match="unknown grammar"):
                await server.submit("nope", "x")

        run_server(tmp_path, body)

    def test_non_finite_timeout_is_rejected_before_admission(
        self, tmp_path
    ):
        metrics = MetricsRegistry()

        async def body(server):
            for _ in range(3):
                with pytest.raises(ValueError, match="positive, finite"):
                    await server.submit(
                        "calc", "let a = 1 ; print a", timeout=float("nan")
                    )
            assert server.services["calc"].breaker.state == "closed"

        run_server(tmp_path, body, metrics=metrics)
        snap = metrics.snapshot()
        assert snap.get("serve.timeouts", 0) == 0
        assert snap.get("serve.worker_restarts", 0) == 0
        assert snap.get("serve.admitted", 0) == 0

    def test_queue_full_rejects_with_retry_after(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(HANG_MARKER_ENV, "@@hang@@")
        monkeypatch.setenv(HANG_SECONDS_ENV, "5")
        metrics = MetricsRegistry()

        async def body(server):
            # one worker, depth-1 queue: a hung request + a queued one
            # saturate the grammar; the next submit must bounce.
            hung = asyncio.ensure_future(
                server.submit("calc", "@@hang@@", timeout=1.5)
            )
            await asyncio.sleep(0.3)  # dispatcher picks the hang up
            queued = asyncio.ensure_future(
                server.submit("calc", "let a = 1 ; print a")
            )
            await asyncio.sleep(0.05)
            with pytest.raises(ServerOverloaded) as excinfo:
                await server.submit("calc", "let a = 2 ; print a")
            assert excinfo.value.retry_after > 0
            with pytest.raises(TranslationTimeout):
                await hung
            result = await queued  # served once the worker restarts
            assert result.ok

        run_server(
            tmp_path, body, metrics=metrics, workers=1, queue_depth=1
        )
        snap = metrics.snapshot()
        assert snap["serve.rejected"] == 1
        assert snap["serve.timeouts"] >= 1
        assert snap["serve.worker_restarts"] >= 1

    def test_draining_rejects_new_requests(self, tmp_path):
        async def body(server):
            server.request_shutdown()
            with pytest.raises(ServerOverloaded, match="draining"):
                await server.submit("calc", "let a = 1 ; print a")

        run_server(tmp_path, body)

    def test_worker_death_retries_on_fresh_worker(
        self, tmp_path, monkeypatch
    ):
        """The crashed worker's incarnation inherited the DIE marker;
        the restarted incarnation (forked after the env is cleared)
        does not — so the bounded re-dispatch succeeds and proves
        idempotent retry end to end."""
        metrics = MetricsRegistry()
        # The marker doubles as a valid calc identifier, so the text
        # both triggers the fault hook and still translates cleanly.
        os.environ[DIE_MARKER_ENV] = "diemarker"

        async def body(server):
            del os.environ[DIE_MARKER_ENV]
            result = await server.submit(
                "calc", "let diemarker = 3 ; print diemarker"
            )
            assert result.ok
            assert result.retries == 1
            return result

        try:
            run_server(
                tmp_path, body, metrics=metrics, workers=1, max_retries=1
            )
        finally:
            os.environ.pop(DIE_MARKER_ENV, None)
        snap = metrics.snapshot()
        assert snap["serve.retries"] == 1
        assert snap["serve.worker_restarts"] >= 1
        assert snap["serve.completed"] == 1

    def test_retries_are_bounded_then_fail_fast(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(DIE_MARKER_ENV, "@@die@@")
        metrics = MetricsRegistry()

        async def body(server):
            with pytest.raises(WorkerCrashed):
                await server.submit("calc", "print 1 -- @@die@@")

        run_server(
            tmp_path,
            body,
            metrics=metrics,
            workers=1,
            max_retries=1,
            breaker_threshold=10,
        )
        snap = metrics.snapshot()
        assert snap["serve.retries"] == 1  # exactly one re-dispatch
        assert snap["serve.failed"] == 1

    def test_breaker_degrades_persistently_failing_grammar(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(DIE_MARKER_ENV, "@@die@@")
        metrics = MetricsRegistry()

        async def body(server):
            with pytest.raises(WorkerCrashed):
                await server.submit("calc", "print 1 -- @@die@@")
            # threshold=1 and retries=0: the breaker is now open
            assert server.services["calc"].breaker.state == "open"
            with pytest.raises(GrammarUnavailable) as excinfo:
                await server.submit("calc", "let a = 1 ; print a")
            assert excinfo.value.retry_after > 0
            assert server.health()["grammars"]["calc"]["breaker"] == "open"

        run_server(
            tmp_path,
            body,
            metrics=metrics,
            workers=1,
            max_retries=0,
            breaker_threshold=1,
            breaker_reset_seconds=30.0,
        )
        assert metrics.snapshot()["serve.breaker.open"] == 1

    def test_drain_under_load_journals_every_request_exactly_once(
        self, tmp_path
    ):
        texts = [generate_calc_program(5, seed=i) for i in range(12)]
        metrics = MetricsRegistry()

        async def body(server):
            tasks = [
                asyncio.ensure_future(server.submit("calc", t))
                for t in texts
            ]
            await asyncio.sleep(0.05)  # some in flight, some queued
            server.request_shutdown()
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            results = [o for o in outcomes if not isinstance(o, Exception)]
            assert results, "drain must finish admitted in-flight work"
            assert all(r.ok for r in results)
            return [r.request_id for r in results]

        completed_ids = run_server(tmp_path, body, metrics=metrics)
        state = replay_journal(str(tmp_path / "journal"))
        assert state.sealed
        assert state.duplicates == []
        assert state.in_flight == []  # nothing lost in the drain
        assert sorted(state.completed) == sorted(completed_ids)

    def test_drain_deadline_overrun_fails_inflight_fast(
        self, tmp_path, monkeypatch
    ):
        """A hung request cut off by the drain deadline must resolve:
        the awaiting client gets a typed error (not a forever-pending
        future) and the sealed journal carries its terminal record."""
        monkeypatch.setenv(HANG_MARKER_ENV, "@@hang@@")
        monkeypatch.setenv(HANG_SECONDS_ENV, "30")
        metrics = MetricsRegistry()

        async def body(server):
            hung = asyncio.ensure_future(server.submit("calc", "@@hang@@"))
            await asyncio.sleep(0.3)  # the dispatcher holds it in flight
            assert server.services["calc"].in_flight
            server.request_shutdown()
            clean = await server.drain(timeout=0.05)
            assert clean is False
            with pytest.raises(ServeError, match="drained"):
                await asyncio.wait_for(hung, timeout=1.0)

        run_server(tmp_path, body, metrics=metrics, workers=1)
        snap = metrics.snapshot()
        assert snap["serve.failed"] == 1
        assert snap["serve.drain_deadline_overruns"] == 1
        state = replay_journal(str(tmp_path / "journal"))
        assert state.sealed
        assert state.in_flight == []  # the straggler has a terminal record
        assert [et for et, _ in state.failed.values()] == ["DrainTimeout"]

    def test_journal_replay_matches_served_outputs(self, tmp_path):
        from repro.serve.journal import sha256_text

        texts = [generate_calc_program(4, seed=i) for i in range(4)]

        async def body(server):
            results = await asyncio.gather(
                *[server.submit("calc", t) for t in texts]
            )
            return {r.request_id: r.output for r in results}

        outputs = run_server(tmp_path, body)
        state = replay_journal(str(tmp_path / "journal"))
        assert state.completed == {
            rid: sha256_text(output) for rid, output in outputs.items()
        }


class TestServeWorkerStart:
    """Serve workers are forked from the daemon after its warm build and
    run the translator they inherit, so a supervised restart needs no
    build cache."""

    def test_restart_inherits_translator_without_cache(self, tmp_path):
        """Kill a worker mid-request with the build cache *deleted*:
        the replacement incarnation can only come up by running the
        daemon's inherited translator.  The cache directory staying
        absent is the proof — any rebuild/rehydration path would
        recreate it via ``BuildCache.store``."""
        import shutil

        metrics = MetricsRegistry()
        os.environ[DIE_MARKER_ENV] = "diemarker"
        cache_dir = str(tmp_path / "cache")

        async def body(server):
            del os.environ[DIE_MARKER_ENV]
            # Ambush every rebuild path: a restarted worker that
            # hydrated its own translator would need the cache dir.
            shutil.rmtree(cache_dir)
            result = await server.submit(
                "calc", "let diemarker = 3 ; print diemarker"
            )
            assert result.ok
            assert result.retries == 1  # the crash really happened
            assert not os.path.exists(cache_dir), (
                "restarted worker rehydrated through the build cache "
                "instead of running the inherited translator"
            )

        try:
            run_server(
                tmp_path, body, metrics=metrics, workers=1, max_retries=1
            )
        finally:
            os.environ.pop(DIE_MARKER_ENV, None)
        assert metrics.snapshot()["serve.worker_restarts"] >= 1


class TestHttpFrontend:
    @staticmethod
    async def http(host, port, method, target, body=b""):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(
            (
                f"{method} {target} HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            ).encode()
            + body
        )
        await writer.drain()
        raw = await reader.read()
        writer.close()
        await writer.wait_closed()
        head, _, payload = raw.partition(b"\r\n\r\n")
        return int(head.split(b" ", 2)[1]), head, payload

    def test_http_round_trip(self, tmp_path):
        from repro.serve.http import HttpFrontend

        async def body(server):
            frontend = HttpFrontend(server, "127.0.0.1", 0)
            host, port = await frontend.start()
            try:
                status, head, payload = await self.http(
                    host, port, "POST", "/translate",
                    b"let a = 6 ; print a * 7",
                )
                assert status == 200
                assert payload == b"OUT = [42]\n"
                assert b"X-Request-Id:" in head

                status, _, payload = await self.http(
                    host, port, "POST", "/translate", b"let ( ="
                )
                assert status == 422
                assert json.loads(payload)["error"] == "ParseError"

                status, _, payload = await self.http(
                    host, port, "GET", "/healthz"
                )
                assert status == 200
                assert json.loads(payload)["status"] == "ok"

                status, _, payload = await self.http(
                    host, port, "GET", "/stats"
                )
                assert status == 200
                assert json.loads(payload)["serve.admitted"] == 2

                status, _, _ = await self.http(host, port, "GET", "/nope")
                assert status == 404
                status, _, _ = await self.http(
                    host, port, "POST", "/translate?grammar=unknown", b"x"
                )
                assert status == 500
                status, _, _ = await self.http(
                    host, port, "POST", "/translate?timeout=banana", b"x"
                )
                assert status == 400
            finally:
                await frontend.stop()

        run_server(tmp_path, body, metrics=MetricsRegistry())

    def test_bad_timeout_is_rejected_before_admission(self, tmp_path):
        """``?timeout=`` that is NaN, infinite or not positive gets 400:
        admitted, it would time out at once, kill a worker and count a
        breaker failure on every request."""
        from repro.serve.http import HttpFrontend

        metrics = MetricsRegistry()

        async def body(server):
            frontend = HttpFrontend(server, "127.0.0.1", 0)
            host, port = await frontend.start()
            try:
                for value in ("nan", "inf", "0", "-1"):
                    status, _, payload = await self.http(
                        host, port, "POST", f"/translate?timeout={value}",
                        b"let a = 6 ; print a * 7",
                    )
                    assert status == 400, value
                    assert json.loads(payload)["error"] == "BadRequest"
                status, _, payload = await self.http(
                    host, port, "POST", "/translate?timeout=5",
                    b"let a = 6 ; print a * 7",
                )
                assert status == 200
                assert payload == b"OUT = [42]\n"
                assert server.services["calc"].breaker.consecutive_failures == 0
            finally:
                await frontend.stop()

        run_server(tmp_path, body, metrics=metrics)
        snap = metrics.snapshot()
        assert snap["serve.admitted"] == 1
        assert snap.get("serve.worker_restarts", 0) == 0
        assert snap.get("serve.timeouts", 0) == 0

    def test_oversized_body_gets_413_and_connection_close(self, tmp_path):
        """The 413 path never reads the oversized body, so the server
        must close the connection instead of honouring keep-alive —
        reusing it would parse the unread body bytes as a request head."""
        from repro.serve.http import MAX_BODY_BYTES, HttpFrontend

        async def body(server):
            frontend = HttpFrontend(server, "127.0.0.1", 0)
            host, port = await frontend.start()
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    (
                        "POST /translate HTTP/1.1\r\nHost: t\r\n"
                        f"Content-Length: {MAX_BODY_BYTES + 1}\r\n"
                        "Connection: keep-alive\r\n\r\n"
                    ).encode()
                    + b"only the start of a huge body"
                )
                await writer.drain()
                raw = await asyncio.wait_for(reader.read(), timeout=5.0)
                writer.close()
                await writer.wait_closed()
                head, _, payload = raw.partition(b"\r\n\r\n")
                assert int(head.split(b" ", 2)[1]) == 413
                assert b"Connection: close" in head
                assert json.loads(payload)["error"] == "PayloadTooLarge"
            finally:
                await frontend.stop()

        run_server(tmp_path, body)

    def test_healthz_degrades_while_draining(self, tmp_path):
        from repro.serve.http import HttpFrontend

        async def body(server):
            frontend = HttpFrontend(server, "127.0.0.1", 0)
            host, port = await frontend.start()
            try:
                server.request_shutdown()
                status, _, payload = await self.http(
                    host, port, "GET", "/healthz"
                )
                assert status == 503
                assert json.loads(payload)["status"] == "draining"
            finally:
                await frontend.stop()

        run_server(tmp_path, body)

# ---------------------------------------------------------------------------
# disk governance
# ---------------------------------------------------------------------------


class TestServeGovernance:
    def test_low_disk_degrades_then_recovers_with_gap(
        self, tmp_path, monkeypatch
    ):
        """The full watermark story: trip -> 503 + Retry-After with the
        journal suspended, /healthz still 200 (degraded, not down),
        recover -> admission resumes and the sealed journal carries an
        explicit gap marker."""
        from repro.governance import FAKE_DISK_FREE_ENV
        from repro.serve.http import HttpFrontend

        monkeypatch.setenv(FAKE_DISK_FREE_ENV, "10000")

        async def body(server):
            frontend = HttpFrontend(server, "127.0.0.1", 0)
            host, port = await frontend.start()
            try:
                ok = await server.submit("calc", "let a = 2 ; print a")
                assert ok.ok

                os.environ[FAKE_DISK_FREE_ENV] = "100"  # below low
                await asyncio.sleep(0.4)
                assert server.degraded
                assert server.journal.suspended
                with pytest.raises(GrammarUnavailable) as excinfo:
                    await server.submit("calc", "let a = 3 ; print a")
                assert excinfo.value.retry_after > 0
                status, head, payload = await TestHttpFrontend.http(
                    host, port, "POST", "/translate", b"let a = 1 ; print a"
                )
                assert status == 503
                assert b"Retry-After:" in head
                status, _, payload = await TestHttpFrontend.http(
                    host, port, "GET", "/healthz"
                )
                health = json.loads(payload)
                assert status == 200  # degraded, not down
                assert health["status"] == "degraded"
                assert health["grammars"]["calc"]["state"] == "degraded"
                assert "low-disk" in health["grammars"]["calc"]["reasons"]
                assert health["journal"]["suspended"] is True
                assert health["disk"]["trips"] == 1

                os.environ[FAKE_DISK_FREE_ENV] = "10000"  # above high
                await asyncio.sleep(0.4)
                assert not server.degraded
                assert not server.journal.suspended
                ok = await server.submit("calc", "let a = 5 ; print a")
                assert ok.ok
            finally:
                await frontend.stop()

        metrics = MetricsRegistry()
        run_server(
            tmp_path, body, metrics=metrics,
            disk_low_bytes=500, disk_high_bytes=800,
            governance_interval=0.05,
        )
        snap = metrics.snapshot()
        assert snap["governance.serve_degraded"] == 1
        assert snap["governance.serve_recovered"] == 1
        report = scan_journal(journal_path(str(tmp_path / "journal")))
        assert report.ok and report.sealed
        assert report.gaps == 1  # the suspension is an explicit marker

    def test_healthz_503_only_when_all_grammars_unavailable(self, tmp_path):
        from repro.serve.http import HttpFrontend

        async def body(server):
            frontend = HttpFrontend(server, "127.0.0.1", 0)
            host, port = await frontend.start()
            try:
                breaker = server.services["calc"].breaker
                for _ in range(breaker.failure_threshold):
                    breaker.record_failure()
                assert breaker.state == "open"
                status, _, payload = await TestHttpFrontend.http(
                    host, port, "GET", "/healthz"
                )
                health = json.loads(payload)
                assert status == 503  # the ONLY grammar is unavailable
                assert health["status"] == "unavailable"
                calc = health["grammars"]["calc"]
                assert calc["state"] == "unavailable"
                assert "breaker-open" in calc["reasons"]
            finally:
                await frontend.stop()

        run_server(tmp_path, body)

    def test_startup_doctor_sweeps_debris(self, tmp_path):
        journal_dir = tmp_path / "journal"
        journal_dir.mkdir()
        leak = journal_dir / "requests.ndjson.tmp"
        leak.write_bytes(b"half a frame")

        async def body(server):
            assert server.doctor_report is not None
            assert not leak.exists()
            result = await server.submit("calc", "let a = 2 ; print a")
            assert result.ok

        run_server(tmp_path, body)

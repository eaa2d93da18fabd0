"""Tests for the parallel batch driver.

The contract (ISSUE acceptance): ``repro batch -j 4`` over ≥20
generated inputs produces output *byte-identical* to sequential
translation, with one injected failure isolated in its
:class:`~repro.batch.BatchItem` while every other input completes.
"""

import os

import pytest

from repro.batch import (
    BatchItem,
    BatchReport,
    WorkerSpec,
    build_batch_translator,
)
from repro.errors import EvaluationError
from repro.grammars import load_source, source_path
from repro.obs import MetricsRegistry, Tracer
from repro.workloads.generators import generate_calc_program
from tests.evalharness import canonical_attrs

#: ≥20 generated inputs + 1 injected syntax error in the middle.
INPUTS = [generate_calc_program(4 + i % 7, seed=100 + i) for i in range(20)]
BAD_INDEX = 10
INPUTS.insert(BAD_INDEX, "let ( = broken")


def make_translator(tmp_path, metrics=None, tracer=None):
    spec = WorkerSpec(
        source=load_source("calc"),
        filename=source_path("calc"),
        grammar_name="calc",
        direction="r2l",
        cache_dir=str(tmp_path / "cache"),
    )
    return build_batch_translator(spec, metrics=metrics, tracer=tracer)


def summarize(report: BatchReport):
    return [
        (item.index, item.ok,
         canonical_attrs(item.result.root_attrs) if item.ok else item.error_type)
        for item in report.items
    ]


class TestBatch:
    def test_parallel_matches_sequential_with_injected_failure(self, tmp_path):
        translator = make_translator(tmp_path)
        seq = translator.translate_many(INPUTS, jobs=1)
        par = translator.translate_many(INPUTS, jobs=4)
        assert len(seq.items) == len(par.items) == len(INPUTS) >= 21
        assert summarize(seq) == summarize(par)
        # exactly the injected failure failed, and it is isolated
        assert seq.n_failed == par.n_failed == 1
        assert not seq.items[BAD_INDEX].ok
        assert seq.items[BAD_INDEX].error_type == "ParseError"
        assert all(
            item.ok for item in par.items if item.index != BAD_INDEX
        )
        # ...and matches a plain one-at-a-time translate()
        for item in seq.items:
            if item.ok:
                direct = translator.translate(INPUTS[item.index])
                assert canonical_attrs(direct.root_attrs) == canonical_attrs(
                    item.result.root_attrs
                )

    def test_report_shape(self, tmp_path):
        translator = make_translator(tmp_path)
        report = translator.translate_many(INPUTS[:3], jobs=1)
        assert report.ok and report.n_ok == 3 and report.n_failed == 0
        assert [item.index for item in report.items] == [0, 1, 2]
        assert all(item.seconds >= 0 for item in report.items)
        report.raise_if_failed()  # no-op when clean

    def test_raise_if_failed(self, tmp_path):
        translator = make_translator(tmp_path)
        report = translator.translate_many(["garbage (("], jobs=1)
        assert not report.ok
        assert report.failures()[0].error_type == "ParseError"
        with pytest.raises(EvaluationError, match="1 of 1 batch input"):
            report.raise_if_failed()

    def test_metrics_and_trace(self, tmp_path):
        metrics = MetricsRegistry()
        tracer = Tracer()
        translator = make_translator(tmp_path)
        translator.translate_many(
            INPUTS[:5], jobs=1, metrics=metrics, tracer=tracer
        )
        snap = metrics.snapshot()
        assert snap["batch.inputs"] == 5
        assert snap["batch.ok"] == 5
        assert snap.get("batch.failed", 0) == 0
        assert snap["batch.jobs"] == 1
        assert snap["batch.item.seconds"]["count"] == 5
        names = [r.name for r in tracer.records]
        assert names.count("batch.item") == 5
        assert "batch.start" in names and "batch.done" in names

    def test_parallel_needs_spawn_spec(self, tmp_path):
        """A translator built outside the batch path cannot fan out."""
        from repro.core import Linguist
        from repro.grammars import scanner_and_library

        spec, library = scanner_and_library("calc")
        translator = Linguist(load_source("calc")).make_translator(
            spec, library=library
        )
        with pytest.raises(EvaluationError, match="worker spec"):
            translator.translate_many(["let a = 1 ; print a"], jobs=2)
        # sequential still fine without a spec
        report = translator.translate_many(["let a = 1 ; print a"], jobs=1)
        assert report.ok

    def test_workers_rebuild_when_cache_cleared(self, tmp_path):
        """Clearing the cache between construction and fan-out degrades
        to a per-worker rebuild — slower, never wrong."""
        from repro.buildcache import BuildCache

        translator = make_translator(tmp_path)
        BuildCache(str(tmp_path / "cache")).clear()
        report = translator.translate_many(INPUTS[:4], jobs=2)
        assert report.ok
        seq = translator.translate_many(INPUTS[:4], jobs=1)
        assert summarize(report) == summarize(seq)


class TestBatchTimeout:
    def test_hung_input_becomes_failed_item(self, tmp_path, monkeypatch):
        from repro.testing.faults import HANG_MARKER_ENV, HANG_SECONDS_ENV

        monkeypatch.setenv(HANG_MARKER_ENV, "@@hang@@")
        monkeypatch.setenv(HANG_SECONDS_ENV, "30")
        metrics = MetricsRegistry()
        translator = make_translator(tmp_path)
        texts = [INPUTS[0], "@@hang@@", INPUTS[1]]
        report = translator.translate_many(
            texts, jobs=2, timeout=1.0, metrics=metrics
        )
        assert len(report.items) == 3
        assert not report.interrupted
        hung = report.items[1]
        assert not hung.ok
        assert hung.error_type == "TranslationTimeout"
        assert "deadline" in hung.error
        # the other inputs completed on healthy (or restarted) workers
        assert report.items[0].ok and report.items[2].ok
        assert metrics.snapshot()["batch.timeouts"] == 1

    def test_timeout_with_one_job_uses_supervised_worker(
        self, tmp_path, monkeypatch
    ):
        """``jobs=1`` with a timeout still runs supervised: an
        in-process translation could never be preempted."""
        from repro.testing.faults import HANG_MARKER_ENV, HANG_SECONDS_ENV

        monkeypatch.setenv(HANG_MARKER_ENV, "@@hang@@")
        monkeypatch.setenv(HANG_SECONDS_ENV, "30")
        translator = make_translator(tmp_path)
        report = translator.translate_many(
            ["@@hang@@", INPUTS[0]], jobs=1, timeout=1.0
        )
        assert report.items[0].error_type == "TranslationTimeout"
        assert report.items[1].ok

    def test_generous_timeout_changes_nothing(self, tmp_path):
        translator = make_translator(tmp_path)
        timed = translator.translate_many(INPUTS[:6], jobs=2, timeout=60.0)
        plain = translator.translate_many(INPUTS[:6], jobs=2)
        assert summarize(timed) == summarize(plain)


class TestBatchInterrupt:
    def test_keyboard_interrupt_returns_partial_report(
        self, tmp_path, monkeypatch
    ):
        """Ctrl-C mid-batch kills the workers and reports what finished
        (the old ``multiprocessing.Pool`` path hung in ``join()``)."""
        import _thread
        import threading

        from repro.testing.faults import HANG_MARKER_ENV, HANG_SECONDS_ENV

        monkeypatch.setenv(HANG_MARKER_ENV, "@@hang@@")
        monkeypatch.setenv(HANG_SECONDS_ENV, "60")
        metrics = MetricsRegistry()
        translator = make_translator(tmp_path)
        # Two workers: one finishes the fast inputs, one wedges on the
        # hang; without a timeout= only Ctrl-C ends the run.
        texts = [*INPUTS[:4], "@@hang@@"]
        timer = threading.Timer(2.0, _thread.interrupt_main)
        timer.start()
        try:
            report = translator.translate_many(
                texts, jobs=2, metrics=metrics
            )
        finally:
            timer.cancel()
        assert report.interrupted
        assert len(report.items) < len(texts)  # partial by construction
        assert all(item.ok for item in report.items)
        assert metrics.snapshot()["batch.interrupted"] == 1


class TestBatchCLI:
    def run_cli(self, argv):
        from repro.cli import main

        return main(argv)

    def test_cli_parallel_output_identical_to_sequential(self, tmp_path, capsys):
        ag = source_path("calc")
        cache = str(tmp_path / "cache")
        out_seq = tmp_path / "seq"
        out_par = tmp_path / "par"
        base = [ag, *INPUTS, "--cache-dir", cache]
        rc_seq = self.run_cli(
            ["batch", *base, "-j", "1", "--output-dir", str(out_seq)]
        )
        rc_par = self.run_cli(
            ["batch", *base, "-j", "4", "--output-dir", str(out_par)]
        )
        capsys.readouterr()
        assert rc_seq == rc_par == 1  # the injected failure
        seq_files = sorted(os.listdir(out_seq))
        par_files = sorted(os.listdir(out_par))
        assert seq_files == par_files
        assert len(seq_files) == len(INPUTS) - 1  # all but the bad input
        for name in seq_files:
            with open(out_seq / name, "rb") as f:
                seq_bytes = f.read()
            with open(out_par / name, "rb") as f:
                par_bytes = f.read()
            assert seq_bytes == par_bytes, f"{name} differs between -j1 and -j4"

    def test_cli_output_matches_repro_run(self, tmp_path, capsys):
        """`repro batch` output is byte-identical to `repro run`."""
        ag = source_path("calc")
        text = generate_calc_program(6, seed=5)
        rc = self.run_cli(["run", "calc", text])
        run_out = capsys.readouterr().out
        out_dir = tmp_path / "out"
        rc2 = self.run_cli(
            ["batch", ag, text, "--cache-dir", str(tmp_path / "c"),
             "--output-dir", str(out_dir)]
        )
        capsys.readouterr()
        assert rc == 0 and rc2 == 0
        with open(out_dir / "0000.out", "r", encoding="utf-8") as f:
            assert f.read() == run_out

    def test_cli_exit_zero_when_clean(self, tmp_path, capsys):
        ag = source_path("calc")
        rc = self.run_cli(
            ["batch", ag, "let a = 1 ; print a",
             "--cache-dir", str(tmp_path / "c")]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "OUT = [1]" in out

    def test_cli_timeout_flag(self, tmp_path, capsys, monkeypatch):
        from repro.testing.faults import HANG_MARKER_ENV, HANG_SECONDS_ENV

        monkeypatch.setenv(HANG_MARKER_ENV, "@@hang@@")
        monkeypatch.setenv(HANG_SECONDS_ENV, "30")
        ag = source_path("calc")
        rc = self.run_cli(
            ["batch", ag, "@@hang@@", "let a = 1 ; print a",
             "--timeout", "1", "--cache-dir", str(tmp_path / "c")]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "TranslationTimeout" in captured.err
        assert "1/2 ok" in captured.err


class TestBatchPipelineIsolation:
    """Failure isolation under the pipelined (scan-ahead) worker loop:
    a worker dying *mid-input* must cost exactly that input."""

    def test_worker_death_mid_pipelined_input_is_isolated(
        self, tmp_path, monkeypatch
    ):
        """SIGKILL-equivalent death (``os._exit(3)`` in the scan stage)
        while inputs are pipelined behind the dying one: the culprit
        fails as ``WorkerCrashed`` after its bounded re-dispatch,
        and every innocent queue-mate completes."""
        from repro.testing.faults import DIE_MARKER_ENV

        monkeypatch.setenv(DIE_MARKER_ENV, "@@die@@")
        metrics = MetricsRegistry()
        translator = make_translator(tmp_path)
        die_index = 6
        texts = [*INPUTS[:die_index], "@@die@@", *INPUTS[die_index:10]]
        report = translator.translate_many(
            texts, jobs=2, pipeline_depth=2, metrics=metrics
        )
        assert len(report.items) == len(texts)
        victim = report.items[die_index]
        assert not victim.ok
        assert victim.error_type == "WorkerCrashed"
        assert report.n_failed == 1
        assert all(
            item.ok for item in report.items if item.index != die_index
        ), "an innocent queue-mate of the dying input was lost"
        # ...and the survivors are byte-identical to sequential runs.
        seq = translator.translate_many(
            [t for t in texts if t != "@@die@@"], jobs=1
        )
        survivors = [
            (item.ok, canonical_attrs(item.result.root_attrs))
            for item in report.items if item.index != die_index
        ]
        assert survivors == [
            (item.ok, canonical_attrs(item.result.root_attrs))
            for item in seq.items
        ]

    def test_interrupt_during_pipelined_batch(self, tmp_path, monkeypatch):
        """Ctrl-C mid-pipelined-batch: a partial report of only
        completed items comes back."""
        import _thread
        import threading

        from repro.testing.faults import HANG_MARKER_ENV, HANG_SECONDS_ENV

        monkeypatch.setenv(HANG_MARKER_ENV, "@@hang@@")
        monkeypatch.setenv(HANG_SECONDS_ENV, "60")
        translator = make_translator(tmp_path)
        texts = [*INPUTS[:4], "@@hang@@", *INPUTS[4:8]]
        timer = threading.Timer(2.0, _thread.interrupt_main)
        timer.start()
        try:
            report = translator.translate_many(
                texts, jobs=2, pipeline_depth=3
            )
        finally:
            timer.cancel()
        assert report.interrupted
        assert len(report.items) < len(texts)
        assert all(item.ok for item in report.items)

    def test_deep_pipeline_matches_sequential(self, tmp_path):
        """``pipeline_depth=4`` reorders nothing observable: the report
        is byte-identical (per index) to the sequential run, injected
        failure included."""
        translator = make_translator(tmp_path)
        seq = translator.translate_many(INPUTS, jobs=1)
        deep = translator.translate_many(INPUTS, jobs=2, pipeline_depth=4)
        assert summarize(seq) == summarize(deep)


def _worker_cache_counts(spec: WorkerSpec) -> dict:
    """Hydrate a translator exactly as a batch worker does and return
    the ``cache.*`` counters that bumped."""
    metrics = MetricsRegistry()
    build_batch_translator(spec, metrics=metrics)
    return {
        key: value
        for key, value in metrics.snapshot().items()
        if key.startswith("cache.")
    }


class TestBatchWorkerStart:
    def test_forkserver_worker_reads_the_build_cache(self, tmp_path):
        """A forkserver batch worker rehydrates from the cache the driver
        has just written: one hit per entry kind (alias, grammar,
        scanner), no miss and no write."""
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        translator = make_translator(tmp_path)
        ctx = multiprocessing.get_context("forkserver")
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            counts = pool.submit(
                _worker_cache_counts, translator.spawn_spec
            ).result()
        assert counts == {
            "cache.hit": 3,
            "cache.alias.hit": 1,
            "cache.grammar.hit": 1,
            "cache.scanner.hit": 1,
        }

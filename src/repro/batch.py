"""Parallel batch translation over the build cache.

The paper's economics (§V) — expensive once-per-grammar build, cheap
streaming per-input translation — invite exactly one scaling move for
serving many inputs: **build the artifacts once, then fan the
independent inputs out across worker processes that rehydrate them
instead of rebuilding**.  This module is that batch driver:

* :func:`build_batch_translator` constructs a
  :class:`~repro.core.Translator` for a shipped grammar *through* a
  :class:`~repro.buildcache.BuildCache` and records the recipe
  (:class:`WorkerSpec`) workers need to reconstruct it;
* :func:`run_batch` (surfaced as
  :meth:`repro.core.Translator.translate_many` and the ``repro batch``
  CLI) fans inputs across **supervised** worker processes
  (:class:`repro.serve.workers.WorkerHandle` — the same lifecycle the
  serve daemon uses) started through a **forkserver**; each worker
  rehydrates the translator through :func:`build_batch_translator`
  from the build cache the driver has just written, so no worker
  rebuilds;
* each worker runs one input at a time through the call sequential
  batch makes (``translator.translate(text, memo_dir=...)``), with
  **per-input isolation**: one failed input is reported in its
  :class:`BatchItem` while every other input completes, and an input
  whose worker crashed is retried once on a fresh worker;
* ``timeout=`` (CLI ``--timeout``) bounds every input: a hung input is
  recorded as a failed :class:`BatchItem` with a typed
  :class:`~repro.errors.TranslationTimeout` and its worker is killed
  and restarted, so one pathological input never stalls the pool;
* ``KeyboardInterrupt`` terminates the workers and
  returns a *partial* :class:`BatchReport` (``interrupted=True``)
  instead of hanging in the pool join;
* telemetry lands in the ``batch.*`` counters/gauges and ``batch.*``
  trace instants (see ``docs/performance.md``).

Sequential (``jobs <= 1``) and parallel executions produce identical
results; the differential suite's ``cached`` axis pins the workers'
cache-rehydrated path to the others.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    EvaluationError,
    TranslationTimeout,
    WorkerCrashed,
)
from repro.evalgen.runtime import EvaluationResult

#: An input whose worker crashed is dispatched up to this many times in
#: total (each on a fresh incarnation) before it is reported as failed,
#: so a transient crash costs nothing and a deterministic crasher fails
#: after the cap — the serve daemon's ``max_retries=1``.
_MAX_ATTEMPTS = 2


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to reconstruct the translator.

    Deliberately tiny and picklable: the *source text* and knobs, never
    live objects.  Workers rehydrate the expensive artifacts from the
    on-disk build cache at ``cache_dir`` (a cold worker would rebuild
    and re-seal them, so correctness never depends on cache state).
    """

    source: str
    filename: str
    grammar_name: str
    direction: str  # "r2l" | "l2r" | "auto"
    cache_dir: str
    backend: str = "generated"
    #: Incremental-memo root for this grammar, or None to translate
    #: cold.  Each worker slot writes to its own ``w<worker_id>``
    #: subdirectory (one MEMO1 writer per directory), so a restarted
    #: worker re-warms from its predecessor's generation; the
    #: sequential path uses the directory itself.
    memo_dir: Optional[str] = None


@dataclass
class BatchItem:
    """Outcome of one input: a result or an isolated failure."""

    index: int
    ok: bool
    result: Optional[EvaluationResult] = None
    error_type: Optional[str] = None
    error: Optional[str] = None
    seconds: float = 0.0


@dataclass
class BatchReport:
    """Outcome of a whole batch, in input order.

    ``interrupted=True`` marks a partial report: the run was cut short
    (KeyboardInterrupt), workers were terminated, and ``items`` holds
    only the inputs that finished before the cut.
    """

    items: List[BatchItem] = field(default_factory=list)
    jobs: int = 1
    seconds: float = 0.0
    interrupted: bool = False

    @property
    def n_ok(self) -> int:
        return sum(1 for item in self.items if item.ok)

    @property
    def n_failed(self) -> int:
        return len(self.items) - self.n_ok

    @property
    def ok(self) -> bool:
        return self.n_failed == 0

    def failures(self) -> List[BatchItem]:
        return [item for item in self.items if not item.ok]

    def raise_if_failed(self) -> None:
        if not self.ok:
            first = self.failures()[0]
            raise EvaluationError(
                f"{self.n_failed} of {len(self.items)} batch input(s) failed; "
                f"first: input {first.index}: "
                f"{first.error_type}: {first.error}"
            )


# ---------------------------------------------------------------------------
# building translators through the cache
# ---------------------------------------------------------------------------


def direction_of(name: str):
    from repro.passes.schedule import Direction

    return {"r2l": Direction.R2L, "l2r": Direction.L2R, "auto": "auto"}[name]


def build_batch_translator(
    spec: WorkerSpec,
    metrics=None,
    tracer=None,
):
    """Build (or cache-rehydrate) the translator a :class:`WorkerSpec`
    describes, and stamp the spec onto it for later fan-out."""
    from repro.buildcache import BuildCache
    from repro.core import Linguist
    from repro.grammars import scanner_and_library

    scanner_spec, library = scanner_and_library(spec.grammar_name)
    if scanner_spec is None:
        raise EvaluationError(
            f"no shipped scanner for grammar {spec.grammar_name!r}; "
            "batch translation needs a scanner specification"
        )
    cache = BuildCache(spec.cache_dir)
    linguist = Linguist(
        spec.source,
        filename=spec.filename,
        first_direction=direction_of(spec.direction),
        tracer=tracer,
        metrics=metrics,
        cache=cache,
    )
    translator = linguist.make_translator(
        scanner_spec, library=library, backend=spec.backend
    )
    translator.spawn_spec = spec
    return translator


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------
#
# The worker lifecycle itself lives in repro.serve.workers (WorkerHandle
# + worker_main): the serve daemon and the batch driver share one
# supervised-subprocess implementation, so a batch worker and a serve
# worker run the same job loop and produce byte-identical results.


def _item_from_tuple(data: Tuple[Any, ...]) -> BatchItem:
    index, ok, attrs, n_passes, error_type, error, seconds = data
    return BatchItem(
        index=index,
        ok=ok,
        result=EvaluationResult(attrs, n_passes) if ok else None,
        error_type=error_type,
        error=error,
        seconds=seconds,
    )


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


def run_batch(
    translator,
    texts: Sequence[str],
    jobs: int = 1,
    metrics=None,
    tracer=None,
    timeout: Optional[float] = None,
) -> BatchReport:
    """Translate ``texts`` through ``translator``; see
    :meth:`repro.core.Translator.translate_many`.

    ``timeout`` (seconds) bounds each input.  Deadlines are enforced by
    killing the worker process that holds the hung input, so a timeout
    requires the supervised-worker path: with ``jobs <= 1`` and a
    timeout the batch still runs through one supervised subprocess
    (same results, enforceable deadline) rather than in-process.
    A ``timeout`` that is not a positive, finite number raises
    :class:`ValueError`.
    """
    if timeout is not None and not 0 < timeout < math.inf:
        raise ValueError(
            "timeout must be a positive, finite number of seconds, "
            f"not {timeout!r}"
        )
    texts = list(texts)
    started = time.perf_counter()
    if tracer is not None:
        tracer.instant(
            "batch.start", cat="batch", inputs=len(texts), jobs=jobs
        )
    interrupted = False
    if jobs > 1 or timeout is not None:
        spec = getattr(translator, "spawn_spec", None)
        if spec is None:
            raise EvaluationError(
                "supervised batch execution (jobs > 1, or timeout=) needs a "
                "worker spec: build the translator via "
                "repro.batch.build_batch_translator (or the `repro batch` "
                "CLI) so workers know how to reconstruct it"
            )
        items, interrupted = _run_supervised(
            spec, texts, max(1, jobs), timeout, metrics
        )
    else:
        seq_spec = getattr(translator, "spawn_spec", None)
        items = _run_sequential(
            translator, texts,
            memo_dir=getattr(seq_spec, "memo_dir", None),
        )
    report = BatchReport(
        items=items,
        jobs=max(1, jobs),
        seconds=time.perf_counter() - started,
        interrupted=interrupted,
    )
    if metrics is not None:
        metrics.counter("batch.inputs").inc(len(texts))
        metrics.counter("batch.ok").inc(report.n_ok)
        metrics.counter("batch.failed").inc(report.n_failed)
        metrics.gauge("batch.jobs").set(report.jobs)
        metrics.gauge("batch.seconds").set(report.seconds)
        if interrupted:
            metrics.counter("batch.interrupted").inc()
        for item in items:
            metrics.histogram("batch.item.seconds").observe(item.seconds)
            if item.error_type == "TranslationTimeout":
                metrics.counter("batch.timeouts").inc()
    if tracer is not None:
        for item in items:
            tracer.instant(
                "batch.item",
                cat="batch",
                index=item.index,
                ok=item.ok,
                seconds=item.seconds,
                error=item.error_type,
            )
        tracer.instant(
            "batch.done",
            cat="batch",
            ok=report.n_ok,
            failed=report.n_failed,
            seconds=report.seconds,
        )
    return report


def _run_sequential(
    translator, texts: Sequence[str], memo_dir: Optional[str] = None
) -> List[BatchItem]:
    items: List[BatchItem] = []
    for index, text in enumerate(texts):
        t0 = time.perf_counter()
        try:
            result = translator.translate(text, memo_dir=memo_dir)
        except Exception as exc:
            items.append(
                BatchItem(
                    index=index,
                    ok=False,
                    error_type=type(exc).__name__,
                    error=str(exc),
                    seconds=time.perf_counter() - t0,
                )
            )
        else:
            items.append(
                BatchItem(
                    index=index,
                    ok=True,
                    result=result,
                    seconds=time.perf_counter() - t0,
                )
            )
    return items


def _batch_mp_context() -> Optional[str]:
    """The multiprocessing start method for batch workers.

    POSIX hosts use a **forkserver**: workers fork from a small, clean
    server process instead of the (threaded) driver, so a fork can
    never snapshot a driver thread mid-lock, and repeated restarts
    don't re-run module imports.  The worker's ``REPRO_*`` environment
    is replayed from a per-incarnation snapshot (see
    :func:`repro.serve.workers.worker_main`), so the frozen forkserver
    environment is not observable.

    Forkserver workers re-import the host's ``__main__`` module; when
    that module cannot be re-imported — a ``python - <<EOF`` script, a
    REPL, an embedded interpreter whose ``__main__`` has no real file —
    batch falls back to plain ``fork``, which never touches
    ``__main__``.
    """
    if os.name != "posix":
        return None  # WorkerHandle picks the platform default (spawn)
    main_module = sys.modules.get("__main__")
    main_spec = getattr(main_module, "__spec__", None)
    if main_spec is None or getattr(main_spec, "name", None) is None:
        main_file = getattr(main_module, "__file__", None)
        if main_file is None or not os.path.exists(main_file):
            return "fork"
    try:
        multiprocessing.get_context("forkserver").set_forkserver_preload(
            ["repro.serve.workers"]
        )
    except (ValueError, RuntimeError):  # pragma: no cover
        pass
    return "forkserver"


def _run_supervised(
    spec: WorkerSpec,
    texts: Sequence[str],
    jobs: int,
    timeout: Optional[float],
    metrics=None,
) -> Tuple[List[BatchItem], bool]:
    """Fan inputs across supervised worker subprocesses.

    One driver thread per worker pops inputs off a shared deque and
    runs each through :meth:`~repro.serve.workers.WorkerHandle.call`.
    A timed-out input is recorded as failed and its worker killed and
    restarted; a crashed worker is restarted and its input retried
    once on the fresh incarnation before being recorded as failed.
    Ctrl-C kills the workers and returns whatever finished
    (``interrupted=True``).
    """
    from repro.serve.workers import WorkerHandle

    mp_context = _batch_mp_context()
    handles = [
        WorkerHandle(
            spec, worker_id=i, metrics=metrics, mp_context=mp_context
        ).start()
        for i in range(jobs)
    ]
    pending = deque(enumerate(texts))
    done: Dict[int, BatchItem] = {}
    lock = threading.Lock()
    stop = threading.Event()

    def run_one(
        handle: WorkerHandle, index: int, text: str
    ) -> Optional[BatchItem]:
        attempt = 1
        while True:
            t0 = time.perf_counter()
            try:
                return _item_from_tuple(
                    handle.call(
                        index, text, timeout=timeout, cancelled=stop.is_set
                    )
                )
            except TranslationTimeout as exc:
                if not stop.is_set():
                    handle.restart()  # the old incarnation is wedged
                return BatchItem(
                    index=index,
                    ok=False,
                    error_type="TranslationTimeout",
                    error=str(exc),
                    seconds=time.perf_counter() - t0,
                )
            except WorkerCrashed as exc:
                if stop.is_set():
                    return None  # shutdown, not a verdict on this input
                handle.restart()
                if attempt == _MAX_ATTEMPTS:
                    return BatchItem(
                        index=index,
                        ok=False,
                        error_type="WorkerCrashed",
                        error=str(exc),
                        seconds=time.perf_counter() - t0,
                    )
                attempt += 1
                if metrics is not None:
                    metrics.counter("batch.retries").inc()

    def drive(handle: WorkerHandle) -> None:
        while not stop.is_set():
            with lock:
                if not pending:
                    return
                index, text = pending.popleft()
            item = run_one(handle, index, text)
            if item is not None:
                with lock:
                    done[index] = item

    threads = [
        threading.Thread(
            target=drive, args=(handle,), name=f"batch-driver-{i}"
        )
        for i, handle in enumerate(handles)
    ]
    for thread in threads:
        thread.start()
    interrupted = False
    try:
        # join() in a loop so the main thread stays interruptible — the
        # old multiprocessing.Pool path hung in join() on Ctrl-C.
        while any(thread.is_alive() for thread in threads):
            for thread in threads:
                thread.join(timeout=0.1)
    except KeyboardInterrupt:
        interrupted = True
        stop.set()
        # Join the drivers BEFORE kill() discards the queues: a driver
        # may be inside handle.call()'s response_q.get(), and
        # yanking the queue out from under it would crash the thread
        # instead of letting the cancelled callback end it within one
        # poll.
        for thread in threads:
            thread.join(timeout=5.0)
        for handle in handles:
            handle.kill()
    finally:
        for handle in handles:
            handle.stop(grace=0.5)
    return sorted(done.values(), key=lambda item: item.index), interrupted

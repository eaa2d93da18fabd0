"""Supervised subprocess workers: the lifecycle behind serve *and* batch.

A :class:`WorkerHandle` owns one worker subprocess plus everything the
supervisor needs to manage it:

* **fresh queues per incarnation** — a killed worker can die mid-``put``
  and poison its queues, so restart never reuses them;
* **heartbeat** — the worker updates a shared timestamp from a daemon
  thread every ``heartbeat_interval`` seconds; a frozen process (OOM
  thrash, stop signal, D-state) stops beating even when its ``Process``
  object still answers ``is_alive()``;
* **deadline-bounded calls** — :meth:`WorkerHandle.call` polls the
  response queue while watching the deadline and process liveness,
  raising typed :class:`~repro.errors.TranslationTimeout` /
  :class:`~repro.errors.WorkerCrashed` instead of blocking forever;
* **kill + restart** — :meth:`restart` tears the incarnation down
  (SIGKILL if needed) and spawns a clean one;
* **environment snapshot** — :meth:`start` captures the supervisor's
  ``REPRO_*`` variables and replays them inside the worker, so fault
  markers and knobs set *after* a shared forkserver came up still
  reach every fresh incarnation.

The worker side (:func:`worker_main`) runs the translator its
supervisor handed over when the process was forked — the serve daemon's
warm instance, inherited with no hydration at all — and otherwise
rehydrates it from the build cache named by its
:class:`~repro.batch.WorkerSpec`, exactly the ``repro batch`` recipe,
so a serve worker and a batch worker produce byte-identical results by
construction.  Inside the worker the stages are **pipelined**: a
scan-ahead thread lexes input N+1 while the main thread
parses/evaluates input N and flushes its response, with
per-input failure isolation preserved (a stage failure is reported on
that input's response tuple only).  Result tuples use the batch wire
shape ``(job_id, ok, root_attrs, n_passes, error_type, error,
seconds)``; :func:`repro.batch._item_from_tuple` and the serve daemon
both consume it.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
import time
from typing import Any, Optional, Tuple

from repro.errors import TranslationTimeout, WorkerCrashed

#: Shape of one answer on the response queue (the batch wire format).
ResultTuple = Tuple[Any, bool, Any, int, Optional[str], Optional[str], float]

#: How often the worker-side daemon thread refreshes the heartbeat.
DEFAULT_HEARTBEAT_INTERVAL = 0.5

#: How long :meth:`WorkerHandle.call` sleeps between response polls.
_POLL_SECONDS = 0.02

#: How many inputs the worker's scan-ahead stage may lex beyond the one
#: currently being evaluated (bounds token-buffer memory).
SCAN_AHEAD = 2

#: Sentinel for :meth:`WorkerHandle._await_answer`: match any job.
_ANY = object()


def _heartbeat_loop(beat, interval: float, stop: threading.Event) -> None:
    while not stop.wait(interval):
        beat.value = time.monotonic()


def _apply_env_snapshot(env) -> None:
    """Replay the supervisor's ``REPRO_*`` environment inside the worker.

    Fork children inherit the parent's environment for free, but
    forkserver children inherit the *forkserver's* — frozen at the
    moment the server started — so knobs set later (fault markers,
    cache overrides) would silently not reach them.  The snapshot is
    authoritative: stale ``REPRO_*`` keys not in it are removed.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        if key not in env:
            del os.environ[key]
    os.environ.update(env)


def worker_main(
    spec,
    request_q,
    response_q,
    beat,
    heartbeat_interval,
    env=None,
    translator=None,
) -> None:
    """Subprocess entry point: hydrate, then serve jobs until the
    ``None`` sentinel (graceful stop) or the process is killed.

    ``translator`` is the supervisor's own instance, passed only under
    the ``fork`` start method (the child inherits it, nothing is
    pickled).  Without it the worker rehydrates from the build cache
    (:func:`repro.batch.build_batch_translator`).  Translation takes
    its metrics and tracer per call, so an inherited instance never
    reports into the supervisor's registry.  Any failure — including a
    failure to *build* the translator — is reported through the
    response queue with per-job isolation; the loop itself only exits
    on the sentinel.

    Execution is pipelined: the scan stage runs on its own thread,
    lexing up to :data:`SCAN_AHEAD` inputs past the one the main
    thread is parsing/evaluating, so the first pass of input N+1 is
    ready the moment input N's response is flushed.
    """
    from repro.testing.faults import maybe_hang

    if env is not None:
        _apply_env_snapshot(env)
    stop = threading.Event()
    if beat is not None:
        beat.value = time.monotonic()
        threading.Thread(
            target=_heartbeat_loop,
            args=(beat, heartbeat_interval, stop),
            daemon=True,
        ).start()
    build_error: Optional[BaseException] = None
    if translator is None:
        try:
            from repro.batch import build_batch_translator

            translator = build_batch_translator(spec)
        except BaseException as exc:  # reported per-job below
            build_error = exc
    # Incremental memo: WorkerHandle already slotted the grammar's memo
    # root per worker id, so this process is the directory's only writer.
    memo_dir = getattr(spec, "memo_dir", None)

    #: (job_id, text, tokens, stage_error, started) — or None to stop.
    scanned: "queue.Queue" = queue.Queue(maxsize=SCAN_AHEAD)

    def scan_loop() -> None:
        while True:
            job = request_q.get()
            if job is None:
                scanned.put(None)
                return
            job_id, text = job
            started = time.perf_counter()
            tokens = None
            error: Optional[BaseException] = None
            try:
                maybe_hang(text)
                if translator is None:
                    raise build_error  # type: ignore[misc]
                if translator.scanner is not None:
                    tokens = list(translator.scanner.tokens(text))
            except BaseException as exc:  # per-job isolation
                error = exc
            scanned.put((job_id, text, tokens, error, started))

    threading.Thread(
        target=scan_loop, daemon=True, name="repro-worker-scan"
    ).start()

    while True:
        item = scanned.get()
        if item is None:
            stop.set()
            return
        job_id, text, tokens, error, started = item
        result = None
        if error is None:
            try:
                if tokens is not None:
                    result = translator.translate_tokens(
                        iter(tokens), memo_dir=memo_dir
                    )
                else:
                    # Scanner-less translator: translate() raises the
                    # canonical EvaluationError for this input.
                    result = translator.translate(text, memo_dir=memo_dir)
            except BaseException as exc:  # per-job isolation
                error = exc
        if error is not None:
            response_q.put(
                (
                    job_id,
                    False,
                    None,
                    0,
                    type(error).__name__,
                    str(error),
                    time.perf_counter() - started,
                )
            )
        else:
            response_q.put(
                (
                    job_id,
                    True,
                    result.root_attrs,
                    result.n_passes,
                    None,
                    None,
                    time.perf_counter() - started,
                )
            )


class WorkerHandle:
    """One supervised worker subprocess (see module docstring).

    Not thread-safe for concurrent use — each handle is driven by one
    supervisor (the daemon binds one dispatcher task per handle; batch
    binds one driver thread per handle).  One driver may keep several
    jobs in flight on its handle via :meth:`submit` +
    :meth:`next_answer` (the pipelined batch path).
    """

    def __init__(
        self,
        spec,
        worker_id: int = 0,
        metrics=None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        mp_context: Optional[str] = None,
        translator=None,
    ):
        if getattr(spec, "memo_dir", None):
            # One MEMO1 writer per directory: each worker slot keeps
            # its own subdirectory under the grammar's memo root, and a
            # supervised *restart* of the slot re-warms from whatever
            # generation its predecessor sealed there.
            import dataclasses

            spec = dataclasses.replace(
                spec, memo_dir=os.path.join(spec.memo_dir, f"w{worker_id}")
            )
        self.spec = spec
        self.worker_id = worker_id
        self.metrics = metrics
        self.heartbeat_interval = heartbeat_interval
        if mp_context is None:
            mp_context = "fork" if os.name == "posix" else "spawn"
        self._ctx = multiprocessing.get_context(mp_context)
        #: A built translator for ``fork`` children to inherit (every
        #: restart included); other start methods rehydrate from
        #: ``spec`` instead of pickling it.
        self.translator = translator if mp_context == "fork" else None
        self.process = None
        self.request_q = None
        self.response_q = None
        self._beat = None
        #: Number of times this handle has (re)started a process.
        self.incarnation = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "WorkerHandle":
        """Spawn a fresh incarnation (fresh queues, fresh heartbeat,
        fresh ``REPRO_*`` environment snapshot)."""
        if self.process is not None and self.process.is_alive():
            return self
        self.request_q = self._ctx.Queue()
        self.response_q = self._ctx.Queue()
        self._beat = self._ctx.Value("d", time.monotonic(), lock=False)
        env = {
            key: value
            for key, value in os.environ.items()
            if key.startswith("REPRO_")
        }
        self.process = self._ctx.Process(
            target=worker_main,
            args=(
                self.spec,
                self.request_q,
                self.response_q,
                self._beat,
                self.heartbeat_interval,
                env,
                self.translator,
            ),
            daemon=True,
            name=f"repro-serve-worker-{self.worker_id}",
        )
        self.process.start()
        self.incarnation += 1
        if self.metrics is not None and self.incarnation > 1:
            self.metrics.counter("serve.worker_restarts").inc()
        return self

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def exitcode(self) -> Optional[int]:
        return None if self.process is None else self.process.exitcode

    @property
    def pid(self) -> Optional[int]:
        return None if self.process is None else self.process.pid

    def heartbeat_age(self) -> float:
        """Seconds since the worker last beat (``inf`` when stopped)."""
        if self._beat is None:
            return float("inf")
        return time.monotonic() - self._beat.value

    def stop(self, grace: float = 2.0) -> None:
        """Graceful stop: sentinel, short join, then escalate to kill."""
        if self.process is None:
            return
        try:
            if self.alive and self.request_q is not None:
                self.request_q.put_nowait(None)
        except (OSError, ValueError, queue.Full):
            pass
        self.process.join(grace)
        if self.process.is_alive():
            self.kill()
        else:
            self._discard_queues()

    def kill(self) -> None:
        """SIGKILL the incarnation and discard its (possibly poisoned)
        queues; the handle can be :meth:`start`-ed again afterwards."""
        if self.process is None:
            return
        if self.process.is_alive():
            self.process.kill()
            self.process.join(5.0)
        self._discard_queues()

    def restart(self) -> "WorkerHandle":
        self.kill()
        return self.start()

    def _discard_queues(self) -> None:
        for q in (self.request_q, self.response_q):
            if q is None:
                continue
            try:
                q.cancel_join_thread()
                q.close()
            except (OSError, ValueError):
                pass
        self.request_q = None
        self.response_q = None

    # -- request execution -------------------------------------------------

    def submit(self, job_id: Any, text: str) -> None:
        if self.request_q is None:
            raise WorkerCrashed(
                f"worker {self.worker_id} is not running",
                worker_id=self.worker_id,
            )
        self.request_q.put((job_id, text))

    def call(
        self,
        job_id: Any,
        text: str,
        timeout: Optional[float] = None,
        cancelled=None,
    ) -> ResultTuple:
        """Run one job to completion, supervising the process.

        Raises :class:`~repro.errors.TranslationTimeout` when
        ``timeout`` (seconds) elapses and
        :class:`~repro.errors.WorkerCrashed` when the process dies
        mid-job — in both cases the caller owns the kill/restart
        decision (the incarnation is left as-is so the supervisor can
        inspect ``exitcode``).  ``cancelled`` is an optional callable
        polled between waits; returning True aborts the wait with
        :class:`~repro.errors.WorkerCrashed` (used for pool shutdown).
        """
        self.submit(job_id, text)
        deadline = None if timeout is None else time.monotonic() + timeout
        return self._await_answer(job_id, deadline, timeout, cancelled)

    def next_answer(
        self,
        deadline: Optional[float] = None,
        timeout: Optional[float] = None,
        cancelled=None,
    ) -> ResultTuple:
        """Wait for *any* outstanding answer (the pipelined-batch path,
        where several :meth:`submit`-ed jobs ride one incarnation).

        ``deadline`` is an absolute ``time.monotonic()`` instant
        (``timeout`` only labels the raised
        :class:`~repro.errors.TranslationTimeout`); crash/cancel
        semantics match :meth:`call`.
        """
        return self._await_answer(_ANY, deadline, timeout, cancelled)

    def _await_answer(
        self,
        job_id: Any,
        deadline: Optional[float],
        timeout: Optional[float],
        cancelled,
    ) -> ResultTuple:
        while True:
            response_q = self.response_q
            if response_q is None:
                # kill()/stop() discarded the queues mid-wait (pool
                # shutdown from another thread): the job is lost, not
                # our caller's fault — same verdict as a dead worker.
                raise WorkerCrashed(
                    f"worker {self.worker_id} was shut down while "
                    "holding a request",
                    worker_id=self.worker_id,
                )
            try:
                answer = response_q.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                pass
            except (OSError, ValueError):
                raise WorkerCrashed(
                    f"worker {self.worker_id} response queue was "
                    "discarded while holding a request",
                    worker_id=self.worker_id,
                ) from None
            else:
                if job_id is _ANY or answer[0] == job_id:
                    return answer
                continue  # stale answer from a pre-restart job: drop it
            if cancelled is not None and cancelled():
                raise WorkerCrashed(
                    f"worker {self.worker_id} call cancelled by shutdown",
                    worker_id=self.worker_id,
                )
            if not self.alive:
                # The worker may have answered and *then* died: drain
                # once more before declaring the job lost.
                try:
                    answer = response_q.get(timeout=_POLL_SECONDS)
                    if job_id is _ANY or answer[0] == job_id:
                        return answer
                except (queue.Empty, OSError, ValueError):
                    pass
                raise WorkerCrashed(
                    f"worker {self.worker_id} died with exit code "
                    f"{self.exitcode} while holding a request",
                    exitcode=self.exitcode,
                    worker_id=self.worker_id,
                )
            if deadline is not None and time.monotonic() >= deadline:
                label = "its deadline" if timeout is None else (
                    f"its {timeout:.3g}s deadline"
                )
                raise TranslationTimeout(
                    f"translation exceeded {label} "
                    f"on worker {self.worker_id}",
                    seconds=timeout,
                )

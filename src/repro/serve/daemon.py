"""The asyncio translation service: warm builds, supervised dispatch.

One :class:`TranslationServer` owns, per grammar:

* a **warm build** — the daemon constructs the grammar's translator
  through the persistent build cache exactly once at startup (sealing
  the artifacts workers rehydrate from), so no request ever pays
  overlay work;
* a **bounded queue** — admission control at the door: a full queue
  raises :class:`~repro.errors.ServerOverloaded` with ``retry_after``
  instead of buffering without bound;
* a **circuit breaker** — persistent infrastructure failures degrade
  the grammar to *unavailable* rather than poisoning the worker pool;
* **supervised workers** — one dispatcher task per
  :class:`~repro.serve.workers.WorkerHandle`; a worker that crashes,
  is OOM-killed, or hangs past its heartbeat is restarted with
  exponential backoff while the in-flight request is re-dispatched
  (bounded retries — translation is pure, so re-dispatch is idempotent
  by construction) or failed fast;
* the **request journal** — every admitted/completed/failed transition
  is a CRC-framed line in the SRVJ1 journal, sealed on graceful drain.

Lifecycle: ``await start()`` → ``submit()`` per request →
``request_shutdown()`` (SIGTERM) → ``run()`` drains (stop admitting,
finish in-flight up to ``drain_timeout``, checkpoint the journal) and
returns exit code 0.  See ``docs/serving.md``.
"""

from __future__ import annotations

import asyncio
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import (
    GrammarUnavailable,
    ServeError,
    ServerOverloaded,
    TranslationTimeout,
    WorkerCrashed,
)
from repro.serve.admission import Backoff, CircuitBreaker, Deadline
from repro.serve.journal import RequestJournal
from repro.serve.workers import WorkerHandle

__all__ = [
    "GrammarService",
    "Request",
    "ServeConfig",
    "ServeResult",
    "TranslationServer",
]


@dataclass
class ServeConfig:
    """Tunables of one daemon run (CLI flags map 1:1 onto these)."""

    host: str = "127.0.0.1"
    port: Optional[int] = 0
    workers: int = 2
    queue_depth: int = 16
    request_timeout: float = 30.0
    drain_timeout: float = 10.0
    journal_dir: Optional[str] = None
    heartbeat_timeout: float = 10.0
    max_retries: int = 1
    breaker_threshold: int = 5
    breaker_reset_seconds: float = 5.0
    backend: str = "generated"
    fsync_every_done: bool = False
    #: Free-space governance (``repro serve --disk-low-mb/--disk-high-mb``):
    #: the daemon degrades every grammar when free bytes under the
    #: journal directory drop below ``disk_low_bytes`` and recovers only
    #: above ``disk_high_bytes`` (hysteresis).  0 disables the loop.
    disk_low_bytes: int = 0
    disk_high_bytes: int = 0
    governance_interval: float = 0.5
    #: Build-cache location + size cap: swept by the startup doctor
    #: pass and shrunk (LRU) when a low-disk trip needs space back.
    cache_dir: Optional[str] = None
    cache_max_bytes: int = 0
    #: Run a ``repro doctor --repair`` sweep over the journal and cache
    #: directories before serving, so a crashed predecessor's debris is
    #: classified and cleaned before new artifacts land next to it.
    startup_doctor: bool = True


@dataclass
class Request:
    """One admitted translation request."""

    id: int
    grammar: str
    text: str
    deadline: Deadline
    future: "asyncio.Future[ServeResult]"
    attempts: int = 0
    admitted_at: float = field(default_factory=time.monotonic)


@dataclass
class ServeResult:
    """Outcome of one request.

    ``ok`` distinguishes per-input translation failures (a syntax error
    in the *request*, reported in ``error_type``/``error``) from
    infrastructure failures, which raise typed exceptions instead.
    ``output`` is rendered exactly as ``repro run``/``repro batch``
    render root attributes, so served bytes are comparable across every
    execution path.
    """

    request_id: int
    grammar: str
    ok: bool
    output: str = ""
    error_type: Optional[str] = None
    error: Optional[str] = None
    seconds: float = 0.0
    worker_id: Optional[int] = None
    retries: int = 0


class GrammarService:
    """Everything the daemon holds for one grammar (see module doc)."""

    def __init__(self, name: str, spec, config: ServeConfig, metrics=None):
        self.name = name
        self.spec = spec
        self.config = config
        self.metrics = metrics
        self.queue: "asyncio.Queue[Request]" = asyncio.Queue(
            maxsize=max(1, config.queue_depth)
        )
        self.breaker = CircuitBreaker(
            grammar=name,
            failure_threshold=config.breaker_threshold,
            reset_seconds=config.breaker_reset_seconds,
            metrics=metrics,
        )
        self.workers: List[WorkerHandle] = []
        self.backoffs: Dict[int, Backoff] = {}
        self.busy: Dict[int, bool] = {}
        #: worker id -> the request it currently holds (drain failure
        #: path resolves these if the drain deadline cuts them off).
        self.in_flight: Dict[int, Request] = {}
        #: EWMA of request service time, for Retry-After estimates.
        self.ewma_seconds = 0.05
        #: The daemon-side warm instance; forked workers (restarts
        #: included) inherit it instead of hydrating their own.
        self.translator = None

    def observe_seconds(self, seconds: float) -> None:
        self.ewma_seconds = 0.8 * self.ewma_seconds + 0.2 * max(
            seconds, 1e-4
        )

    def retry_after(self) -> float:
        """Estimate of when queue capacity frees up."""
        depth = self.queue.qsize() + sum(1 for b in self.busy.values() if b)
        per_slot = self.ewma_seconds / max(1, len(self.workers))
        return round(max(0.05, depth * per_slot), 3)


class TranslationServer:
    """The long-lived service; see the module docstring for lifecycle."""

    def __init__(
        self,
        specs: Dict[str, Any],
        config: Optional[ServeConfig] = None,
        metrics=None,
    ):
        self.config = config or ServeConfig()
        self.metrics = metrics
        self.services: Dict[str, GrammarService] = {
            name: GrammarService(name, spec, self.config, metrics)
            for name, spec in specs.items()
        }
        self.journal: Optional[RequestJournal] = None
        self.draining = False
        #: Low-disk degraded mode (flipped by the governance loop):
        #: translations get 503 + Retry-After, /healthz and /stats keep
        #: answering, the journal is suspended until recovery.
        self.degraded = False
        self.watermark = None  # DiskWatermark when governance is on
        self.doctor_report = None  # startup sweep outcome, for /stats
        self._drain_requested: Optional[asyncio.Event] = None
        self._next_id = 0
        self._tasks: List[asyncio.Task] = []
        self._executor: Optional[ThreadPoolExecutor] = None
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Warm every grammar, start workers, dispatchers, supervisor."""
        if self._started:
            return
        cfg = self.config
        if cfg.startup_doctor:
            sweep = [
                d
                for d in (cfg.journal_dir, cfg.cache_dir)
                if d and os.path.isdir(d)
            ]
            if sweep:
                from repro.doctor import run_doctor

                self.doctor_report = run_doctor(
                    sweep, repair=True, metrics=self.metrics
                )
        if cfg.journal_dir:
            self.journal = RequestJournal(
                cfg.journal_dir,
                grammars=sorted(self.services),
                metrics=self.metrics,
                fsync_every_done=cfg.fsync_every_done,
            )
        total_workers = max(1, cfg.workers) * len(self.services)
        self._executor = ThreadPoolExecutor(
            max_workers=total_workers + 4,
            thread_name_prefix="repro-serve-dispatch",
        )
        self._drain_requested = asyncio.Event()
        loop = asyncio.get_running_loop()
        for service in self.services.values():
            # The warm per-grammar instance: builds (or rehydrates) the
            # whole artifact set through the cache ONCE; workers and
            # restarts fork from it instead of rebuilding.
            from repro.batch import build_batch_translator

            service.translator = await loop.run_in_executor(
                self._executor,
                lambda s=service: build_batch_translator(
                    s.spec, metrics=self.metrics
                ),
            )
            for wid in range(max(1, cfg.workers)):
                handle = WorkerHandle(
                    service.spec,
                    worker_id=wid,
                    metrics=self.metrics,
                    translator=service.translator,
                )
                handle.start()
                service.workers.append(handle)
                service.backoffs[wid] = Backoff()
                service.busy[wid] = False
                self._tasks.append(
                    asyncio.create_task(
                        self._dispatch_loop(service, handle),
                        name=f"dispatch-{service.name}-{wid}",
                    )
                )
        self._tasks.append(
            asyncio.create_task(self._supervise_loop(), name="supervisor")
        )
        if cfg.disk_low_bytes > 0:
            from repro.governance import DiskWatermark

            self.watermark = DiskWatermark(
                path=cfg.journal_dir or ".",
                low_bytes=cfg.disk_low_bytes,
                high_bytes=max(cfg.disk_high_bytes, cfg.disk_low_bytes),
                metrics=self.metrics,
            )
            self._tasks.append(
                asyncio.create_task(
                    self._governance_loop(), name="governance"
                )
            )
        self._started = True

    def request_shutdown(self) -> None:
        """Stop admitting; :meth:`run`/:meth:`drain` finish the rest.
        Safe to call from a signal handler."""
        self.draining = True
        if self._drain_requested is not None:
            self._drain_requested.set()

    async def drain(self, timeout: Optional[float] = None) -> bool:
        """Finish in-flight work, seal the journal, stop the workers.

        Returns True when every queued request finished inside the
        deadline; on a deadline overrun the stragglers are failed fast
        (journaled as failures) and False is returned.
        """
        self.draining = True
        timeout = self.config.drain_timeout if timeout is None else timeout
        joins = [
            asyncio.ensure_future(service.queue.join())
            for service in self.services.values()
        ]
        clean = True
        try:
            await asyncio.wait_for(asyncio.gather(*joins), timeout)
        except asyncio.TimeoutError:
            clean = False
            for j in joins:
                j.cancel()
        # Fail whatever is still queued or in flight (deadline overrun)
        # BEFORE cancelling the dispatchers: a cancelled dispatcher's
        # finally block pops its in_flight entry, so resolving after
        # _stop_tasks() would miss every mid-execution request — its
        # client would await a future nobody ever sets and the journal
        # would seal with a 'req' record carrying no terminal record.
        # No await separates this loop from _stop_tasks(), so a
        # dispatcher cannot interleave and complete a request that was
        # just failed here.
        for service in self.services.values():
            for request in list(service.in_flight.values()):
                self._fail(
                    service,
                    request,
                    ServeError(
                        "daemon drained before this request finished"
                    ),
                    journal_type="DrainTimeout",
                )
            service.in_flight.clear()
            while True:
                try:
                    request = service.queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                self._fail(
                    service,
                    request,
                    ServeError(
                        "daemon drained before this request was served"
                    ),
                    journal_type="DrainTimeout",
                )
                service.queue.task_done()
        await self._stop_tasks()
        for service in self.services.values():
            for handle in service.workers:
                handle.stop()
        if self.journal is not None:
            self.journal.seal()
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        if self.metrics is not None:
            self.metrics.counter("serve.drains").inc()
            if not clean:
                self.metrics.counter("serve.drain_deadline_overruns").inc()
        return clean

    async def run(self) -> int:
        """Serve until :meth:`request_shutdown`, then drain.  Returns
        the process exit code (0 = clean drain)."""
        await self.start()
        assert self._drain_requested is not None
        await self._drain_requested.wait()
        await self.drain()
        # A drain-deadline overrun fails the stragglers fast but is
        # still a *graceful* exit: the journal is sealed and says so.
        return 0

    async def _stop_tasks(self) -> None:
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []

    # -- admission ---------------------------------------------------------

    async def submit(
        self,
        grammar: str,
        text: str,
        timeout: Optional[float] = None,
    ) -> ServeResult:
        """Admit one request and await its outcome.

        Raises :class:`~repro.errors.ServerOverloaded` (queue full or
        draining), :class:`~repro.errors.GrammarUnavailable` (breaker
        open), :class:`~repro.errors.TranslationTimeout`, or
        :class:`~repro.errors.WorkerCrashed` (retries exhausted).
        Per-input translation errors come back as a ``ServeResult``
        with ``ok=False`` — the service worked; the input was bad.
        A ``timeout`` that is not a positive, finite number raises
        :class:`ValueError` before admission.
        """
        if timeout is not None and not 0 < timeout < math.inf:
            # A NaN, infinite or non-positive deadline would time out at
            # once, kill a worker and count a breaker failure.
            raise ValueError(
                "timeout must be a positive, finite number of seconds, "
                f"not {timeout!r}"
            )
        service = self.services.get(grammar)
        if service is None:
            raise ServeError(
                f"unknown grammar {grammar!r}; serving "
                f"{sorted(self.services)}"
            )
        if self.draining:
            self._count("serve.rejected")
            raise ServerOverloaded(
                "daemon is draining (shutdown in progress)",
                retry_after=self.config.drain_timeout,
            )
        if self.degraded:
            # Low-disk degraded mode: refuse new durable work (each
            # admission wants journal bytes) but keep the socket, the
            # health probe, and the stats endpoint fully alive.
            self._count("governance.rejected_degraded")
            raise GrammarUnavailable(
                f"grammar {grammar!r} is degraded: free disk is below "
                "the low watermark (journal suspended; retry shortly)",
                grammar=grammar,
                retry_after=max(1.0, self.config.governance_interval * 2),
            )
        service.breaker.admit()  # raises GrammarUnavailable when open
        self._next_id += 1
        request = Request(
            id=self._next_id,
            grammar=grammar,
            text=text,
            deadline=Deadline(
                self.config.request_timeout if timeout is None else timeout
            ),
            future=asyncio.get_running_loop().create_future(),
        )
        try:
            service.queue.put_nowait(request)
        except asyncio.QueueFull:
            self._count("serve.rejected")
            service.breaker.release_probe()  # a rejected probe resolves
            raise ServerOverloaded(
                f"grammar {grammar!r} queue is full "
                f"({service.queue.maxsize} pending)",
                retry_after=service.retry_after(),
            ) from None
        self._count("serve.admitted")
        if self.journal is not None:
            self.journal.admitted(request.id, grammar, text)
        return await request.future

    # -- dispatch ----------------------------------------------------------

    async def _dispatch_loop(
        self, service: GrammarService, handle: WorkerHandle
    ) -> None:
        while True:
            request = await service.queue.get()
            service.in_flight[handle.worker_id] = request
            try:
                await self._execute(service, handle, request)
            finally:
                service.in_flight.pop(handle.worker_id, None)
                service.queue.task_done()

    async def _execute(
        self, service: GrammarService, handle: WorkerHandle, request: Request
    ) -> None:
        loop = asyncio.get_running_loop()
        backoff = service.backoffs[handle.worker_id]
        while True:
            if request.deadline.expired:
                self._count("serve.timeouts")
                # Queue-wait expiry is a load signal, not a grammar
                # health signal: no breaker failure, but a half-open
                # probe that expired in the queue must resolve.
                service.breaker.release_probe()
                self._fail(
                    service,
                    request,
                    TranslationTimeout(
                        "request deadline expired while queued "
                        f"({request.deadline.seconds:.3g}s)",
                        seconds=request.deadline.seconds,
                    ),
                )
                return
            if not handle.alive:
                await self._restart(service, handle)
            request.attempts += 1
            service.busy[handle.worker_id] = True
            started = time.perf_counter()
            try:
                answer = await loop.run_in_executor(
                    self._executor,
                    handle.call,
                    request.id,
                    request.text,
                    request.deadline.remaining(),
                )
            except TranslationTimeout as exc:
                service.busy[handle.worker_id] = False
                # The worker is wedged on this request: kill it so the
                # slot frees up; a timeout is not retried (the deadline
                # is gone) and does not trip the breaker by itself more
                # than once.
                self._count("serve.timeouts")
                service.breaker.record_failure()
                self._fail(service, request, exc)
                await self._restart(service, handle)
                return
            except WorkerCrashed as exc:
                service.busy[handle.worker_id] = False
                service.breaker.record_failure()
                await self._restart(service, handle)
                if (
                    request.attempts <= self.config.max_retries
                    and not request.deadline.expired
                    and service.breaker.available
                ):
                    self._count("serve.retries")
                    continue  # idempotent by construction: re-dispatch
                self._fail(service, request, exc)
                return
            finally:
                service.busy[handle.worker_id] = False
            seconds = time.perf_counter() - started
            backoff.reset()
            service.observe_seconds(seconds)
            self._finish(service, handle, request, answer, seconds)
            return

    async def _restart(
        self, service: GrammarService, handle: WorkerHandle
    ) -> None:
        """Restart one worker with exponential backoff (supervisor and
        dispatcher share this path; the counter lives in the handle)."""
        delay = service.backoffs[handle.worker_id].next_delay()
        if delay > 0:
            await asyncio.sleep(delay)
        handle.restart()

    def _finish(
        self,
        service: GrammarService,
        handle: WorkerHandle,
        request: Request,
        answer,
        seconds: float,
    ) -> None:
        from repro.evalgen.runtime import render_root_attrs

        if request.future.done():
            # drain() already failed this request (the worker answered
            # in the same tick the dispatcher was cancelled): the client
            # holds a DrainTimeout and the journal its terminal record —
            # exactly-once accounting means this late answer is dropped.
            return
        _, ok, attrs, _, error_type, error, _ = answer
        if ok:
            output = "\n".join(render_root_attrs(attrs)) + "\n"
            result = ServeResult(
                request_id=request.id,
                grammar=service.name,
                ok=True,
                output=output,
                seconds=seconds,
                worker_id=handle.worker_id,
                retries=request.attempts - 1,
            )
            service.breaker.record_success()
            self._count("serve.completed")
            if self.metrics is not None:
                self.metrics.histogram("serve.request.seconds").observe(
                    seconds
                )
            if self.journal is not None:
                self.journal.completed(
                    request.id,
                    service.name,
                    output,
                    seconds,
                    worker_id=handle.worker_id,
                    retries=request.attempts - 1,
                )
        else:
            # Per-input failure: the *service* worked, so the breaker
            # records success; the client gets the typed error back.
            result = ServeResult(
                request_id=request.id,
                grammar=service.name,
                ok=False,
                error_type=error_type,
                error=error,
                seconds=seconds,
                worker_id=handle.worker_id,
                retries=request.attempts - 1,
            )
            service.breaker.record_success()
            self._count("serve.input_errors")
            if self.journal is not None:
                self.journal.failed(
                    request.id, service.name, error_type or "?",
                    error or "", seconds,
                )
        if not request.future.done():
            request.future.set_result(result)

    def _fail(
        self,
        service: GrammarService,
        request: Request,
        exc: ServeError,
        journal_type: Optional[str] = None,
    ) -> None:
        if request.future.done():
            return  # already resolved elsewhere: keep the journal exactly-once
        self._count("serve.failed")
        if self.journal is not None:
            self.journal.failed(
                request.id,
                service.name,
                journal_type or type(exc).__name__,
                str(exc),
            )
        if not request.future.done():
            request.future.set_exception(exc)

    # -- supervision -------------------------------------------------------

    async def _supervise_loop(self) -> None:
        """Restart idle workers that died or stopped heartbeating.

        Busy workers are owned by their dispatcher (whose blocking call
        notices death within one poll interval); the supervisor covers
        the *idle* half: a worker OOM-killed or frozen between requests
        is restarted here before the next request would hit it.
        """
        interval = max(0.2, self.config.heartbeat_timeout / 4)
        # One restart task per worker, never awaited inline: a flapping
        # worker's exponential-backoff sleep (up to seconds) must not
        # stall heartbeat scanning and restarts of every other worker.
        restarts: Dict[Tuple[str, int], asyncio.Task] = {}
        try:
            while True:
                await asyncio.sleep(interval)
                for service in self.services.values():
                    for handle in service.workers:
                        key = (service.name, handle.worker_id)
                        pending = restarts.get(key)
                        if pending is not None:
                            if not pending.done():
                                continue  # restart/backoff in progress
                            restarts.pop(key)
                            if not pending.cancelled():
                                # A failed respawn leaves the worker
                                # dead; the next scan retries it.
                                pending.exception()
                        if service.busy.get(handle.worker_id):
                            continue
                        hung = (
                            handle.heartbeat_age()
                            > self.config.heartbeat_timeout
                        )
                        if handle.alive and not hung:
                            continue
                        if hung and handle.alive:
                            self._count("serve.heartbeat_kills")
                            handle.kill()
                        restarts[key] = asyncio.create_task(
                            self._restart(service, handle),
                            name=f"restart-{key[0]}-{key[1]}",
                        )
        finally:
            for task in restarts.values():
                task.cancel()
            if restarts:
                await asyncio.gather(
                    *restarts.values(), return_exceptions=True
                )

    # -- governance --------------------------------------------------------

    async def _governance_loop(self) -> None:
        """Probe free space and flip degraded mode with hysteresis.

        A trip below the low watermark suspends the journal (later
        completions are counted, not written; the eventual resume writes
        an explicit gap marker so the stream stays verifiable), starts
        refusing translations with 503 + Retry-After, and shrinks the
        build cache to its cap to help the disk recover.  Climbing back
        above the high watermark resumes journaling and admission.
        """
        assert self.watermark is not None
        interval = max(0.05, self.config.governance_interval)
        while True:
            await asyncio.sleep(interval)
            was = self.degraded
            now = self.watermark.check()
            if now and not was:
                self.degraded = True
                self._count("governance.serve_degraded")
                if self.journal is not None:
                    self.journal.suspend()
                if self.config.cache_dir and self.config.cache_max_bytes > 0:
                    from repro.buildcache import BuildCache
                    from repro.governance import evict_cache

                    loop = asyncio.get_running_loop()
                    await loop.run_in_executor(
                        self._executor,
                        lambda: evict_cache(
                            BuildCache(self.config.cache_dir),
                            self.config.cache_max_bytes,
                            metrics=self.metrics,
                        ),
                    )
            elif was and not now:
                if self.journal is None or self.journal.resume():
                    self.degraded = False
                    self._count("governance.serve_recovered")
                # else: the gap marker itself would not land — stay
                # degraded and retry on the next probe.

    # -- introspection -----------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` body: liveness plus per-grammar state.

        Each grammar reports ``state`` (``ok`` / ``degraded`` /
        ``unavailable``) with machine-readable ``reasons``; the
        top-level ``status`` is ``ok``, ``degraded`` (some grammar
        impaired), ``unavailable`` (every grammar refusing work — the
        only non-draining case /healthz maps to 503), or ``draining``.
        """
        grammars: Dict[str, Any] = {}
        for name, service in self.services.items():
            reasons = []
            if service.breaker.state == CircuitBreaker.OPEN:
                reasons.append("breaker-open")
            if self.degraded:
                reasons.append("low-disk")
            if not any(h.alive for h in service.workers):
                reasons.append("no-workers-alive")
            if "breaker-open" in reasons or "no-workers-alive" in reasons:
                state = "unavailable"
            elif reasons:
                state = "degraded"
            else:
                state = "ok"
            grammars[name] = {
                "state": state,
                "reasons": reasons,
                "breaker": service.breaker.state,
                "queued": service.queue.qsize(),
                "queue_depth": service.queue.maxsize,
                "workers_alive": sum(1 for h in service.workers if h.alive),
                "workers": len(service.workers),
                "retry_after": service.retry_after(),
            }
        if self.draining:
            status = "draining"
        elif grammars and all(
            g["state"] == "unavailable" for g in grammars.values()
        ):
            status = "unavailable"
        elif any(g["state"] != "ok" for g in grammars.values()):
            status = "degraded"
        else:
            status = "ok"
        body: Dict[str, Any] = {
            "status": status,
            "degraded": self.degraded,
            "grammars": grammars,
        }
        if self.watermark is not None:
            body["disk"] = {
                "free_bytes": self.watermark.free_bytes(),
                "low_bytes": self.watermark.low_bytes,
                "high_bytes": self.watermark.high_bytes,
                "trips": self.watermark.trips,
                "recoveries": self.watermark.recoveries,
            }
        if self.journal is not None:
            body["journal"] = {
                "suspended": self.journal.suspended,
                "lost_records": self.journal.lost_records,
            }
        return body

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()


"""``repro serve``: the LINGUIST translator as a long-lived service.

The paper's economics (§V) split translator cost into an expensive
once-per-grammar build and a cheap per-input streaming translation; a
per-request *process* re-pays startup and cache rehydration every
time.  This package keeps the build warm in a daemon and streams
translation requests through a pool of **supervised** subprocess
workers:

* :mod:`repro.serve.workers` — the worker lifecycle shared with
  ``repro batch``: a :class:`WorkerHandle` owns one subprocess (fresh
  queues per incarnation, heartbeat, kill/restart) that rehydrates its
  translator from the build cache via a
  :class:`~repro.batch.WorkerSpec`.
* :mod:`repro.serve.admission` — the robustness primitives: bounded
  admission (typed :class:`~repro.errors.ServerOverloaded` with
  ``Retry-After``, never unbounded buffering), per-request
  :class:`Deadline`, exponential :class:`Backoff`, and a
  :class:`CircuitBreaker` that degrades a persistently-failing grammar
  to *unavailable* instead of poisoning the pool.
* :mod:`repro.serve.journal` — a durable CRC-framed NDJSON request
  journal (``SRVJ1``, a sealed line log) so a killed daemon can
  report exactly which requests completed; ``repro fsck`` verifies and
  salvages it.
* :mod:`repro.serve.daemon` — the asyncio service: per-grammar bounded
  queues, dispatcher tasks, a supervisor that restarts dead workers
  with backoff and re-dispatches (bounded retries) or fails-fast the
  in-flight request, and graceful drain on SIGTERM.
* :mod:`repro.serve.http` — a dependency-free HTTP/1.1 front end
  (``POST /translate``, ``GET /healthz``, ``GET /stats``) whose
  translation bodies are byte-identical to ``repro run`` / ``repro
  batch`` output.

See ``docs/serving.md`` for lifecycle, backpressure, and journal
format.
"""

from repro.serve.admission import Backoff, CircuitBreaker, Deadline
from repro.serve.daemon import (
    GrammarService,
    Request,
    ServeConfig,
    ServeResult,
    TranslationServer,
)
from repro.serve.journal import (
    JOURNAL_FORMAT,
    JournalScanReport,
    JournalState,
    RequestJournal,
    replay_journal,
    salvage_journal,
    scan_journal,
)
from repro.serve.workers import WorkerHandle, worker_main

__all__ = [
    "Backoff",
    "CircuitBreaker",
    "Deadline",
    "GrammarService",
    "JOURNAL_FORMAT",
    "JournalScanReport",
    "JournalState",
    "Request",
    "RequestJournal",
    "ServeConfig",
    "ServeResult",
    "TranslationServer",
    "WorkerHandle",
    "replay_journal",
    "salvage_journal",
    "scan_journal",
    "worker_main",
]

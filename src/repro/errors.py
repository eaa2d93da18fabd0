"""Diagnostics and the exception hierarchy shared by every repro subsystem.

LINGUIST-86 reports errors against source coordinates of the input
attribute grammar (and its generated evaluators carry error *messages*
around the APT as attribute values).  This module supplies the small
amount of shared machinery: a source location, a severity-tagged
diagnostic record, a collector, and one exception class per pipeline
stage so callers can distinguish scan errors from, say, a failure of the
alternating-pass evaluability test.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, List, NamedTuple, Optional


class Severity(enum.Enum):
    """Severity of a diagnostic, in increasing order of badness."""

    NOTE = "note"
    WARNING = "warning"
    ERROR = "error"

    def __lt__(self, other: object):
        if not isinstance(other, Severity):
            return NotImplemented
        order = [Severity.NOTE, Severity.WARNING, Severity.ERROR]
        return order.index(self) < order.index(other)


class SourceLocation(NamedTuple):
    """A position in an input text: 1-based line and column.

    A named tuple (immutable, ordered, hashable) rather than a frozen
    dataclass: the scanner builds one per token, and a tuple is about
    twice as cheap to build.
    """

    line: int = 0
    column: int = 0
    filename: str = "<input>"

    def __str__(self) -> str:
        if self.line == 0:
            return self.filename
        return f"{self.filename}:{self.line}:{self.column}"


#: Location used for diagnostics not tied to any source position.
NOWHERE = SourceLocation()


@dataclass(frozen=True)
class Diagnostic:
    """One message produced by some stage of the pipeline."""

    severity: Severity
    message: str
    location: SourceLocation = NOWHERE

    def __str__(self) -> str:
        return f"{self.location}: {self.severity.value}: {self.message}"


class DiagnosticSink:
    """Accumulates diagnostics; the pass-structured driver shares one sink.

    Mirrors LINGUIST-86's intermediate "message file": overlays append
    messages and the listing overlay renders them merged with the source.
    """

    def __init__(self) -> None:
        self._items: List[Diagnostic] = []

    def emit(
        self,
        severity: Severity,
        message: str,
        location: SourceLocation = NOWHERE,
    ) -> Diagnostic:
        diag = Diagnostic(severity, message, location)
        self._items.append(diag)
        return diag

    def note(self, message: str, location: SourceLocation = NOWHERE) -> Diagnostic:
        return self.emit(Severity.NOTE, message, location)

    def warning(self, message: str, location: SourceLocation = NOWHERE) -> Diagnostic:
        return self.emit(Severity.WARNING, message, location)

    def error(self, message: str, location: SourceLocation = NOWHERE) -> Diagnostic:
        return self.emit(Severity.ERROR, message, location)

    @property
    def error_count(self) -> int:
        return sum(1 for d in self._items if d.severity is Severity.ERROR)

    @property
    def has_errors(self) -> bool:
        return self.error_count > 0

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def sorted_by_location(self) -> List[Diagnostic]:
        return sorted(self._items, key=lambda d: d.location)

    def raise_if_errors(self, exc_type: Optional[type] = None) -> None:
        """Raise ``exc_type`` (default :class:`SemanticError`) summarizing errors."""
        if not self.has_errors:
            return
        exc = exc_type or SemanticError
        errors = [d for d in self._items if d.severity is Severity.ERROR]
        raise exc(
            f"{len(errors)} error(s):\n" + "\n".join(str(d) for d in errors),
            diagnostics=errors,
        )


class ReproError(Exception):
    """Base class for every error raised by the repro package."""

    def __init__(self, message: str, diagnostics: Optional[List[Diagnostic]] = None):
        super().__init__(message)
        self.diagnostics: List[Diagnostic] = list(diagnostics or [])


class ScanError(ReproError):
    """Lexical error in some input text."""


class ParseError(ReproError):
    """Syntax error in some input text."""


class GrammarError(ReproError):
    """Structural error in a context-free grammar (for the LALR builder)."""


class ConflictError(GrammarError):
    """The grammar is not LALR(1): the table builder found conflicts."""


class SemanticError(ReproError):
    """The attribute grammar violates a static rule (well-formedness)."""


class CircularityError(SemanticError):
    """The attribute grammar fails the non-circularity test."""


class PassError(ReproError):
    """The attribute grammar is not evaluable in alternating passes."""


class EvaluationError(ReproError):
    """A generated or interpreted evaluator failed at APT-evaluation time."""


class CorruptionError(ReproError):
    """A durable artifact failed an integrity check.

    The one base of every per-format corruption error, so a damaged
    file is reported the same way whatever its format: ``path`` is the
    artifact, ``record_index`` the 0-based index of the damaged record
    (``None`` when the file as a whole is unusable), and ``reason`` a
    short machine-readable tag (``"framing"``, ``"checksum"``,
    ``"header"``, ``"seal"``, ``"truncated"``, ``"missing"``, ...).
    ``noun`` names the format in messages.
    """

    noun = "artifact"

    def __init__(
        self,
        message: str,
        *,
        record_index: Optional[int] = None,
        path: Optional[str] = None,
        reason: str = "corrupt",
        diagnostics: Optional[List[Diagnostic]] = None,
    ):
        super().__init__(message, diagnostics=diagnostics)
        self.record_index = record_index
        self.path = path
        self.reason = reason

    def locus(self) -> str:
        """Human-readable ``record N`` locator."""
        rec = "?" if self.record_index is None else str(self.record_index)
        return f"record {rec}"


class SpoolCorruptionError(CorruptionError, EvaluationError):
    """An APT spool file failed an integrity check.

    Carries the precise failure locus so a corrupt record can be
    reported against its position in the linearized tree (the
    *systematic debugging* requirement) instead of surfacing as a blind
    crash: ``record_index`` is the 0-based index of the record whose
    framing or checksum failed (in *forward*, i.e. file, order;
    ``None`` when the damage precedes any record, e.g. a bad header),
    ``byte_offset`` is the file offset where the inconsistency was
    detected, and ``reason`` is a short machine-readable tag
    (``"checksum"``, ``"truncated"``, ``"framing"``, ``"header"``,
    ``"footer"``, ``"nametable"``, ``"missing"``; a manifest-listed
    spool that is not the one listed is ``"stale"``).

    Spools are block-framed, so errors also carry a block-relative
    locus: ``block_index`` is the 0-based index of the damaged block
    and ``block_byte_offset`` the offset of the failure *inside* that
    block's payload (``None`` when the damage is the block frame
    itself or lies outside the blocks).
    """

    def __init__(
        self,
        message: str,
        *,
        record_index: Optional[int] = None,
        byte_offset: Optional[int] = None,
        path: Optional[str] = None,
        reason: str = "corrupt",
        block_index: Optional[int] = None,
        block_byte_offset: Optional[int] = None,
        diagnostics: Optional[List[Diagnostic]] = None,
    ):
        super().__init__(
            message, record_index=record_index, path=path, reason=reason,
            diagnostics=diagnostics,
        )
        self.byte_offset = byte_offset
        self.block_index = block_index
        self.block_byte_offset = block_byte_offset

    def locus(self) -> str:
        """Human-readable ``record N @ byte M`` locator; block-framed
        spools append ``(block B + O)`` — the block-relative locus."""
        off = "?" if self.byte_offset is None else str(self.byte_offset)
        base = f"{super().locus()} @ byte {off}"
        if self.block_index is not None:
            if self.block_byte_offset is None:
                base += f" (block {self.block_index})"
            else:
                base += (
                    f" (block {self.block_index}"
                    f" + {self.block_byte_offset})"
                )
        return base


class ResumeError(EvaluationError):
    """A checkpoint manifest could not be used to resume an evaluation
    (missing/garbled manifest, grammar or plan mismatch, or a
    checkpointed spool that fails verification)."""


class CacheCorruptionError(CorruptionError):
    """A build-cache entry failed an integrity check.

    The persistent grammar-artifact cache (:mod:`repro.buildcache`)
    seals every entry with the same header + CRC discipline as the
    spool format; any damage — bad magic, version skew, key mismatch,
    checksum failure, truncation, or an unpicklable payload — raises
    this error *internally* and is translated by
    :meth:`repro.buildcache.BuildCache.load` into a transparent miss
    (the damaged file is removed and the artifacts are rebuilt), never
    a crash.  ``reason`` is a short machine-readable tag (``"header"``,
    ``"footer"``, ``"checksum"``, ``"truncated"``, ``"key"``,
    ``"payload"``, ``"version"``).
    """


class ProvenanceError(ReproError):
    """The attribute-provenance subsystem could not record or answer a
    query (missing log, malformed node path, unknown attribute)."""


class ProvenanceCorruptionError(CorruptionError, ProvenanceError):
    """A sealed PROV1 provenance log failed an integrity check, reported
    against the exact record so ``repro debug`` degrades into a
    diagnosis instead of a crash."""

    noun = "provenance"


class MemoCorruptionError(CorruptionError):
    """A sealed MEMO2 incremental-translation memo failed an integrity
    check.  Never fatal to a translation: the loader degrades it to a
    silent cold miss (``incremental.invalidations``) and ``repro
    fsck``/``doctor`` surface this error instead.  Beyond the sealed-log
    reasons, ``reason`` may be ``"identity"``, ``"stale"``,
    ``"spool"`` or ``"range"``."""

    noun = "memo"


class ServeError(ReproError):
    """Base class for translation-service (``repro serve``) failures."""


class ServerOverloaded(ServeError):
    """Admission control rejected a request: the grammar's bounded queue
    is full.

    The daemon never buffers without bound — a full queue is reported
    to the client immediately with ``retry_after`` (seconds), the
    admission controller's estimate of when capacity frees up (surfaced
    as an HTTP ``Retry-After`` header).
    """

    def __init__(
        self,
        message: str,
        *,
        retry_after: float = 1.0,
        diagnostics: Optional[List[Diagnostic]] = None,
    ):
        super().__init__(message, diagnostics=diagnostics)
        self.retry_after = retry_after


class TranslationTimeout(ServeError):
    """A translation exceeded its deadline.

    Raised by ``repro serve`` when a request outlives its per-request
    deadline and by ``repro batch --timeout`` when one input stalls the
    pool; in both cases the worker running the input is killed and
    restarted, so one hung input never wedges the service.  ``seconds``
    is the budget that was exhausted.
    """

    def __init__(
        self,
        message: str,
        *,
        seconds: Optional[float] = None,
        diagnostics: Optional[List[Diagnostic]] = None,
    ):
        super().__init__(message, diagnostics=diagnostics)
        self.seconds = seconds


class WorkerCrashed(ServeError):
    """A supervised worker process died while holding a request
    (crash, OOM-kill, or SIGKILL).  ``exitcode`` is the process's exit
    status (negative = killed by that signal number, ``None`` = the
    worker stopped responding but the process object outlived it)."""

    def __init__(
        self,
        message: str,
        *,
        exitcode: Optional[int] = None,
        worker_id: Optional[int] = None,
        diagnostics: Optional[List[Diagnostic]] = None,
    ):
        super().__init__(message, diagnostics=diagnostics)
        self.exitcode = exitcode
        self.worker_id = worker_id


class GrammarUnavailable(ServeError):
    """The grammar's circuit breaker is open: recent requests failed at
    the infrastructure level (worker crashes, timeouts) persistently
    enough that the service degrades this grammar to *unavailable*
    instead of letting it poison the worker pool.  ``retry_after`` is
    the time until the breaker probes again (half-open)."""

    def __init__(
        self,
        message: str,
        *,
        grammar: Optional[str] = None,
        retry_after: float = 1.0,
        diagnostics: Optional[List[Diagnostic]] = None,
    ):
        super().__init__(message, diagnostics=diagnostics)
        self.grammar = grammar
        self.retry_after = retry_after


class JournalCorruptionError(CorruptionError, ServeError):
    """A SRVJ1 request journal failed an integrity check, reported
    against the exact record so ``repro fsck`` can name the valid
    prefix."""

    noun = "journal"


class GovernanceError(ReproError):
    """Base of resource-governance failures (``repro.governance``)."""


class DiskBudgetExceeded(GovernanceError):
    """A run's disk budget would be overspent by the attempted charge.

    Raised *before* the bytes hit the disk — the budget is admission
    control for storage, not a post-hoc audit.  Carries the budget, the
    bytes already charged, and the charge that pushed it over.
    """

    def __init__(self, budget: int, charged: int, attempted: int,
                 label: str = ""):
        self.budget = budget
        self.charged = charged
        self.attempted = attempted
        self.label = label
        what = f" for {label}" if label else ""
        super().__init__(
            f"disk budget exceeded{what}: {charged} bytes charged "
            f"+ {attempted} attempted > budget {budget}"
        )


class GenerationError(ReproError):
    """Evaluator code generation failed."""


class TelemetryError(ReproError):
    """The telemetry subsystem detected an inconsistency (e.g. a metric
    registered under two kinds, or an unbalanced memory-gauge ledger)."""

"""The durable request journal: what did the daemon actually finish?

A long-lived service that can be killed at any instant owes its
operator an exact answer to "which requests completed?".  The serve
daemon streams one line per request-state transition into an
append-only sealed line log (:mod:`repro.util.sealedlog`, shared with
PROV1 and MEMO1), and a graceful drain appends the seal line.  Unlike
a provenance log the journal must be *readable after a crash* — a
SIGKILLed daemon leaves an unsealed journal, possibly with one torn
final line, and that is an expected state: the checksum-valid
prefix is authoritative (a torn tail is reported, not fatal), and
anything the prefix says ``done`` was durably completed before the
crash.

Record kinds (field ``e``)::

    hdr   {"format":"SRVJ1","grammars":[...],"pid":...}
    req   {"i":seq,"id":R,"g":grammar,"sha":input-sha256}   admitted
    done  {"i":seq,"id":R,"g":grammar,"sha":output-sha256,
           "ms":...,"w":worker,"r":retries}                 completed
    fail  {"i":seq,"id":R,"g":grammar,"t":type,"msg":...}   failed
    gap   {"lost":L,"base":seq}                             suspension ended
    seal  {"n":records,"crc":stream-crc}                    clean drain

Disk pressure gets an *explicit* story instead of a corrupt stream:
when a write fails (ENOSPC) or governance trips the low-disk
watermark, the journal **suspends** — records are dropped and counted,
never half-written — and on :meth:`RequestJournal.resume` it writes a
newline terminator (sealing off whatever fragment the failed write
left) followed by a ``gap`` record naming how many records were lost
and the sequence number the stream resumes from.  The stream CRC
restarts at the gap line, so the scanners treat at most one
unverifiable line immediately before a valid ``gap`` record as
*explicit truncation*, not corruption.

``repro fsck`` sniffs the ``SRVJ1`` tag and routes here:
:func:`scan_journal` verifies, :func:`salvage_journal` recovers the
valid prefix into a freshly sealed journal, and :func:`replay_journal`
reduces the record stream to a :class:`JournalState` (completed /
failed / in-flight requests) — the crash-recovery report.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import JournalCorruptionError
from repro.util import atomic_write as _aw
from repro.util import sealedlog

__all__ = [
    "JOURNAL_FORMAT",
    "JOURNAL_NAME",
    "JournalScanReport",
    "JournalState",
    "RequestJournal",
    "replay_journal",
    "salvage_journal",
    "scan_journal",
]

#: Format tag in the header line; bump on incompatible layout changes.
JOURNAL_FORMAT = "SRVJ1"

#: Default file name inside a ``--journal`` directory.
JOURNAL_NAME = "requests.ndjson"


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def journal_path(directory_or_file: str) -> str:
    """``--journal`` accepts a directory (the journal lands at
    ``requests.ndjson`` inside it) or an explicit ``*.ndjson`` file
    path.  A path that does not exist yet counts as a directory unless
    it is named like an NDJSON file — the daemon creates it."""
    if os.path.isfile(directory_or_file) or directory_or_file.endswith(
        ".ndjson"
    ):
        return directory_or_file
    return os.path.join(directory_or_file, JOURNAL_NAME)


def rotate_existing(path: str) -> Optional[str]:
    """Move an existing journal aside (``requests.1.ndjson``, ...) so a
    fresh daemon run never appends into an older run's stream; returns
    the rotated-to path (or None)."""
    if not os.path.exists(path):
        return None
    stem, ext = os.path.splitext(path)
    n = 1
    while os.path.exists(f"{stem}.{n}{ext}"):
        n += 1
    rotated = f"{stem}.{n}{ext}"
    os.replace(path, rotated)
    return rotated


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------


class RequestJournal:
    """Append-only journal writer for one daemon run.

    Every line is flushed to the OS as it is written, so a SIGKILLed
    *process* loses at most the line being torn mid-write; pass
    ``fsync_every_done=True`` to additionally ``fsync`` after every
    ``done``/``fail`` record (machine-crash durability, at a per-request
    I/O cost).  :meth:`seal` fsyncs unconditionally.
    """

    def __init__(
        self,
        directory_or_file: str,
        grammars: Optional[List[str]] = None,
        metrics=None,
        fsync_every_done: bool = False,
    ):
        path = journal_path(directory_or_file)
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self.rotated_from = rotate_existing(path)
        self.path = path
        self._fsync_every_done = fsync_every_done
        self._seq = 0
        self._sealed = False
        self._suspended = False
        self._lost = 0
        self._metrics = metrics
        self._f = _aw.open_file(path, "w", encoding="utf-8")
        self._log = sealedlog.Appender(self._f)
        self._emit(
            {
                "e": "hdr",
                "format": JOURNAL_FORMAT,
                "grammars": sorted(grammars or []),
                "pid": os.getpid(),
            },
            count=False,
        )

    # -- events ------------------------------------------------------------

    def admitted(self, request_id: Any, grammar: str, text: str) -> None:
        self._emit(
            {
                "e": "req",
                "i": self._seq,
                "id": request_id,
                "g": grammar,
                "sha": sha256_text(text),
            }
        )

    def completed(
        self,
        request_id: Any,
        grammar: str,
        output: str,
        seconds: float,
        worker_id: Optional[int] = None,
        retries: int = 0,
    ) -> None:
        self._emit(
            {
                "e": "done",
                "i": self._seq,
                "id": request_id,
                "g": grammar,
                "sha": sha256_text(output),
                "ms": round(seconds * 1000.0, 3),
                "w": worker_id,
                "r": retries,
            },
            durable=self._fsync_every_done,
        )

    def failed(
        self,
        request_id: Any,
        grammar: str,
        error_type: str,
        message: str,
        seconds: float = 0.0,
    ) -> None:
        self._emit(
            {
                "e": "fail",
                "i": self._seq,
                "id": request_id,
                "g": grammar,
                "t": error_type,
                "msg": message[:500],
                "ms": round(seconds * 1000.0, 3),
            },
            durable=self._fsync_every_done,
        )

    def seal(self) -> None:
        """Seal the stream (graceful drain); idempotent.

        A suspended journal first tries to resume (write the gap
        marker); if the disk still refuses, the journal stays unsealed
        — an honest, classifiable crash artifact — rather than raising
        out of the drain path.
        """
        if self._sealed or self._f is None:
            return
        if self._suspended and not self.resume():
            self.close()
            return
        try:
            self._log.seal(self._seq)
            _aw.fsync_file(self._f)
            self._f.close()
        except OSError:
            self.close()
            return
        self._f = None
        self._sealed = True

    def close(self) -> None:
        """Close *without* sealing (crash-path cleanup in tests)."""
        if self._f is not None:
            try:
                self._f.close()
            except OSError:
                pass
            self._f = None

    @property
    def sealed(self) -> bool:
        return self._sealed

    # -- disk-pressure lifecycle -------------------------------------------

    @property
    def suspended(self) -> bool:
        return self._suspended

    @property
    def lost_records(self) -> int:
        """Records dropped while suspended (reset by :meth:`resume`)."""
        return self._lost

    def suspend(self) -> None:
        """Stop writing (low-disk watermark); records are dropped and
        counted until :meth:`resume` writes the gap marker."""
        if not self._suspended:
            self._suspended = True
            if self._metrics is not None:
                self._metrics.counter("serve.journal.suspensions").inc()

    def resume(self) -> bool:
        """End a suspension with an explicit ``gap`` record.

        Writes a newline (terminating whatever fragment the failing
        write may have left) followed by the gap record; the stream CRC
        restarts at the gap line, mirroring the scanner.  Returns False
        — still suspended — if the disk still refuses the write.
        """
        if not self._suspended:
            return True
        if self._f is None:
            return False
        self._log.crc = 0
        try:
            self._log.append(
                {"e": "gap", "lost": self._lost, "base": self._seq}, lead="\n"
            )
            _aw.fsync_file(self._f)
        except OSError:
            return False
        self._suspended = False
        self._lost = 0
        if self._metrics is not None:
            self._metrics.counter("serve.journal.gaps").inc()
        return True

    def _emit(
        self, obj: Dict[str, Any], count: bool = True, durable: bool = False
    ) -> None:
        if self._f is None:
            raise JournalCorruptionError(
                "journal is closed", path=self.path, reason="closed"
            )
        if self._suspended:
            self._lost += 1
            if self._metrics is not None:
                self._metrics.counter("serve.journal.lost_records").inc()
            return
        try:
            line = self._log.append(obj)
            self._f.flush()
            if durable:
                _aw.fsync_file(self._f)
        except OSError:
            # ENOSPC (or injected chaos) mid-line: the fragment on disk
            # is sealed off by the next resume()'s newline + gap
            # record.  Journaling degrades to counting, the daemon
            # keeps serving.
            self._lost += 1
            self.suspend()
            if self._metrics is not None:
                self._metrics.counter("serve.journal.lost_records").inc()
            return
        if count:
            self._seq += 1
        if self._metrics is not None:
            self._metrics.counter("serve.journal.records").inc()
            self._metrics.counter("serve.journal.bytes").inc(len(line))


# ---------------------------------------------------------------------------
# reading: scan / replay / salvage
# ---------------------------------------------------------------------------


class JournalScanReport(sealedlog.SealedScan):
    """Outcome of verifying a journal file: the SRVJ1 schema over the
    sealed line log.

    A ``gap`` record restarts the stream CRC and rebases the record
    count, so the one unverifiable line directly before it — the write
    the journal declared lost before suspending — is explicit
    truncation, not corruption.  An unsealed journal whose valid prefix
    ends in at most a torn line is clean: the expected state after a
    kill.
    """

    tag = JOURNAL_FORMAT
    error_type = JournalCorruptionError

    def rebase(self, obj: Dict[str, Any]) -> Optional[int]:
        base = obj.get("base")
        if obj.get("e") == "gap" and isinstance(base, int):
            return base
        return None

    @property
    def torn_tail(self) -> bool:
        return self.torn and self.ok and not self.sealed

    @property
    def n_valid(self) -> int:
        return len(self.records)

    @property
    def gaps(self) -> int:
        """Explicit suspension markers in the stream (disk-full episodes)."""
        return sum(1 for obj in self.records if obj.get("e") == "gap")

    @property
    def lost_records(self) -> int:
        """Records the writer declared dropped across all gap markers."""
        return sum(
            int(obj.get("lost", 0))
            for obj in self.records
            if obj.get("e") == "gap"
        )

    def render(self) -> str:
        state = (
            "sealed"
            if self.sealed
            else "UNSEALED (daemon did not drain cleanly)"
        )
        lines = [
            f"request journal: {self.path}",
            f"  format: {JOURNAL_FORMAT}, {state}",
            f"  valid records: {self.n_valid}"
            + (" + torn tail line (expected after a kill)"
               if self.torn_tail else ""),
        ]
        if self.gaps:
            lines.append(
                f"  gaps: {self.gaps} suspension(s), "
                f"{self.lost_records} record(s) explicitly dropped "
                "(disk pressure)"
            )
        if self.ok:
            lines.append("  integrity: OK")
        else:
            lines.append(
                f"  integrity: CORRUPT at {self.error.locus()} "
                f"[{self.error.reason}]"
            )
        return "\n".join(lines)


def scan_journal(path: str, metrics=None) -> JournalScanReport:
    """Verify every line of a journal; see :class:`JournalScanReport`
    for what counts as corruption vs an expected crash artifact."""
    report = JournalScanReport.scan(journal_path(path))
    if metrics is not None:
        metrics.counter("serve.journal.scans").inc()
        if not report.ok:
            metrics.counter("serve.journal.corrupt").inc()
    return report


def salvage_journal(path: str, out_path: str, metrics=None) -> JournalScanReport:
    """Recover the checksum-valid prefix of ``path`` into a freshly
    sealed journal at ``out_path`` (always sealed, always clean; gap
    markers are dropped — the records they stood in for were never on
    disk)."""
    report = scan_journal(path, metrics=metrics)
    sealedlog.reseal(out_path, [
        sealedlog.frame(obj)
        for obj in report.records
        if obj.get("e") != "gap"
    ])
    if metrics is not None:
        metrics.counter("serve.journal.salvaged").inc()
    return report


@dataclass
class JournalState:
    """The reduction of a journal stream: exactly which requests the
    daemon admitted, completed, and failed — the crash report."""

    path: str
    sealed: bool = False
    torn_tail: bool = False
    #: request id -> output sha256 (one entry per *completed* request).
    completed: Dict[Any, str] = field(default_factory=dict)
    #: request id -> (error_type, message).
    failed: Dict[Any, Tuple[str, str]] = field(default_factory=dict)
    #: admitted but neither completed nor failed (in flight at the kill).
    in_flight: List[Any] = field(default_factory=list)
    #: request ids with more than one done record (must stay empty:
    #: completed requests are never duplicated).
    duplicates: List[Any] = field(default_factory=list)
    n_records: int = 0
    #: Disk-pressure suspensions and the records they dropped.
    gaps: int = 0
    lost_records: int = 0

    @property
    def n_admitted(self) -> int:
        return len(self.completed) + len(self.failed) + len(self.in_flight)


def replay_journal(path: str) -> JournalState:
    """Reduce a (possibly unsealed, possibly torn-tailed) journal to its
    :class:`JournalState`; raises :class:`JournalCorruptionError` on
    damage *inside* the stream (not an expected crash artifact)."""
    report = scan_journal(path)
    if not report.ok:
        raise report.error
    state = JournalState(
        path=report.path,
        sealed=report.sealed,
        torn_tail=report.torn_tail,
        gaps=report.gaps,
        lost_records=report.lost_records,
    )
    admitted: Dict[Any, bool] = {}
    for obj in report.records:
        kind = obj.get("e")
        if kind in ("hdr", "gap"):
            continue
        state.n_records += 1
        rid = obj.get("id")
        if kind == "req":
            admitted[rid] = True
        elif kind == "done":
            if rid in state.completed:
                state.duplicates.append(rid)
            state.completed[rid] = obj.get("sha", "")
        elif kind == "fail":
            state.failed[rid] = (obj.get("t", "?"), obj.get("msg", ""))
    state.in_flight = [
        rid
        for rid in admitted
        if rid not in state.completed and rid not in state.failed
    ]
    return state

"""``repro doctor``: the unified crash-recovery sweeper.

Six durable formats can leave artifacts on a host — sealed v3 spools,
build-cache entries, PROV1 provenance logs, SRVJ1 request journals,
checkpoint manifests, and MEMO2 incremental-memo manifests
(with their generation-numbered splice spools) — and a crash, an
ENOSPC, or a killed daemon can leave any of them mid-flight.  ``repro
fsck`` judges *one* file; the doctor walks a whole tree, classifies
**every** path by sniffing its content, and with ``--repair`` salvages
what it can and garbage-collects the rest, so a host always converges
back to "every artifact sealed or gone".

Classification (``ArtifactState``):

========================  ===================================================
state                     meaning
========================  ===================================================
``sealed``                verified clean (CRCs, footer, seal all good)
``unsealed``              a journal without its seal line — the expected
                          artifact of a killed daemon; valid prefix intact
``unsealed-tmp``          ``*.tmp`` staging debris: a writer died before its
                          atomic rename; never referenced by a sealed name
``corrupt``               recognized format failing verification (bit rot,
                          torn write inside the stream)
``orphaned``              a checkpoint pass spool its manifest does not
                          list (progress past the last durable manifest
                          write, or debris of a dead run)
``foreign``               not one of ours; never touched
========================  ===================================================

Repair policy (``--repair``): salvage keeps data (corrupt spools,
provenance logs, and journals are rewritten to their checksum-valid
prefix in place, atomically); deletion is reserved for artifacts whose
loss is safe by design (corrupt cache entries rebuild on miss, tmp
debris was never observable, orphaned pass spools are re-derived on
resume); checkpoint manifests are *truncated* at the first damaged
pass so ``--resume`` restarts from the last good pass instead of
refusing.  The serve daemon runs a doctor pass over its journal and
cache directories at startup, so a crashed daemon always boots clean.

Both verbs read one table, :data:`FORMATS`: a row per format says how
to sniff, scan, salvage, classify and repair it.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apt.storage import (
    MAGIC_V3,
    open_listed_spool,
    salvage_spool,
    scan_spool,
)
from repro.buildcache.store import ENTRY_SUFFIX, MAGIC as CACHE_MAGIC, read_entry
from repro.errors import CacheCorruptionError, SpoolCorruptionError
from repro.obs.provenance import (
    PROV_FORMAT,
    salvage_provenance,
    scan_provenance,
)
from repro.passes.incremental import (
    MEMO_FORMAT,
    salvage_memo,
    scan_memo,
)
from repro.serve.journal import (
    JOURNAL_FORMAT,
    replay_journal,
    salvage_journal,
    scan_journal,
)
from repro.util import sealedlog

__all__ = [
    "FORMATS",
    "ArtifactFormat",
    "ArtifactState",
    "ArtifactReport",
    "DoctorReport",
    "run_doctor",
]

#: Checkpoint manifest file name (mirrors CheckpointManager.MANIFEST
#: without importing the evalgen driver at doctor-import time).
MANIFEST_NAME = "checkpoint.json"


class ArtifactFormat:
    SPOOL_V3 = "spool-v3"
    CACHE_ENTRY = "cache-entry"
    PROVENANCE = "provenance-log"
    JOURNAL = "request-journal"
    MANIFEST = "checkpoint-manifest"
    MEMO = "memo-manifest"
    UNKNOWN = "unknown"


#: Generation-numbered splice-source spools living beside a memo
#: manifest (``pass2.g7.spool``).  Checkpoint logic must never treat
#: them as checkpoint pass spools: their lifecycle belongs to the memo
#: manifest, not to ``checkpoint.json``.
_MEMO_SPOOL_RE = re.compile(r"^pass\d+\.g\d+\.spool$")


class ArtifactState:
    SEALED = "sealed"
    UNSEALED = "unsealed"
    UNSEALED_TMP = "unsealed-tmp"
    CORRUPT = "corrupt"
    ORPHANED = "orphaned"
    FOREIGN = "foreign"


@dataclass
class ArtifactReport:
    """One classified path (and, after ``--repair``, what was done)."""

    path: str
    format: str
    state: str
    detail: str = ""
    #: ``""`` (nothing), ``salvaged``, ``salvaged-with-loss``,
    #: ``deleted``, ``truncated-manifest``.
    action: str = ""

    def render(self) -> str:
        line = f"{self.state:13} {self.format:19} {self.path}"
        if self.detail:
            line += f"  ({self.detail})"
        if self.action:
            line += f"  -> {self.action}"
        return line


@dataclass
class DoctorReport:
    """The sweep's outcome over one or more directories."""

    artifacts: List[ArtifactReport] = field(default_factory=list)
    repaired: bool = False

    @property
    def clean(self) -> bool:
        """True when nothing needs (or needed) attention."""
        return not self.problems

    @property
    def problems(self) -> List[ArtifactReport]:
        return [
            a
            for a in self.artifacts
            if a.state
            in (
                ArtifactState.UNSEALED_TMP,
                ArtifactState.CORRUPT,
                ArtifactState.ORPHANED,
            )
            and not a.action
        ]

    @property
    def lossy(self) -> bool:
        """True when a repair discarded data (salvage dropped records,
        a manifest was truncated, artifacts were deleted)."""
        return any(
            a.action in ("salvaged-with-loss", "deleted", "truncated-manifest")
            for a in self.artifacts
        )

    def render(self) -> str:
        if not self.artifacts:
            return "doctor: nothing recognized"
        lines = [a.render() for a in self.artifacts]
        counts: Dict[str, int] = {}
        for a in self.artifacts:
            counts[a.state] = counts.get(a.state, 0) + 1
        summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        lines.append(f"doctor: {len(self.artifacts)} artifact(s): {summary}")
        if self.problems:
            lines.append(
                f"doctor: {len(self.problems)} problem(s) "
                + ("remain" if self.repaired else "found (run with --repair)")
            )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the format table
# ---------------------------------------------------------------------------


def _load_manifest_doc(path: str) -> Optional[Dict[str, Any]]:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or "completed" not in doc:
        return None
    return doc


def _memo_entries(n: int) -> str:
    return f"{n} memo entr{'y' if n == 1 else 'ies'}"


def _reason(report) -> str:
    return report.error.reason if report.error else "damaged"


def _classify_spool(path: str) -> Tuple[str, str]:
    report = scan_spool(path)
    if report.ok:
        return ArtifactState.SEALED, f"{report.n_valid} record(s)"
    return ArtifactState.CORRUPT, (
        f"valid prefix {report.n_valid} record(s); {_reason(report)}"
    )


def _repair_spool(path: str, metrics) -> str:
    report = salvage_spool(path, path, metrics=metrics)
    # A damaged header costs no record: when every sealed record walked
    # clean and the name table verified, the rewritten spool holds them.
    lossless = report.nametable_ok and report.n_valid == report.sealed_records
    return "salvaged" if lossless else "salvaged-with-loss"


def _classify_cache_entry(path: str) -> Tuple[str, str]:
    name = os.path.basename(path)
    key = name[: -len(ENTRY_SUFFIX)] if name.endswith(ENTRY_SUFFIX) else name
    try:
        read_entry(path, key)
    except FileNotFoundError:
        return ArtifactState.CORRUPT, "vanished mid-scan"
    except CacheCorruptionError as exc:
        return ArtifactState.CORRUPT, exc.reason
    return ArtifactState.SEALED, ""


def _delete(path: str, metrics) -> str:
    # By design: what this repair deletes is rebuilt or re-derived.
    os.unlink(path)
    return "deleted"


def _salvage_in_place(salvage) -> Callable[[str, Any], str]:
    def repair(path: str, metrics) -> str:
        salvage(path, path, metrics=metrics)
        return "salvaged-with-loss"

    return repair


def _classify_provenance(path: str) -> Tuple[str, str]:
    report = scan_provenance(path)
    if report.ok:
        return ArtifactState.SEALED, f"{report.n_events} event(s)"
    return ArtifactState.CORRUPT, f"valid prefix {report.n_valid} record(s)"


def _classify_journal(path: str) -> Tuple[str, str]:
    report = scan_journal(path)
    detail = f"{report.n_valid} record(s)"
    if report.gaps:
        detail += (
            f", {report.gaps} gap(s)/{report.lost_records} dropped "
            "(disk pressure)"
        )
    if report.ok and report.sealed:
        return ArtifactState.SEALED, detail
    if report.ok:
        if report.torn_tail:
            detail += " + torn tail"
        return ArtifactState.UNSEALED, detail
    return ArtifactState.CORRUPT, (
        f"valid prefix {report.n_valid} record(s); {_reason(report)}"
    )


def _journal_requests(report) -> List[str]:
    if not report.ok:
        return []
    state = replay_journal(report.path)
    return [
        f"  requests: {len(state.completed)} completed, "
        f"{len(state.failed)} failed, "
        f"{len(state.in_flight)} in flight at shutdown"
        + (f", {len(state.duplicates)} DUPLICATED"
           if state.duplicates else "")
    ]


def _classify_memo(path: str) -> Tuple[str, str]:
    report = scan_memo(path)
    if report.ok:
        return ArtifactState.SEALED, _memo_entries(report.n_valid)
    # A damaged memo costs speed, never correctness: it loads as a cold
    # miss, and its salvaged prefix stays warm.
    return ArtifactState.CORRUPT, (
        f"valid prefix {report.n_valid} entr"
        f"{'y' if report.n_valid == 1 else 'ies'}; "
        f"{_reason(report)} (loads as a cold miss)"
    )


def _classify_manifest(path: str) -> Tuple[str, str]:
    doc = _load_manifest_doc(path)
    if doc is None:
        return ArtifactState.CORRUPT, "manifest does not parse"
    return (
        ArtifactState.SEALED,
        f"{len(doc.get('completed', []))} pass(es) recorded",
    )


def _no_notes(report) -> List[str]:
    return []


def _records(report) -> str:
    return f"{report.n_valid} record(s)"


def _loss_events(report) -> Dict[str, Any]:
    return {"loss": 0 if report.ok else None, "n_events": report.n_events}


@dataclass(frozen=True)
class Format:
    """One row of the format table: everything ``repro doctor`` and
    ``repro fsck`` know about one durable format.

    ``sniff(path, head)`` recognizes it by content (``head`` is the
    file's first bytes); ``classify(path)`` gives the doctor's
    ``(state, detail)``; ``repair(path, metrics)`` mends a corrupt file
    and names the action (raising falls back to deleting it).  Rows
    with a ``tag`` are what ``repro fsck`` verifies: ``scan``/``salvage``
    produce a report with ``ok``/``n_valid``/``error``/``render()``,
    and the remaining fields word fsck's output — ``what`` names the
    artifact in the diagnostic, ``kept``/``prefix`` describe the
    salvaged and valid prefix, ``notes`` adds report lines and ``extra``
    the ``--json`` fields.
    """

    name: str
    sniff: Callable[[str, bytes], bool]
    classify: Callable[[str], Tuple[str, str]]
    repair: Callable[[str, Any], str]
    tag: Optional[str] = None
    scan: Optional[Callable[..., Any]] = None
    salvage: Optional[Callable[..., Any]] = None
    what: str = ""
    kept: Callable[[Any], str] = _records
    prefix: Callable[[Any], str] = _records
    notes: Callable[[Any], List[str]] = _no_notes
    extra: Callable[[Any], Dict[str, Any]] = _loss_events


#: Every format doctor knows, in sniffing order.
FORMATS: Tuple[Format, ...] = (
    Format(
        ArtifactFormat.SPOOL_V3,
        sniff=lambda path, head: head.startswith(MAGIC_V3),
        classify=_classify_spool,
        repair=_repair_spool,
        tag="spool-v3",
        scan=scan_spool,
        salvage=salvage_spool,
        what="spool",
        kept=lambda r: (
            f"{r.n_valid} record(s) ({r.valid_data_bytes:,} payload bytes)"
        ),
        prefix=lambda r: f"{r.n_valid} record(s), {r.valid_end_offset} bytes",
        extra=lambda r: {"loss": 0 if r.ok else (
            r.sealed_records - r.n_valid
            if r.sealed_records is not None else None)},
    ),
    Format(
        ArtifactFormat.CACHE_ENTRY,
        sniff=lambda path, head: head.startswith(CACHE_MAGIC),
        classify=_classify_cache_entry,
        repair=_delete,
    ),
    Format(
        ArtifactFormat.PROVENANCE,
        sniff=lambda path, head: sealedlog.sniff(head) == PROV_FORMAT,
        classify=_classify_provenance,
        repair=_salvage_in_place(salvage_provenance),
        tag=PROV_FORMAT,
        scan=scan_provenance,
        salvage=salvage_provenance,
        what="provenance log",
    ),
    Format(
        ArtifactFormat.JOURNAL,
        sniff=lambda path, head: sealedlog.sniff(head) == JOURNAL_FORMAT,
        classify=_classify_journal,
        repair=_salvage_in_place(salvage_journal),
        tag=JOURNAL_FORMAT,
        scan=scan_journal,
        salvage=salvage_journal,
        what="request journal",
        notes=_journal_requests,
        # A scan that stopped at damage cannot say whether a seal follows.
        extra=lambda r: {"loss": r.lost_records,
                         "sealed": r.sealed if r.ok or r.sealed else None},
    ),
    Format(
        ArtifactFormat.MEMO,
        sniff=lambda path, head: sealedlog.sniff(head) == MEMO_FORMAT,
        classify=_classify_memo,
        repair=_salvage_in_place(salvage_memo),
        tag=MEMO_FORMAT,
        scan=scan_memo,
        salvage=salvage_memo,
        what="memo manifest",
        kept=lambda r: _memo_entries(r.n_valid),
        prefix=lambda r: (
            f"{r.n_valid} entry line(s); translation falls back to a "
            "cold miss, never a wrong answer"
        ),
        extra=lambda r: {"loss": 0 if r.ok else None,
                         "n_entries": r.n_entries},
    ),
    Format(
        ArtifactFormat.MANIFEST,
        sniff=lambda path, head: os.path.basename(path) == MANIFEST_NAME,
        classify=_classify_manifest,
        repair=_delete,
    ),
)

_BY_NAME = {row.name: row for row in FORMATS}


def format_of(path: str) -> Optional[Format]:
    """The table row whose sniff recognizes ``path`` (by content, not
    name — a renamed artifact still classifies), or None."""
    head = sealedlog.head(path)
    for row in FORMATS:
        if row.sniff(path, head):
            return row
    name = path[: -len(".tmp")] if path.endswith(".tmp") else path
    if name.endswith(".spool") and head:
        # A spool whose header magic was hit still gets the spool
        # verdict: fsck calls it corrupt and --repair salvages it.
        return _BY_NAME[ArtifactFormat.SPOOL_V3]
    return None


def sniff_format(path: str) -> str:
    """Identify which of the formats ``path`` holds."""
    row = format_of(path)
    return row.name if row is not None else ArtifactFormat.UNKNOWN


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------


def _verify_manifest_entry(
    directory: str, entry: Dict[str, Any]
) -> Tuple[bool, str]:
    spool_path = os.path.join(directory, entry.get("spool") or "")
    try:
        open_listed_spool(spool_path, entry)
    except SpoolCorruptionError as exc:
        why = {
            "missing": "spool missing",
            "stale": "spool does not match the manifest (stale or swapped)",
        }.get(exc.reason, "spool damaged")
        return False, f"pass {entry.get('pass')}: {why}"
    if not scan_spool(spool_path).ok:
        return False, f"pass {entry.get('pass')}: spool damaged"
    return True, ""


def run_doctor(
    directories: List[str],
    repair: bool = False,
    metrics=None,
) -> DoctorReport:
    """Sweep ``directories`` recursively; classify every file; with
    ``repair=True`` salvage / truncate / GC as the module docstring
    describes.  Never raises on damaged artifacts — damage is the
    *input*, the report is the output."""
    doctor = DoctorReport(repaired=repair)
    manifests: List[Tuple[str, Dict[str, Any]]] = []
    memo_manifests: List[str] = []
    referenced: Dict[str, ArtifactReport] = {}
    for directory in directories:
        for root, _dirs, files in os.walk(directory):
            for name in sorted(files):
                path = os.path.join(root, name)
                art = _classify_path(path)
                doctor.artifacts.append(art)
                if art.format == ArtifactFormat.MANIFEST:
                    doc = _load_manifest_doc(path)
                    if doc is not None:
                        manifests.append((path, doc))
                if (
                    art.format == ArtifactFormat.MEMO
                    and art.state == ArtifactState.SEALED
                ):
                    memo_manifests.append(path)
                referenced[path] = art
    _mark_checkpoint_orphans(manifests, referenced)
    _mark_memo_orphans(memo_manifests, referenced)
    if repair:
        for art in doctor.artifacts:
            _repair_artifact(art, metrics=metrics)
    for path, doc in manifests:
        _check_manifest(path, doc, referenced, repair, metrics=metrics)
    if metrics is not None:
        metrics.counter("governance.doctor_runs").inc()
        for art in doctor.artifacts:
            metrics.counter(f"governance.doctor.{art.state}").inc()
    return doctor


def _classify_path(path: str) -> ArtifactReport:
    row = format_of(path)
    fmt = row.name if row is not None else ArtifactFormat.UNKNOWN
    if path.endswith(".tmp") or ".tmp" in os.path.basename(path)[-12:]:
        # Staging debris (including the unique ``<name>.<rand>.tmp``
        # the cache writer uses): a crash between open and rename.
        return ArtifactReport(
            path, fmt, ArtifactState.UNSEALED_TMP,
            detail="staging file never renamed into place",
        )
    if row is None:
        return ArtifactReport(path, fmt, ArtifactState.FOREIGN)
    state, detail = row.classify(path)
    return ArtifactReport(path, fmt, state, detail=detail)


def _mark_checkpoint_orphans(
    manifests: List[Tuple[str, Dict[str, Any]]],
    referenced: Dict[str, ArtifactReport],
) -> None:
    """Pass spools living beside a manifest that does not list them are
    orphans (progress past the last durable manifest write)."""
    for manifest_path, doc in manifests:
        directory = os.path.dirname(manifest_path)
        listed = {
            entry.get("spool")
            for entry in doc.get("completed", [])
            if isinstance(entry, dict)
        }
        for path, art in referenced.items():
            if os.path.dirname(path) != directory:
                continue
            name = os.path.basename(path)
            if (
                art.format == ArtifactFormat.SPOOL_V3
                and art.state == ArtifactState.SEALED
                and name.startswith("pass")
                and name.endswith(".spool")
                and not _MEMO_SPOOL_RE.match(name)
                and name not in listed
            ):
                art.state = ArtifactState.ORPHANED
                art.detail = "sealed but not listed in checkpoint manifest"


def _mark_memo_orphans(
    memo_manifests: List[str],
    referenced: Dict[str, ArtifactReport],
) -> None:
    """Generation-numbered splice spools beside a *clean* memo manifest
    that does not reference them are stale debris — the writer crashed
    between sealing a new manifest and unlinking the old generation.
    (Beside a corrupt manifest we keep every spool: salvage first.)"""
    for manifest_path in memo_manifests:
        directory = os.path.dirname(manifest_path)
        listed = set(scan_memo(manifest_path).spools)
        for path, art in referenced.items():
            if os.path.dirname(path) != directory:
                continue
            name = os.path.basename(path)
            if (
                _MEMO_SPOOL_RE.match(name)
                and art.state == ArtifactState.SEALED
                and name not in listed
            ):
                art.state = ArtifactState.ORPHANED
                art.detail = (
                    "stale memo generation not referenced by the sealed "
                    "memo manifest"
                )


def _repair_artifact(art: ArtifactReport, metrics=None) -> None:
    if art.state == ArtifactState.UNSEALED_TMP:
        # Provenance tmp logs can hold a salvageable event prefix; keep
        # the data when the sealed log never made it.
        if art.format == ArtifactFormat.PROVENANCE:
            final = art.path[: -len(".tmp")]
            if not os.path.exists(final):
                try:
                    report = salvage_provenance(
                        art.path, final, metrics=metrics
                    )
                    os.unlink(art.path)
                    art.action = (
                        "salvaged" if report.ok else "salvaged-with-loss"
                    )
                    return
                except Exception:
                    pass
        try:
            os.unlink(art.path)
            art.action = "deleted"
        except FileNotFoundError:
            # A sibling repair already consumed this path: in-place
            # salvage of the final artifact stages through the very
            # same ``.tmp`` name and renames it away.  Gone is gone.
            art.action = "deleted"
        except OSError:
            pass
        return
    if art.state == ArtifactState.ORPHANED:
        try:
            os.unlink(art.path)
            art.action = "deleted"
        except FileNotFoundError:
            art.action = "deleted"
        except OSError:
            pass
        return
    if art.state != ArtifactState.CORRUPT:
        return
    try:
        art.action = _BY_NAME[art.format].repair(art.path, metrics)
    except Exception:
        _unlink_as_repair(art)


def _unlink_as_repair(art: ArtifactReport) -> None:
    try:
        os.unlink(art.path)
        art.action = "deleted"
    except OSError:
        pass


def _check_manifest(
    manifest_path: str,
    doc: Dict[str, Any],
    referenced: Dict[str, ArtifactReport],
    repair: bool,
    metrics=None,
) -> None:
    """Verify every spool the manifest lists.  A manifest listing a
    missing, damaged or stale spool is ``corrupt``; ``repair``
    truncates its completed-pass list at the first such entry and
    rewrites it atomically, so ``--resume`` restarts from the last
    verified pass instead of refusing the whole directory."""
    from repro.util.atomic_write import atomic_write

    directory = os.path.dirname(manifest_path)
    completed = doc.get("completed", [])
    kept: List[Dict[str, Any]] = []
    dropped: List[str] = []
    for entry in completed:
        ok, why = _verify_manifest_entry(directory, entry)
        if ok and not dropped:
            kept.append(entry)
        else:
            dropped.append(
                why if not ok
                else f"pass {entry.get('pass')}: follows a dropped pass"
            )
    if not dropped:
        return
    art = referenced.get(manifest_path)
    if not repair:
        if art is not None:
            art.state = ArtifactState.CORRUPT
            art.detail = (
                f"{'; '.join(dropped)}; --repair keeps "
                f"{len(kept)}/{len(completed)} pass(es)"
            )
        return
    doc = dict(doc)
    doc["completed"] = kept
    with atomic_write(manifest_path, text=True, encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
    if art is not None:
        art.action = "truncated-manifest"
        art.detail = (
            f"kept {len(kept)}/{len(completed)} pass(es), dropped "
            f"{'; '.join(dropped)}; resume restarts from the last "
            "verified pass"
        )
    # Spools past the truncation point are now orphans; sweep them.
    listed = {entry.get("spool") for entry in kept}
    for path, other in referenced.items():
        if os.path.dirname(path) != directory:
            continue
        name = os.path.basename(path)
        if (
            name.startswith("pass")
            and name.endswith(".spool")
            and not _MEMO_SPOOL_RE.match(name)
            and name not in listed
            and other.state
            in (ArtifactState.SEALED, ArtifactState.CORRUPT,
                ArtifactState.ORPHANED)
            and os.path.exists(path)
        ):
            # Even a just-salvaged spool goes: the manifest no longer
            # vouches for this pass, and resume re-derives it.
            _unlink_as_repair(other)
    if metrics is not None:
        metrics.counter("governance.doctor_manifest_truncations").inc()

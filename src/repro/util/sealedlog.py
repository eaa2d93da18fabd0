"""The sealed line log: the one framing behind PROV1, SRVJ1 and MEMO1.

Three durable formats share this layout — the provenance log
(:mod:`repro.obs.provenance`), the serve request journal
(:mod:`repro.serve.journal`) and the incremental memo manifest
(:mod:`repro.passes.incremental`)::

    {"e":"hdr","format":TAG,...,"c":crc}     header, line 0
    {"e":...,...,"c":crc}                     one record per line
    {"crc":stream,"e":"seal","n":N,"c":crc}   seal, last line

* Every line is canonical JSON (sorted keys, no spaces) with its own
  CRC32 of the canonical body in a trailing ``"c"`` field.
* The seal's ``n`` counts the records after the header and its
  ``crc`` is the CRC32 of every byte before the seal line.
* A reader splits on ``b"\\n"`` only, decodes each line with
  ``errors="replace"`` (a flipped high bit then fails that line's CRC
  and names its record), and treats a final line without its newline
  as torn: a crash mid-write, never a record.

This module owns the mechanism: :func:`frame`/:func:`verify` for one
line, :class:`Appender` for a streaming writer with a running stream
CRC, :class:`SealedScan` for the one verifying walk (verified records
up to the first damage), and :func:`reseal` for publishing a complete
log — a salvaged prefix or a whole manifest — through
:func:`repro.util.atomic_write.atomic_write`.  Each format is a
:class:`SealedScan` subclass that adds only its record schema.
"""

from __future__ import annotations

import json
import re
import zlib
from typing import IO, Any, Dict, List, Optional

from repro.errors import CorruptionError
from repro.util.atomic_write import atomic_write

__all__ = [
    "Appender",
    "SealedScan",
    "frame",
    "head",
    "reseal",
    "sniff",
    "verify",
]

_SEPARATORS = (",", ":")

#: The format tag inside a canonical header line.
_TAG_RE = re.compile(rb'"format":"([^"\\]*)"')


def frame(obj: Dict[str, Any]) -> str:
    """One log line: canonical JSON plus its own CRC32, newline-ended."""
    body = json.dumps(obj, sort_keys=True, separators=_SEPARATORS)
    return f'{body[:-1]},"c":{zlib.crc32(body.encode("utf-8"))}}}\n'


def verify(line: str, index: int, path: str, error: type) -> Dict[str, Any]:
    """Parse and CRC-check one line; raise ``error`` (a
    :class:`~repro.errors.CorruptionError`) naming record ``index``."""
    noun = error.noun
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise error(
            f"{noun} record {index} is not valid JSON ({exc})",
            record_index=index, path=path, reason="framing",
        ) from exc
    if not isinstance(obj, dict) or "c" not in obj:
        raise error(
            f"{noun} record {index} has no checksum field",
            record_index=index, path=path, reason="framing",
        )
    want = obj.pop("c")
    body = json.dumps(obj, sort_keys=True, separators=_SEPARATORS)
    if zlib.crc32(body.encode("utf-8")) != want:
        raise error(
            f"{noun} record {index} checksum mismatch (bit rot or torn write)",
            record_index=index, path=path, reason="checksum",
        )
    return obj


def head(path: str, n: int = 4096) -> bytes:
    """The first ``n`` bytes of ``path`` (empty when unreadable)."""
    try:
        with open(path, "rb") as f:
            return f.read(n)
    except OSError:
        return b""


def sniff(head_bytes: bytes) -> Optional[str]:
    """The format tag a sealed log's header line names, or None."""
    first = head_bytes.split(b"\n", 1)[0]
    match = _TAG_RE.search(first) if first.startswith(b"{") else None
    return match.group(1).decode("utf-8", "replace") if match else None


class Appender:
    """Streams framed records onto an open text file and keeps the
    stream CRC the seal line will carry."""

    def __init__(self, f: IO):
        self.f = f
        self.crc = 0

    def append(self, obj: Dict[str, Any], lead: str = "") -> str:
        """Frame and write one record (after ``lead``, which the stream
        CRC does not cover); returns the framed line."""
        line = frame(obj)
        self.f.write(lead + line if lead else line)
        self.crc = zlib.crc32(line.encode("utf-8"), self.crc)
        return line

    def seal(self, n: int) -> None:
        """Write the seal line covering everything appended so far."""
        self.f.write(frame({"e": "seal", "n": n, "crc": self.crc}))


def reseal(path: str, lines: List[str], fsync: bool = True) -> None:
    """Atomically publish a complete log at ``path``: the framed
    ``lines`` (header first) and a seal covering them.  Each line is
    encoded once; ``fsync=False`` suits cache artifacts whose torn write
    only costs a cold miss."""
    body = "".join(lines).encode("utf-8")
    seal = frame({"e": "seal", "n": max(len(lines) - 1, 0),
                  "crc": zlib.crc32(body)})
    with atomic_write(path, fsync=fsync) as f:
        f.write(body)
        f.write(seal.encode("utf-8"))


class SealedScan:
    """One verifying walk over a sealed log: every verified record up to
    the first damage.

    A format subclasses this with its ``tag`` and ``error_type`` and may
    override :meth:`entry` (validate or convert a record) and
    :meth:`rebase` (a record at which the stream CRC restarts).
    ``records`` holds the header first and never the seal; ``error`` is
    the first damage found, if any.  An unsealed log is not damage here:
    :meth:`require_seal` makes it so for formats that must be sealed.
    """

    tag = ""
    error_type: type = CorruptionError

    def __init__(self, path: str):
        self.path = path
        self.records: List[Any] = []
        self.sealed = False
        #: The final line lacked its newline (a crash mid-write).
        self.torn = False
        self.error: Optional[CorruptionError] = None
        #: Lines read (the torn fragment excluded).
        self.n_lines = 0

    @property
    def ok(self) -> bool:
        return self.error is None

    def entry(self, obj: Dict[str, Any], index: int, line: str) -> Any:
        """The value kept for record ``index`` (after the header); raise
        ``self.error_type`` to end the valid prefix there."""
        return obj

    def rebase(self, obj: Dict[str, Any]) -> Optional[int]:
        """The record count the stream resumes from when ``obj`` restarts
        the stream CRC, else None.  A damaged line directly before such a
        record is a fragment the writer declared lost and is skipped."""
        return None

    def _damage(self, message: str, index: Optional[int], reason: str):
        return self.error_type(
            f"{self.error_type.noun} {message}",
            record_index=index, path=self.path, reason=reason,
        )

    @classmethod
    def scan(cls, path: str):
        """Read and verify the log at ``path``; never raises."""
        report = cls(path)
        report._walk()
        return report

    def _walk(self) -> None:
        path = self.path
        try:
            with open(path, "rb") as f:
                data = f.read()
        except OSError as exc:
            missing = isinstance(exc, FileNotFoundError)
            self.error = self._damage(
                f"log unreadable: {exc}", None, "missing" if missing else "io"
            )
            return
        chunks = data.split(b"\n")
        self.torn = chunks.pop() != b""
        self.n_lines = len(chunks)
        if not chunks and not self.torn:
            self.error = self._damage("log is empty", None, "truncated")
            return
        view = memoryview(data)
        start = offset = count = 0
        for index, chunk in enumerate(chunks):
            here, offset = offset, offset + len(chunk) + 1
            line = chunk.decode("utf-8", "replace")
            try:
                obj = verify(line, index, path, self.error_type)
            except self.error_type as exc:
                if self._restarts_at(chunks, index + 1):
                    continue
                self.error = exc
                return
            try:
                if self.sealed:
                    raise self._damage(
                        f"record {index} follows the seal", index, "seal"
                    )
                kind = obj.get("e")
                if index == 0 and (
                    kind != "hdr" or obj.get("format") != self.tag
                ):
                    raise self._damage(
                        f"record 0 is not a {self.tag} header", 0, "header"
                    )
                if kind == "seal":
                    crc = zlib.crc32(view[start:here])
                    if obj.get("n") != count or obj.get("crc") != crc:
                        raise self._damage(
                            f"seal mismatch: seal covers {obj.get('n')} "
                            f"record(s) crc {obj.get('crc')}, stream has "
                            f"{count} crc {crc}",
                            index, "seal",
                        )
                    self.sealed = True
                    continue
                base = self.rebase(obj)
                if base is not None:
                    start, count = here, base
                elif index:
                    count += 1
                    obj = self.entry(obj, index, line)
                self.records.append(obj)
            except self.error_type as exc:
                self.error = exc
                return
        if self.torn and self.sealed:
            self.error = self._damage(
                f"record {len(chunks)} follows the seal", len(chunks), "seal"
            )

    def _restarts_at(self, chunks: List[bytes], index: int) -> bool:
        if index >= len(chunks):
            return False
        try:
            obj = verify(chunks[index].decode("utf-8", "replace"), index,
                         self.path, self.error_type)
        except self.error_type:
            return False
        return self.rebase(obj) is not None

    def require_seal(self):
        """Make a clean but unsealed log an error naming the record the
        seal should be (a writer that must seal died first); returns
        self."""
        if self.error is None and not self.sealed:
            if self.torn:
                message = f"record {self.n_lines} is torn (crash mid-write?)"
                reason = "truncated"
            else:
                message = "log has no seal line (crash before sealing?)"
                reason = "seal"
            self.error = self._damage(message, self.n_lines, reason)
        return self

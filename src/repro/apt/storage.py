"""Spool files: the APT intermediate files.

A *spool* is written strictly sequentially (append) and then read
sequentially either **forward or backward** — the whole §II evaluation
paradigm rests on reading the previous pass's output file backwards.
:class:`DiskSpool` keeps records on real secondary storage;
:class:`MemorySpool` is the fast equivalent for tests.  Both charge
every transfer to an :class:`~repro.util.iotrack.IOAccountant`.

On-disk format (v3)
-------------------

Real secondary storage fails — torn writes, truncation, bit rot — so
the one on-disk format carries integrity metadata end to end::

    header   "APTSPL3\\n" magic + u16 version + u16 flags       (12 B)
    block    <u32 payload_len> <u32 n_records> <u32 crc32>
             payload := ( <u32 rec_len> record-bytes )*
             <u32 crc32> <u32 n_records> <u32 payload_len>      (24 B + payload)
    ...
    names    <u32 nt_len> <u32 nt_crc32> name-table payload      (8 B + payload)
    footer   "APTSEL3\\n" magic + u64 n_records + u64 data_bytes
             + u64 n_blocks + u64 nt_offset + u32 nt_bytes
             + u32 stream_crc + u32 footer_crc                  (52 B)

Records are encoded by the struct-packed
:class:`~repro.apt.codec.RecordCodec` (symbol/attribute names become
name-table ids on disk) and framed into ~32 KiB *blocks* with **one**
CRC32 per block, so checksum and write-call overhead amortize across
every record in the block.  The block frame is *mirrored* (length
outermost on both sides), so a backward reader hops block-to-block
with two seeks and still cross-checks the leading words against the
trailing ones; it decodes one block at a time, so memory stays bounded
by the block size, not the file.  The name table is sealed into its
own checksummed section before the footer.  The footer seals the file:
record, payload-byte and block counts, the name-table location, a
running CRC32 over every record in write order, and a CRC32 of the
footer itself.  ``finalize()`` is atomic — blocks stream into
``<path>.tmp``, the name table and footer are written, the file is
flushed + fsync'ed, and only then renamed over ``<path>`` — so a
finalized spool is either completely present or absent, never
half-sealed.  A file without the v3 header is not a spool: readers
raise a ``header`` corruption for it.

Every integrity failure raises :class:`~repro.errors.SpoolCorruptionError`
naming the 0-based record index, byte offset, block index and
block-relative offset; :func:`scan_spool` and :func:`salvage_spool`
give ``repro fsck`` a non-raising sweep and a longest-valid-prefix
recovery path.

:class:`AdaptiveSpool` (the default evaluation spool since pass
fusion) keeps small APTs entirely in memory — raw records, no
serialization at all — and transparently spills to a sealed v3
:class:`DiskSpool` past a configurable byte budget, preserving the
paper's bounded-memory guarantee while letting small inputs skip the
filesystem entirely.  It charges its accountant once per spool (at
``finalize()`` and when a reader is opened), not once per record.
"""

from __future__ import annotations

import bisect
import io
import itertools
import os
import pickle
import struct
import tempfile
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.apt.codec import (
    RecordAddress,
    RecordCodec,
    deserialize_names,
    serialize_names,
)
from repro.errors import EvaluationError, SpoolCorruptionError
from repro.util import atomic_write as _aw
from repro.util.iotrack import IOAccountant

_LEN = struct.Struct("<I")

#: File header: magic, format version, flags (reserved).
MAGIC_V3 = b"APTSPL3\n"
_HEADER = struct.Struct("<8sHH")
#: Block head (payload_len, n_records, crc32) and mirrored tail
#: (crc32, n_records, payload_len).
_BLOCK_HEAD = struct.Struct("<III")
_BLOCK_TAIL = struct.Struct("<III")
#: Name-table section head: payload length, payload crc32.
_NT_HEAD = struct.Struct("<II")
#: Sealed footer: magic, n_records, data_bytes, n_blocks, nt_offset,
#: nt_bytes, stream crc, footer crc.
FOOTER_MAGIC_V3 = b"APTSEL3\n"
_FOOTER3 = struct.Struct("<8sQQQQIII")

FORMAT_V3 = 3

#: Target (uncompressed) payload bytes per block: one CRC32 and two
#: write calls amortize across every record that fits.
DEFAULT_BLOCK_SIZE = 32 * 1024

#: Per-record framing overhead in bytes: only the in-block length
#: prefix (block framing is per-*block* and amortized).
RECORD_OVERHEAD = _LEN.size

#: Per-block framing overhead (mirrored head + tail).
BLOCK_OVERHEAD = _BLOCK_HEAD.size + _BLOCK_TAIL.size


#: One framed slice of a verified block for :meth:`DiskSpool.splice_range`:
#: ``(payload view, lo, hi, first record, end record, record offsets)``.
SplicePiece = Tuple[memoryview, int, int, int, int, List[int]]


def _footer3_bytes(
    n_records: int, data_bytes: int, n_blocks: int,
    nt_offset: int, nt_bytes: int, stream_crc: int,
) -> bytes:
    body = _FOOTER3.pack(
        FOOTER_MAGIC_V3, n_records, data_bytes, n_blocks,
        nt_offset, nt_bytes, stream_crc, 0,
    )
    crc = zlib.crc32(body[: _FOOTER3.size - 4])
    return body[: _FOOTER3.size - 4] + _LEN.pack(crc)


@dataclass
class SpoolFooterV3:
    """Decoded footer."""

    n_records: int
    data_bytes: int
    n_blocks: int
    nt_offset: int
    nt_bytes: int
    stream_crc: int


class Spool:
    """Abstract spool of pickled records.

    ``tracer`` (a :class:`repro.obs.Tracer`, or None for the default
    zero-overhead path) receives one ``spool.write``/``spool.read``
    instant event per record, tagged with the channel and byte size —
    the event-level view of the paper's I/O-boundedness claim.
    ``metrics`` (a :class:`repro.obs.MetricsRegistry`, or None) receives
    a ``robust.spool_corruption_detected`` counter bump whenever a read
    fails an integrity check; the healthy hot path stays a single
    ``is not None`` test.
    """

    def __init__(
        self,
        accountant: Optional[IOAccountant] = None,
        channel: str = "",
        tracer=None,
        metrics=None,
    ):
        self.accountant = accountant
        self.channel = channel
        self.tracer = tracer
        self.metrics = metrics
        self.n_records = 0
        self.data_bytes = 0
        self._finalized = False

    # -- writing ----------------------------------------------------------

    def append(self, record: Any) -> None:
        if self._finalized:
            raise EvaluationError(f"spool {self.channel!r} already finalized")
        self.append_blob(self._encode(record))

    def _encode(self, record: Any) -> bytes:
        """Serialize one record (pickle by default; DiskSpool uses the codec)."""
        return pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)

    def _decode(self, blob: bytes) -> Any:
        """Inverse of :meth:`_encode`."""
        return pickle.loads(blob)

    def append_blob(self, blob: bytes) -> None:
        """Append an already-encoded record (the salvage/copy fast path)."""
        if self._finalized:
            raise EvaluationError(f"spool {self.channel!r} already finalized")
        self._write_blob(blob)
        self.n_records += 1
        self.data_bytes += len(blob)
        if self.accountant is not None:
            self.accountant.charge_write(len(blob), self.channel)
        if self.tracer is not None:
            self.tracer.instant(
                "spool.write", cat="io", channel=self.channel, nbytes=len(blob)
            )

    def finalize(self) -> None:
        """End the writing phase; the spool becomes readable."""
        self._finalized = True

    # -- reading ----------------------------------------------------------

    def read_forward(self) -> Iterator[Any]:
        return self._read(self._iter_blobs_forward)

    def read_backward(self) -> Iterator[Any]:
        return self._read(self._iter_blobs_backward)

    def _read(self, iter_blobs) -> Iterator[Any]:
        """Decode, charge and trace every blob ``iter_blobs()`` yields."""
        self._require_finalized()
        for blob in iter_blobs():
            if self.accountant is not None:
                self.accountant.charge_read(len(blob), self.channel)
            if self.tracer is not None:
                self.tracer.instant(
                    "spool.read", cat="io", channel=self.channel, nbytes=len(blob)
                )
            yield self._decode(blob)

    def _require_finalized(self) -> None:
        if not self._finalized:
            raise EvaluationError(
                f"spool {self.channel!r} read before writing finished"
            )

    def _corrupt(
        self,
        message: str,
        *,
        record_index: Optional[int] = None,
        byte_offset: Optional[int] = None,
        reason: str = "corrupt",
        block_index: Optional[int] = None,
        block_byte_offset: Optional[int] = None,
    ) -> SpoolCorruptionError:
        """Build (and meter) a corruption error for this spool."""
        exc = SpoolCorruptionError(
            f"spool {self.channel!r}: {message}",
            record_index=record_index,
            byte_offset=byte_offset,
            path=getattr(self, "path", None),
            reason=reason,
            block_index=block_index,
            block_byte_offset=block_byte_offset,
        )
        if self.metrics is not None:
            self.metrics.counter("robust.spool_corruption_detected").inc()
        if self.tracer is not None:
            self.tracer.instant(
                "spool.corruption",
                cat="robust",
                channel=self.channel,
                reason=reason,
                record_index=record_index,
                byte_offset=byte_offset,
                block_index=block_index,
            )
        return exc

    # -- to implement ------------------------------------------------------

    def _write_blob(self, blob: bytes) -> None:
        raise NotImplementedError

    def _iter_blobs_forward(self) -> Iterator[bytes]:
        raise NotImplementedError

    def _iter_blobs_backward(self) -> Iterator[bytes]:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self) -> "Spool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MemorySpool(Spool):
    """Spool held in memory (still serialized, still accounted)."""

    def __init__(
        self,
        accountant: Optional[IOAccountant] = None,
        channel: str = "",
        tracer=None,
        metrics=None,
    ):
        super().__init__(accountant, channel, tracer, metrics)
        self._blobs: List[bytes] = []

    def _write_blob(self, blob: bytes) -> None:
        self._blobs.append(blob)

    def _iter_blobs_forward(self) -> Iterator[bytes]:
        return iter(self._blobs)

    def _iter_blobs_backward(self) -> Iterator[bytes]:
        return iter(reversed(self._blobs))


#: Default per-spool byte budget before an :class:`AdaptiveSpool`
#: spills to disk.  Sized so typical interactive inputs never touch the
#: filesystem while a pathological APT still honors the paper's
#: bounded-primary-memory premise.
DEFAULT_SPOOL_MEMORY_BUDGET = 8 * 1024 * 1024


class AdaptiveSpool(Spool):
    """Memory-resident spool that transparently spills to a v3 DiskSpool.

    Small APTs — the overwhelmingly common case — never pay
    serialization at all: records are kept as live Python objects and
    handed back by reference.  Once the *estimated* footprint crosses
    ``memory_budget`` bytes, the buffered records are replayed into a
    fresh v3 :class:`DiskSpool` (temp file, removed on :meth:`close`)
    and all subsequent traffic streams through it, restoring the
    paper's secondary-storage behavior for inputs that actually need it.

    Byte accounting stays meaningful without encoding every record:
    the first ``EXACT_HEAD`` appends are probe-encoded through the v3
    codec and counted at their exact size (small spools — the common
    case — account precisely), after which only every ``SAMPLE_EVERY``-th
    record is probed and the running average is counted.  After a
    spill, appends count actual encoded bytes.  The accountant is
    charged once per spool, not once per record: :meth:`finalize`
    charges the ``(n_records, data_bytes)`` written, and opening a
    reader charges the same pair read, so per-pass read/write byte
    symmetry holds as it does for the real formats.  With a tracer
    attached, every record still gets its own ``spool.write`` and
    ``spool.read`` instant.

    Metrics: ``spool.spill.count`` / ``spool.spill.records`` /
    ``spool.spill.bytes`` count spill events, records replayed, and
    encoded bytes they produced; a ``spool.spill`` trace instant marks
    the moment in the timeline.
    """

    #: Probe-encode (and count exactly) this many leading records.
    EXACT_HEAD = 64
    #: Past the head, probe-encode one record in this many to keep the
    #: running average calibrated.
    SAMPLE_EVERY = 32

    def __init__(
        self,
        accountant: Optional[IOAccountant] = None,
        channel: str = "",
        tracer=None,
        metrics=None,
        memory_budget: int = DEFAULT_SPOOL_MEMORY_BUDGET,
        block_size: int = DEFAULT_BLOCK_SIZE,
        disk_budget=None,
    ):
        super().__init__(accountant, channel, tracer, metrics)
        self.memory_budget = max(0, memory_budget)
        self.block_size = block_size
        #: Optional :class:`repro.governance.DiskBudget`: spills and
        #: post-spill growth are charged against it (and released on
        #: close), so a run-wide cap bounds total temp-spool bytes.
        self.disk_budget = disk_budget
        self._budget_charged = 0
        self._records: List[Any] = []
        #: Counted size of each record appended while a tracer was
        #: attached, so the ``spool.read`` instants mirror the writes.
        self._traced_sizes: List[int] = []
        self._disk: Optional[DiskSpool] = None
        self._probe = RecordCodec()
        self._sample_bytes = 0
        self._sample_count = 0
        self._avg_bytes = 0

    @property
    def spilled(self) -> bool:
        """Whether this spool has crossed its budget and gone to disk."""
        return self._disk is not None

    # -- writing ----------------------------------------------------------

    def _sample(self, record: Any) -> int:
        """Probe-encode ``record``: its exact size, folded into the average."""
        nbytes = len(self._probe.encode(record))
        self._sample_bytes += nbytes
        self._sample_count += 1
        self._avg_bytes = self._sample_bytes // self._sample_count
        return nbytes

    def append(self, record: Any) -> None:
        if self._finalized:
            raise EvaluationError(f"spool {self.channel!r} already finalized")
        n = self.n_records
        if self._disk is None:
            if n < self.EXACT_HEAD:
                nbytes = self._sample(record)
            else:
                if not n % self.SAMPLE_EVERY:
                    self._sample(record)
                nbytes = self._avg_bytes
            self._records.append(record)
        else:
            before = self._disk.data_bytes
            self._disk.append(record)
            nbytes = self._disk.data_bytes - before
            if self.disk_budget is not None:
                # Past the spill every record is disk-bound: charge its
                # exact encoded size (raises DiskBudgetExceeded before
                # the next record is admitted once the cap is hit).
                self.disk_budget.charge(nbytes)
                self._budget_charged += nbytes
        self.n_records = n + 1
        self.data_bytes += nbytes
        if self.tracer is not None:
            self._traced_sizes.append(nbytes)
            self.tracer.instant(
                "spool.write", cat="io", channel=self.channel, nbytes=nbytes
            )
        if self._disk is None and self.data_bytes > self.memory_budget:
            self._spill()

    def _spill(self) -> None:
        """Replay the buffered records into a fresh v3 temp DiskSpool.

        The inner spool carries no accountant/tracer of its own — this
        wrapper charges the whole spool at :meth:`finalize` and traces
        every record itself — but it shares the metrics registry so
        corruption/codec counters keep flowing.
        """
        buffered = self.data_bytes
        if self.disk_budget is not None:
            # Charge the whole buffered estimate up front: if the run
            # is already over budget the spill fails *before* creating
            # the temp file.
            self.disk_budget.charge(buffered)
            self._budget_charged += buffered
        disk = DiskSpool(
            None, accountant=None, channel=self.channel,
            tracer=None, metrics=self.metrics, block_size=self.block_size,
        )
        try:
            for record in self._records:
                disk.append(record)
        except BaseException:
            # A fault mid-spill (ENOSPC while flushing a block) must
            # not lose data or leak the half-written temp spool: the
            # buffered records are still intact in memory, so close the
            # disk spool (unlinking its tmp + owned file) and surface
            # the error with this spool still fully usable.
            disk.close()
            raise
        if self.metrics is not None:
            self.metrics.counter("spool.spill.count").inc()
            self.metrics.counter("spool.spill.records").inc(len(self._records))
            self.metrics.counter("spool.spill.bytes").inc(disk.data_bytes)
        if self.tracer is not None:
            self.tracer.instant(
                "spool.spill", cat="io", channel=self.channel,
                records=len(self._records), estimated_bytes=buffered,
                encoded_bytes=disk.data_bytes,
            )
        self._records = []
        self._disk = disk

    def finalize(self) -> None:
        if self._finalized:
            return
        if self._disk is not None:
            self._disk.finalize()
        super().finalize()
        if self.accountant is not None and self.n_records:
            self.accountant.charge_write_many(
                self.n_records, self.data_bytes, self.channel
            )

    # -- reading ----------------------------------------------------------

    def read_forward(self) -> Iterator[Any]:
        self._require_finalized()
        if self._disk is None:
            records = iter(self._records)
        else:
            records = map(self._disk._decode, self._disk._iter_blobs_forward())
        return self._open_reader(records, self._traced_sizes)

    def read_backward(self) -> Iterator[Any]:
        self._require_finalized()
        if self._disk is None:
            records = reversed(self._records)
        else:
            records = map(self._disk._decode, self._disk._iter_blobs_backward())
        return self._open_reader(records, self._traced_sizes[::-1])

    def _open_reader(
        self, records: Iterator[Any], sizes: List[int]
    ) -> Iterator[Any]:
        """Charge one whole read of the spool; trace it per record."""
        if self.accountant is not None and self.n_records:
            self.accountant.charge_read_many(
                self.n_records, self.data_bytes, self.channel
            )
        if self.tracer is None:
            return records
        if len(sizes) != self.n_records:
            sizes = []  # traced only after (some of) the writes
        return self._traced_reads(records, sizes)

    def _traced_reads(
        self, records: Iterator[Any], sizes: List[int]
    ) -> Iterator[Any]:
        tracer = self.tracer
        for record, nbytes in itertools.zip_longest(records, sizes):
            tracer.instant(
                "spool.read", cat="io", channel=self.channel, nbytes=nbytes
            )
            yield record

    def close(self) -> None:
        if self._disk is not None:
            self._disk.close()
            self._disk = None
        if self.disk_budget is not None and self._budget_charged:
            self.disk_budget.release(self._budget_charged)
            self._budget_charged = 0
        self._records = []
        self._traced_sizes = []


def adaptive_spool_factory(
    accountant: Optional[IOAccountant] = None,
    tracer=None,
    metrics=None,
    memory_budget: int = DEFAULT_SPOOL_MEMORY_BUDGET,
    block_size: int = DEFAULT_BLOCK_SIZE,
    disk_budget=None,
):
    """Build a ``SpoolFactory`` producing budgeted :class:`AdaptiveSpool`\\ s.

    This is the default factory of
    :meth:`repro.core.linguist.Translator.translate_tokens` and of
    :class:`repro.evalgen.driver.AlternatingPassDriver`; the budget is
    surfaced on the CLI as ``repro run --spool-memory-budget``.
    """

    def factory(channel: str) -> AdaptiveSpool:
        return AdaptiveSpool(
            accountant, channel, tracer=tracer, metrics=metrics,
            memory_budget=memory_budget, block_size=block_size,
            disk_budget=disk_budget,
        )

    return factory


class DiskSpool(Spool):
    """Spool on real secondary storage, in the sealed block format v3.

    While being written, records stream into ``<path>.tmp``;
    :meth:`finalize` seals the footer, fsyncs, and atomically renames
    the temp file over ``path``.  Use :meth:`DiskSpool.open` to attach
    to an existing finalized spool file (checkpoint resume, fsck).
    """

    def __init__(
        self,
        path: Optional[str] = None,
        accountant: Optional[IOAccountant] = None,
        channel: str = "",
        tracer=None,
        metrics=None,
        block_size: int = DEFAULT_BLOCK_SIZE,
        seed_names=None,
        durable: bool = True,
    ):
        super().__init__(accountant, channel, tracer, metrics)
        self.block_size = max(1, block_size)
        #: ``durable=False`` skips the fsync at :meth:`finalize` (flush +
        #: atomic rename only).  Correct only for *cache* artifacts — the
        #: incremental memo — where a file torn by power loss fails its
        #: stream-CRC check on the next attach and degrades to a cold
        #: miss instead of corrupting a translation.
        self._durable = durable
        if path is None:
            fd, path = tempfile.mkstemp(prefix="apt_", suffix=".spool")
            os.close(fd)
            self._owns_file = True
        else:
            self._owns_file = False
        self.path = path
        self._stream_crc = 0
        #: Writer state: the codec (doubles as the read codec of a
        #: freshly written spool), the current block buffer, and counts.
        #: ``seed_names`` pre-populates the codec's name table with a
        #: copy of another (sealed) spool's table, so blobs encoded
        #: against the source decode identically here — the raw
        #: cross-generation splice of the incremental memo.
        self._codec: Optional[RecordCodec] = RecordCodec(
            seed_names.copy() if seed_names is not None else None
        )
        self._block_buf: Optional[bytearray] = bytearray()
        self._block_records = 0
        self._n_blocks = 0
        self._nt_bytes = 0
        #: Record start offsets inside the block being filled, and
        #: ``(payload length, record starts)`` of every sealed block —
        #: kept only after :meth:`keep_layout`, for a reader in this
        #: process (a memo splice source) that must not split blocks.
        self._starts: Optional[List[int]] = None
        self.block_layout: Optional[List[Tuple[int, List[int]]]] = None
        self._tmp_path: Optional[str] = path + ".tmp"
        self._writer: Optional[io.BufferedWriter] = _aw.open_file(
            self._tmp_path, "wb"
        )
        self._writer.write(_HEADER.pack(MAGIC_V3, FORMAT_V3, 0))

    # -- attach to an existing file ---------------------------------------

    @classmethod
    def _readonly(
        cls,
        path: str,
        accountant: Optional[IOAccountant] = None,
        channel: str = "",
        tracer=None,
        metrics=None,
    ) -> "DiskSpool":
        """A finalized read-only shell over ``path`` that has not read
        the file yet, so it works on arbitrarily damaged inputs."""
        spool = cls.__new__(cls)
        Spool.__init__(spool, accountant, channel, tracer, metrics)
        spool.path = path
        spool._owns_file = False
        spool._writer = None
        spool._tmp_path = None
        spool._stream_crc = 0
        spool._finalized = True
        spool._durable = True
        spool._codec = None
        spool._block_buf = None
        spool._block_records = 0
        spool._n_blocks = 0
        spool._nt_bytes = 0
        spool._starts = None
        spool.block_layout = None
        spool.block_size = DEFAULT_BLOCK_SIZE
        return spool

    @classmethod
    def open(
        cls,
        path: str,
        accountant: Optional[IOAccountant] = None,
        channel: str = "",
        tracer=None,
        metrics=None,
    ) -> "DiskSpool":
        """Attach (read-only) to an existing finalized spool file.

        Verifies the header and the sealed footer, and fills
        ``n_records``/``data_bytes`` from the footer.
        """
        spool = cls._readonly(path, accountant, channel, tracer, metrics)
        if not os.path.exists(path):
            raise spool._corrupt("spool file missing", reason="truncated")
        with open(path, "rb") as f:
            size = f.seek(0, os.SEEK_END)
            spool._check_header(f, size)
            footer = spool._read_footer3(f, size)
        spool.n_records = footer.n_records
        spool.data_bytes = footer.data_bytes
        spool._stream_crc = footer.stream_crc
        spool._n_blocks = footer.n_blocks
        spool._nt_bytes = footer.nt_bytes
        return spool

    # -- writing ----------------------------------------------------------

    def _encode(self, record: Any) -> bytes:
        return self._codec.encode(record)

    def _decode(self, blob: bytes) -> Any:
        codec = self._codec
        if codec is None:
            codec = self._codec = self._load_codec()
        return codec.decode(blob)

    def _write_blob(self, blob: bytes) -> None:
        if self._writer is None:
            raise EvaluationError(f"spool {self.channel!r} is not open for writing")
        buf = self._block_buf
        if self._starts is not None:
            self._starts.append(len(buf))
        buf += _LEN.pack(len(blob))
        buf += blob
        self._block_records += 1
        self._stream_crc = zlib.crc32(blob, self._stream_crc)
        if len(buf) >= self.block_size:
            self._flush_block()

    def keep_layout(self) -> None:
        """Keep every block's record offsets while writing, for
        :class:`RandomAccessReader` to take over (see
        :attr:`block_layout`)."""
        self._starts = []
        self.block_layout = []

    def splice_range(
        self,
        pieces: List["SplicePiece"],
        count: int,
        data_bytes: int,
        crc_from: int,
        crc_to: int,
    ) -> None:
        """Append ``count`` records verbatim, as the framed byte slices
        of verified blocks :meth:`RandomAccessReader.pieces` returned.

        ``data_bytes`` is the records' payload length (framing
        excluded) and ``crc_to`` the CRC32 of those payload bytes
        continued from ``crc_from``.  CRC32 is affine in its start
        value, so the stream CRC continues over the range through two
        CRCs of as many zero bytes.  Blocks close at the very record
        where appending the records one by one would close them, so the
        file is byte for byte what :meth:`append_blob` would write.  The
        output spool must share the source's name table
        (``seed_names``)."""
        if self._finalized:
            raise EvaluationError(f"spool {self.channel!r} already finalized")
        if self._writer is None:
            raise EvaluationError(f"spool {self.channel!r} is not open for writing")
        zeros = bytes(data_bytes)
        self._stream_crc = (
            crc_to ^ zlib.crc32(zeros, crc_from)
            ^ zlib.crc32(zeros, self._stream_crc)
        )
        size = self.block_size
        for view, lo, hi, i_lo, i_hi, starts in pieces:
            while True:
                buf = self._block_buf
                fill = len(buf)
                if hi - lo < size - fill:
                    end, i_end = hi, i_hi
                else:
                    # The first record end at which the block reaches
                    # its size: one bisection over the block's offsets.
                    i_end = bisect.bisect_left(starts, lo + size - fill, i_lo, i_hi)
                    end = starts[i_end] if i_end < i_hi else hi
                if self._starts is not None:
                    shift = fill - lo
                    self._starts += (
                        [o + shift for o in starts[i_lo:i_end]]
                        if shift else starts[i_lo:i_end]
                    )
                buf += view[lo:end]
                self._block_records += i_end - i_lo
                if len(buf) < size:
                    break
                self._flush_block()
                lo, i_lo = end, i_end
                if lo == hi:
                    break
        self.n_records += count
        self.data_bytes += data_bytes
        if self.accountant is not None:
            self.accountant.charge_write_many(count, data_bytes, self.channel)
        if self.tracer is not None:
            self.tracer.instant(
                "spool.write", cat="io", channel=self.channel,
                nbytes=data_bytes, n_records=count,
            )

    def _flush_block(self) -> None:
        """Seal the current in-memory block: one CRC32 and one mirrored
        frame for however many records accumulated."""
        if not self._block_records:
            return
        payload = bytes(self._block_buf)
        crc = zlib.crc32(payload)
        self._writer.write(
            _BLOCK_HEAD.pack(len(payload), self._block_records, crc)
        )
        self._writer.write(payload)
        self._writer.write(
            _BLOCK_TAIL.pack(crc, self._block_records, len(payload))
        )
        self._n_blocks += 1
        if self._starts is not None:
            self.block_layout.append((len(payload), self._starts))
            self._starts = []
        if self.metrics is not None:
            self.metrics.counter("spool.codec.blocks_written").inc()
            self.metrics.counter("spool.codec.block_payload_bytes").inc(
                len(payload)
            )
        self._block_buf = bytearray()
        self._block_records = 0

    def finalize(self) -> None:
        # A fault anywhere in here (ENOSPC in the nametable/footer
        # write, failed fsync, failed rename) must never tear the
        # sealed ``self.path``: the seal only lands via the final
        # atomic rename, so on failure we close the writer and leave
        # ``<path>.tmp`` behind as a classifiable *unsealed-tmp*
        # artifact (``repro doctor`` sweeps it; in-process callers that
        # ``close()`` unlink it immediately).
        if self._writer is not None:
            try:
                self._flush_block()
                nt_payload = serialize_names(self._codec.names)
                nt_offset = self._writer.tell()
                self._nt_bytes = len(nt_payload)
                self._writer.write(
                    _NT_HEAD.pack(len(nt_payload), zlib.crc32(nt_payload))
                )
                self._writer.write(nt_payload)
                self._writer.write(
                    _footer3_bytes(
                        self.n_records, self.data_bytes, self._n_blocks,
                        nt_offset, len(nt_payload), self._stream_crc,
                    )
                )
                if self._durable:
                    _aw.fsync_file(self._writer)
                else:
                    self._writer.flush()
                self._writer.close()
                self._writer = None
                _aw.atomic_replace(self._tmp_path, self.path)
                self._tmp_path = None
                if self.metrics is not None:
                    self.metrics.counter("spool.codec.records_written").inc(
                        self.n_records
                    )
                    self.metrics.counter("spool.codec.nametable_bytes").inc(
                        len(nt_payload)
                    )
            except BaseException:
                if self._writer is not None:
                    try:
                        self._writer.close()
                    except OSError:
                        pass
                    self._writer = None
                raise
        super().finalize()

    # -- header, footer, name table ----------------------------------------

    def _check_header(self, f, size: int) -> None:
        """Verify the file header; any other file is a ``header``
        corruption, never a spool of some other kind."""
        f.seek(0)
        head = f.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise self._corrupt(
                f"file too short for a spool header ({size} bytes)",
                byte_offset=0, reason="header",
            )
        magic, version, _flags = _HEADER.unpack(head)
        if magic != MAGIC_V3:
            raise self._corrupt(
                f"bad header magic {magic!r} (not a v3 spool)",
                byte_offset=0, reason="header",
            )
        if version != FORMAT_V3:
            raise self._corrupt(
                f"unsupported spool format version {version}",
                byte_offset=0, reason="header",
            )

    def _read_footer3(self, f, size: int) -> SpoolFooterV3:
        """Read and verify the sealed footer (raises on any damage)."""
        min_size = _HEADER.size + _NT_HEAD.size + 4 + _FOOTER3.size
        if size < min_size:
            raise self._corrupt(
                f"file too short for a sealed v3 spool ({size} bytes)",
                byte_offset=size,
                reason="truncated",
            )
        f.seek(size - _FOOTER3.size)
        raw = f.read(_FOOTER3.size)
        (magic, n_records, data_bytes, n_blocks,
         nt_offset, nt_bytes, stream_crc, footer_crc) = _FOOTER3.unpack(raw)
        if magic != FOOTER_MAGIC_V3:
            raise self._corrupt(
                "missing footer seal (truncated file or crash before finalize)",
                byte_offset=size - _FOOTER3.size,
                reason="footer",
            )
        if zlib.crc32(raw[: _FOOTER3.size - 4]) != footer_crc:
            raise self._corrupt(
                "footer checksum mismatch",
                byte_offset=size - _FOOTER3.size,
                reason="footer",
            )
        expected = nt_offset + _NT_HEAD.size + nt_bytes + _FOOTER3.size
        data_region = nt_offset - _HEADER.size
        expected_data = (
            data_bytes
            + RECORD_OVERHEAD * n_records
            + BLOCK_OVERHEAD * n_blocks
        )
        if expected != size or nt_offset < _HEADER.size or \
                data_region != expected_data:
            raise self._corrupt(
                f"footer inconsistent with file size "
                f"({size} bytes on disk, {expected} sealed; "
                f"data region {data_region} vs {expected_data} promised)",
                byte_offset=size - _FOOTER3.size,
                reason="footer",
            )
        return SpoolFooterV3(
            n_records, data_bytes, n_blocks, nt_offset, nt_bytes, stream_crc
        )

    def _load_codec(self) -> RecordCodec:
        """Load the sealed name-table section and build the read codec."""
        with open(self.path, "rb") as f:
            size = f.seek(0, os.SEEK_END)
            footer = self._read_footer3(f, size)
            return self._read_nametable(
                f, footer.nt_offset, size, footer.nt_bytes
            )

    def _read_nametable(
        self, f, nt_offset: int, size: int, sealed_len: Optional[int] = None
    ) -> RecordCodec:
        """Parse + verify the name-table section at ``nt_offset`` and
        build a codec over it.  ``sealed_len`` is the footer's promise;
        salvage passes None when the footer is damaged and the section
        must vouch for itself through its own length/crc framing."""
        f.seek(nt_offset)
        head = f.read(_NT_HEAD.size)
        if len(head) != _NT_HEAD.size:
            raise self._corrupt(
                "name-table section head truncated",
                byte_offset=nt_offset, reason="nametable",
            )
        nt_len, nt_crc = _NT_HEAD.unpack(head)
        if sealed_len is not None and nt_len != sealed_len:
            raise self._corrupt(
                f"name-table length {nt_len} disagrees with the "
                f"footer ({sealed_len})",
                byte_offset=nt_offset, reason="nametable",
            )
        # Bound the read by the file before trusting the length word.
        if nt_offset + _NT_HEAD.size + nt_len > size:
            raise self._corrupt(
                f"name-table length {nt_len} overruns the file",
                byte_offset=nt_offset, reason="nametable",
            )
        payload = f.read(nt_len)
        if len(payload) != nt_len:
            raise self._corrupt(
                "name-table payload truncated",
                byte_offset=nt_offset, reason="nametable",
            )
        if zlib.crc32(payload) != nt_crc:
            raise self._corrupt(
                "name-table checksum mismatch (bit rot or torn write)",
                byte_offset=nt_offset, reason="nametable",
            )
        try:
            names = deserialize_names(payload)
        except ValueError as exc:
            raise self._corrupt(
                f"name-table payload undecodable: {exc}",
                byte_offset=nt_offset, reason="nametable",
            ) from exc
        return RecordCodec(names)

    # -- forward reading ---------------------------------------------------

    def _iter_blobs_forward(self) -> Iterator[bytes]:
        with open(self.path, "rb") as f:
            size = f.seek(0, os.SEEK_END)
            self._check_header(f, size)
            footer = self._read_footer3(f, size)
            index = 0
            block_index = 0
            crc = 0
            for blobs, _end in self._walk_blocks(f, footer.nt_offset):
                for blob in blobs:
                    crc = zlib.crc32(blob, crc)
                    yield blob
                index += len(blobs)
                block_index += 1
            if index != footer.n_records or block_index != footer.n_blocks:
                raise self._corrupt(
                    f"footer promises {footer.n_records} records in "
                    f"{footer.n_blocks} blocks, walked {index} in "
                    f"{block_index}",
                    record_index=index, byte_offset=footer.nt_offset,
                    block_index=block_index, reason="footer",
                )
            if crc != footer.stream_crc:
                raise self._corrupt(
                    "whole-file stream checksum mismatch",
                    record_index=index, byte_offset=footer.nt_offset,
                    reason="footer",
                )

    def _split_block(
        self, payload: bytes, n_records: int,
        block_index: int, block_start: int, first_record_index: int,
    ) -> List[bytes]:
        """Split a checksum-verified block payload into its records."""
        blobs: List[bytes] = []
        pos = 0
        end = len(payload)
        for i in range(n_records):
            if pos + _LEN.size > end:
                raise self._corrupt(
                    f"record length prefix overruns the block payload",
                    record_index=first_record_index + i,
                    byte_offset=block_start + _BLOCK_HEAD.size + pos,
                    block_index=block_index, block_byte_offset=pos,
                    reason="framing",
                )
            (length,) = _LEN.unpack_from(payload, pos)
            pos += _LEN.size
            if pos + length > end:
                raise self._corrupt(
                    f"record length {length} overruns the block payload",
                    record_index=first_record_index + i,
                    byte_offset=block_start + _BLOCK_HEAD.size + pos,
                    block_index=block_index, block_byte_offset=pos,
                    reason="framing",
                )
            blobs.append(payload[pos:pos + length])
            pos += length
        if pos != end:
            raise self._corrupt(
                f"block payload has {end - pos} trailing bytes after "
                f"its {n_records} records",
                record_index=first_record_index + n_records - 1,
                byte_offset=block_start + _BLOCK_HEAD.size + pos,
                block_index=block_index, block_byte_offset=pos,
                reason="framing",
            )
        return blobs

    def _read_block_forward(
        self, f, pos: int, data_end: int, block_index: int,
        first_record_index: int,
    ) -> Tuple[List[bytes], int]:
        """Read + verify one block at ``pos``; return (records, end pos)."""
        payload, n_records = self._read_block_payload(
            f, pos, data_end, block_index, first_record_index
        )
        blobs = self._split_block(
            payload, n_records, block_index, pos, first_record_index
        )
        return blobs, pos + BLOCK_OVERHEAD + len(payload)

    def _read_block_payload(
        self, f, pos: int, data_end: int, block_index: int,
        first_record_index: int,
    ) -> Tuple[bytes, int]:
        """Read + verify one block's frame and checksum at ``pos``;
        return its payload and record count."""
        head = f.read(_BLOCK_HEAD.size)
        if len(head) != _BLOCK_HEAD.size:
            raise self._corrupt(
                "block header truncated",
                record_index=first_record_index, byte_offset=pos,
                block_index=block_index, reason="truncated",
            )
        payload_len, n_records, want_crc = _BLOCK_HEAD.unpack(head)
        if payload_len > data_end - pos - BLOCK_OVERHEAD:
            raise self._corrupt(
                f"block payload length {payload_len} overruns the sealed "
                f"data region",
                record_index=first_record_index, byte_offset=pos,
                block_index=block_index, reason="framing",
            )
        payload = f.read(payload_len)
        if len(payload) != payload_len:
            raise self._corrupt(
                "block payload truncated",
                record_index=first_record_index, byte_offset=pos,
                block_index=block_index, reason="truncated",
            )
        tail = f.read(_BLOCK_TAIL.size)
        if len(tail) != _BLOCK_TAIL.size:
            raise self._corrupt(
                "block trailer truncated",
                record_index=first_record_index, byte_offset=pos,
                block_index=block_index, reason="truncated",
            )
        tail_crc, tail_n, tail_len = _BLOCK_TAIL.unpack(tail)
        if tail_len != payload_len or tail_n != n_records or \
                tail_crc != want_crc:
            raise self._corrupt(
                "block head/tail framing mismatch",
                record_index=first_record_index, byte_offset=pos,
                block_index=block_index, reason="framing",
            )
        if zlib.crc32(payload) != want_crc:
            raise self._corrupt(
                "block checksum mismatch (bit rot or torn write)",
                record_index=first_record_index, byte_offset=pos,
                block_index=block_index, reason="checksum",
            )
        return payload, n_records

    def _walk_blocks(
        self, f, data_end: int
    ) -> Iterator[Tuple[List[bytes], int]]:
        """Verify the blocks between the header and ``data_end`` in file
        order, yielding ``(blobs, end)`` per block — its records and the
        file offset one past it — and raising at the first damage.

        The one forward block walk: the forward reader, fsck's scan and
        salvage all consume it.
        """
        pos = _HEADER.size
        f.seek(pos)
        index = 0
        block_index = 0
        while pos < data_end:
            blobs, end = self._read_block_forward(
                f, pos, data_end, block_index, index
            )
            yield blobs, end
            pos = end
            index += len(blobs)
            block_index += 1

    # -- backward reading --------------------------------------------------

    def _iter_blobs_backward(self) -> Iterator[bytes]:
        """Hop block-to-block from the back via the mirrored tails,
        verify + decode each block through the forward block reader,
        and yield its records reversed — memory stays bounded by one
        block, not the file."""
        with open(self.path, "rb") as f:
            size = f.seek(0, os.SEEK_END)
            self._check_header(f, size)
            footer = self._read_footer3(f, size)
            pos = footer.nt_offset  # end of the block region
            blocks_seen = 0
            records_seen = 0
            while pos > _HEADER.size:
                block_index = footer.n_blocks - blocks_seen - 1
                if pos - _BLOCK_TAIL.size < _HEADER.size:
                    raise self._corrupt(
                        "dangling bytes before the first block",
                        byte_offset=pos, block_index=block_index,
                        reason="framing",
                    )
                f.seek(pos - _BLOCK_TAIL.size)
                _crc, _n, tail_len = _BLOCK_TAIL.unpack(
                    f.read(_BLOCK_TAIL.size)
                )
                start = pos - BLOCK_OVERHEAD - tail_len
                if start < _HEADER.size:
                    raise self._corrupt(
                        f"trailing block length {tail_len} underruns the header",
                        byte_offset=pos - _BLOCK_TAIL.size,
                        block_index=block_index, reason="framing",
                    )
                # The head's record count places the block in the
                # stream; the block reader then checks it against the
                # tail like any other word.
                f.seek(start)
                _len, n_records, _crc = _BLOCK_HEAD.unpack(
                    f.read(_BLOCK_HEAD.size)
                )
                f.seek(start)
                blobs, _end = self._read_block_forward(
                    f, start, pos, block_index,
                    max(footer.n_records - records_seen - n_records, 0),
                )
                yield from reversed(blobs)
                blocks_seen += 1
                records_seen += n_records
                pos = start
            if blocks_seen != footer.n_blocks or \
                    records_seen != footer.n_records:
                raise self._corrupt(
                    f"footer promises {footer.n_records} records in "
                    f"{footer.n_blocks} blocks, walked {records_seen} in "
                    f"{blocks_seen}",
                    byte_offset=pos, reason="footer",
                )

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        if self._tmp_path is not None and os.path.exists(self._tmp_path):
            os.unlink(self._tmp_path)
            self._tmp_path = None
        if self._owns_file and os.path.exists(self.path):
            os.unlink(self.path)

    def file_bytes(self) -> int:
        """Actual on-disk size, including framing, header, and footer."""
        if self._finalized and os.path.exists(self.path):
            return os.path.getsize(self.path)
        # Unfinalized estimate: header + data + per-record prefixes
        # + sealed blocks so far (+ the still-buffered one).
        pending = 1 if self._block_records else 0
        return (
            _HEADER.size
            + self.data_bytes
            + RECORD_OVERHEAD * self.n_records
            + BLOCK_OVERHEAD * (self._n_blocks + pending)
        )


def spool_descriptor(spool: Spool) -> Dict[str, int]:
    """What a manifest records of a sealed spool to recognise it when
    reopened: record count, payload bytes and stream CRC, in the key
    order ``checkpoint.json`` and the MEMO2 generation records keep."""
    return {
        "n_records": spool.n_records,
        "data_bytes": spool.data_bytes,
        "stream_crc": getattr(spool, "_stream_crc", 0),
    }


def matches_descriptor(spool: Spool, desc: Dict[str, Any]) -> bool:
    """True when the reopened ``spool`` is the one ``desc`` was written
    for; a same-shaped stand-in differs at least in its stream CRC."""
    return all(
        desc.get(key) == value for key, value in spool_descriptor(spool).items()
    )


# ---------------------------------------------------------------------------
# fsck: non-raising scan + longest-valid-prefix salvage
# ---------------------------------------------------------------------------


@dataclass
class SpoolScanReport:
    """Outcome of a tolerant full sweep over a spool file (``repro fsck``)."""

    path: str
    file_bytes: int = 0
    #: Records whose framing + checksum verified, scanning forward.
    n_valid: int = 0
    #: Payload bytes across the valid prefix.
    valid_data_bytes: int = 0
    #: File offset one past the last valid record (start of the damage,
    #: or of the last block's tail when the file is clean).
    valid_end_offset: int = 0
    #: Footer-sealed record count (None when the footer is damaged).
    sealed_records: Optional[int] = None
    footer_ok: bool = False
    #: Blocks whose frame + checksum verified / footer-sealed block
    #: count / name-table section integrity.
    n_blocks_valid: int = 0
    sealed_blocks: Optional[int] = None
    nametable_ok: Optional[bool] = None
    #: The first integrity failure met, if any.
    error: Optional[SpoolCorruptionError] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def render(self) -> str:
        lines = [
            f"fsck {self.path}",
            f"  format      v{FORMAT_V3}"
            f" (footer {'sealed' if self.footer_ok else 'BAD'})",
            f"  file bytes  {self.file_bytes:,}",
            f"  records     {self.n_valid:,} valid"
            + (f" / {self.sealed_records:,} sealed"
               if self.sealed_records is not None else ""),
            f"  blocks      {self.n_blocks_valid:,} valid"
            + (f" / {self.sealed_blocks:,} sealed"
               if self.sealed_blocks is not None else ""),
        ]
        if self.nametable_ok is not None:
            lines.append(
                "  name table  " + ("sealed" if self.nametable_ok else "BAD")
            )
        lines.append(
            f"  payload     {self.valid_data_bytes:,} bytes over the valid prefix"
        )
        if self.error is None:
            lines.append("  status      clean")
        else:
            lines.append(
                f"  status      CORRUPT at {self.error.locus()}"
                f" [{self.error.reason}]: {self.error}"
            )
        return "\n".join(lines)


class RandomAccessReader:
    """Random access into a sealed spool by record index.

    The streaming readers replay a whole pass; the time-travel debugger
    instead needs *one node's* state out of the middle of a sealed
    spool, and the incremental memo a range of records.  This reader
    walks the block frames once at attach time — header fields only, no
    payload reads — building a per-block index (file offset, first
    record, first framed byte), then serves ``record(i)`` by verifying
    + decoding only the one block that holds record ``i`` (with a
    one-block cache for locality).  ``layout`` (a writer's
    :attr:`DiskSpool.block_layout`) stands in for the walk and also
    supplies each block's record offsets, so no block is split to find
    a record.

    Addresses are :class:`~repro.apt.codec.RecordAddress` triples
    ``(pass, block, record-in-block)`` — the replay coordinates the
    provenance log prints.
    """

    def __init__(
        self,
        spool: DiskSpool,
        layout: Optional[List[Tuple[int, List[int]]]] = None,
    ):
        if not spool._finalized:
            raise EvaluationError(
                "random access requires a sealed spool (finalize() first)"
            )
        self.spool = spool
        self._f = open(spool.path, "rb")
        self._cache_block: Optional[int] = None
        self._cache_payload = b""
        self._cache_blobs: Optional[List[bytes]] = None
        #: Per-block file offsets.
        self._starts: List[int] = []
        #: First record index of each block (parallel to _starts).
        self._firsts: List[int] = []
        #: Offset of each block's payload in the stream of framed
        #: records (block frames excluded).
        self._framed: List[int] = []
        #: Record start offsets inside each block's payload, once known.
        self._records: List[Optional[List[int]]] = []
        try:
            size = self._f.seek(0, os.SEEK_END)
            footer = spool._read_footer3(self._f, size)
            self._data_end = footer.nt_offset
            if layout is None:
                self._walk_heads()
            else:
                self._adopt(layout)
        except BaseException:
            self.close()
            raise

    def _walk_heads(self) -> None:
        spool = self.spool
        pos = _HEADER.size
        index = framed = 0
        while pos < self._data_end:
            self._f.seek(pos)
            head = self._f.read(_BLOCK_HEAD.size)
            if len(head) != _BLOCK_HEAD.size:
                raise spool._corrupt(
                    "block header truncated",
                    record_index=index, byte_offset=pos,
                    block_index=len(self._starts), reason="truncated",
                )
            payload_len, n_records, _crc = _BLOCK_HEAD.unpack(head)
            if payload_len > self._data_end - pos - BLOCK_OVERHEAD:
                raise spool._corrupt(
                    f"block payload length {payload_len} overruns the "
                    "sealed data region",
                    record_index=index, byte_offset=pos,
                    block_index=len(self._starts), reason="framing",
                )
            self._add_block(pos, index, framed, None)
            index += n_records
            framed += payload_len
            pos += BLOCK_OVERHEAD + payload_len

    def _adopt(self, layout: List[Tuple[int, List[int]]]) -> None:
        pos = _HEADER.size
        index = framed = 0
        for payload_len, starts in layout:
            self._add_block(pos, index, framed, starts)
            index += len(starts)
            framed += payload_len
            pos += BLOCK_OVERHEAD + payload_len
        if pos != self._data_end or index != self.spool.n_records:
            raise self.spool._corrupt(
                f"writer layout ({index} records, data ends at {pos}) "
                f"disagrees with the sealed footer",
                byte_offset=pos, reason="footer",
            )

    def _add_block(self, pos, first, framed, starts) -> None:
        self._starts.append(pos)
        self._firsts.append(first)
        self._framed.append(framed)
        self._records.append(starts)

    @property
    def n_records(self) -> int:
        return self.spool.n_records

    def locate(self, index: int):
        """``(block, record-in-block)`` coordinates of record ``index``."""
        if not 0 <= index < self.spool.n_records:
            raise EvaluationError(
                f"record index {index} out of range "
                f"(spool holds {self.spool.n_records} records)"
            )
        block = bisect.bisect_right(self._firsts, index) - 1
        return block, index - self._firsts[block]

    def address(self, pass_k: int, index: int) -> RecordAddress:
        """The ``(pass, block, record)`` replay address of a record."""
        block, rec = self.locate(index)
        return RecordAddress(pass_k, block, rec)

    def _n_in(self, block: int) -> int:
        nxt = block + 1
        end = self._firsts[nxt] if nxt < len(self._firsts) else self.spool.n_records
        return end - self._firsts[block]

    def _payload(self, block: int) -> bytes:
        """Read + verify ``block``'s payload (one-block cache)."""
        if self._cache_block != block:
            pos = self._starts[block]
            self._f.seek(pos)
            self._cache_payload, _n = self.spool._read_block_payload(
                self._f, pos, self._data_end, block, self._firsts[block]
            )
            self._cache_block = block
            self._cache_blobs = None
        return self._cache_payload

    def _load_block(self, block: int) -> List[bytes]:
        """``block``'s verified blobs (one-block cache)."""
        payload = self._payload(block)
        if self._cache_blobs is None:
            self._cache_blobs = self.spool._split_block(
                payload, self._n_in(block), block, self._starts[block],
                self._firsts[block],
            )
        return self._cache_blobs

    def _record_starts(self, block: int) -> Tuple[List[int], int]:
        """Offsets of ``block``'s records in its payload, and how many
        records had to be split out of the payload to find them (none
        when the writer's layout or an earlier split knows them)."""
        starts = self._records[block]
        if starts is not None:
            return starts, 0
        starts = []
        pos = 0
        for blob in self._load_block(block):
            starts.append(pos)
            pos += _LEN.size + len(blob)
        self._records[block] = starts
        return starts, len(starts)

    def pieces(
        self, start: int, count: int, data_start: int, data_bytes: int
    ) -> Tuple[List["SplicePiece"], int]:
        """Records ``[start, start + count)`` as framed byte slices of
        verified blocks, for :meth:`DiskSpool.splice_range`; their
        payload bytes begin at ``data_start`` and span ``data_bytes``.
        Every read and check happens here, so a damaged source raises
        before anything is written.  Also returns how many records had
        to be split out of blocks to find record boundaries."""
        if start < 0 or count < 0 or start + count > self.spool.n_records:
            raise EvaluationError(
                f"record range [{start}, {start + count}) out of range "
                f"(spool holds {self.spool.n_records} records)"
            )
        lo_f = data_start + RECORD_OVERHEAD * start
        hi_f = lo_f + data_bytes + RECORD_OVERHEAD * count
        out: List[SplicePiece] = []
        split = 0
        block = bisect.bisect_right(self._firsts, start) - 1
        index, end = start, start + count
        while index < end:
            payload = self._payload(block)
            starts, walked = self._record_starts(block)
            split += walked
            first = self._firsts[block]
            n = len(starts)
            stop = min(end, first + n)
            lo = lo_f - self._framed[block]
            hi = hi_f - self._framed[block] if stop == end else len(payload)
            i_lo, i_hi = index - first, stop - first
            if starts[i_lo] != lo or (
                starts[i_hi] if i_hi < n else len(payload)
            ) != hi:
                raise self.spool._corrupt(
                    f"record range [{start}, {end}) does not start and "
                    f"end on record boundaries of block {block}",
                    record_index=index, block_index=block, reason="range",
                )
            out.append((memoryview(payload), lo, hi, i_lo, i_hi, starts))
            lo_f += hi - lo
            index = stop
            block += 1
        return out, split

    def record(self, index: int) -> Any:
        """Decode record ``index``, reading (and fully verifying) only
        its containing block."""
        spool = self.spool
        block, rec = self.locate(index)
        blobs = self._load_block(block)
        if spool.metrics is not None:
            spool.metrics.counter("spool.codec.random_reads").inc()
        return spool._decode(blobs[rec])

    def close(self) -> None:
        if self._f is not None:
            self._f.close()
            self._f = None

    def __enter__(self) -> "RandomAccessReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def scan_spool(path: str, metrics=None, tracer=None) -> SpoolScanReport:
    """Sweep ``path`` forward, verifying every record; never raises.

    Returns a :class:`SpoolScanReport` whose ``error`` (if any) is the
    first :class:`SpoolCorruptionError` encountered, and whose
    ``n_valid``/``valid_end_offset`` describe the longest
    checksum-valid prefix — the unit :func:`salvage_spool` recovers.
    A damaged header or footer is recorded and the blocks are walked
    anyway, so the report still measures what survives.
    """
    report = SpoolScanReport(path=path)
    spool = DiskSpool._readonly(
        path, channel=os.path.basename(path), tracer=tracer, metrics=metrics
    )
    try:
        size = os.path.getsize(path)
    except OSError:
        report.error = spool._corrupt("spool file missing", reason="truncated")
        return report
    report.file_bytes = size
    report.valid_end_offset = _HEADER.size
    with open(path, "rb") as f:
        try:
            spool._check_header(f, size)
        except SpoolCorruptionError as exc:
            report.error = exc
        # Under an intact footer the data region ends where the
        # name-table section begins.
        data_end = size
        try:
            footer = spool._read_footer3(f, size)
            report.sealed_records = footer.n_records
            report.sealed_blocks = footer.n_blocks
            report.footer_ok = True
            data_end = footer.nt_offset
        except SpoolCorruptionError as exc:
            if report.error is None:
                report.error = exc
        try:
            for blobs, end in spool._walk_blocks(f, data_end):
                report.n_blocks_valid += 1
                report.n_valid += len(blobs)
                report.valid_data_bytes += sum(map(len, blobs))
                report.valid_end_offset = end - _BLOCK_TAIL.size
        except SpoolCorruptionError as exc:
            if report.error is None:
                report.error = exc
        if (
            report.error is None
            and report.sealed_records is not None
            and report.n_valid != report.sealed_records
        ):
            report.error = spool._corrupt(
                f"footer promises {report.sealed_records} records, "
                f"walked {report.n_valid}",
                record_index=report.n_valid,
                byte_offset=report.valid_end_offset,
                reason="footer",
            )
    if report.footer_ok:
        # The records are only decodable through the sealed name table,
        # so its integrity is part of the fsck verdict.
        try:
            spool._load_codec()
            report.nametable_ok = True
        except SpoolCorruptionError as exc:
            report.nametable_ok = False
            if report.error is None:
                report.error = exc
    return report


def salvage_spool(
    src: str, dst: str, metrics=None, tracer=None
) -> SpoolScanReport:
    """Recover the longest checksum-valid prefix of ``src`` into ``dst``.

    The valid blocks are rescued into a fresh sealed spool whose name
    table is copied verbatim from the source, so the interned ids
    inside the copied blobs stay aligned.  When the footer itself is
    the damaged part, salvage walks the blocks anyway and attempts to
    parse the name-table section where the valid blocks end — a flipped
    footer bit must not cost the whole spool.  A file whose name table
    cannot be recovered at all (crash before finalize, or the section
    itself hit by bit rot) is unrecoverable by design: its blobs
    reference interned ids that no longer spell anything, so salvage
    writes an *empty* sealed spool rather than garbage.

    ``dst`` always verifies clean afterwards (atomic finalize).
    Returns the scan report of the *source*; the number of records
    actually recovered is reported via the ``robust.*`` metrics.
    """
    report = scan_spool(src, metrics=metrics, tracer=tracer)
    out = DiskSpool(dst, channel=os.path.basename(dst), tracer=tracer,
                    metrics=metrics)
    spool = DiskSpool._readonly(src, channel=os.path.basename(src))
    recovered = 0
    try:
        size = report.file_bytes
        with open(src, "rb") as f:
            if report.footer_ok:
                data_end = spool._read_footer3(f, size).nt_offset
            else:
                data_end = size
            blobs_ok: List[bytes] = []
            nt_start = _HEADER.size
            try:
                for blobs, nt_start in spool._walk_blocks(f, data_end):
                    blobs_ok.extend(blobs)
            except SpoolCorruptionError:
                pass  # the prefix up to the damage is what salvage copies
            if report.nametable_ok:
                # Seed the output codec with the source's sealed name
                # table so copied blobs decode identically.
                codec: Optional[RecordCodec] = spool._load_codec()
            elif not report.footer_ok:
                # Under a damaged footer the name-table section is best
                # guessed to start where the valid blocks end.
                try:
                    codec = spool._read_nametable(f, nt_start, size)
                except SpoolCorruptionError:
                    codec = None
            else:
                codec = None  # sealed name table failed its crc
        if codec is not None:
            out._codec = codec
            for blob in blobs_ok:
                out.append_blob(blob)
            recovered = len(blobs_ok)
        out.finalize()
    except BaseException:
        out.close()
        raise
    if metrics is not None:
        metrics.counter("robust.spool_records_salvaged").inc(recovered)
        if not report.ok:
            metrics.counter("robust.spool_salvage_runs").inc()
    if tracer is not None:
        tracer.instant(
            "spool.salvage", cat="robust", src=src, dst=dst,
            recovered=recovered,
        )
    return report

"""Deterministic fault injection for spools and their backing files.

LINGUIST-86 lives and dies by sequential secondary storage (§II, §IV):
two intermediate files per pass, written postfix and read backwards.
Real storage fails, so robustness must be *testable* — this module
provides repeatable failure scenarios without touching real disks:

* :class:`FaultPlan` — a seeded description of *one* failure: the mode
  (torn write, bit flip, truncation, short read, fail-after-N-records,
  ``EIO`` on close) plus mode parameters, all derived deterministically
  from the seed so a failing run reproduces byte-for-byte.
* :class:`FaultySpool` — wraps any :class:`~repro.apt.storage.Spool`
  and fires the plan's *write-side* faults during ``append``/
  ``finalize``/``close`` and its *read-side* faults during iteration.
* :class:`FaultyFile` — a binary-file proxy applying torn writes and
  short reads at the file-object layer (for code that opens files
  directly).
* :func:`bit_flip` / :func:`truncate_file` / :func:`tear_tail` — the
  post-hoc on-disk corruptions, usable against any finalized
  :class:`~repro.apt.storage.DiskSpool` path.

Beyond single-spool faults, :class:`FilesystemFaultPlan` injects
*filesystem-level* chaos — ENOSPC once a byte budget is spent, EIO on
the Nth write, EMFILE on open, failing ``fsync`` or ``rename`` — into
**every** durable writer at once by patching the three hook functions
in :mod:`repro.util.atomic_write` (the single choke point all sealed
formats write through).  ``plan.install()`` is a context manager;
inside it any spool finalize, cache store, provenance seal, journal
append, or checkpoint manifest write can fail at the seeded point, and
the robustness suite asserts the aftermath is always classifiable by
``repro doctor``.

Every injected failure raises :class:`FaultInjected` (an ``OSError``,
``errno.EIO`` unless the mode dictates ENOSPC/EMFILE), so tests can
tell injected faults apart from real bugs, and production code paths
see the same exception type a dying disk would produce.
"""

from __future__ import annotations

import errno
import os
import random
from contextlib import contextmanager
from typing import Any, Iterator, List, Optional

from repro.apt.storage import Spool
from repro.util import atomic_write as _aw


class FaultMode:
    """Failure-mode tags (string constants, stable across pickling)."""

    NONE = "none"
    #: ``append`` raises after N successful records (clean EIO).
    FAIL_AFTER = "fail_after"
    #: The Nth record's bytes are cut mid-blob before the error (torn write).
    TORN_WRITE = "torn_write"
    #: One bit of the finalized file is flipped (bit rot).
    BIT_FLIP = "bit_flip"
    #: The finalized file loses its tail (crash mid-flush / lost sectors).
    TRUNCATE = "truncate"
    #: A read returns fewer bytes than asked (network FS short read).
    SHORT_READ = "short_read"
    #: ``close``/``finalize`` raises EIO (write-back cache failure).
    EIO_ON_CLOSE = "eio_on_close"

    ALL = (FAIL_AFTER, TORN_WRITE, BIT_FLIP, TRUNCATE, SHORT_READ, EIO_ON_CLOSE)


class FaultInjected(OSError):
    """The deliberate failure a fault plan fires (an ``OSError`` whose
    errno defaults to ``EIO``; filesystem plans pass ``ENOSPC`` or
    ``EMFILE`` as the mode dictates)."""

    def __init__(self, message: str, err: int = errno.EIO):
        super().__init__(err, message)


class FaultPlan:
    """One deterministic failure scenario, derived from a seed.

    ``FaultPlan(seed, mode=...)`` pins the mode; ``FaultPlan.random(seed,
    n_records=...)`` draws mode and parameters from the seeded RNG — the
    property-based robustness tests iterate seeds and assert that every
    resulting corruption is either *detected* (a typed
    :class:`~repro.errors.SpoolCorruptionError` naming the record) or
    *salvageable* to a checksum-valid prefix.
    """

    def __init__(
        self,
        seed: int = 0,
        mode: str = FaultMode.NONE,
        after_records: int = 0,
        torn_keep_bytes: Optional[int] = None,
        flip_offset: Optional[int] = None,
        flip_bit: Optional[int] = None,
        truncate_drop: Optional[int] = None,
        short_read_at: int = 0,
    ):
        if mode not in (FaultMode.NONE,) + FaultMode.ALL:
            raise ValueError(f"unknown fault mode {mode!r}")
        self.seed = seed
        self.mode = mode
        self.rng = random.Random(seed)
        #: Records that succeed before a write-side fault fires.
        self.after_records = after_records
        #: Bytes of the torn record actually reaching the file.
        self.torn_keep_bytes = torn_keep_bytes
        self.flip_offset = flip_offset
        self.flip_bit = flip_bit
        self.truncate_drop = truncate_drop
        #: Index of the read call that comes back short.
        self.short_read_at = short_read_at

    @classmethod
    def random(cls, seed: int, n_records: int = 8) -> "FaultPlan":
        """Draw a whole scenario (mode + parameters) from ``seed``."""
        rng = random.Random(seed)
        mode = rng.choice(FaultMode.ALL)
        return cls(
            seed=seed,
            mode=mode,
            after_records=rng.randrange(max(1, n_records)),
            torn_keep_bytes=rng.randrange(1, 24),
            flip_bit=rng.randrange(8),
            truncate_drop=rng.randrange(1, 40),
            short_read_at=rng.randrange(max(1, n_records)),
        )

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, mode={self.mode!r}, "
            f"after={self.after_records})"
        )

    # -- post-hoc corruption of a finalized file ---------------------------

    def corrupt_file(self, path: str) -> bool:
        """Apply this plan's *at-rest* damage to a finalized spool file.

        Returns True when the file was modified (``BIT_FLIP``,
        ``TRUNCATE``), False for purely in-flight modes.
        """
        if self.mode == FaultMode.BIT_FLIP:
            size = os.path.getsize(path)
            offset = (
                self.flip_offset
                if self.flip_offset is not None
                else self.rng.randrange(size)
            )
            bit = self.flip_bit if self.flip_bit is not None else 0
            bit_flip(path, offset % size, bit % 8)
            return True
        if self.mode == FaultMode.TRUNCATE:
            drop = self.truncate_drop or 1
            truncate_file(path, drop)
            return True
        return False


# -- worker-process fault hooks ---------------------------------------------

#: When set, a serve/batch worker hangs on any input containing this
#: marker string (see :func:`maybe_hang`).
HANG_MARKER_ENV = "REPRO_FAULT_HANG_MARKER"

#: How long the injected hang sleeps (default: effectively forever).
HANG_SECONDS_ENV = "REPRO_FAULT_HANG_SECONDS"

#: When set, a worker whose input contains this marker string calls
#: ``os._exit(3)`` mid-request — a deterministic stand-in for an
#: OOM-kill that needs no real memory pressure.
DIE_MARKER_ENV = "REPRO_FAULT_DIE_MARKER"


def maybe_hang(text: str) -> None:
    """Deterministic worker-side fault hook for the supervision tests.

    Called by the worker loop (:func:`repro.serve.workers.worker_main`)
    on every input; a no-op unless the ``REPRO_FAULT_*`` environment
    variables are set, so the production path costs two dict lookups.
    ``HANG`` simulates a request that outlives every deadline (the
    supervisor must kill the worker); ``DIE`` simulates sudden worker
    death mid-request (the supervisor must restart and re-dispatch).
    """
    import time

    die_marker = os.environ.get(DIE_MARKER_ENV)
    if die_marker and die_marker in text:
        os._exit(3)
    hang_marker = os.environ.get(HANG_MARKER_ENV)
    if hang_marker and hang_marker in text:
        time.sleep(float(os.environ.get(HANG_SECONDS_ENV, "3600")))


# -- direct on-disk corruption helpers --------------------------------------


def bit_flip(path: str, offset: int, bit: int = 0) -> None:
    """Flip one bit of ``path`` in place (deterministic bit rot)."""
    with open(path, "r+b") as f:
        f.seek(offset)
        byte = f.read(1)
        if not byte:
            raise ValueError(f"offset {offset} past end of {path}")
        f.seek(offset)
        f.write(bytes([byte[0] ^ (1 << bit)]))


def truncate_file(path: str, drop_bytes: int) -> None:
    """Cut ``drop_bytes`` off the end of ``path`` (lost tail sectors)."""
    size = os.path.getsize(path)
    with open(path, "r+b") as f:
        f.truncate(max(0, size - drop_bytes))


def tear_tail(path: str, keep_partial: int) -> None:
    """Simulate a torn final write: drop the sealed footer region and
    leave only ``keep_partial`` bytes of whatever preceded it."""
    size = os.path.getsize(path)
    with open(path, "r+b") as f:
        f.truncate(max(0, size - max(1, keep_partial)))


# -- file-object proxy -------------------------------------------------------


class FaultyFile:
    """Binary-file proxy that injects the plan's I/O-layer faults.

    Wraps an open binary file object; ``write`` tears the configured
    record's bytes, ``read`` comes back short once, ``close`` can raise
    ``EIO``.  Everything else delegates.
    """

    def __init__(self, inner, plan: FaultPlan):
        self._inner = inner
        self.plan = plan
        self._writes = 0
        self._reads = 0

    def write(self, data: bytes) -> int:
        plan = self.plan
        if (
            plan.mode == FaultMode.TORN_WRITE
            and self._writes == plan.after_records
        ):
            keep = min(len(data), plan.torn_keep_bytes or 1)
            self._inner.write(data[:keep])
            self._inner.flush()
            self._writes += 1
            raise FaultInjected(
                f"torn write: {keep}/{len(data)} bytes reached the device"
            )
        if (
            plan.mode == FaultMode.FAIL_AFTER
            and self._writes >= plan.after_records
        ):
            raise FaultInjected(
                f"write failed after {self._writes} successful writes"
            )
        self._writes += 1
        return self._inner.write(data)

    def read(self, n: int = -1) -> bytes:
        data = self._inner.read(n)
        if (
            self.plan.mode == FaultMode.SHORT_READ
            and self._reads == self.plan.short_read_at
            and len(data) > 1
        ):
            self._reads += 1
            short = data[: len(data) // 2]
            # Rewind past the bytes we pretend never arrived.
            self._inner.seek(-(len(data) - len(short)), os.SEEK_CUR)
            return short
        self._reads += 1
        return data

    def close(self) -> None:
        if self.plan.mode == FaultMode.EIO_ON_CLOSE:
            self._inner.close()
            raise FaultInjected("EIO on close (write-back cache lost)")
        self._inner.close()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def __enter__(self) -> "FaultyFile":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- spool wrapper -----------------------------------------------------------


class FaultySpool(Spool):
    """Wrap any :class:`Spool`, injecting the plan's faults around it.

    Composes: the inner spool does the real storage work (so a wrapped
    :class:`~repro.apt.storage.DiskSpool` still writes real sealed v3
    files) while the wrapper decides *when* the storage "hardware"
    misbehaves:

    * ``FAIL_AFTER`` — ``append`` raises after N records, leaving the
      inner spool unfinalized (crash-mid-pass).
    * ``TORN_WRITE`` — the N+1st record's bytes are cut mid-blob at the
      file layer, then the error surfaces (requires a DiskSpool inner).
    * ``EIO_ON_CLOSE`` — ``finalize`` raises before sealing.
    * ``SHORT_READ`` — one record of a read pass yields a truncated
      blob to the consumer.
    * ``BIT_FLIP`` / ``TRUNCATE`` — applied to the finalized file by
      :meth:`corrupt_finalized` (no-op for memory spools).
    """

    def __init__(self, inner: Spool, plan: FaultPlan):
        super().__init__(inner.accountant, inner.channel, inner.tracer,
                         inner.metrics)
        self.inner = inner
        self.plan = plan

    # -- write side --------------------------------------------------------

    def append(self, record: Any) -> None:
        plan = self.plan
        if (
            plan.mode == FaultMode.FAIL_AFTER
            and self.inner.n_records >= plan.after_records
        ):
            raise FaultInjected(
                f"write failed after {self.inner.n_records} records"
            )
        if (
            plan.mode == FaultMode.TORN_WRITE
            and self.inner.n_records == plan.after_records
        ):
            self._tear(record)
            raise FaultInjected(
                f"torn write at record {self.inner.n_records}"
            )
        self.inner.append(record)
        self.n_records = self.inner.n_records
        self.data_bytes = self.inner.data_bytes

    def _tear(self, record: Any) -> None:
        """Write a partial raw image of ``record`` straight to the device."""
        import pickle

        writer = getattr(self.inner, "_writer", None)
        if writer is None:
            return  # memory spool: the torn bytes simply never exist
        blob = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        keep = min(len(blob), self.plan.torn_keep_bytes or 1)
        # A torn frame: plausible length word, then the write dies.
        import struct

        writer.write(struct.pack("<I", len(blob)))
        writer.write(blob[:keep])
        writer.flush()

    def finalize(self) -> None:
        if self.plan.mode == FaultMode.EIO_ON_CLOSE:
            raise FaultInjected("EIO on finalize (footer never sealed)")
        self.inner.finalize()
        self._finalized = True

    def corrupt_finalized(self) -> bool:
        """Apply at-rest damage (bit flip / truncation) to the inner file."""
        path = getattr(self.inner, "path", None)
        if path is None or not os.path.exists(path):
            return False
        return self.plan.corrupt_file(path)

    # -- read side ---------------------------------------------------------

    def read_forward(self) -> Iterator[Any]:
        return self._faulty_reads(self.inner.read_forward())

    def read_backward(self) -> Iterator[Any]:
        return self._faulty_reads(self.inner.read_backward())

    def _faulty_reads(self, it: Iterator[Any]) -> Iterator[Any]:
        for i, record in enumerate(it):
            if (
                self.plan.mode == FaultMode.SHORT_READ
                and i == self.plan.short_read_at
            ):
                raise FaultInjected(f"short read at record {i}")
            yield record

    # -- delegation --------------------------------------------------------

    def close(self) -> None:
        self.inner.close()

    @property
    def path(self) -> Optional[str]:
        return getattr(self.inner, "path", None)


# -- filesystem-level chaos ---------------------------------------------------


class FsFaultMode:
    """Failure modes of :class:`FilesystemFaultPlan`."""

    #: Writes succeed until a cumulative byte budget is spent, then the
    #: crossing write lands its partial prefix and raises ``ENOSPC`` —
    #: the disk-full model: bytes up to the budget *are* on the device.
    ENOSPC_AT_BYTE = "enospc_at_byte"
    #: The Nth write call raises ``EIO`` (nothing of it reaches disk).
    EIO_ON_WRITE = "eio_on_write"
    #: The Nth ``open`` of a durable writer raises ``EMFILE``.
    EMFILE_ON_OPEN = "emfile_on_open"
    #: The Nth ``fsync`` raises ``EIO`` (write-back cache lost).
    FSYNC_FAIL = "fsync_fail"
    #: The Nth atomic rename raises ``EIO`` (metadata journal failure);
    #: the sealed tmp file survives, the final name never appears.
    RENAME_FAIL = "rename_fail"

    ALL = (
        ENOSPC_AT_BYTE,
        EIO_ON_WRITE,
        EMFILE_ON_OPEN,
        FSYNC_FAIL,
        RENAME_FAIL,
    )


class _FaultyWriteFile:
    """File proxy enforcing a :class:`FilesystemFaultPlan` byte budget /
    write-call fault; everything else delegates to the real file."""

    def __init__(self, inner, plan: "FilesystemFaultPlan"):
        self._inner = inner
        self._plan = plan

    def write(self, data):
        plan = self._plan
        if plan.mode == FsFaultMode.ENOSPC_AT_BYTE and plan.at_byte is not None:
            budget = plan.at_byte - plan.bytes_written
            if len(data) > budget:
                kept = data[: max(0, budget)]
                if kept:
                    self._inner.write(kept)
                    self._inner.flush()
                plan.bytes_written += len(kept)
                plan.fired = True
                raise FaultInjected(
                    f"ENOSPC after {plan.bytes_written} bytes "
                    f"({len(kept)}/{len(data)} of this write landed)",
                    errno.ENOSPC,
                )
            plan.bytes_written += len(data)
            return self._inner.write(data)
        if plan.mode == FsFaultMode.EIO_ON_WRITE:
            if plan.write_calls == plan.at_call:
                plan.write_calls += 1
                plan.fired = True
                raise FaultInjected(
                    f"EIO on write call {plan.at_call}", errno.EIO
                )
            plan.write_calls += 1
        n = self._inner.write(data)
        plan.bytes_written += len(data)
        return n

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def __enter__(self) -> "_FaultyWriteFile":
        return self

    def __exit__(self, *exc) -> None:
        self._inner.close()


class FilesystemFaultPlan:
    """One seeded filesystem-failure scenario wrapping *every* durable
    writer in the process.

    ``install()`` patches the three hook functions in
    :mod:`repro.util.atomic_write` — ``open_file``, ``fsync_file``,
    ``atomic_replace`` — which all sealed on-disk formats (spools,
    cache entries, provenance logs, request journals, checkpoint
    manifests) write through, then restores them on exit::

        plan = FilesystemFaultPlan(seed=7, mode=FsFaultMode.ENOSPC_AT_BYTE,
                                   at_byte=4096)
        with plan.install():
            ...  # any durable write past 4 KiB raises ENOSPC

    ``path_substring`` restricts the chaos to paths containing it (e.g.
    only the journal, only one spool); ``release()`` lifts an ENOSPC
    budget mid-test — the "operator freed disk space" transition the
    serve watermark tests drive.
    """

    def __init__(
        self,
        seed: int = 0,
        mode: str = FsFaultMode.ENOSPC_AT_BYTE,
        at_byte: Optional[int] = None,
        at_call: int = 0,
        path_substring: Optional[str] = None,
    ):
        if mode not in FsFaultMode.ALL:
            raise ValueError(f"unknown filesystem fault mode {mode!r}")
        self.seed = seed
        self.mode = mode
        self.at_byte = at_byte
        self.at_call = at_call
        self.path_substring = path_substring
        # live counters (reset by install())
        self.bytes_written = 0
        self.write_calls = 0
        self.opens = 0
        self.fsyncs = 0
        self.renames = 0
        #: True once the planned fault actually fired.
        self.fired = False

    @classmethod
    def random(cls, seed: int, max_bytes: int = 1 << 14) -> "FilesystemFaultPlan":
        """Draw mode + parameters deterministically from ``seed``."""
        rng = random.Random(seed)
        mode = rng.choice(FsFaultMode.ALL)
        return cls(
            seed=seed,
            mode=mode,
            at_byte=rng.randrange(max_bytes),
            at_call=rng.randrange(4),
        )

    def __repr__(self) -> str:
        return (
            f"FilesystemFaultPlan(seed={self.seed}, mode={self.mode!r}, "
            f"at_byte={self.at_byte}, at_call={self.at_call})"
        )

    def release(self) -> None:
        """Lift an ENOSPC budget: the disk has space again."""
        self.at_byte = None

    def _matches(self, path: Any) -> bool:
        if self.path_substring is None:
            return True
        return isinstance(path, str) and self.path_substring in path

    @contextmanager
    def install(self):
        """Patch the ``repro.util.atomic_write`` hooks for the duration."""
        self.bytes_written = 0
        self.write_calls = 0
        self.opens = 0
        self.fsyncs = 0
        self.renames = 0
        self.fired = False
        orig_open = _aw.open_file
        orig_fsync = _aw.fsync_file
        orig_replace = _aw.atomic_replace
        plan = self

        def open_file(path, mode="wb", **kwargs):
            if plan._matches(path) and "r" not in mode:
                if (
                    plan.mode == FsFaultMode.EMFILE_ON_OPEN
                    and plan.opens == plan.at_call
                ):
                    plan.opens += 1
                    plan.fired = True
                    raise FaultInjected(
                        f"EMFILE opening {path} (fd table exhausted)",
                        errno.EMFILE,
                    )
                plan.opens += 1
                if plan.mode in (
                    FsFaultMode.ENOSPC_AT_BYTE,
                    FsFaultMode.EIO_ON_WRITE,
                ):
                    return _FaultyWriteFile(
                        orig_open(path, mode, **kwargs), plan
                    )
            return orig_open(path, mode, **kwargs)

        def fsync_file(fileobj):
            if plan.mode == FsFaultMode.FSYNC_FAIL and plan._matches(
                getattr(fileobj, "name", None)
            ):
                if plan.fsyncs == plan.at_call:
                    plan.fsyncs += 1
                    plan.fired = True
                    raise FaultInjected(
                        f"fsync failed (call {plan.at_call})", errno.EIO
                    )
                plan.fsyncs += 1
            orig_fsync(fileobj)

        def atomic_replace(tmp_path, final_path):
            if plan.mode == FsFaultMode.RENAME_FAIL and plan._matches(
                final_path
            ):
                if plan.renames == plan.at_call:
                    plan.renames += 1
                    plan.fired = True
                    raise FaultInjected(
                        f"rename {tmp_path!r} -> {final_path!r} failed",
                        errno.EIO,
                    )
                plan.renames += 1
            orig_replace(tmp_path, final_path)

        _aw.open_file = open_file
        _aw.fsync_file = fsync_file
        _aw.atomic_replace = atomic_replace
        try:
            yield self
        finally:
            _aw.open_file = orig_open
            _aw.fsync_file = orig_fsync
            _aw.atomic_replace = orig_replace

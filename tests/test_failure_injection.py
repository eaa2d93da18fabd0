"""Failure-injection tests: corrupted files, malformed streams, misuse,
the durable spool format, deterministic fault plans, fsck/salvage,
and checkpoint/resume."""

import os
import pickle
import struct
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.apt.storage import (
    _BLOCK_HEAD,
    _BLOCK_TAIL,
    _FOOTER3,
    _HEADER,
    DEFAULT_BLOCK_SIZE,
    DiskSpool,
    MemorySpool,
    salvage_spool,
    scan_spool,
)
from repro.errors import (
    EvaluationError,
    ResumeError,
    Severity,
    SpoolCorruptionError,
)
from repro.testing.faults import (
    FaultInjected,
    FaultMode,
    FaultPlan,
    FaultyFile,
    FaultySpool,
    bit_flip,
    truncate_file,
)


def make_disk_spool(path, n=5, block_size=DEFAULT_BLOCK_SIZE):
    """A sealed spool of ``n`` small node records; ``block_size=1``
    frames every record in a block of its own."""
    spool = DiskSpool(str(path), block_size=block_size)
    for i in range(n):
        spool.append(("S", None, {"X": i}, False))
    spool.finalize()
    return spool


def record_payload_offset(path, k):
    """File offset of record ``k``'s bytes in a ``block_size=1`` spool
    of equal-sized records (block ``k`` holds record ``k``)."""
    with open(path, "rb") as f:
        f.seek(_HEADER.size)
        payload_len, _n, _crc = _BLOCK_HEAD.unpack(f.read(_BLOCK_HEAD.size))
    block_bytes = _BLOCK_HEAD.size + payload_len + _BLOCK_TAIL.size
    return _HEADER.size + k * block_bytes + _BLOCK_HEAD.size


class TestCorruptSpools:
    def make_spool(self, tmp_path, n=5):
        return make_disk_spool(tmp_path / "t.spool", n)

    def test_truncated_tail_detected_forward(self, tmp_path):
        spool = self.make_spool(tmp_path)
        size = os.path.getsize(spool.path)
        with open(spool.path, "r+b") as f:
            f.truncate(size - 3)
        with pytest.raises(EvaluationError) as exc:
            list(spool.read_forward())
        assert "truncated" in str(exc.value) or "corrupt" in str(exc.value)

    def test_corrupt_length_detected_backward(self, tmp_path):
        spool = self.make_spool(tmp_path)
        with open(spool.path, "r+b") as f:
            f.seek(-4, os.SEEK_END)
            f.write(struct.pack("<I", 10_000_000))  # stomp the footer crc
        with pytest.raises(EvaluationError):
            list(spool.read_backward())

    def test_evaluator_detects_truncated_apt(self):
        """An APT file missing records makes the evaluator fail loudly,
        not return partial results."""
        from tests.evalharness import Pipeline, tokens_of
        from tests.sample_grammars import knuth_binary

        pipe = Pipeline(knuth_binary())
        mapping = {"0": "ZERO", "1": "ONE", ".": "DOT"}
        toks = tokens_of([(mapping[c], c) for c in "10.1"])
        spool, _ = pipe.build_apt(toks, build_tree=False)
        # Drop the last record (the root!) from a copy of the spool.
        broken = MemorySpool(channel="broken")
        records = list(spool.read_forward())
        for record in records[:-1]:
            broken.append(record)
        broken.finalize()
        driver = pipe.driver()
        with pytest.raises(EvaluationError):
            driver.run(broken, strategy="bottom-up")

    def test_evaluator_detects_surplus_records(self):
        from tests.evalharness import Pipeline, tokens_of
        from tests.sample_grammars import knuth_binary

        pipe = Pipeline(knuth_binary())
        mapping = {"0": "ZERO", "1": "ONE", ".": "DOT"}
        toks = tokens_of([(mapping[c], c) for c in "1.1"])
        spool, _ = pipe.build_apt(toks, build_tree=False)
        padded = MemorySpool(channel="padded")
        # The first pass reads BACKWARD, so prepend garbage: it is then
        # left unconsumed at the end of the pass.
        padded.append(("ZERO", None, {}, False))
        for record in spool.read_forward():
            padded.append(record)
        padded.finalize()
        driver = pipe.driver()
        with pytest.raises(EvaluationError) as exc:
            driver.run(padded, strategy="bottom-up")
        assert "did not consume" in str(exc.value)

    def test_record_symbol_swap_detected(self):
        """Swapping two node records breaks the phrase-structure sync."""
        from tests.evalharness import Pipeline, tokens_of
        from tests.sample_grammars import knuth_binary

        pipe = Pipeline(knuth_binary())
        mapping = {"0": "ZERO", "1": "ONE", ".": "DOT"}
        toks = tokens_of([(mapping[c], c) for c in "10.1"])
        spool, _ = pipe.build_apt(toks, build_tree=False)
        records = list(spool.read_forward())
        records[0], records[1] = records[1], records[0]
        swapped = MemorySpool(channel="swapped")
        for record in records:
            swapped.append(record)
        swapped.finalize()
        driver = pipe.driver()
        with pytest.raises(EvaluationError):
            driver.run(swapped, strategy="bottom-up")


# ---------------------------------------------------------------------------
# Spool format: framing, sealing, and the corruption matrix
# ---------------------------------------------------------------------------


class TestSpoolFormatV2:
    """The framing/sealing/corruption matrix written for the retired
    per-record v2 format, pointed at the v3 block format (the class
    name is kept so the test ids stay stable)."""

    def test_header_magic_and_footer_seal(self, tmp_path):
        spool = make_disk_spool(tmp_path / "v3.spool", 3)
        with open(spool.path, "rb") as f:
            magic, version, flags = _HEADER.unpack(f.read(_HEADER.size))
        assert magic == b"APTSPL3\n"
        assert version == 3
        with open(spool.path, "rb") as f:
            f.seek(-_FOOTER3.size, os.SEEK_END)
            assert f.read(8) == b"APTSEL3\n"
        report = scan_spool(spool.path)
        assert report.ok and report.footer_ok
        assert report.n_valid == report.sealed_records == 3

    def test_atomic_finalize_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "a.spool"
        spool = DiskSpool(str(path))
        spool.append(1)
        # Before finalize only the temp image exists (plus the empty
        # placeholder for explicitly-pathed spools is not created).
        assert os.path.exists(str(path) + ".tmp")
        assert not os.path.exists(str(path)) or os.path.getsize(str(path)) == 0
        spool.finalize()
        assert not os.path.exists(str(path) + ".tmp")
        assert os.path.exists(str(path))
        assert list(spool.read_forward()) == [1]

    def test_unfinalized_crash_leaves_no_sealed_file(self, tmp_path):
        path = tmp_path / "crash.spool"
        spool = DiskSpool(str(path))
        spool.append(1)
        spool.append(2)
        # Simulated crash: no finalize.  The durable name never appears
        # (or is empty), so a reader can't mistake it for a sealed file.
        if os.path.exists(str(path)):
            assert os.path.getsize(str(path)) == 0
        spool.close()
        assert not os.path.exists(str(path) + ".tmp")

    def test_file_bytes_matches_disk(self, tmp_path):
        spool = make_disk_spool(tmp_path / "fb.spool", 4)
        assert spool.file_bytes() == os.path.getsize(spool.path)

    def test_open_attaches_and_verifies(self, tmp_path):
        spool = make_disk_spool(tmp_path / "o.spool", 6)
        reopened = DiskSpool.open(spool.path)
        assert reopened.n_records == 6
        assert reopened.data_bytes == spool.data_bytes
        assert list(reopened.read_forward()) == list(spool.read_forward())

    def test_open_missing_file(self, tmp_path):
        with pytest.raises(SpoolCorruptionError):
            DiskSpool.open(str(tmp_path / "nope.spool"))

    # -- the corruption matrix, both read directions -----------------------

    def _both_directions_raise(self, spool):
        """Both readers must raise a located SpoolCorruptionError."""
        errors = []
        for reader in (spool.read_forward, spool.read_backward):
            with pytest.raises(SpoolCorruptionError) as exc:
                list(reader())
            errors.append(exc.value)
            assert exc.value.byte_offset is not None
        return errors

    def test_matrix_truncation(self, tmp_path):
        spool = make_disk_spool(tmp_path / "m1.spool", 5)
        truncate_file(spool.path, 7)
        fwd, bwd = self._both_directions_raise(spool)
        assert fwd.reason in ("footer", "truncated")
        assert bwd.reason in ("footer", "truncated")

    def test_matrix_torn_write(self, tmp_path):
        """A torn final record: footer seal never hit the disk."""
        spool = make_disk_spool(tmp_path / "m2.spool", 5)
        size = os.path.getsize(spool.path)
        truncate_file(spool.path, _FOOTER3.size + 9)  # footer + name table
        assert os.path.getsize(spool.path) == size - _FOOTER3.size - 9
        fwd, bwd = self._both_directions_raise(spool)
        assert fwd.reason in ("footer", "truncated")

    def test_matrix_bit_flip_in_payload(self, tmp_path):
        spool = make_disk_spool(tmp_path / "m3.spool", 5, block_size=1)
        # Flip a bit inside the 3rd record's payload (one record per
        # block, so the block checksum localizes it).
        bit_flip(spool.path, record_payload_offset(spool.path, 2) + 5, 3)
        fwd, bwd = self._both_directions_raise(spool)
        assert fwd.record_index is not None
        assert bwd.record_index is not None
        # Forward and backward must localize the SAME record.
        assert fwd.record_index == bwd.record_index == 2

    def test_matrix_header_trailer_mismatch(self, tmp_path):
        spool = make_disk_spool(tmp_path / "m4.spool", 3)
        # Stomp the leading length word of block 0 (keep crc intact).
        with open(spool.path, "r+b") as f:
            f.seek(_HEADER.size)
            f.write(struct.pack("<I", 5))
        fwd, bwd = self._both_directions_raise(spool)
        assert fwd.record_index == 0
        assert fwd.reason in ("framing", "checksum")

    def test_matrix_bad_footer(self, tmp_path):
        spool = make_disk_spool(tmp_path / "m5.spool", 3)
        with open(spool.path, "r+b") as f:
            f.seek(-_FOOTER3.size, os.SEEK_END)
            f.write(b"XXXXXXXX")  # destroy the footer magic
        fwd, bwd = self._both_directions_raise(spool)
        assert fwd.reason == "footer"
        assert bwd.reason == "footer"

    def test_corruption_error_names_record_and_offset(self, tmp_path):
        spool = make_disk_spool(tmp_path / "m6.spool", 5, block_size=1)
        report = scan_spool(spool.path)
        assert report.ok
        # Flip a payload bit of the last record (alone in its block).
        bit_flip(spool.path, report.valid_end_offset - 12, 1)
        with pytest.raises(SpoolCorruptionError) as exc:
            list(spool.read_forward())
        err = exc.value
        assert err.record_index == 4
        assert isinstance(err.byte_offset, int)
        assert "record 4" in err.locus()

    def test_corruption_metered_and_traced(self, tmp_path):
        from repro.obs import MetricsRegistry, Tracer

        metrics = MetricsRegistry()
        tracer = Tracer()
        spool = DiskSpool(str(tmp_path / "m7.spool"), tracer=tracer,
                          metrics=metrics)
        for i in range(4):
            spool.append(i)
        spool.finalize()
        bit_flip(spool.path, _HEADER.size + 10, 2)
        with pytest.raises(SpoolCorruptionError):
            list(spool.read_forward())
        snap = metrics.snapshot()
        assert snap["robust.spool_corruption_detected"] == 1
        assert tracer.instants("spool.corruption")


# ---------------------------------------------------------------------------
# Deterministic fault plans
# ---------------------------------------------------------------------------


class TestFaultInjection:
    def test_fail_after_n_records(self, tmp_path):
        inner = DiskSpool(str(tmp_path / "f1.spool"))
        faulty = FaultySpool(inner, FaultPlan(mode=FaultMode.FAIL_AFTER,
                                              after_records=3))
        for i in range(3):
            faulty.append(i)
        with pytest.raises(FaultInjected):
            faulty.append(3)
        faulty.close()

    def test_torn_write_leaves_detectable_file(self, tmp_path):
        inner = DiskSpool(str(tmp_path / "f2.spool"))
        faulty = FaultySpool(
            inner,
            FaultPlan(mode=FaultMode.TORN_WRITE, after_records=2,
                      torn_keep_bytes=5),
        )
        faulty.append(("R", 0))
        faulty.append(("R", 1))
        with pytest.raises(FaultInjected):
            faulty.append(("R", 2))
        # The torn image is on the temp file; it was never sealed, so a
        # scan of the durable name reports damage, never silent data.
        report = scan_spool(inner._tmp_path or inner.path)
        assert not report.ok
        faulty.close()

    def test_eio_on_finalize(self, tmp_path):
        inner = DiskSpool(str(tmp_path / "f3.spool"))
        faulty = FaultySpool(inner, FaultPlan(mode=FaultMode.EIO_ON_CLOSE))
        faulty.append(1)
        with pytest.raises(FaultInjected):
            faulty.finalize()
        faulty.close()

    def test_short_read_surfaces(self, tmp_path):
        inner = DiskSpool(str(tmp_path / "f4.spool"))
        faulty = FaultySpool(inner, FaultPlan(mode=FaultMode.SHORT_READ,
                                              short_read_at=1))
        for i in range(4):
            faulty.append(i)
        faulty.finalize()
        with pytest.raises(FaultInjected):
            list(faulty.read_forward())

    def test_bit_flip_mode_detected(self, tmp_path):
        inner = DiskSpool(str(tmp_path / "f5.spool"))
        plan = FaultPlan(seed=7, mode=FaultMode.BIT_FLIP, flip_offset=30,
                         flip_bit=4)
        faulty = FaultySpool(inner, plan)
        for i in range(5):
            faulty.append(("rec", i))
        faulty.finalize()
        assert faulty.corrupt_finalized()
        with pytest.raises(SpoolCorruptionError):
            list(inner.read_forward())

    def test_faulty_file_short_read(self, tmp_path):
        path = tmp_path / "ff.bin"
        path.write_bytes(b"0123456789abcdef")
        f = FaultyFile(open(path, "rb"),
                       FaultPlan(mode=FaultMode.SHORT_READ, short_read_at=0))
        first = f.read(8)
        assert len(first) == 4  # short!
        rest = f.read()
        assert first + rest == b"0123456789abcdef"
        f.close()

    def test_faulty_file_torn_write(self, tmp_path):
        path = tmp_path / "fw.bin"
        f = FaultyFile(open(path, "wb"),
                       FaultPlan(mode=FaultMode.TORN_WRITE, after_records=1,
                                 torn_keep_bytes=2))
        f.write(b"AAAA")
        with pytest.raises(FaultInjected):
            f.write(b"BBBB")
        f._inner.close()
        assert path.read_bytes() == b"AAAABB"

    def test_plan_is_deterministic(self):
        a, b = FaultPlan.random(1234), FaultPlan.random(1234)
        assert (a.mode, a.after_records, a.truncate_drop) == (
            b.mode, b.after_records, b.truncate_drop
        )


# ---------------------------------------------------------------------------
# Property-based: every random corruption is detected or salvageable
# ---------------------------------------------------------------------------


class TestCorruptionProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31), st.integers(1, 12))
    def test_clean_round_trip(self, seed, n):
        import random as _random

        rng = _random.Random(seed)
        records = [("S", rng.randrange(99), {"X": rng.random()}, False)
                   for _ in range(n)]
        with tempfile.TemporaryDirectory() as d:
            spool = DiskSpool(os.path.join(d, "p.spool"))
            for r in records:
                spool.append(r)
            spool.finalize()
            assert list(spool.read_forward()) == records
            assert list(spool.read_backward()) == records[::-1]
            assert scan_spool(spool.path).ok

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31), st.integers(1, 10))
    def test_at_rest_corruption_detected_or_salvageable(self, seed, n):
        """For random record sequences and random at-rest fault plans,
        every corruption is either detected (typed error naming a byte
        offset, in BOTH read directions) or the file still round-trips
        exactly; in the detected case the salvage path recovers a
        checksum-valid prefix of the original records."""
        import random as _random

        rng = _random.Random(seed)
        records = [
            ("N", rng.randrange(50), {"A": rng.random(),
                                      "B": "x" * rng.randrange(20)}, False)
            for _ in range(n)
        ]
        plan = FaultPlan.random(seed, n_records=n)
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "p.spool")
            spool = DiskSpool(path)
            for r in records:
                spool.append(r)
            spool.finalize()
            if not plan.corrupt_file(path):
                return  # in-flight-only mode; at-rest file is clean
            errors = {}
            results = {}
            for name, reader in (("fwd", spool.read_forward),
                                 ("bwd", spool.read_backward)):
                try:
                    results[name] = list(reader())
                    errors[name] = None
                except SpoolCorruptionError as exc:
                    errors[name] = exc
            if errors["fwd"] is None and errors["bwd"] is None:
                # Harmless damage (e.g. a flipped reserved-flag bit):
                # the data must be byte-for-byte intact.
                assert results["fwd"] == records
                assert results["bwd"] == records[::-1]
                return
            # Detection must be symmetric and located.
            assert errors["fwd"] is not None and errors["bwd"] is not None
            for exc in errors.values():
                assert exc.byte_offset is not None
            # ... and the valid prefix must be salvageable.
            dst = os.path.join(d, "rescued.spool")
            report = salvage_spool(path, dst)
            rescued = DiskSpool.open(dst)
            recovered = list(rescued.read_forward())
            assert recovered == records[: len(recovered)]
            if len(recovered) == 0 and report.nametable_ok is not True:
                # v3 blobs spell their strings through the sealed name
                # table; when neither the footer nor the section itself
                # survives, the valid blocks are undecodable by design
                # and salvage writes an empty sealed spool instead of
                # garbage (see docs/robustness.md).
                pass
            else:
                assert len(recovered) == report.n_valid
            assert scan_spool(dst).ok

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31), st.integers(1, 10))
    def test_in_flight_faults_never_seal_a_file(self, seed, n):
        """Write-side faults (fail-after, torn write, EIO-on-close) must
        leave no file that passes verification as a sealed spool."""
        plan = FaultPlan.random(seed, n_records=n)
        if plan.mode not in (FaultMode.FAIL_AFTER, FaultMode.TORN_WRITE,
                             FaultMode.EIO_ON_CLOSE):
            return
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "p.spool")
            faulty = FaultySpool(DiskSpool(path), plan)
            try:
                for i in range(n):
                    faulty.append(("S", i))
                faulty.finalize()
            except FaultInjected:
                pass
            else:
                return  # plan fired past the end of this short run
            # Whatever is on disk must NOT look like a sealed spool.
            if os.path.exists(path) and os.path.getsize(path) > 0:
                assert not scan_spool(path).ok


def _damages(clean: bytes):
    """Every single-byte XOR 0x01 / 0x80 and every truncation of ``clean``."""
    for i in range(len(clean)):
        for mask in (0x01, 0x80):
            damaged = bytearray(clean)
            damaged[i] ^= mask
            yield f"byte {i} ^ {mask:#04x}", bytes(damaged)
    for n in range(len(clean)):
        yield f"truncated to {n}", clean[:n]


def _outcome(read):
    """``read()``'s result, or the SpoolCorruptionError it raised."""
    try:
        return read()
    except SpoolCorruptionError as exc:
        return exc


def _locus(exc: SpoolCorruptionError):
    return (exc.reason, exc.record_index, exc.block_index, exc.byte_offset)


class TestDamageConsistency:
    """Every reader of a sealed file gives the same verdict on the same
    damage: the forward and backward readers, ``scan_spool`` and
    :class:`RandomAccessReader` over a multi-block spool, and
    ``BuildCache.load`` over a cache entry."""

    RECORDS = [("S", i % 3, {"X": i}, i % 7 == 0) for i in range(40)]

    def test_every_spool_reader_agrees_on_every_damage(self, tmp_path):
        from repro.apt.storage import RandomAccessReader

        path = str(tmp_path / "p.spool")
        spool = DiskSpool(path, block_size=64)
        for record in self.RECORDS:
            spool.append(record)
        spool.finalize()
        with open(path, "rb") as f:
            clean = f.read()
        assert scan_spool(path).sealed_blocks > 4

        def random_access():
            with RandomAccessReader(DiskSpool.open(path)) as reader:
                return [reader.record(i) for i in range(reader.n_records)]

        readers = {
            "forward": lambda: list(DiskSpool.open(path).read_forward()),
            "backward": lambda: list(DiskSpool.open(path).read_backward())[::-1],
            "random access": random_access,
        }
        for damage, data in _damages(clean):
            with open(path, "wb") as f:
                f.write(data)
            got = {name: _outcome(read) for name, read in readers.items()}
            report = scan_spool(path)
            if report.ok:
                assert got == dict.fromkeys(readers, self.RECORDS), damage
                continue
            for name, outcome in got.items():
                assert isinstance(outcome, SpoolCorruptionError), (damage, name)
            assert _locus(got["forward"]) == _locus(report.error), damage

    def test_a_damaged_cache_entry_never_loads_another_payload(self, tmp_path):
        from repro.buildcache import BuildCache
        from repro.obs import MetricsRegistry

        cache = BuildCache(str(tmp_path))
        payload = {"v": list(range(12)), "name": "calc"}
        key = "ab" * 32
        path = cache.store("unit", key, payload)
        with open(path, "rb") as f:
            clean = f.read()
        for damage, data in _damages(clean):
            if len(data) != len(clean):
                continue  # byte flips only
            with open(path, "wb") as f:
                f.write(data)
            metrics = MetricsRegistry()
            got = cache.load("unit", key, metrics=metrics)
            corrupt = metrics.snapshot().get("cache.corrupt", 0)
            if got is None:
                assert corrupt == 1, damage
            else:
                assert (got, corrupt) == (payload, 0), damage


# ---------------------------------------------------------------------------
# fsck / salvage
# ---------------------------------------------------------------------------


class TestFsckCli:
    def test_fsck_clean(self, tmp_path, capsys):
        from repro.cli import main

        spool = make_disk_spool(tmp_path / "ok.spool", 4)
        assert main(["fsck", spool.path]) == 0
        assert "clean" in capsys.readouterr().out

    def test_fsck_corrupt_exits_nonzero_with_location(self, tmp_path, capsys):
        from repro.cli import main

        spool = make_disk_spool(tmp_path / "bad.spool", 5)
        bit_flip(spool.path, _HEADER.size + 24, 5)
        assert main(["fsck", spool.path]) == 1
        captured = capsys.readouterr()
        assert "CORRUPT" in captured.out
        assert "record" in captured.err and "byte" in captured.err
        assert str(spool.path) in captured.err  # location-bearing diagnostic

    def test_fsck_salvage_recovers_prefix(self, tmp_path, capsys):
        from repro.cli import main

        spool = make_disk_spool(tmp_path / "sick.spool", 6, block_size=1)
        # Damage record 3's payload (its own block): records 0-2 stay
        # recoverable.
        bit_flip(spool.path, record_payload_offset(spool.path, 3) + 5, 1)
        out = str(tmp_path / "rescued.spool")
        rc = main(["fsck", spool.path, "--salvage", out])
        assert rc == 2  # salvaged with loss
        assert "salvaged" in capsys.readouterr().out
        rescued = DiskSpool.open(out)
        originals = [("S", None, {"X": i}, False) for i in range(6)]
        got = list(rescued.read_forward())
        assert got == originals[: len(got)]
        assert len(got) >= 1

    def test_fsck_missing_file(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["fsck", str(tmp_path / "ghost.spool")]) == 1


class TestFsckV3:
    """fsck/salvage over the block-framed v3 format: block-relative and
    record-relative loci, CLI behavior on a bit-flipped block, and the
    name-table-preserving salvage path."""

    def _spool(self, tmp_path, n=300, block_size=256):
        path = str(tmp_path / "v3.spool")
        spool = DiskSpool(path, block_size=block_size)
        records = [
            (f"Sym{i % 3}", i % 4, {"VAL": i, "NAME": f"n{i % 5}"}, False)
            for i in range(n)
        ]
        for r in records:
            spool.append(r)
        spool.finalize()
        assert spool._n_blocks > 2  # the scenarios below need several
        return spool, records

    def test_scan_reports_blocks_and_nametable(self, tmp_path):
        spool, records = self._spool(tmp_path)
        report = scan_spool(spool.path)
        assert report.ok
        assert report.n_valid == len(records)
        assert report.sealed_blocks == spool._n_blocks
        assert report.n_blocks_valid == spool._n_blocks
        assert report.nametable_ok is True
        rendered = report.render()
        assert "blocks" in rendered and "name table  sealed" in rendered

    def test_block_flip_carries_block_locus(self, tmp_path):
        spool, _ = self._spool(tmp_path)
        # Flip a payload bit inside the SECOND block.
        from repro.apt.storage import _BLOCK_HEAD, _HEADER

        with open(spool.path, "rb") as f:
            f.seek(_HEADER.size)
            payload_len, n0, _crc = _BLOCK_HEAD.unpack(f.read(_BLOCK_HEAD.size))
        block2 = _HEADER.size + 24 + payload_len  # BLOCK_OVERHEAD == 24
        bit_flip(spool.path, block2 + _BLOCK_HEAD.size + 5, 3)
        with pytest.raises(SpoolCorruptionError) as exc:
            list(spool.read_forward())
        err = exc.value
        assert err.reason == "checksum"
        assert err.block_index == 1
        assert err.record_index == n0  # first record of the bad block
        assert err.byte_offset == block2
        assert f"block {err.block_index}" in err.locus()
        # Backward reads detect the same damage.
        with pytest.raises(SpoolCorruptionError):
            list(spool.read_backward())
        report = scan_spool(spool.path)
        assert not report.ok
        assert report.n_valid == n0
        assert report.n_blocks_valid == 1
        assert report.error.block_index == 1

    def test_record_relative_offset_inside_block(self, tmp_path):
        # _split_block runs under a *matching* checksum, so its framing
        # errors (crafted or logic bugs) must carry the block-relative
        # record offset.
        spool, _ = self._spool(tmp_path)
        bogus = struct.pack("<I", 10_000) + b"x"  # length overruns payload
        with pytest.raises(SpoolCorruptionError) as exc:
            spool._split_block(
                bogus, 1, block_index=7, block_start=1000,
                first_record_index=42,
            )
        err = exc.value
        assert err.block_index == 7
        assert err.block_byte_offset == 4  # just past the length prefix
        assert err.record_index == 42
        assert "block 7 + 4" in err.locus()

    def test_fsck_cli_v3_block_flip_and_salvage(self, tmp_path, capsys):
        from repro.cli import main

        spool, records = self._spool(tmp_path)
        report = scan_spool(spool.path)
        assert report.ok
        # Flip one bit in the last block's payload: earlier blocks stay
        # recoverable.
        bit_flip(spool.path, report.valid_end_offset - 10, 2)
        assert main(["fsck", spool.path]) == 1
        captured = capsys.readouterr()
        assert "CORRUPT" in captured.out
        assert "block" in captured.out
        out = str(tmp_path / "rescued.spool")
        assert main(["fsck", spool.path, "--salvage", out]) == 2
        assert "salvaged" in capsys.readouterr().out
        rescued = DiskSpool.open(out)
        # The name table is copied with the blocks: the records decode
        # identically (ids still spell the same strings).
        got = list(rescued.read_forward())
        assert got == records[: len(got)]
        assert len(got) > 0
        assert scan_spool(out).ok

    def test_salvage_survives_footer_damage(self, tmp_path):
        # A flipped footer bit must not cost the whole spool: salvage
        # re-locates the name-table section after the last valid block.
        spool, records = self._spool(tmp_path)
        size = os.path.getsize(spool.path)
        bit_flip(spool.path, size - 6, 1)  # inside the footer crc
        report = scan_spool(spool.path)
        assert not report.ok and not report.footer_ok
        out = str(tmp_path / "rescued.spool")
        salvage_spool(spool.path, out)
        rescued = DiskSpool.open(out)
        assert list(rescued.read_forward()) == records
        assert scan_spool(out).ok

    def test_header_flip_is_typed_and_salvageable(self, tmp_path):
        # One flipped bit in the header magic: no longer read as some
        # other kind of file, but a typed ``header`` corruption, and the
        # intact blocks, name table and footer salvage in full.
        spool = make_disk_spool(tmp_path / "hdr.spool", 50)
        records = list(spool.read_forward())
        bit_flip(spool.path, 3, 0)
        report = scan_spool(spool.path)
        assert report.ok is False
        assert report.error.reason == "header"
        assert report.footer_ok and report.nametable_ok
        assert report.n_valid == 50
        assert "[header]" in report.render()
        with pytest.raises(SpoolCorruptionError) as exc:
            DiskSpool.open(spool.path)
        assert exc.value.reason == "header"
        for reader in (spool.read_forward, spool.read_backward):
            with pytest.raises(SpoolCorruptionError):
                list(reader())
        out = str(tmp_path / "rescued.spool")
        salvage_spool(spool.path, out)
        assert scan_spool(out).ok
        assert list(DiskSpool.open(out).read_forward()) == records

    def test_unsealed_v3_is_unrecoverable_but_clean(self, tmp_path):
        # Crash before finalize: no name table yet, ids are unspellable
        # — salvage must produce an empty sealed spool, not garbage.
        spool, _ = self._spool(tmp_path)
        truncate_file(spool.path, 400)
        report = scan_spool(spool.path)
        assert not report.ok
        out = str(tmp_path / "rescued.spool")
        salvage_spool(spool.path, out)
        rescued = DiskSpool.open(out)
        assert rescued.n_records == 0
        assert scan_spool(out).ok


# ---------------------------------------------------------------------------
# Checkpoint / resume
# ---------------------------------------------------------------------------


def _binary_pipeline():
    from tests.evalharness import Pipeline, tokens_of
    from tests.sample_grammars import knuth_binary

    pipe = Pipeline(knuth_binary())
    mapping = {"0": "ZERO", "1": "ONE", ".": "DOT"}
    toks = tokens_of([(mapping[c], c) for c in "1101.01"])
    return pipe, toks


class TestCheckpointResume:
    def _drivers(self, pipe, tmp_path, executor=None):
        from repro.evalgen.driver import AlternatingPassDriver
        from repro.evalgen.interp import InterpretiveEvaluator

        real = InterpretiveEvaluator(pipe.ag).run_pass
        return AlternatingPassDriver(
            pipe.ag,
            pipe.plans,
            executor or real,
            library=pipe.library,
            checkpoint_dir=str(tmp_path),
        )

    def test_resume_after_kill_matches_uninterrupted(self, tmp_path):
        from repro.evalgen.interp import InterpretiveEvaluator

        pipe, toks = _binary_pipeline()
        assert len(pipe.plans) >= 2, "need a multi-pass grammar"
        # Ground truth: one uninterrupted run.
        baseline, _ = pipe.evaluate(toks)

        real = InterpretiveEvaluator(pipe.ag).run_pass

        def dies_in_pass_2(plan, runtime):
            if plan.pass_k == 2:
                raise FaultInjected("power loss during pass 2")
            return real(plan, runtime)

        spool, _ = pipe.build_apt(toks, build_tree=False)
        killed = self._drivers(pipe, tmp_path, executor=dies_in_pass_2)
        with pytest.raises(FaultInjected):
            killed.run(spool, strategy="bottom-up")
        # Pass 1 is sealed on disk; the manifest knows.
        assert os.path.exists(tmp_path / "checkpoint.json")
        assert os.path.exists(tmp_path / "pass1.spool")
        assert scan_spool(str(tmp_path / "pass1.spool")).ok

        spool2, _ = pipe.build_apt(toks, build_tree=False)
        resumed = self._drivers(pipe, tmp_path)
        result = resumed.run(spool2, strategy="bottom-up", resume=True)
        # Only the incomplete passes ran.
        assert [s["pass"] for s in resumed.pass_stats] == [
            p.pass_k for p in pipe.plans[1:]
        ]
        # Byte-identical root attributes.
        canon = lambda attrs: pickle.dumps(sorted(attrs.items()))
        assert canon(result.root_attrs) == canon(baseline.root_attrs)
        # Resume events are metered.
        snap = resumed.metrics.snapshot()
        assert snap["robust.resume_passes_skipped"] == 1
        assert snap["robust.resume_runs"] == 1

    def test_resume_with_everything_complete(self, tmp_path):
        pipe, toks = _binary_pipeline()
        baseline, _ = pipe.evaluate(toks)
        spool, _ = pipe.build_apt(toks, build_tree=False)
        full = self._drivers(pipe, tmp_path)
        first = full.run(spool, strategy="bottom-up")
        spool2, _ = pipe.build_apt(toks, build_tree=False)
        again = self._drivers(pipe, tmp_path)
        second = again.run(spool2, strategy="bottom-up", resume=True)
        assert again.pass_stats == []  # nothing re-executed
        canon = lambda attrs: pickle.dumps(sorted(attrs.items()))
        assert canon(second.root_attrs) == canon(first.root_attrs)
        assert canon(second.root_attrs) == canon(baseline.root_attrs)

    def test_resume_refuses_foreign_manifest(self, tmp_path):
        pipe, toks = _binary_pipeline()
        spool, _ = pipe.build_apt(toks, build_tree=False)
        full = self._drivers(pipe, tmp_path)
        full.run(spool, strategy="bottom-up")
        # Doctor the manifest to claim another grammar.
        import json

        doc = json.loads((tmp_path / "checkpoint.json").read_text())
        doc["grammar"] = "somebody-else"
        (tmp_path / "checkpoint.json").write_text(json.dumps(doc))
        spool2, _ = pipe.build_apt(toks, build_tree=False)
        resumed = self._drivers(pipe, tmp_path)
        with pytest.raises(ResumeError):
            resumed.run(spool2, strategy="bottom-up", resume=True)

    def test_resume_refuses_damaged_checkpoint_spool(self, tmp_path):
        pipe, toks = _binary_pipeline()
        spool, _ = pipe.build_apt(toks, build_tree=False)
        full = self._drivers(pipe, tmp_path)
        full.run(spool, strategy="bottom-up")
        last = f"pass{len(pipe.plans)}.spool"
        bit_flip(str(tmp_path / last), 40, 2)
        spool2, _ = pipe.build_apt(toks, build_tree=False)
        resumed = self._drivers(pipe, tmp_path)
        with pytest.raises(ResumeError):
            resumed.run(spool2, strategy="bottom-up", resume=True)

    def test_resume_without_manifest(self, tmp_path):
        pipe, toks = _binary_pipeline()
        spool, _ = pipe.build_apt(toks, build_tree=False)
        driver = self._drivers(pipe, tmp_path / "empty")
        with pytest.raises(ResumeError):
            driver.run(spool, strategy="bottom-up", resume=True)

    def test_resume_without_checkpoint_dir(self):
        pipe, toks = _binary_pipeline()
        from repro.evalgen.driver import AlternatingPassDriver
        from repro.evalgen.interp import InterpretiveEvaluator

        spool, _ = pipe.build_apt(toks, build_tree=False)
        driver = AlternatingPassDriver(
            pipe.ag, pipe.plans,
            InterpretiveEvaluator(pipe.ag).run_pass,
            library=pipe.library,
        )
        with pytest.raises(ResumeError):
            driver.run(spool, strategy="bottom-up", resume=True)


class TestNoTempSpoolLeak:
    def test_failed_pass_leaves_no_stray_spools(self, tmp_path, monkeypatch):
        """Satellite: an exception mid-pass must close (and for temp
        spools, delete) both live intermediates."""
        import tempfile as _tempfile

        from repro.evalgen.driver import AlternatingPassDriver
        from repro.evalgen.interp import InterpretiveEvaluator

        straydir = tmp_path / "spools"
        straydir.mkdir()
        monkeypatch.setattr(_tempfile, "tempdir", str(straydir))

        pipe, toks = _binary_pipeline()
        real = InterpretiveEvaluator(pipe.ag).run_pass

        def dies_mid_pass(plan, runtime):
            if plan.pass_k == len(pipe.plans):
                # Consume a record or two, then die with the output
                # spool half-written.
                raise FaultInjected("injected failure mid-pass")
            return real(plan, runtime)

        driver = AlternatingPassDriver(
            pipe.ag, pipe.plans, dies_mid_pass, library=pipe.library,
            spool_factory=lambda ch: DiskSpool(channel=ch),
        )
        spool, _ = pipe.build_apt(toks, build_tree=False)
        with pytest.raises(FaultInjected):
            driver.run(spool, strategy="bottom-up")
        stray = sorted(p.name for p in straydir.iterdir())
        assert stray == [], f"stray temp spool files: {stray}"


# ---------------------------------------------------------------------------
# errors.py satellite fixes
# ---------------------------------------------------------------------------


class TestErrorsSatellites:
    def test_severity_ordering(self):
        assert Severity.NOTE < Severity.WARNING < Severity.ERROR

    def test_severity_lt_non_severity_is_typeerror(self):
        with pytest.raises(TypeError):
            Severity.NOTE < 3  # NotImplemented -> TypeError, not ValueError

    def test_raise_if_errors_default_type(self):
        from repro.errors import DiagnosticSink, SemanticError

        sink = DiagnosticSink()
        sink.error("boom")
        with pytest.raises(SemanticError):
            sink.raise_if_errors()
        with pytest.raises(ResumeError):
            sink.raise_if_errors(ResumeError)

    def test_spool_corruption_error_carries_locus(self):
        err = SpoolCorruptionError(
            "bad", record_index=7, byte_offset=1234, reason="checksum"
        )
        assert err.record_index == 7
        assert err.byte_offset == 1234
        assert "record 7 @ byte 1234" == err.locus()
        assert isinstance(err, EvaluationError)


class TestShippedScanners:
    """Every shipped scanner spec tokenizes a representative input."""

    def test_binary_scanner(self):
        from repro.grammars.scanners import binary_scanner_spec

        sc = binary_scanner_spec().generate()
        kinds = [t.kind for t in sc.scan("10.01")][:-1]
        assert kinds == ["ONE", "ZERO", "RADIX", "ZERO", "ONE"]

    def test_calc_scanner(self):
        from repro.grammars.scanners import calc_scanner_spec

        sc = calc_scanner_spec().generate()
        kinds = [t.kind for t in sc.scan("let x = 3 ; print x")][:-1]
        assert kinds == ["LET", "ID", "ASSIGN", "NUM", "SEMI", "PRINT", "ID"]

    def test_pascal_scanner_assign_vs_colon(self):
        from repro.grammars.scanners import pascal_scanner_spec

        sc = pascal_scanner_spec().generate()
        kinds = [t.kind for t in sc.scan("x := 1; y : integer")][:-1]
        assert kinds == ["ID", "ASSIGN", "NUM", "SEMI", "ID", "COLON", "INTEGER"]

    def test_pascal_scanner_comments(self):
        from repro.grammars.scanners import pascal_scanner_spec

        sc = pascal_scanner_spec().generate()
        kinds = [t.kind for t in sc.scan("a { a comment } b")][:-1]
        assert kinds == ["ID", "ID"]

    def test_pascal_loop_keywords(self):
        from repro.grammars.scanners import pascal_scanner_spec

        sc = pascal_scanner_spec().generate()
        kinds = [t.kind for t in sc.scan("repeat until for to")][:-1]
        assert kinds == ["REPEAT", "UNTIL", "FOR", "TO"]

    def test_asm_scanner_label_vs_ident(self):
        from repro.grammars.scanners import asm_scanner_spec

        sc = asm_scanner_spec().generate()
        kinds = [t.kind for t in sc.scan("loop: jmp loop ; away")][:-1]
        assert kinds == ["LABEL", "JMP", "ID"]

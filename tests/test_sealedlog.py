"""The sealed line log (``repro.util.sealedlog``) and its three formats.

PROV1, SRVJ1 and MEMO2 share one framing, so its fault matrix runs
once, here, against the primitive: a bit flip on every line, torn
tails, a truncated seal, ENOSPC at every byte, and salvage round
trips.  The per-format suites test each schema on top of it.  The
golden files pin the three writers' bytes for fixed inputs: they were
written by the per-format framings the primitive replaced.
"""

import os
from types import SimpleNamespace

import pytest

from repro.obs.provenance import ProvenanceRecorder, salvage_provenance
from repro.passes.incremental import MemoEntry, MemoStore, salvage_memo
from repro.serve.journal import RequestJournal, salvage_journal
from repro.testing import FilesystemFaultPlan, FsFaultMode
from repro.testing.faults import bit_flip
from repro.util import atomic_write as _aw
from repro.util import sealedlog

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


class Log(sealedlog.SealedScan):
    tag = "TEST1"


HEADER = {"e": "hdr", "format": "TEST1"}
RECORDS = [{"e": "rec", "i": i, "v": "x" * i + "é"} for i in range(5)]


def write_log(path, records=RECORDS):
    sealedlog.reseal(path, [sealedlog.frame(r) for r in [HEADER] + records])
    return path


def line_spans(path):
    """``(start, end)`` byte span of every line, newline excluded."""
    with open(path, "rb") as f:
        data = f.read()
    spans, start = [], 0
    for chunk in data.split(b"\n")[:-1]:
        spans.append((start, start + len(chunk)))
        start += len(chunk) + 1
    return spans


# ---------------------------------------------------------------------------
# the primitive
# ---------------------------------------------------------------------------


def test_round_trip_and_appender_agree_with_reseal(tmp_path):
    path = write_log(str(tmp_path / "a.ndjson"))
    scan = Log.scan(path)
    assert scan.ok and scan.sealed and not scan.torn
    assert scan.records == [HEADER] + RECORDS
    streamed = str(tmp_path / "b.ndjson")
    with open(streamed, "w", encoding="utf-8") as f:
        log = sealedlog.Appender(f)
        for record in [HEADER] + RECORDS:
            log.append(record)
        log.seal(len(RECORDS))
    with open(path, "rb") as a, open(streamed, "rb") as b:
        assert a.read() == b.read()
    assert sealedlog.sniff(sealedlog.head(path)) == "TEST1"


@pytest.mark.parametrize("bit", range(8))
def test_bit_flip_on_every_line_names_that_record(tmp_path, bit):
    clean = write_log(str(tmp_path / "clean.ndjson"))
    with open(clean, "rb") as f:
        original = f.read()
    for index, (start, end) in enumerate(line_spans(clean)):
        path = str(tmp_path / f"flip{index}.ndjson")
        with open(path, "wb") as f:
            f.write(original)
        bit_flip(path, (start + end) // 2, bit=bit)
        scan = Log.scan(path)
        assert not scan.ok, f"line {index} bit {bit}"
        assert scan.error.record_index == index
        assert scan.error.locus() == f"record {index}"
        assert scan.records == ([HEADER] + RECORDS)[:index]
        if index:
            # Salvage round trip: the verified prefix reseals clean.
            out = str(tmp_path / f"salvaged{index}.ndjson")
            sealedlog.reseal(out, [sealedlog.frame(r) for r in scan.records])
            again = Log.scan(out)
            assert again.ok and again.sealed
            assert again.records == scan.records


def test_torn_tail_is_a_crash_not_a_record(tmp_path):
    path = write_log(str(tmp_path / "t.ndjson"))
    spans = line_spans(path)
    # Keep every record line but the last, then half of it.
    start, end = spans[-2]
    with open(path, "r+b") as f:
        f.truncate((start + end) // 2)
    scan = Log.scan(path)
    assert scan.ok and scan.torn and not scan.sealed
    assert scan.records == [HEADER] + RECORDS[:-1]
    scan.require_seal()
    assert scan.error.reason == "truncated"
    assert scan.error.record_index == len(spans) - 2


def test_truncated_seal_is_detected_at_every_cut(tmp_path):
    clean = write_log(str(tmp_path / "clean.ndjson"))
    with open(clean, "rb") as f:
        original = f.read()
    start, end = line_spans(clean)[-1]
    seal_index = len(RECORDS) + 1
    for cut in range(1, end - start + 2):
        path = str(tmp_path / "cut.ndjson")
        with open(path, "wb") as f:
            f.write(original[: len(original) - cut])
        scan = Log.scan(path).require_seal()
        assert not scan.ok and not scan.sealed, cut
        assert scan.error.record_index == seal_index
        assert scan.records == [HEADER] + RECORDS


def test_seal_mismatch_and_trailing_records_are_damage(tmp_path):
    path = write_log(str(tmp_path / "s.ndjson"))
    with open(path, "rb") as f:
        lines = f.read().split(b"\n")[:-1]
    dropped = str(tmp_path / "dropped.ndjson")
    with open(dropped, "wb") as f:
        f.write(b"\n".join(lines[:2] + lines[3:]) + b"\n")
    scan = Log.scan(dropped)
    assert scan.error.reason == "seal" and scan.error.record_index == len(lines) - 2
    extra = str(tmp_path / "extra.ndjson")
    with open(extra, "wb") as f:
        f.write(b"\n".join(lines + [lines[1]]) + b"\n")
    scan = Log.scan(extra)
    assert scan.error.reason == "seal" and scan.error.record_index == len(lines)


def test_seal_mark_holds_only_the_log_it_sealed(tmp_path):
    """``SealMark.holds`` compares the seal line, not the file size: a
    log rewritten whole by another writer to the same size fails it."""
    path = write_log(str(tmp_path / "m.ndjson"))
    mark = sealedlog.reseal(
        path, [sealedlog.frame(r) for r in [HEADER] + RECORDS]
    )
    assert mark.holds(path)
    size = os.path.getsize(path)
    other = str(tmp_path / "other.ndjson")
    for ch in "abcdefghijklmnopqrstuvwyz":
        records = RECORDS[:-1] + [dict(RECORDS[-1], v=ch * 4 + "é")]
        write_log(other, records)
        if os.path.getsize(other) == size:
            break
    else:
        pytest.fail("no same-size rewrite found")
    os.replace(other, path)
    assert not mark.holds(path)
    write_log(path)
    assert mark.holds(path)
    with open(path, "ab") as f:
        f.write(b"\n")
    assert not mark.holds(path)
    assert not mark.holds(str(tmp_path / "missing.ndjson"))


def test_header_must_carry_the_format_tag(tmp_path):
    path = str(tmp_path / "h.ndjson")
    sealedlog.reseal(path, [sealedlog.frame({"e": "hdr", "format": "OTHER"})])
    scan = Log.scan(path)
    assert scan.error.reason == "header" and scan.error.record_index == 0


def test_enospc_at_every_byte_while_appending_leaves_a_clean_prefix(tmp_path):
    size = os.path.getsize(write_log(str(tmp_path / "clean.ndjson")))
    for at_byte in range(size + 1):
        path = str(tmp_path / f"victim{at_byte}.ndjson")
        plan = FilesystemFaultPlan(
            mode=FsFaultMode.ENOSPC_AT_BYTE, at_byte=at_byte
        )
        written = []
        with plan.install():
            f = _aw.open_file(path, "w", encoding="utf-8")
            log = sealedlog.Appender(f)
            try:
                for record in [HEADER] + RECORDS:
                    log.append(record)
                    written.append(record)
                log.seal(len(RECORDS))
            except OSError:
                pass
            finally:
                f.close()
        scan = Log.scan(path)
        if at_byte == 0:
            assert scan.error.reason == "truncated"
            continue
        assert scan.ok, (at_byte, scan.error)
        assert scan.records == written
        assert scan.sealed == (not plan.fired)


def test_enospc_at_every_byte_while_resealing_never_tears_the_name(tmp_path):
    path = write_log(str(tmp_path / "victim.ndjson"), RECORDS[:2])
    size = os.path.getsize(write_log(str(tmp_path / "full.ndjson")))
    os.unlink(str(tmp_path / "full.ndjson"))
    for at_byte in range(size + 1):
        plan = FilesystemFaultPlan(
            mode=FsFaultMode.ENOSPC_AT_BYTE, at_byte=at_byte
        )
        with plan.install():
            try:
                write_log(path)
            except OSError:
                pass
        scan = Log.scan(path)
        assert scan.ok and scan.sealed
        expected = RECORDS[:2] if plan.fired else RECORDS
        assert scan.records == [HEADER] + expected, at_byte
        assert os.listdir(str(tmp_path)) == ["victim.ndjson"]
        write_log(path, RECORDS[:2])


# ---------------------------------------------------------------------------
# the three formats
# ---------------------------------------------------------------------------


def write_fixed_logs(d, monkeypatch):
    """Drive the three writers with fixed inputs (journal pid pinned)."""
    prods = [SimpleNamespace(index=0, lhs="S", rhs=["E"], limb=None, tag="s")]
    rec = ProvenanceRecorder(os.path.join(d, "prov"), "g", "generated", "S", prods)
    rec.begin_run("bottom-up", ["right-to-left", "left-to-right"])
    rec.begin_pass(1, "right-to-left")
    rec.enter_child(1)
    rec.define(0, 0, "V", [1, 2], [(1, "X", "é")], "compute", "X + 1", 3)
    rec.put(0, "E", 3)
    rec.exit_child()
    rec.begin_pass(2, "left-to-right")
    rec.reuse("E", 4, 0, 4)
    rec.seal()

    with monkeypatch.context() as m:
        m.setattr(os, "getpid", lambda: 4242)
        journal = RequestJournal(os.path.join(d, "jdir"), grammars=["calc"])
    journal.admitted(1, "calc", "let a = 1")
    journal.completed(1, "calc", "OUT = [1]", 0.0125, worker_id=0)
    journal.admitted(2, "calc", "bad")
    journal.failed(2, "calc", "ParseError", "unexpected 'bad'", 0.002)
    journal.suspend()
    journal.admitted(3, "calc", "lost")
    journal.resume()
    journal.admitted(4, "calc", "print 1")
    journal.completed(4, "calc", "OUT = [1]", 0.5, worker_id=1, retries=1)
    journal.seal()

    memo = os.path.join(d, "memo")
    store = MemoStore(memo, SimpleNamespace(name="g"), [], identity="id-1")
    spool = os.path.join(memo, "pass1.g1.spool")
    open(spool, "wb").close()
    entries = [
        MemoEntry(1, bytes([i]) * 16 + bytes([9 - i]) * 16, 8 * i, 8, 9,
                  64 * i, 64, i, 1000 + i, "YmxvYg==")
        for i in range(3)
    ]
    store.commit_run([(
        SimpleNamespace(
            pass_k=1, new_entries={e.key: e for e in entries}, events=entries
        ),
        SimpleNamespace(path=spool, n_records=24, data_bytes=512, _stream_crc=99),
    )])
    store.close()
    return {
        "prov1": (os.path.join(d, "prov", "provenance.ndjson"), salvage_provenance),
        "srvj1": (journal.path, salvage_journal),
        "memo2": (os.path.join(memo, "memo.ndjson"), salvage_memo),
    }


def check_golden(name, data, update_golden):
    golden = os.path.join(GOLDEN_DIR, f"{name}.ndjson.golden")
    if update_golden:
        with open(golden, "wb") as f:
            f.write(data)
    with open(golden, "rb") as f:
        assert data == f.read(), f"{name} bytes differ from {golden}"


def test_writers_emit_the_golden_bytes(tmp_path, monkeypatch, update_golden):
    logs = write_fixed_logs(str(tmp_path), monkeypatch)
    for name, (path, salvage) in logs.items():
        with open(path, "rb") as f:
            data = f.read()
        check_golden(name, data, update_golden)
        # Salvaging a copy whose seal line is torn reseals every record:
        # PROV1 and MEMO2 come back byte for byte, the journal without
        # its gap marker.
        torn = str(tmp_path / f"{name}.torn")
        with open(torn, "wb") as f:
            f.write(data[:-30])
        out = str(tmp_path / f"{name}.salvaged")
        salvage(torn, out)
        with open(out, "rb") as f:
            salvaged = f.read()
        if name == "srvj1":
            check_golden("srvj1.salvaged", salvaged, update_golden)
        else:
            assert salvaged == data

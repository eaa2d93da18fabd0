"""Attribute provenance: recording, querying, differentials, faults.

The headline guarantee (ISSUE 6's sixth differential axis): the
dependency-directed backward slice reconstructed from a *generated*-
evaluator recording equals the one from an *interpreter* recording —
same semantic-function instants, same values — on fused and unfused
pass plans alike.  Since slices are pure functions of the log, the
tests assert the stronger property (identical event streams) and then
spot-check slice equality through the query engine.
"""

import json
import os
import zlib

import pytest

from repro.core.linguist import Linguist
from repro.errors import ProvenanceCorruptionError, ProvenanceError
from repro.grammars import library_for, load_source
from repro.grammars.scanners import binary_scanner_spec, calc_scanner_spec
from repro.obs.provenance import (
    LOG_NAME,
    DebugSession,
    ProvenanceLog,
    canonical_value,
    parse_target,
    render_path,
    scan_provenance,
)
from repro.testing.faults import bit_flip, truncate_file
from repro.workloads import generate_calc_program

CALC_PROGRAM = generate_calc_program(3, seed=11)
BINARY_INPUT = "110.101"


def record_calc(directory, backend, fused=True):
    linguist = Linguist(load_source("calc"), fuse_passes=fused)
    translator = linguist.make_translator(
        calc_scanner_spec(), library=library_for("calc"), backend=backend
    )
    result = translator.translate(CALC_PROGRAM, record=str(directory))
    return result


def record_binary(directory, backend):
    linguist = Linguist(load_source("binary"))
    translator = linguist.make_translator(
        binary_scanner_spec(), library=library_for("binary"), backend=backend
    )
    return translator.translate(BINARY_INPUT, record=str(directory))


def read_lines(directory):
    with open(os.path.join(str(directory), LOG_NAME)) as f:
        return f.read().splitlines()


@pytest.fixture(scope="module")
def recordings(tmp_path_factory):
    """One recording per (workload, backend, plan shape), shared."""
    out = {}
    for key, maker in (
        ("calc-fused-generated", lambda d: record_calc(d, "generated", True)),
        ("calc-fused-interp", lambda d: record_calc(d, "interp", True)),
        ("calc-unfused-generated", lambda d: record_calc(d, "generated", False)),
        ("calc-unfused-interp", lambda d: record_calc(d, "interp", False)),
        ("binary-generated", lambda d: record_binary(d, "generated")),
        ("binary-interp", lambda d: record_binary(d, "interp")),
    ):
        directory = tmp_path_factory.mktemp(key)
        result = maker(directory)
        out[key] = (str(directory), result)
    return out


# ---------------------------------------------------------------------------
# the sixth differential axis
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "gen_key,int_key",
    [
        ("calc-fused-generated", "calc-fused-interp"),
        ("calc-unfused-generated", "calc-unfused-interp"),
        ("binary-generated", "binary-interp"),
    ],
)
def test_backends_record_identical_event_streams(recordings, gen_key, int_key):
    """Interpreter and generated evaluator emit byte-identical event
    lines (everything between the header and the seal)."""
    gen = read_lines(recordings[gen_key][0])
    intp = read_lines(recordings[int_key][0])
    assert len(gen) == len(intp)
    assert gen[1:-1] == intp[1:-1]
    # Headers agree on everything except the backend tag.
    gh, ih = json.loads(gen[0]), json.loads(intp[0])
    assert gh.pop("backend") == "generated"
    assert ih.pop("backend") == "interp"
    gh.pop("c"), ih.pop("c")
    assert gh == ih


@pytest.mark.parametrize(
    "gen_key,int_key,target",
    [
        ("calc-fused-generated", "calc-fused-interp", "root.OUT"),
        ("calc-unfused-generated", "calc-unfused-interp", "root.OUT"),
        ("binary-generated", "binary-interp", "root.VAL"),
    ],
)
def test_backward_slice_matches_across_backends(
    recordings, gen_key, int_key, target
):
    """`repro debug why` yields the same instants and values from either
    backend's recording (the acceptance criterion, asserted directly)."""
    path, attr = parse_target(target)
    with DebugSession(recordings[gen_key][0]) as gen_session, DebugSession(
        recordings[int_key][0]
    ) as int_session:
        gen_slice = gen_session.slice_instants(gen_session.why(path, attr))
        int_slice = int_session.slice_instants(int_session.why(path, attr))
        assert gen_slice == int_slice
        assert gen_session.render_why(target) == int_session.render_why(target)


def test_slice_root_value_matches_translation(recordings):
    directory, result = recordings["calc-fused-generated"]
    with DebugSession(directory) as session:
        node = session.why((), "OUT")
    assert node["value"] == canonical_value(result.root_attrs["OUT"])
    assert node["event"] is not None


def test_unfused_slice_crosses_passes(recordings):
    """On the unfused (2-pass) plan the slice of root.OUT includes
    instants from more than one pass — cross-pass resolution works."""
    with DebugSession(recordings["calc-unfused-generated"][0]) as session:
        instants = session.slice_instants(session.why((), "OUT", max_depth=40))
    passes = {
        session.log.events[seq]["p"]
        for seq, _path, _attr, _value, kind in instants
        if seq is not None
    }
    assert len(passes) > 1


# ---------------------------------------------------------------------------
# log integrity + structure
# ---------------------------------------------------------------------------


def test_log_opens_and_indexes(recordings):
    directory, _ = recordings["binary-generated"]
    log = ProvenanceLog.open(directory)
    assert log.header["format"] == "PROV1"
    assert log.header["grammar"] == "binary"
    assert log.n_passes == 2
    assert len(log.pass_marks) == 2
    assert log.defines  # at least one recorded instant
    # Every event line is CRC-clean and contiguously sequenced — open()
    # verified that; spot-check the seal covers the stream.
    lines = read_lines(directory)
    seal = json.loads(lines[-1])
    crc = 0
    for line in lines[:-1]:
        crc = zlib.crc32((line + "\n").encode(), crc)
    assert seal["crc"] == crc
    assert seal["n"] == len(lines) - 2


def test_missing_log_is_a_typed_error(tmp_path):
    with pytest.raises(ProvenanceError, match="no sealed provenance log"):
        ProvenanceLog.open(str(tmp_path))


@pytest.mark.parametrize("bit", [3, 7])
def test_bit_flip_names_the_damaged_record(recordings, tmp_path, bit):
    directory, _ = recordings["calc-fused-generated"]
    src = os.path.join(directory, LOG_NAME)
    dst = tmp_path / LOG_NAME
    dst.write_bytes(open(src, "rb").read())
    # Flip a bit in the middle of the file: some record's CRC must fail.
    # Bit 7 makes the byte invalid UTF-8, which must still name the
    # record rather than the whole file.
    size = os.path.getsize(dst)
    bit_flip(str(dst), size // 2, bit=bit)
    with pytest.raises(ProvenanceCorruptionError) as info:
        ProvenanceLog.open(str(tmp_path))
    assert info.value.record_index is not None
    assert info.value.reason in ("checksum", "framing")
    assert f"record {info.value.record_index}" == info.value.locus()
    report = scan_provenance(str(dst))
    assert not report.ok
    assert report.n_valid <= info.value.record_index


def test_truncation_is_detected(recordings, tmp_path):
    directory, _ = recordings["calc-fused-generated"]
    src = os.path.join(directory, LOG_NAME)
    dst = tmp_path / LOG_NAME
    dst.write_bytes(open(src, "rb").read())
    truncate_file(str(dst), 40)  # tears the seal line
    with pytest.raises(ProvenanceCorruptionError) as info:
        ProvenanceLog.open(str(tmp_path))
    assert info.value.reason in ("seal", "framing", "checksum", "truncated")


def test_fsck_scans_and_salvages_provenance_logs(recordings, tmp_path):
    from repro.cli import main

    directory, _ = recordings["calc-fused-generated"]
    src = os.path.join(directory, LOG_NAME)
    assert main(["fsck", src]) == 0

    dst = tmp_path / LOG_NAME
    dst.write_bytes(open(src, "rb").read())
    bit_flip(str(dst), os.path.getsize(dst) // 2, bit=1)
    assert main(["fsck", str(dst)]) == 1
    out = tmp_path / "salvaged.ndjson"
    assert main(["fsck", str(dst), "--salvage", str(out)]) == 2
    # The salvaged prefix is a clean, sealed log again.
    salvaged = ProvenanceLog.open(str(out))
    assert salvaged.header["format"] == "PROV1"
    full = ProvenanceLog.open(src)
    assert 0 < len(salvaged.events) < len(full.events)
    assert salvaged.events == full.events[: len(salvaged.events)]


def test_crash_leaves_only_an_unsealed_tmp(tmp_path):
    """An aborted run must not publish a sealed (but incomplete) log."""
    from repro.obs.provenance import ProvenanceRecorder

    linguist = Linguist(load_source("calc"))
    rec = ProvenanceRecorder(
        str(tmp_path), "calc", "generated", linguist.ag.start,
        linguist.ag.productions,
    )
    rec.begin_run("prefix", ["left-to-right"])
    rec.begin_pass(1, "left-to-right")
    rec.abort()
    assert not os.path.exists(os.path.join(str(tmp_path), LOG_NAME))
    assert os.path.exists(os.path.join(str(tmp_path), LOG_NAME + ".tmp"))
    with pytest.raises(ProvenanceError, match="unsealed"):
        ProvenanceLog.open(str(tmp_path))


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def test_history_reads_sealed_spools(recordings):
    """History on the bottom-up binary workload: the initial row comes
    from a reconstruction walk of initial.spool, the pass rows from
    random access into the sealed pass spools."""
    directory, result = recordings["binary-generated"]
    with DebugSession(directory) as session:
        rows = session.history((), "VAL")
    assert [r["stage"] for r in rows] == ["initial", "pass 1", "pass 2"]
    assert rows[0]["status"] == "absent"
    final = rows[-1]
    assert final["value"] == canonical_value(result.root_attrs["VAL"])
    assert final["address"] is not None


def test_history_distinguishes_not_yet_defined_from_dropped(recordings):
    directory, _ = recordings["binary-generated"]
    with DebugSession(directory) as session:
        # An attribute whose *final* define is in pass 2: its pass-1 row
        # must say "not yet defined", never "dropped".
        ev = next(
            e
            for e in session.log.events
            if e.get("e") == "def"
            and e["p"] == 2
            and session.log.define_of(tuple(e["n"]), e["a"]) is e
        )
        rows = session.history(tuple(ev["n"]), ev["a"])
    by_stage = {r["stage"]: r for r in rows}
    assert by_stage["pass 1"]["status"] in ("not yet defined", "no sealed record")
    assert by_stage["pass 2"]["value"] == ev["v"] or by_stage["pass 2"][
        "status"
    ].startswith("dropped")


def test_step_forward_and_backward(recordings):
    directory, _ = recordings["calc-fused-generated"]
    with DebugSession(directory) as session:
        n = len(session.log.events)
        fwd = session.step(at=0, count=5)
        assert [e["i"] for e in fwd] == [0, 1, 2, 3, 4]
        back = session.step(at=n - 1, count=5, backward=True)
        assert [e["i"] for e in back] == list(range(n - 5, n))
        with pytest.raises(ProvenanceError, match="out of range"):
            session.step(at=n)
        rendered = session.render_step(at=0, count=3)
        assert rendered.splitlines()[1].startswith(">> #0")


def test_summary_totals_are_consistent(recordings):
    directory, _ = recordings["calc-fused-generated"]
    with DebugSession(directory) as session:
        s = session.summary()
    assert s["n_events"] == s["n_defines"] + s["n_puts"] + len(
        session.log.pass_marks
    )
    assert s["n_subsumed"] <= s["n_defines"]
    assert sum(v["defines"] for v in s["per_pass"].values()) == s["n_defines"]


def test_parse_and_render_targets():
    assert parse_target("root.OUT") == ((), "OUT")
    assert parse_target("OUT") == ((), "OUT")
    assert parse_target("root.2.1.VAL") == ((2, 1), "VAL")
    assert parse_target("root.1.limb.CODE") == ((1, -1), "CODE")
    assert render_path((1, -1)) == "root.1.limb"
    assert render_path(()) == "root"
    with pytest.raises(ProvenanceError):
        parse_target("root.0.VAL")
    with pytest.raises(ProvenanceError):
        parse_target("root.x.y.VAL")


# ---------------------------------------------------------------------------
# recording modes: resume, checkpoint coupling, CLI
# ---------------------------------------------------------------------------


def test_record_conflicting_checkpoint_dir_rejected(tmp_path):
    from repro.errors import EvaluationError

    linguist = Linguist(load_source("calc"))
    translator = linguist.make_translator(
        calc_scanner_spec(), library=library_for("calc")
    )
    with pytest.raises(EvaluationError, match="record= implies checkpointing"):
        translator.translate(
            CALC_PROGRAM,
            record=str(tmp_path / "a"),
            checkpoint_dir=str(tmp_path / "b"),
        )


def test_resume_all_complete_seals_empty_log(tmp_path):
    """Resuming a fully checkpointed evaluation still seals a log (with
    resumed_from set and zero events); queries degrade gracefully to
    'intrinsic/unrecorded' rather than erroring."""
    directory = str(tmp_path / "rec")
    linguist = Linguist(load_source("binary"))
    translator = linguist.make_translator(
        binary_scanner_spec(), library=library_for("binary")
    )
    first = translator.translate(BINARY_INPUT, record=directory)
    resumed = translator.translate(BINARY_INPUT, record=directory, resume=True)
    assert dict(resumed.root_attrs) == dict(first.root_attrs)
    log = ProvenanceLog.open(directory)
    assert log.header["resumed_from"] == 2
    assert log.events == []
    with DebugSession(directory) as session:
        node = session.why((), "VAL")
        rendered = session.render_why("root.VAL")
    assert node["event"] is None  # nothing was re-recorded
    assert "intrinsic" in rendered


def test_partial_resume_records_remaining_passes(tmp_path):
    """A recording resumed after pass 1 records only pass 2, marks
    resumed_from=1, and still answers why-queries for attributes the
    resumed passes defined (earlier inputs become unrecorded leaves
    that keep their values from the define event)."""
    directory = str(tmp_path / "rec")
    linguist = Linguist(load_source("binary"))
    translator = linguist.make_translator(
        binary_scanner_spec(), library=library_for("binary")
    )
    first = translator.translate(BINARY_INPUT, record=directory)
    # Rewind the checkpoint to "pass 1 done, pass 2 lost" — the state a
    # crash between pass 2 and seal leaves behind.
    manifest_path = os.path.join(directory, "checkpoint.json")
    with open(manifest_path) as f:
        manifest = json.load(f)
    assert len(manifest["completed"]) == 2
    manifest["completed"] = manifest["completed"][:1]
    with open(manifest_path, "w") as f:
        json.dump(manifest, f)
    os.remove(os.path.join(directory, "pass2.spool"))
    os.remove(os.path.join(directory, LOG_NAME))

    resumed = translator.translate(BINARY_INPUT, record=directory, resume=True)
    assert dict(resumed.root_attrs) == dict(first.root_attrs)
    log = ProvenanceLog.open(directory)
    assert log.header["resumed_from"] == 1
    assert {e["p"] for e in log.events} == {2}
    with DebugSession(directory) as session:
        node = session.why((), "VAL")
        assert node["event"] is not None
        assert node["value"] == canonical_value(first.root_attrs["VAL"])
        # Inputs computed during the (unrecorded) pass 1 surface as
        # leaves but still carry the values the define event captured.
        leaves = [
            row
            for row in session.slice_instants(node)
            if row[4] == "leaf"
        ]
        assert leaves
        assert all(value is not None for _s, _p, _a, value, _k in leaves)


def test_debug_queries_on_resumed_fused_run(tmp_path, capsys):
    """``repro debug why|history`` must answer on a recording produced
    by ``--resume`` over a *fused* plan.  Calc fuses to a single pass,
    so a resume either replays nothing (all complete) or everything
    (rewound to zero) — both ends need graceful answers."""
    from repro.cli import main

    directory = str(tmp_path / "rec")
    linguist = Linguist(load_source("calc"))
    assert linguist.n_passes == 1, "calc no longer fuses to one pass"
    translator = linguist.make_translator(
        calc_scanner_spec(), library=library_for("calc")
    )
    first = translator.translate(CALC_PROGRAM, record=directory)

    # Resume with everything checkpointed: the re-sealed log is empty;
    # why/history degrade to intrinsic/unrecorded, never error.
    resumed = translator.translate(CALC_PROGRAM, record=directory, resume=True)
    assert dict(resumed.root_attrs) == dict(first.root_attrs)
    assert ProvenanceLog.open(directory).header["resumed_from"] == 1
    assert main(["debug", "why", directory, "root.OUT"]) == 0
    assert "intrinsic" in capsys.readouterr().out
    assert main(["debug", "history", directory, "root.OUT"]) == 0
    assert "history root.OUT" in capsys.readouterr().out

    # Rewind the checkpoint to "nothing completed" — the state a crash
    # mid-pass leaves behind — and resume: the single fused pass re-runs
    # and re-records, so why/history answer in full.
    manifest_path = os.path.join(directory, "checkpoint.json")
    with open(manifest_path) as f:
        manifest = json.load(f)
    manifest["completed"] = []
    with open(manifest_path, "w") as f:
        json.dump(manifest, f)
    os.remove(os.path.join(directory, "pass1.spool"))
    os.remove(os.path.join(directory, LOG_NAME))
    resumed = translator.translate(CALC_PROGRAM, record=directory, resume=True)
    assert dict(resumed.root_attrs) == dict(first.root_attrs)
    log = ProvenanceLog.open(directory)
    assert log.header["resumed_from"] == 0
    assert {e["p"] for e in log.events if "p" in e} == {1}
    assert main(["debug", "why", directory, "root.OUT"]) == 0
    out = capsys.readouterr().out
    assert "why root.OUT" in out
    assert "compute in pass 1" in out  # the root's instant was re-recorded
    assert main(["debug", "history", directory, "root.OUT"]) == 0
    assert "history root.OUT" in capsys.readouterr().out


def test_cli_debug_queries(recordings, capsys):
    from repro.cli import main

    directory, _ = recordings["calc-fused-generated"]
    assert main(["debug", "why", directory, "root.OUT"]) == 0
    assert "why root.OUT" in capsys.readouterr().out
    assert main(["debug", "history", directory, "root.1.OUT"]) == 0
    assert "history root.1.OUT" in capsys.readouterr().out
    assert main(["debug", "step", directory, "--count", "3"]) == 0
    assert ">> #0" in capsys.readouterr().out
    assert main(["debug", "summary", directory, "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "provenance summary" in out
    assert "debug.queries_summary" in out


def test_cli_debug_on_damaged_log_exits_with_typed_error(
    recordings, tmp_path, capsys
):
    from repro.cli import main

    src = os.path.join(recordings["calc-fused-generated"][0], LOG_NAME)
    dst = tmp_path / LOG_NAME
    dst.write_bytes(open(src, "rb").read())
    bit_flip(str(dst), os.path.getsize(dst) // 2, bit=0)
    assert main(["debug", "why", str(tmp_path), "root.OUT"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "record" in err


def test_disabled_mode_emits_no_artifacts(tmp_path):
    """Without record=, translation leaves no provenance machinery
    behind (the recorder must be pay-for-use)."""
    linguist = Linguist(load_source("calc"))
    translator = linguist.make_translator(
        calc_scanner_spec(), library=library_for("calc")
    )
    translator.translate(CALC_PROGRAM)
    assert translator._variants.get((True, False)) is None
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# random access into sealed spools
# ---------------------------------------------------------------------------


def test_random_access_reader_matches_forward_read(tmp_path):
    from repro.apt.storage import DiskSpool, RandomAccessReader

    path = str(tmp_path / "t.spool")
    spool = DiskSpool(path, block_size=256)
    records = [
        ("sym%d" % i, i % 5, {"A": i, "B": "x" * (i % 17)}, False)
        for i in range(120)
    ]
    for record in records:
        spool.append(record)
    spool.finalize()
    attached = DiskSpool.open(path)
    expected = list(attached.read_forward())
    with RandomAccessReader(DiskSpool.open(path)) as reader:
        assert reader.n_records == len(records)
        # Random-order access, repeated hits, block-boundary neighbors.
        order = [0, 119, 57, 58, 1, 119, 0, 60, 59]
        for i in order:
            assert reader.record(i) == expected[i]
        for i in range(len(records)):
            assert reader.record(i) == expected[i]
        addr = reader.address(4, 117)
        assert addr.pass_k == 4
        assert addr.render() == f"4:{addr.block}:{addr.record}"
        assert addr.block > 0  # 256-byte blocks force many blocks
        with pytest.raises(Exception):
            reader.record(len(records))


def test_record_address_roundtrip():
    from repro.apt.codec import RecordAddress, parse_address

    addr = RecordAddress(2, 7, 31)
    assert parse_address(addr.render()) == addr
    with pytest.raises(ValueError):
        parse_address("1:2")
    with pytest.raises(ValueError):
        parse_address("a:b:c")


# ---------------------------------------------------------------------------
# golden: the worked `repro debug why` example
# ---------------------------------------------------------------------------

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "calc_debug_why.golden")


def test_debug_why_matches_golden(recordings, update_golden):
    """Pins the full `repro debug why root.OUT` rendering on the fixed
    seeded calc workload — the worked example in docs/debugging.md."""
    with DebugSession(recordings["calc-fused-generated"][0]) as session:
        rendered = session.render_why("root.OUT", max_depth=8) + "\n"
    if update_golden:
        os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
        with open(GOLDEN, "w", encoding="utf-8") as f:
            f.write(rendered)
        pytest.skip(f"golden file rewritten: {GOLDEN}")
    assert os.path.exists(GOLDEN), (
        f"missing golden file {GOLDEN}; generate it with "
        "`pytest tests/test_provenance.py --update-golden`"
    )
    with open(GOLDEN, "r", encoding="utf-8") as f:
        expected = f.read()
    assert rendered == expected, (
        "`repro debug why` output changed; if intentional, regenerate "
        "with --update-golden and commit the diff"
    )

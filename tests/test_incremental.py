"""Incremental re-translation (:mod:`repro.passes.incremental`).

Covers the memo lifecycle end to end: warming, full-splice re-runs,
dirty-spine evaluation after a single-token edit, byte-identity across
backends and fusion settings, the documented invalidation rules
(corruption and checkpoint-resume always degrade to a cold miss, never
a wrong answer), read-only consultation under ``record=`` (with
``reuse`` provenance instants), and the fsck/doctor surface over the
sealed MEMO1 manifest.
"""

import os
import re

import pytest

from repro.core import Linguist
from repro.grammars import load_source, scanner_and_library
from repro.obs import MetricsRegistry
from repro.obs.provenance import ProvenanceLog
from repro.passes.incremental import (
    MEMO_LOG,
    looks_like_memo_manifest,
    salvage_memo,
    scan_memo,
)
from repro.testing.faults import bit_flip
from repro.workloads.generators import generate_calc_program
from tests.evalharness import canonical_attrs


def make_translator(grammar="calc", backend="generated", fuse=True):
    source = load_source(grammar)
    spec, library = scanner_and_library(grammar)
    linguist = Linguist(source) if fuse else Linguist(source, fuse_passes=False)
    return linguist.make_translator(spec, library=library, backend=backend)


def edit_last_statement(text: str) -> str:
    """A single-token edit at the end of a calc program: bump the first
    numeric literal of the last statement (the tree shape is unchanged,
    so only the spine from that leaf to the root goes dirty)."""
    lines = text.split(" ;\n")
    edited, n = re.subn(
        r"\d+", lambda m: str(int(m.group()) + 1), lines[-1], count=1
    )
    assert n == 1, f"last statement holds no literal to edit: {lines[-1]!r}"
    return " ;\n".join(lines[:-1] + [edited])


def counters(metrics: MetricsRegistry) -> dict:
    names = (
        "hits", "misses", "spliced_records", "spliced_blocks",
        "spine_nodes", "invalidations", "entries_loaded", "entries_written",
    )
    return {n: metrics.counter(f"incremental.{n}").value for n in names}


PROGRAM = generate_calc_program(40, seed=11)


# ---------------------------------------------------------------------------
# warming + splicing
# ---------------------------------------------------------------------------


def test_warm_rerun_splices_everything(tmp_path):
    """Second translation of the same text is one root-subtree hit."""
    memo = str(tmp_path / "memo")
    tr = make_translator()
    cold = tr.translate(PROGRAM, memo_dir=memo)
    assert os.path.exists(os.path.join(memo, MEMO_LOG))
    metrics = MetricsRegistry()
    warm = tr.translate(PROGRAM, memo_dir=memo, metrics=metrics)
    c = counters(metrics)
    assert canonical_attrs(warm.root_attrs) == canonical_attrs(cold.root_attrs)
    assert c["hits"] >= 1
    assert c["misses"] == 0
    assert c["spine_nodes"] == 0
    assert c["spliced_records"] > 0


def test_single_token_edit_reevaluates_only_the_spine(tmp_path):
    """After editing the last statement, the clean prefix is spliced and
    the dirty spine is a small fraction of the tree."""
    memo = str(tmp_path / "memo")
    tr = make_translator()
    tr.translate(PROGRAM, memo_dir=memo)
    edited = edit_last_statement(PROGRAM)

    scratch = make_translator()  # memo-free reference for byte-identity
    reference = scratch.translate(edited)

    metrics = MetricsRegistry()
    result = tr.translate(edited, memo_dir=memo, metrics=metrics)
    c = counters(metrics)
    assert canonical_attrs(result.root_attrs) == canonical_attrs(
        reference.root_attrs
    )
    assert c["hits"] >= 1, "the clean prefix subtree was not spliced"
    # Cold evaluation visits every node; the dirty spine must be a
    # small slice of that (the bench pins < 20%; tests pin < 50% to
    # stay robust across grammar tweaks).
    cold_metrics = MetricsRegistry()
    scratch.translate(edited, memo_dir=str(tmp_path / "cold"),
                      metrics=cold_metrics)
    cold_visits = counters(cold_metrics)["misses"]
    assert c["spine_nodes"] + c["misses"] < cold_visits / 2


def test_memo_carries_entries_forward_across_splices(tmp_path):
    """A fully spliced re-run re-seals the manifest with the nested
    entries carried forward — the memo's grain survives the splice."""
    memo = str(tmp_path / "memo")
    tr = make_translator()
    tr.translate(PROGRAM, memo_dir=memo)
    before = scan_memo(memo)
    assert before.ok and before.n_entries > 0
    tr.translate(PROGRAM, memo_dir=memo)
    after = scan_memo(memo)
    assert after.ok
    assert after.n_entries == before.n_entries


def test_generations_rotate_and_old_spools_are_unlinked(tmp_path):
    memo = str(tmp_path / "memo")
    tr = make_translator()
    tr.translate(PROGRAM, memo_dir=memo)
    tr.translate(PROGRAM, memo_dir=memo)
    tr.translate(PROGRAM, memo_dir=memo)
    spools = [
        name for name in os.listdir(memo)
        if re.match(r"^pass\d+\.g\d+\.spool$", name)
    ]
    # One live generation per pass, no stale debris.
    passes = {name.split(".")[0] for name in spools}
    assert len(spools) == len(passes)


# ---------------------------------------------------------------------------
# byte-identity across backends and fusion
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["interp", "generated"])
def test_backends_agree_warm_and_edited(tmp_path, backend):
    memo = str(tmp_path / "memo")
    tr = make_translator(backend=backend)
    cold = tr.translate(PROGRAM, memo_dir=memo)
    warm = tr.translate(PROGRAM, memo_dir=memo)
    assert canonical_attrs(warm.root_attrs) == canonical_attrs(cold.root_attrs)
    edited = edit_last_statement(PROGRAM)
    reference = make_translator(backend=backend).translate(edited)
    spliced = tr.translate(edited, memo_dir=memo)
    assert canonical_attrs(spliced.root_attrs) == canonical_attrs(
        reference.root_attrs
    )


def test_unfused_multi_pass_memoizes_every_pass(tmp_path):
    """With fusion off calc runs two passes; both must memoize (the
    memo is per pass, not pass-1-only)."""
    memo = str(tmp_path / "memo")
    tr = make_translator(fuse=False)
    cold = tr.translate(PROGRAM, memo_dir=memo)
    spools = [
        name for name in os.listdir(memo)
        if re.match(r"^pass\d+\.g\d+\.spool$", name)
    ]
    assert {name.split(".")[0] for name in spools} == {"pass1", "pass2"}
    metrics = MetricsRegistry()
    warm = tr.translate(PROGRAM, memo_dir=memo, metrics=metrics)
    c = counters(metrics)
    assert canonical_attrs(warm.root_attrs) == canonical_attrs(cold.root_attrs)
    assert c["hits"] >= 2, "expected a root splice in each pass"
    assert c["misses"] == 0


# ---------------------------------------------------------------------------
# invalidation rules: corruption is a silent cold miss
# ---------------------------------------------------------------------------


def _flip_byte(path: str, offset: int) -> None:
    with open(path, "rb") as f:
        data = bytearray(f.read())
    data[offset % len(data)] ^= 0xFF
    with open(path, "wb") as f:
        f.write(data)


def test_corrupt_manifest_is_a_cold_miss(tmp_path):
    memo = str(tmp_path / "memo")
    tr = make_translator()
    cold = tr.translate(PROGRAM, memo_dir=memo)
    _flip_byte(os.path.join(memo, MEMO_LOG), 200)
    metrics = MetricsRegistry()
    again = make_translator().translate(
        PROGRAM, memo_dir=memo, metrics=metrics
    )
    c = counters(metrics)
    assert canonical_attrs(again.root_attrs) == canonical_attrs(
        cold.root_attrs
    )
    assert c["invalidations"] >= 1
    assert c["hits"] == 0
    # ... and the cold re-run re-seals a healthy memo.
    assert scan_memo(memo).ok


def test_corrupt_splice_spool_is_a_cold_miss(tmp_path):
    memo = str(tmp_path / "memo")
    tr = make_translator()
    cold = tr.translate(PROGRAM, memo_dir=memo)
    spool = next(
        os.path.join(memo, n) for n in os.listdir(memo)
        if re.match(r"^pass\d+\.g\d+\.spool$", n)
    )
    with open(spool, "r+b") as f:
        f.truncate(os.path.getsize(spool) // 2)
    metrics = MetricsRegistry()
    again = make_translator().translate(
        PROGRAM, memo_dir=memo, metrics=metrics
    )
    c = counters(metrics)
    assert canonical_attrs(again.root_attrs) == canonical_attrs(
        cold.root_attrs
    )
    assert c["invalidations"] >= 1 and c["hits"] == 0


def test_foreign_grammar_memo_is_invalidated(tmp_path):
    """A memo written by another grammar fails the identity check."""
    memo = str(tmp_path / "memo")
    make_translator("binary").translate("1 0 1 . 0 1", memo_dir=memo)
    metrics = MetricsRegistry()
    result = make_translator("calc").translate(
        PROGRAM, memo_dir=memo, metrics=metrics
    )
    assert counters(metrics)["invalidations"] >= 1
    assert dict(result.root_attrs)  # translated fine, just cold


def test_empty_memo_dir_translates_cold(tmp_path):
    memo = str(tmp_path / "does-not-exist-yet" / "memo")
    metrics = MetricsRegistry()
    result = make_translator().translate(PROGRAM, memo_dir=memo,
                                         metrics=metrics)
    assert dict(result.root_attrs)
    c = counters(metrics)
    assert c["hits"] == 0 and c["entries_written"] > 0


# ---------------------------------------------------------------------------
# no memo, no tax
# ---------------------------------------------------------------------------


def test_memoless_translation_builds_no_memo_machinery(tmp_path):
    tr = make_translator()
    plain = tr.translate(PROGRAM)
    assert tr._memo_eval is None
    assert tr._memo_recording_eval is None
    assert tr._memo_stores == {}
    memoed = make_translator().translate(
        PROGRAM, memo_dir=str(tmp_path / "memo")
    )
    assert canonical_attrs(plain.root_attrs) == canonical_attrs(
        memoed.root_attrs
    )


# ---------------------------------------------------------------------------
# read-only consultation: record= and checkpoint runs
# ---------------------------------------------------------------------------


def test_record_run_consults_memo_and_records_reuse_instants(tmp_path):
    """Under ``record=`` the memo is consulted (splices still happen,
    logged as ``reuse`` instants) but never refreshed — the sealed
    manifest and generation are untouched."""
    memo = str(tmp_path / "memo")
    rec = str(tmp_path / "rec")
    tr = make_translator()
    cold = tr.translate(PROGRAM, memo_dir=memo)
    manifest = os.path.join(memo, MEMO_LOG)
    with open(manifest, "rb") as f:
        sealed_before = f.read()

    metrics = MetricsRegistry()
    recorded = tr.translate(
        PROGRAM, record=rec, memo_dir=memo, metrics=metrics
    )
    assert canonical_attrs(recorded.root_attrs) == canonical_attrs(
        cold.root_attrs
    )
    assert counters(metrics)["hits"] >= 1
    with open(manifest, "rb") as f:
        assert f.read() == sealed_before, "read-only memo was rewritten"
    log = ProvenanceLog.open(rec)
    reuse = [e for e in log.events if e.get("e") == "reuse"]
    assert reuse, "no reuse instants in the provenance log"
    assert all(e["r"] >= 1 and e["l"] >= 1 for e in reuse)


def test_resumed_run_evaluates_cold(tmp_path):
    """Checkpoint-resumed runs never consult the memo (documented
    invalidation rule: the resumed spools are authoritative)."""
    memo = str(tmp_path / "memo")
    ckpt = str(tmp_path / "ckpt")
    tr = make_translator()
    cold = tr.translate(PROGRAM, memo_dir=memo)
    tr.translate(PROGRAM, checkpoint_dir=ckpt)
    metrics = MetricsRegistry()
    resumed = tr.translate(
        PROGRAM, checkpoint_dir=ckpt, resume=True,
        memo_dir=memo, metrics=metrics,
    )
    assert canonical_attrs(resumed.root_attrs) == canonical_attrs(
        cold.root_attrs
    )
    c = counters(metrics)
    assert c["entries_written"] == 0


# ---------------------------------------------------------------------------
# fsck / doctor surface
# ---------------------------------------------------------------------------


def test_sniff_scan_salvage_roundtrip(tmp_path):
    memo = str(tmp_path / "memo")
    make_translator().translate(PROGRAM, memo_dir=memo)
    manifest = os.path.join(memo, MEMO_LOG)
    assert looks_like_memo_manifest(manifest)
    spool = next(
        os.path.join(memo, n) for n in os.listdir(memo)
        if n.endswith(".spool")
    )
    assert not looks_like_memo_manifest(spool)

    clean = scan_memo(manifest)
    assert clean.ok and clean.sealed and clean.n_entries == clean.n_valid
    assert clean.spools, "clean scan should name the splice spools"

    _flip_byte(manifest, os.path.getsize(manifest) // 2)
    damaged = scan_memo(manifest)
    assert not damaged.ok
    assert damaged.error.reason in ("checksum", "framing", "seal")
    assert damaged.error.record_index is not None
    assert 0 < damaged.n_valid < clean.n_valid

    out = os.path.join(memo, "salvaged.ndjson")
    report = salvage_memo(manifest, out)
    assert report.n_valid == damaged.n_valid
    resealed = scan_memo(out)
    assert resealed.ok and resealed.n_entries == damaged.n_valid


def test_damage_in_the_seal_line_names_the_seal_record(tmp_path):
    """Lines split on newline only: a bit-5 flip turns a ``,`` of a
    5-line manifest's seal line into a form feed, which must not start a
    new record."""
    from types import SimpleNamespace

    from repro.passes.incremental import MemoEntry, MemoStore

    memo = str(tmp_path / "memo")
    store = MemoStore(memo, SimpleNamespace(name="g"), [], identity="id")
    spool = os.path.join(memo, "pass1.g1.spool")
    open(spool, "wb").close()
    entries = {
        (f"h{i}", "x"): MemoEntry(1, f"h{i}", "x", 8 * i, 8, 9, "")
        for i in range(3)
    }
    store.commit_run([(
        SimpleNamespace(pass_k=1, new_entries=entries),
        SimpleNamespace(path=spool, n_records=24, data_bytes=1, _stream_crc=0),
    )])
    store.close()
    manifest = os.path.join(memo, MEMO_LOG)
    assert scan_memo(manifest).ok
    with open(manifest, "rb") as f:
        data = f.read()
    assert data.count(b"\n") == 5
    seal_start = data.rstrip(b"\n").rfind(b"\n") + 1
    bit_flip(manifest, data.index(b",", seal_start), bit=5)
    damaged = scan_memo(manifest)
    assert damaged.error.record_index == 4
    assert damaged.n_valid == 3


def test_doctor_classifies_and_repairs_memo_dirs(tmp_path):
    from repro.doctor import ArtifactState, run_doctor

    memo = str(tmp_path / "memo")
    tr = make_translator()
    tr.translate(PROGRAM, memo_dir=memo)
    report = run_doctor([memo])
    assert report.clean
    states = {os.path.basename(a.path): a.state for a in report.artifacts}
    assert states[MEMO_LOG] == ArtifactState.SEALED

    # A stale generation spool beside the sealed manifest is an orphan.
    live = next(n for n in os.listdir(memo) if n.endswith(".spool"))
    stale = re.sub(r"\.g(\d+)\.", lambda m: f".g{int(m.group(1)) + 7}.",
                   live)
    with open(os.path.join(memo, live), "rb") as src:
        with open(os.path.join(memo, stale), "wb") as dst:
            dst.write(src.read())
    report = run_doctor([memo], repair=True)
    assert report.lossy
    assert not os.path.exists(os.path.join(memo, stale))
    assert os.path.exists(os.path.join(memo, live))

    # Manifest damage: doctor salvages in place; the memo stays usable.
    _flip_byte(os.path.join(memo, MEMO_LOG), 300)
    report = run_doctor([memo], repair=True)
    assert report.lossy
    assert scan_memo(memo).ok
    again = tr.translate(PROGRAM, memo_dir=str(memo))
    assert dict(again.root_attrs)

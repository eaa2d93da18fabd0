"""Incremental re-translation (:mod:`repro.passes.incremental`).

Covers the memo lifecycle end to end: warming, full-splice re-runs,
dirty-spine evaluation after a single-token edit, byte-identity across
backends and fusion settings, the documented invalidation rules
(corruption and checkpoint-resume always degrade to a cold miss, never
a wrong answer), read-only consultation under ``record=`` (with
``reuse`` provenance instants), and the fsck/doctor surface over the
sealed MEMO2 manifest.
"""

import hashlib
import json
import os
import pickle
import re

import pytest

from repro.core import Linguist
from repro.grammars import load_source, scanner_and_library
from repro.obs import MetricsRegistry
from repro.obs.provenance import ProvenanceLog
from repro.passes import incremental
from repro.passes.incremental import (
    MEMO_LOG,
    looks_like_memo_manifest,
    salvage_memo,
    scan_memo,
)
from repro.testing.faults import bit_flip
from repro.util import sealedlog
from repro.workloads.generators import (
    generate_calc_program,
    generate_pascal_program,
)
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


def test_damaged_block_head_is_a_cold_miss(tmp_path):
    """Block damage the footer checks cannot see still fails the load,
    not the translation: the reader's block walk is part of it."""
    memo = str(tmp_path / "memo")
    cold = make_translator().translate(PROGRAM, memo_dir=memo)
    spool = next(
        os.path.join(memo, n) for n in os.listdir(memo)
        if re.match(r"^pass\d+\.g\d+\.spool$", n)
    )
    # High byte of the first block's payload length (after the 12-byte
    # file header): the length now overruns the sealed data region.
    _flip_byte(spool, 15)
    metrics = MetricsRegistry()
    again = make_translator().translate(
        PROGRAM, memo_dir=memo, metrics=metrics
    )
    c = counters(metrics)
    assert canonical_attrs(again.root_attrs) == canonical_attrs(
        cold.root_attrs
    )
    assert c["invalidations"] == 1 and c["hits"] == 0


def test_damaged_name_table_disables_the_memo_before_the_pass(tmp_path):
    """The footer checks of the load cannot see name-table damage; it
    surfaces when the pass takes its seed, which disables the memo, so
    no pass splices from a source its output was not seeded from."""
    from repro.apt.storage import _FOOTER3

    memo = str(tmp_path / "memo")
    cold = make_translator().translate(PROGRAM, memo_dir=memo)
    spool = next(
        os.path.join(memo, n) for n in os.listdir(memo)
        if re.match(r"^pass\d+\.g\d+\.spool$", n)
    )
    # The name-table payload ends where the sealed footer begins.
    _flip_byte(spool, os.path.getsize(spool) - _FOOTER3.size - 1)
    metrics = MetricsRegistry()
    again = make_translator().translate(
        PROGRAM, memo_dir=memo, metrics=metrics
    )
    c = counters(metrics)
    assert canonical_attrs(again.root_attrs) == canonical_attrs(
        cold.root_attrs
    )
    assert c["entries_loaded"] > 0
    assert c["invalidations"] == 1 and c["hits"] == 0


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
    assert tr._variants.get((False, True)) is None
    assert tr._variants.get((True, True)) is None
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


@pytest.mark.parametrize("fuse", [True, False], ids=["fused", "unfused"])
def test_memo_record_run_spools_decode_like_a_cold_record_run(tmp_path, fuse):
    """A recorded memo run splices raw blobs into its checkpointed pass
    spools (seeded from the splice source's name table); every pass
    spool still decodes to the records of a memo-less recorded run."""
    from repro.apt.storage import DiskSpool

    memo = str(tmp_path / "memo")
    tr = make_translator(fuse=fuse)
    tr.translate(PROGRAM, memo_dir=memo)
    edited = edit_last_statement(PROGRAM)
    metrics = MetricsRegistry()
    tr.translate(
        edited, record=str(tmp_path / "memo-rec"), memo_dir=memo,
        metrics=metrics,
    )
    assert counters(metrics)["hits"] >= 1
    make_translator(fuse=fuse).translate(
        edited, record=str(tmp_path / "cold-rec")
    )
    names = sorted(
        name for name in os.listdir(tmp_path / "cold-rec")
        if re.match(r"^pass\d+\.spool$", name)
    )
    assert len(names) == (1 if fuse else 2)
    for name in names:
        spliced, cold = (
            list(DiskSpool.open(str(tmp_path / rec / name)).read_forward())
            for rec in ("memo-rec", "cold-rec")
        )
        assert spliced == cold, name


def test_memo_runs_keep_only_the_last_run_alive(tmp_path):
    """The paper's bounded residency, across runs: after ten memo
    translations through one translator, only the last run's driver
    and sessions are reachable (a splice source must not chain the
    run that wrote it, and that run's own source, into memory)."""
    import gc

    from repro.evalgen.driver import AlternatingPassDriver
    from repro.passes.incremental import MemoSession

    memo = str(tmp_path / "memo")
    tr = make_translator()
    text = PROGRAM
    for _ in range(10):
        tr.translate(text, memo_dir=memo)
        text = edit_last_statement(text)
    store = tr._memo_stores[os.path.abspath(memo)]
    gc.collect()
    live = gc.get_objects()
    drivers = [
        o for o in live
        if isinstance(o, AlternatingPassDriver) and o.memo is store
    ]
    sessions = [
        o for o in live if isinstance(o, MemoSession) and o.store is store
    ]
    assert drivers == [tr.last_driver]
    assert sessions
    assert all(
        any(s is kept for kept in tr.last_driver.memo_sessions)
        for s in sessions
    )


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
    6-line manifest's seal line into a form feed, which must not start a
    new record."""
    from types import SimpleNamespace

    from repro.passes.incremental import MemoEntry, MemoStore

    memo = str(tmp_path / "memo")
    store = MemoStore(memo, SimpleNamespace(name="g"), [], identity="id")
    spool = os.path.join(memo, "pass1.g1.spool")
    open(spool, "wb").close()
    entries = [
        MemoEntry(1, bytes([i]) * 32, 8 * i, 8, 9, 0, 0, 0, 0, "")
        for i in range(3)
    ]
    store.commit_run([(
        SimpleNamespace(
            pass_k=1, new_entries={e.key: e for e in entries}, events=entries
        ),
        SimpleNamespace(path=spool, n_records=24, data_bytes=1, _stream_crc=0),
    )])
    store.close()
    manifest = os.path.join(memo, MEMO_LOG)
    assert scan_memo(manifest).ok
    with open(manifest, "rb") as f:
        data = f.read()
    assert data.count(b"\n") == 6  # header, generation, 3 entries, seal
    seal_start = data.rstrip(b"\n").rfind(b"\n") + 1
    bit_flip(manifest, data.index(b",", seal_start), bit=5)
    damaged = scan_memo(manifest)
    assert damaged.error.record_index == 5
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


# ---------------------------------------------------------------------------
# bookkeeping cost: cached content digests and live payloads
# ---------------------------------------------------------------------------


def swap_middle_let(text: str) -> str:
    """Change the operator of the first ``let`` from the middle of a calc
    program on: every later statement inherits a changed environment."""
    stmts = text.split(" ;\n")
    pos = next(
        p for p in range(len(stmts) // 2, len(stmts))
        if stmts[p].startswith("let")
    )
    stmts[pos] = re.sub(
        r" ([-+*]) ",
        lambda m: " - " if m.group(1) != "-" else " + ",
        stmts[pos], count=1,
    )
    return " ;\n".join(stmts)


class _CountingHasher:
    def __init__(self, real, tally):
        self._real = real
        self._tally = tally

    def update(self, data):
        self._tally[0] += len(data)
        self._real.update(data)

    def digest(self):
        return self._real.digest()


def test_fingerprint_bytes_grow_linearly_for_a_let_swap(tmp_path, monkeypatch):
    """One mid-document ``let`` swap re-evaluates the back half of the
    document.  The bytes fed to context-fingerprint hashing (list digests
    computed on the way included) must grow with the document, not with
    its square: rendering every environment in full made them grow 15.9×
    from 100 to 400 statements."""
    tally, active = [0], [False]
    real_blake2b = hashlib.blake2b
    real_fingerprint = incremental.context_fingerprint

    def blake2b(*args, **kwargs):
        if not active[0]:
            return real_blake2b(*args, **kwargs)
        hasher = _CountingHasher(real_blake2b(**kwargs), tally)
        if args:
            hasher.update(args[0])
        return hasher

    def fingerprint(*args, **kwargs):
        active[0] = True
        try:
            return real_fingerprint(*args, **kwargs)
        finally:
            active[0] = False

    monkeypatch.setattr(hashlib, "blake2b", blake2b)
    monkeypatch.setattr(incremental, "context_fingerprint", fingerprint)
    fed = {}
    for n in (100, 400):
        program = generate_calc_program(n, seed=11)
        tr = make_translator()
        memo = str(tmp_path / f"memo{n}")
        tr.translate(program, memo_dir=memo)
        tally[0] = 0
        tr.translate(swap_middle_let(program), memo_dir=memo)
        fed[n] = tally[0]
    assert fed[400] <= 5 * fed[100], fed


def test_in_process_edit_session_unpickles_no_payload(tmp_path, monkeypatch):
    """Entries made in this process keep the post-visit state they
    pickled, and carried-forward entries keep it too, so no hit of an
    in-process edit session (swaps and inserts) decodes a payload."""
    real_loads = pickle.loads
    calls = []

    def loads(*args, **kwargs):
        calls.append(1)
        return real_loads(*args, **kwargs)

    monkeypatch.setattr(pickle, "loads", loads)
    calc = [PROGRAM, swap_middle_let(PROGRAM)]
    stmts = calc[-1].split(" ;\n")
    calc.append(" ;\n".join(stmts[:30] + ["print x1 + 4"] + stmts[30:]))
    calc.append(edit_last_statement(calc[-1]))
    pascal = [generate_pascal_program(30, seed=5)]
    head, _, body = pascal[0].partition("begin\n")
    pascal.append(head + "begin\n  v1 := v2 + 3;\n" + body)
    pascal.append(re.sub(r"\b(\d+)\b", lambda m: str(int(m.group()) + 1),
                         pascal[-1], count=1))
    hits = 0
    for grammar, versions in (("calc", calc), ("pascal", pascal)):
        tr = make_translator(grammar)
        memo = str(tmp_path / grammar)
        for text in versions:
            metrics = MetricsRegistry()
            tr.translate(text, memo_dir=memo, metrics=metrics)
            hits += counters(metrics)["hits"]
    assert hits > 0
    assert calls == []


# ---------------------------------------------------------------------------
# the O(edit) path: windowed re-scan, block-range splice, delta commit
# ---------------------------------------------------------------------------


def test_t10_edit_relexes_two_tokens_and_splits_no_record(tmp_path):
    """One spliced edit of the EXP-T10 input (calc, 200 statements, seed
    17, last literal bumped: ``print x123 + 6`` becomes ``print x124 +
    6``) re-lexes the edited line up to where the old tokens resume
    (``print``, ``x124``) and splices its one hit as framed slices of
    the sealed blocks, whose record offsets the writer handed over: no
    record is split out of a block or re-framed.  A store loaded from
    disk has no writer layout, so it splits every block it touches
    once."""
    program = generate_calc_program(200, seed=17)
    memo = str(tmp_path / "memo")
    tr = make_translator()
    tr.translate(program, memo_dir=memo)
    metrics = MetricsRegistry()
    tr.translate(edit_last_statement(program), memo_dir=memo, metrics=metrics)
    snap = metrics.snapshot()
    assert snap["incremental.relexed_tokens"] == 2
    assert snap["incremental.split_records"] == 0
    assert (snap["incremental.hits"], snap["incremental.spliced_records"]) == (1, 4347)
    metrics = MetricsRegistry()
    make_translator().translate(program, memo_dir=memo, metrics=metrics)
    snap = metrics.snapshot()
    assert snap["incremental.relexed_tokens"] == 1268  # a whole scan
    assert snap["incremental.split_records"] == 4371  # all 3 blocks
    assert snap["incremental.spliced_blocks"] == 3


def test_forty_pascal_edits_hold_no_more_blocks(tmp_path):
    """Memory held by one translator's memo session stays flat over 40
    edits: everything a translation allocates beyond the live memo
    (its driver, spools, sessions and the previous generation) is
    released by the next one."""
    import gc
    import tracemalloc

    head, _, rest = generate_pascal_program(60, seed=3).partition("begin\n")
    body, _, _ = rest.rpartition("\nend.")
    stmts = body.split(";\n")

    def edit(k):
        i = (k * 7) % len(stmts)
        for j in list(range(i, len(stmts))) + list(range(i)):
            new, n = re.subn(r"\b(\d+)\b", lambda m: str(int(m.group()) + 1),
                             stmts[j], count=1)
            if n:
                stmts[j] = new
                break
        return head + "begin\n" + ";\n".join(stmts) + "\nend."

    memo = str(tmp_path / "memo")
    held = {}
    tracemalloc.start()
    try:
        with make_translator("pascal") as tr:
            for k in range(41):
                tr.translate(edit(k), memo_dir=memo)
                if k in (5, 40):
                    gc.collect()
                    held[k] = sum(
                        s.count for s in
                        tracemalloc.take_snapshot().statistics("filename")
                    )
    finally:
        tracemalloc.stop()
    assert held[40] <= 1.1 * held[5], held


def test_loaded_log_replays_the_in_process_tables(tmp_path):
    """The delta-committed manifest, replayed by a fresh store, holds
    exactly the entries the writing store holds in memory — keys,
    ranges, payload offsets and CRC pairs — after edits that splice,
    miss and carry entries across generations."""
    memo = str(tmp_path / "memo")
    versions = [PROGRAM, swap_middle_let(PROGRAM)]
    stmts = versions[-1].split(" ;\n")
    versions.append(" ;\n".join(stmts[:20] + ["print x1 + 4"] + stmts[20:]))
    versions.append(edit_last_statement(versions[-1]))
    with make_translator() as tr:
        for text in versions:
            tr.translate(text, memo_dir=memo)
        live = tr._memo_stores[os.path.abspath(memo)]

        def fields(store):
            return {
                k: {
                    key: (e.out_start, e.out_len, e.n_skip, e.data_start,
                          e.data_len, e.crc_from, e.crc_to, e.blob)
                    for key, e in table.by_key.items()
                }
                for k, table in store.entries.items()
            }

        loaded = incremental.MemoStore(
            memo, tr.ag, tr.linguist.plans, library=tr.library
        )
        try:
            assert loaded.load_error is None
            assert fields(loaded) == fields(live)
        finally:
            loaded.close()
    with open(os.path.join(memo, MEMO_LOG), "rb") as f:
        kinds = re.findall(rb'"e":"(\w+)"', f.read())
    assert kinds.count(b"gen") == len(versions)  # appended, not rewritten
    assert kinds.count(b"carry") > 0


def test_old_format_memo_is_a_typed_cold_miss(tmp_path):
    """A MEMO1 manifest (the format before generations were logged)
    fails the MEMO2 header check: fsck names reason ``header``, and a
    translation loads it as a typed cold miss and writes a MEMO2
    manifest in its place."""
    memo = str(tmp_path / "memo")
    os.makedirs(memo)
    golden = os.path.join(os.path.dirname(__file__), "golden", "memo1.ndjson.golden")
    with open(golden, "rb") as src, open(os.path.join(memo, MEMO_LOG), "wb") as dst:
        dst.write(src.read())
    assert not looks_like_memo_manifest(os.path.join(memo, MEMO_LOG))
    report = scan_memo(memo)
    assert not report.ok and report.error.reason == "header"
    metrics = MetricsRegistry()
    with make_translator() as tr:
        result = tr.translate(PROGRAM, memo_dir=memo, metrics=metrics)
        assert tr._memo_stores[os.path.abspath(memo)].load_error.reason == "header"
    assert counters(metrics)["invalidations"] == 1
    assert dict(result.root_attrs)
    assert scan_memo(memo).ok


@pytest.mark.parametrize(
    "bad", ["7", 1.5, [1], -1, 1 << 32, None],
    ids=["str", "float", "list", "negative", "wide", "null"],
)
def test_malformed_entry_crc_is_a_cold_miss(tmp_path, bad):
    """A memo entry whose ``d`` CRC is not a 32-bit int, in a manifest
    whose line and seal CRCs are intact, is a ``framing`` cold miss at
    load, not an error out of the splice."""
    memo = str(tmp_path / "memo")
    with make_translator() as tr:
        cold = tr.translate(PROGRAM, memo_dir=memo)
    path = os.path.join(memo, MEMO_LOG)
    with open(path, encoding="utf-8") as f:
        docs = [json.loads(line) for line in f]
    for doc in docs:
        doc.pop("c")
    entries = [d for d in docs if d["e"] == "memo"]
    assert entries
    for doc in entries:
        doc["d"][2] = bad
    sealedlog.reseal(path, [sealedlog.frame(d) for d in docs if d["e"] != "seal"])
    report = scan_memo(memo)
    assert not report.ok and report.error.reason == "framing"
    metrics = MetricsRegistry()
    with make_translator() as tr:
        again = tr.translate(PROGRAM, memo_dir=memo, metrics=metrics)
        assert tr._memo_stores[os.path.abspath(memo)].load_error.reason == "framing"
    c = counters(metrics)
    assert c["invalidations"] == 1 and c["hits"] == 0
    assert canonical_attrs(again.root_attrs) == canonical_attrs(cold.root_attrs)
    assert scan_memo(memo).ok


_LEAK_PROBES = {
    # A memo translation session that closes its translator.
    "closed-translator": """
import sys
from repro.core import Linguist
from repro.grammars import load_source, scanner_and_library
from repro.workloads.generators import generate_calc_program

spec, library = scanner_and_library("calc")
tr = Linguist(load_source("calc")).make_translator(spec, library=library)
program = generate_calc_program(40, seed=11)
tr.translate(program, memo_dir=sys.argv[1])
tr.translate(program.replace(" + ", " - ", 1), memo_dir=sys.argv[1])
tr.close()
""",
    # A reader whose block walk fails on a damaged block head.
    "damaged-block-head": """
import os, sys
from repro.apt.storage import DiskSpool, RandomAccessReader
from repro.errors import SpoolCorruptionError

path = os.path.join(sys.argv[1], "pass1.g1.spool")
os.makedirs(sys.argv[1])
spool = DiskSpool(path)
for i in range(50):
    spool.append(("N", None, {"V": i}, False))
spool.finalize()
with open(path, "r+b") as f:
    f.seek(15)  # high byte of the first block's payload length
    byte = f.read(1)
    f.seek(15)
    f.write(bytes([byte[0] ^ 0xFF]))
try:
    RandomAccessReader(DiskSpool.open(path))
except SpoolCorruptionError:
    pass
else:
    sys.exit("the damaged block head went unnoticed")
""",
}


@pytest.mark.parametrize("case", sorted(_LEAK_PROBES))
def test_memo_translations_leave_no_file_unclosed(tmp_path, case):
    """Under ``-X dev -W error::ResourceWarning`` a script that
    translates with ``memo_dir=`` and closes its translator leaves no
    file open, also when a splice spool's damaged block head fails the
    reader's block walk (the reader closes the file it opened)."""
    import subprocess
    import sys

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c",
         _LEAK_PROBES[case], str(tmp_path / "memo")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ResourceWarning" not in proc.stderr, proc.stderr

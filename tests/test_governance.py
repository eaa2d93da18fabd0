"""Resource governance and crash-recovery sweeping.

Covers the ``repro.governance`` admission layer (disk budgets, cache
eviction, free-space watermarks), the ``repro doctor`` sweeper over
every durable format, and the filesystem chaos matrix: a seeded
:class:`~repro.testing.faults.FilesystemFaultPlan` interrupts each
writer at arbitrary points and the invariant is checked that a fault
either completes atomically or leaves only a doctor-classifiable
non-terminal artifact — never a torn sealed file.
"""

import json
import os
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from repro.apt.storage import AdaptiveSpool, DiskSpool, scan_spool
from repro.buildcache import BuildCache
from repro.doctor import (
    ArtifactFormat,
    ArtifactState,
    run_doctor,
    sniff_format,
)
from repro.errors import DiskBudgetExceeded
from repro.governance import (
    FAKE_DISK_FREE_ENV,
    DiskBudget,
    DiskWatermark,
    evict_cache,
)
from repro.obs import MetricsRegistry
from repro.obs.provenance import ProvenanceRecorder, scan_provenance
from repro.passes.incremental import scan_memo
from repro.serve.journal import RequestJournal, scan_journal
from repro.testing import FilesystemFaultPlan, FsFaultMode

# ---------------------------------------------------------------------------
# DiskBudget
# ---------------------------------------------------------------------------


class TestDiskBudget:
    def test_charges_until_limit_then_raises_typed(self):
        budget = DiskBudget(100, label="t8")
        budget.charge(60)
        budget.charge(40)
        with pytest.raises(DiskBudgetExceeded) as exc:
            budget.charge(1)
        err = exc.value
        assert err.budget == 100 and err.charged == 100 and err.attempted == 1
        assert "t8" in str(err)
        assert budget.charged == 100  # the rejected charge never landed

    def test_release_returns_capacity(self):
        budget = DiskBudget(100)
        budget.charge(100)
        budget.release(30)
        budget.charge(30)
        assert budget.charged == 100
        assert budget.peak == 100

    def test_nonpositive_limit_is_unlimited(self):
        budget = DiskBudget(0)
        budget.charge(1 << 40)
        assert budget.charged == 1 << 40

    def test_metrics(self):
        metrics = MetricsRegistry()
        budget = DiskBudget(10, metrics=metrics)
        budget.charge(10)
        with pytest.raises(DiskBudgetExceeded):
            budget.charge(5)
        snap = metrics.snapshot()
        assert snap["governance.disk_budget_rejections"] == 1

    def test_adaptive_spool_spill_is_charged_and_released(self):
        budget = DiskBudget(1 << 20)
        spool = AdaptiveSpool(memory_budget=0, disk_budget=budget)
        for i in range(50):
            spool.append(("Sym", i, {"VAL": i}, False))
        assert spool.spilled
        assert budget.charged > 0
        spool.finalize()
        spool.close()
        assert budget.charged == 0

    def test_adaptive_spool_over_budget_fails_before_bytes_land(self):
        budget = DiskBudget(16)  # far below any spill
        spool = AdaptiveSpool(memory_budget=0, disk_budget=budget)
        with pytest.raises(DiskBudgetExceeded):
            for i in range(50):
                spool.append(("Sym", i, {"VAL": i}, False))
        spool.close()
        assert budget.charged == 0


# ---------------------------------------------------------------------------
# cache eviction
# ---------------------------------------------------------------------------


def _key(ch: str) -> str:
    return ch * 64


class TestEvictCache:
    def test_lru_eviction_order(self, tmp_path):
        cache = BuildCache(str(tmp_path / "cache"))
        for i, ch in enumerate("abc"):
            path = cache.store("grammar", _key(ch), {"i": i})
            os.utime(path, (1000 + i, 1000 + i))  # a oldest, c newest
        sizes = {e.key[0]: e.file_bytes for e in cache.entries()}
        total = sum(sizes.values())
        kept, evicted = evict_cache(cache, total - 1)
        assert [e.key[0] for e in evicted] == ["a"]
        assert kept == total - sizes["a"]
        assert sorted(e.key[0] for e in cache.entries()) == ["b", "c"]

    def test_load_hit_refreshes_the_clock(self, tmp_path):
        cache = BuildCache(str(tmp_path / "cache"))
        for i, ch in enumerate("ab"):
            path = cache.store("grammar", _key(ch), {"i": i})
            os.utime(path, (1000 + i, 1000 + i))
        assert cache.load("grammar", _key("a")) is not None  # touch a
        _, evicted = evict_cache(cache, 1)  # keep nothing sizeable
        # b (stale) goes before a (just used).
        assert [e.key[0] for e in evicted][0] == "b"

    def test_under_cap_is_a_no_op(self, tmp_path):
        cache = BuildCache(str(tmp_path / "cache"))
        cache.store("grammar", _key("a"), {"i": 0})
        kept, evicted = evict_cache(cache, 1 << 30)
        assert evicted == [] and kept > 0

    def test_cache_gc_cli(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path / "cache")
        cache = BuildCache(root)
        for i, ch in enumerate("ab"):
            path = cache.store("grammar", _key(ch), {"i": i})
            os.utime(path, (1000 + i, 1000 + i))
        assert main(
            ["cache", "gc", "--max-bytes", "1", "--cache-dir", root]
        ) == 0
        out = capsys.readouterr().out
        assert "evicted 2" in out
        assert cache.entries() == []


# ---------------------------------------------------------------------------
# watermarks
# ---------------------------------------------------------------------------


class TestDiskWatermark:
    def test_hysteresis(self, tmp_path, monkeypatch):
        metrics = MetricsRegistry()
        wm = DiskWatermark(
            path=str(tmp_path), low_bytes=100, high_bytes=200,
            metrics=metrics,
        )
        monkeypatch.setenv(FAKE_DISK_FREE_ENV, "500")
        assert wm.check() is False
        monkeypatch.setenv(FAKE_DISK_FREE_ENV, "50")
        assert wm.check() is True  # tripped below low
        monkeypatch.setenv(FAKE_DISK_FREE_ENV, "150")
        assert wm.check() is True  # inside the band: still degraded
        monkeypatch.setenv(FAKE_DISK_FREE_ENV, "250")
        assert wm.check() is False  # recovered above high
        monkeypatch.setenv(FAKE_DISK_FREE_ENV, "150")
        assert wm.check() is False  # inside the band: still healthy
        assert wm.trips == 1 and wm.recoveries == 1
        snap = metrics.snapshot()
        assert snap["governance.watermark_trips"] == 1
        assert snap["governance.watermark_recoveries"] == 1
        assert snap["governance.disk_free_bytes"] == 150

    def test_high_below_low_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            DiskWatermark(path=str(tmp_path), low_bytes=200, high_bytes=100)

    def test_real_probe_without_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(FAKE_DISK_FREE_ENV, raising=False)
        wm = DiskWatermark(path=str(tmp_path), low_bytes=1, high_bytes=1)
        assert wm.free_bytes() > 0

    def test_fake_env_file_indirection(self, tmp_path, monkeypatch):
        # The chaos-disk CI driver flips the fake free space of a child
        # daemon by rewriting a file the probe re-reads each check.
        knob = tmp_path / "free.txt"
        knob.write_text("500\n")
        monkeypatch.setenv(FAKE_DISK_FREE_ENV, "@" + str(knob))
        wm = DiskWatermark(path=str(tmp_path), low_bytes=100, high_bytes=200)
        assert wm.free_bytes() == 500
        assert wm.check() is False
        knob.write_text("50")
        assert wm.check() is True
        knob.write_text("300")
        assert wm.check() is False
        assert (wm.trips, wm.recoveries) == (1, 1)
        # An unreadable or garbage knob falls back to the real probe.
        knob.write_text("not-a-number")
        assert wm.free_bytes() > 0
        knob.unlink()
        assert wm.free_bytes() > 0


# ---------------------------------------------------------------------------
# the doctor
# ---------------------------------------------------------------------------


def make_sealed_spool(path, n=5):
    spool = DiskSpool(str(path))
    for i in range(n):
        spool.append(("Sym", i, {"VAL": i}, False))
    spool.finalize()
    return spool


def corrupt_file(path, offset=-10):
    with open(path, "r+b") as f:
        f.seek(offset, os.SEEK_END if offset < 0 else os.SEEK_SET)
        byte = f.read(1)
        f.seek(-1, os.SEEK_CUR)
        f.write(bytes([byte[0] ^ 0xFF]))


class TestDoctor:
    def test_classifies_every_format(self, tmp_path):
        d = str(tmp_path)
        make_sealed_spool(tmp_path / "good.spool")
        shutil.copy(
            str(tmp_path / "good.spool"), str(tmp_path / "bad.spool")
        )
        corrupt_file(str(tmp_path / "bad.spool"), offset=20)
        cache = BuildCache(os.path.join(d, "cache"))
        cache.store("grammar", _key("a"), {"v": 1})
        with open(os.path.join(d, "debris.spool.tmp"), "wb") as f:
            f.write(b"APTSPL3\nhalf-written")
        with open(os.path.join(d, "notes.txt"), "w") as f:
            f.write("not ours\n")
        journal = RequestJournal(os.path.join(d, "jdir"))
        journal.admitted(1, "g", "in")
        journal.completed(1, "g", "out", 0.01)
        journal.seal()
        report = run_doctor([d])
        states = {
            os.path.basename(a.path): a.state for a in report.artifacts
        }
        assert states["good.spool"] == ArtifactState.SEALED
        assert states["bad.spool"] == ArtifactState.CORRUPT
        assert states["debris.spool.tmp"] == ArtifactState.UNSEALED_TMP
        assert states["notes.txt"] == ArtifactState.FOREIGN
        assert states["requests.ndjson"] == ArtifactState.SEALED
        assert not report.clean

    def test_unsealed_journal_is_an_expected_artifact(self, tmp_path):
        journal = RequestJournal(str(tmp_path))
        journal.admitted(1, "g", "in")
        journal._f.flush()
        journal._f.close()
        journal._f = None  # simulated kill: no seal
        report = run_doctor([str(tmp_path)])
        (art,) = report.artifacts
        assert art.state == ArtifactState.UNSEALED
        assert report.clean  # a crash artifact is not a problem

    def test_repair_salvages_and_deletes(self, tmp_path):
        d = str(tmp_path)
        make_sealed_spool(tmp_path / "bad.spool", n=50)
        corrupt_file(str(tmp_path / "bad.spool"), offset=-10)
        cache = BuildCache(os.path.join(d, "cache"))
        cache.store("grammar", _key("a"), {"v": 1})
        corrupt_file(cache.entries()[0].path, offset=-3)
        with open(os.path.join(d, "leak.tmp"), "wb") as f:
            f.write(b"garbage")
        report = run_doctor([d], repair=True)
        assert report.lossy
        resweep = run_doctor([d])
        assert resweep.clean
        assert not os.path.exists(os.path.join(d, "leak.tmp"))
        # The corrupt spool was salvaged in place to its valid prefix.
        assert scan_spool(str(tmp_path / "bad.spool")).ok
        # The corrupt cache entry is a rebuildable miss: deleted.
        assert cache.entries() == []

    def test_header_flip_is_corrupt_and_repaired(self, tmp_path):
        # A flipped magic bit must not pass for a checksum-free legacy
        # file: the doctor calls it corrupt and --repair salvages every
        # record (footer, blocks and name table are intact).
        from repro.testing import bit_flip

        d = str(tmp_path)
        path = str(tmp_path / "hdr.spool")
        make_sealed_spool(path, n=50)
        bit_flip(path, 3, 0)
        report = run_doctor([d])
        (art,) = report.artifacts
        assert art.format == ArtifactFormat.SPOOL_V3
        assert art.state == ArtifactState.CORRUPT
        assert "header" in art.detail
        assert report.clean is False
        repaired = run_doctor([d], repair=True)
        # Every sealed record survived, so the repair is not lossy.
        assert repaired.artifacts[0].action == "salvaged"
        assert not repaired.lossy
        after = scan_spool(path)
        assert after.ok and after.n_valid == 50
        assert run_doctor([d]).clean

    def test_block_damage_is_salvaged_with_loss(self, tmp_path):
        # A damaged block loses its records (and every block after it):
        # the repair keeps the valid prefix and says it lost data.
        d = str(tmp_path)
        path = str(tmp_path / "blk.spool")
        spool = DiskSpool(path, block_size=64)
        for i in range(50):
            spool.append(("Sym", i, {"VAL": i}, False))
        spool.finalize()
        before = scan_spool(path)
        assert before.ok and before.n_blocks_valid > 2
        # A byte midway through the blocks.
        corrupt_file(path, offset=before.valid_end_offset // 2)
        damaged = scan_spool(path)
        assert not damaged.ok and 0 < damaged.n_valid < 50
        repaired = run_doctor([d], repair=True)
        assert repaired.artifacts[0].action == "salvaged-with-loss"
        assert repaired.lossy
        after = scan_spool(path)
        assert after.ok and after.n_valid == damaged.n_valid
        assert run_doctor([d]).clean

    def test_repair_tmp_debris_consumed_by_sibling_salvage(self, tmp_path):
        # In-place salvage of a corrupt provenance log stages through
        # the final path + ".tmp" — the exact name of any crash debris
        # sitting beside it.  The debris repair must still record its
        # action (the file is gone either way), not report a phantom
        # remaining problem.
        d = str(tmp_path)
        write_provenance(d)
        final = os.path.join(d, "provenance.ndjson")
        # Damage the seal, not the header: salvage must still be
        # possible so the in-place rewrite stages through the tmp path.
        corrupt_file(final, offset=-10)
        with open(final + ".tmp", "wb") as f:
            f.write(b"half-written")
        report = run_doctor([d], repair=True)
        assert report.lossy
        actions = {a.path: a.action for a in report.artifacts}
        assert actions[final] == "salvaged-with-loss"
        assert actions[final + ".tmp"] == "deleted"
        assert not report.problems
        assert not os.path.exists(final + ".tmp")
        assert run_doctor([d]).clean

    def test_manifest_truncated_at_first_damaged_pass(self, tmp_path):
        d = str(tmp_path)
        entries = []
        for k in range(3):
            spool = make_sealed_spool(tmp_path / f"pass{k}.spool", n=4)
            entries.append(
                {
                    "pass": k,
                    "direction": "r2l",
                    "spool": f"pass{k}.spool",
                    "n_records": 4,
                    "data_bytes": spool.data_bytes,
                    "stream_crc": spool._stream_crc,
                }
            )
        doc = {
            "version": 1, "grammar": "g", "strategy": "alt",
            "n_passes": 3, "directions": ["r2l", "l2r", "r2l"],
            "completed": entries,
        }
        with open(os.path.join(d, "checkpoint.json"), "w") as f:
            json.dump(doc, f)
        # Damage pass1's record data (not just its footer) so salvage
        # genuinely loses records and the manifest entry stops matching.
        corrupt_file(os.path.join(d, "pass1.spool"), offset=20)
        report = run_doctor([d], repair=True)
        assert report.lossy
        with open(os.path.join(d, "checkpoint.json")) as f:
            repaired = json.load(f)
        assert [e["pass"] for e in repaired["completed"]] == [0]
        # Spools past the truncation point are gone; pass0 survives.
        assert os.path.exists(os.path.join(d, "pass0.spool"))
        assert not os.path.exists(os.path.join(d, "pass1.spool"))
        assert not os.path.exists(os.path.join(d, "pass2.spool"))
        assert run_doctor([d]).clean

    def test_repair_drops_a_same_shaped_swapped_spool_so_resume_runs(
        self, tmp_path
    ):
        """A pass spool swapped for another input's spool of the same
        shape passes a record-count check; the doctor must compare the
        whole sealed descriptor, or ``--resume`` refuses the directory
        the repair was meant to save."""
        from repro.core import Linguist
        from repro.grammars import load_source, scanner_and_library

        spec, library = scanner_and_library("calc")
        tr = Linguist(load_source("calc")).make_translator(
            spec, library=library
        )
        texts = {"a": "let a = 6 ; print a * 7", "b": "let a = 5 ; print a * 7"}
        for name, text in texts.items():
            tr.translate(text, checkpoint_dir=str(tmp_path / name))
        spools = [
            DiskSpool.open(str(tmp_path / name / "pass1.spool"))
            for name in texts
        ]
        assert spools[0].n_records == spools[1].n_records
        assert spools[0].data_bytes == spools[1].data_bytes
        shutil.copy(
            str(tmp_path / "b" / "pass1.spool"),
            str(tmp_path / "a" / "pass1.spool"),
        )
        run_doctor([str(tmp_path / "a")], repair=True)
        resumed = tr.translate(
            texts["a"], checkpoint_dir=str(tmp_path / "a"), resume=True
        )
        assert resumed.root_attrs == tr.translate(texts["a"]).root_attrs

    def test_orphaned_pass_spool_detected(self, tmp_path):
        d = str(tmp_path)
        make_sealed_spool(tmp_path / "pass0.spool", n=2)
        make_sealed_spool(tmp_path / "pass1.spool", n=2)
        doc = {
            "version": 1, "grammar": "g", "strategy": "alt",
            "n_passes": 2, "directions": ["r2l", "l2r"],
            "completed": [
                {
                    "pass": 0, "direction": "r2l", "spool": "pass0.spool",
                    "n_records": 2, "data_bytes": 0, "stream_crc": 0,
                }
            ],
        }
        with open(os.path.join(d, "checkpoint.json"), "w") as f:
            json.dump(doc, f)
        report = run_doctor([d])
        states = {
            os.path.basename(a.path): a.state for a in report.artifacts
        }
        assert states["pass1.spool"] == ArtifactState.ORPHANED
        run_doctor([d], repair=True)
        assert not os.path.exists(os.path.join(d, "pass1.spool"))

    def test_doctor_cli_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        d = str(tmp_path)
        assert main(["doctor", d]) == 0  # empty directory: clean
        with open(os.path.join(d, "leak.tmp"), "wb") as f:
            f.write(b"x")
        assert main(["doctor", d]) == 1
        assert main(["doctor", d, "--quiet"]) == 1
        assert capsys.readouterr().out.count("leak.tmp") == 1  # quiet worked
        assert main(["doctor", d, "--repair"]) == 2  # repaired with loss
        assert main(["doctor", d]) == 0
        assert main(["doctor", str(tmp_path / "missing")]) == 1

    def test_fsck_quiet_flag(self, tmp_path, capsys):
        from repro.cli import main

        spool = make_sealed_spool(tmp_path / "ok.spool")
        assert main(["fsck", spool.path, "--quiet"]) == 0
        corrupt_file(spool.path, offset=-10)
        assert main(["fsck", spool.path, "--quiet"]) == 1
        out_path = str(tmp_path / "rescued.spool")
        assert main(
            ["fsck", spool.path, "--salvage", out_path, "--quiet"]
        ) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""


@pytest.mark.parametrize(
    "scan", [scan_provenance, scan_journal, scan_memo],
    ids=["PROV1", "SRVJ1", "MEMO1"],
)
def test_missing_file_is_one_not_ok_report(tmp_path, scan):
    report = scan(str(tmp_path / "absent" / "log.ndjson"))
    assert not report.ok
    assert report.error.reason == "missing"
    assert report.error.locus() == "record ?"


# ---------------------------------------------------------------------------
# filesystem chaos: the fault matrix
# ---------------------------------------------------------------------------


def write_spool(d):
    make_sealed_spool(os.path.join(d, "out.spool"), n=30)


def write_cache_entry(d):
    BuildCache(os.path.join(d, "cache")).store(
        "grammar", _key("f"), {"blob": "x" * 512}
    )


def write_provenance(d):
    rec = ProvenanceRecorder(d, "g", "generated", "S", productions=[])
    rec.begin_run("alternating", ["r2l", "l2r"])
    for k in range(2):
        rec.begin_pass(k, "r2l")
    rec.seal()


def write_journal(d):
    journal = RequestJournal(os.path.join(d, "jdir"))
    for i in range(5):
        journal.admitted(i, "g", f"in{i}")
        journal.completed(i, "g", f"out{i}", 0.01)
    journal.seal()


def write_manifest(d):
    from types import SimpleNamespace

    from repro.evalgen.driver import CheckpointManager

    mgr = CheckpointManager(d)
    plan = SimpleNamespace(
        pass_k=0, direction=SimpleNamespace(value="r2l")
    )
    mgr._header = {
        "version": 1, "grammar": "g", "strategy": "alt",
        "n_passes": 1, "directions": ["r2l"],
    }
    spool = make_sealed_spool(os.path.join(d, "pass0.spool"), n=3)
    mgr.record_pass(plan, spool)


def write_memo(d):
    from repro.core import Linguist
    from repro.grammars import load_source, scanner_and_library

    spec, library = scanner_and_library("calc")
    translator = Linguist(load_source("calc")).make_translator(
        spec, library=library
    )
    translator.translate(
        "let a = 6 ; let b = a * 7 ; print a + b",
        memo_dir=os.path.join(d, "memo"),
    )


WRITERS = [
    write_spool,
    write_cache_entry,
    write_provenance,
    write_journal,
    write_manifest,
    write_memo,
]


class TestFilesystemFaultMatrix:
    """Seeded chaos against every durable writer: after any injected
    fault, no torn sealed artifact exists, the doctor classifies every
    leftover, and a repair pass converges the tree to clean."""

    @pytest.mark.parametrize("writer", WRITERS, ids=lambda w: w.__name__)
    @pytest.mark.parametrize("seed", range(12))
    def test_fault_never_tears_a_sealed_artifact(
        self, tmp_path, writer, seed
    ):
        d = str(tmp_path)
        plan = FilesystemFaultPlan.random(seed * 31 + 7, max_bytes=1024)
        completed = False
        with plan.install():
            try:
                writer(d)
                completed = True
            except OSError:
                pass
        report = run_doctor([d])
        for art in report.artifacts:
            # Classifiable: every artifact lands in the taxonomy.
            assert art.state in (
                ArtifactState.SEALED,
                ArtifactState.UNSEALED,
                ArtifactState.UNSEALED_TMP,
                ArtifactState.CORRUPT,
                ArtifactState.ORPHANED,
                ArtifactState.FOREIGN,
            )
            # THE invariant: a fault never tears a *sealed* name.  A
            # file at its final (non-tmp) path in one of our binary
            # sealed formats must verify clean — torn content may only
            # ever live under a .tmp name.  (NDJSON journals append at
            # their final path by design and tolerate torn tails;
            # manifests are atomically replaced JSON.)
            if not art.path.endswith(".tmp") and art.format in (
                ArtifactFormat.SPOOL_V3,
                ArtifactFormat.CACHE_ENTRY,
                ArtifactFormat.PROVENANCE,
                ArtifactFormat.MEMO,
            ):
                assert art.state == ArtifactState.SEALED, (
                    f"seed {seed}: torn sealed artifact {art.render()} "
                    f"(plan {plan!r}, completed={completed})"
                )
        run_doctor([d], repair=True)
        after = run_doctor([d])
        assert after.clean, f"seed {seed}: not clean after repair"
        leaked = [
            p
            for p in _walk_files(d)
            if p.endswith(".tmp")
        ]
        assert leaked == [], f"seed {seed}: leaked tmp files {leaked}"

    def test_completed_writer_without_fault_is_sealed(self, tmp_path):
        for writer in WRITERS:
            sub = os.path.join(str(tmp_path), writer.__name__)
            os.makedirs(sub)
            writer(sub)
        report = run_doctor([str(tmp_path)])
        assert report.clean
        assert all(
            a.state == ArtifactState.SEALED for a in report.artifacts
        ), report.render()


def _walk_files(d):
    for root, _dirs, files in os.walk(d):
        for name in files:
            yield os.path.join(root, name)


# ---------------------------------------------------------------------------
# ENOSPC at every byte offset: the sealed-neighbor property
# ---------------------------------------------------------------------------


class TestEnospcProperty:
    @settings(max_examples=60, deadline=None)
    @given(at_byte=st.integers(min_value=0, max_value=2000))
    def test_enospc_never_corrupts_sealed_neighbors(self, tmp_path_factory, at_byte):
        """ENOSPC at *any* byte offset while sealing a v3 spool leaves
        the previously sealed spool in the same directory bit-perfect
        and only doctor-classifiable debris behind."""
        d = str(tmp_path_factory.mktemp("enospc"))
        sealed = make_sealed_spool(os.path.join(d, "sealed.spool"), n=10)
        before = scan_spool(sealed.path)
        assert before.ok
        plan = FilesystemFaultPlan(
            seed=at_byte,
            mode=FsFaultMode.ENOSPC_AT_BYTE,
            at_byte=at_byte,
            path_substring="victim",
        )
        with plan.install():
            try:
                make_sealed_spool(os.path.join(d, "victim.spool"), n=40)
            except OSError:
                pass
        after = scan_spool(sealed.path)
        assert after.ok and after.n_valid == before.n_valid
        report = run_doctor([d])
        for art in report.artifacts:
            if os.path.basename(art.path).startswith("victim"):
                # Either fully sealed (fault hit after the rename, or
                # budget was never crossed) or tmp debris — never a
                # torn file under the sealed name.
                assert art.state in (
                    ArtifactState.SEALED, ArtifactState.UNSEALED_TMP
                ), art.render()
        run_doctor([d], repair=True)
        assert run_doctor([d]).clean


# ---------------------------------------------------------------------------
# journal suspension / gap protocol
# ---------------------------------------------------------------------------


class TestJournalGapProtocol:
    def test_suspend_drop_resume_round_trip(self, tmp_path):
        journal = RequestJournal(str(tmp_path))
        journal.admitted(1, "g", "a")
        journal.completed(1, "g", "out", 0.01)
        journal.suspend()
        assert journal.suspended
        journal.admitted(2, "g", "b")  # dropped, counted
        journal.completed(2, "g", "out", 0.01)  # dropped, counted
        assert journal.lost_records == 2
        assert journal.resume()
        assert not journal.suspended
        journal.admitted(3, "g", "c")
        journal.completed(3, "g", "out", 0.01)
        journal.seal()
        report = scan_journal(journal.path)
        assert report.ok and report.sealed
        assert report.gaps == 1
        assert report.lost_records == 2

    def test_gap_journal_salvages_clean(self, tmp_path):
        from repro.serve.journal import replay_journal, salvage_journal

        journal = RequestJournal(str(tmp_path))
        journal.admitted(1, "g", "a")
        journal.suspend()
        journal.completed(1, "g", "out", 0.01)  # lost to the gap
        journal.resume()
        journal.admitted(2, "g", "b")
        journal.completed(2, "g", "out", 0.01)
        journal.seal()
        state = replay_journal(journal.path)
        assert 2 in state.completed
        assert 1 in state.in_flight  # its completion fell in the gap
        out = str(tmp_path / "salvaged.ndjson")
        salvage_journal(journal.path, out)
        assert scan_journal(out).ok

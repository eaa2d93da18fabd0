"""EXP-T6 — spool codec economics of the v3 block format.

The paper's evaluator is I/O bound by construction: every pass streams
the attributed parse tree through secondary storage, so bytes-per-APT-
record is the constant that multiplies through the whole §V cost model.
This benchmark measures the on-disk encoding (struct-packed node
records, interned names, block-framed CRCs) over a *real* record
stream (the initial APT of a generated Pascal program), reporting
bytes/record, write and backward-read throughput, and the block
economics (records per block, name-table size).  The retired v2
pickle-per-record format's column is frozen in EXPERIMENTS.md.  A
second table prices the adaptive spooling policy: the same translation
with the default in-memory budget versus ``--spool-memory-budget 0``
(every intermediate spool forced to sealed v3 disk files).
"""

import os
import time

from repro.apt.build import APTBuilder
from repro.apt.storage import DiskSpool, MemorySpool
from repro.core import Linguist
from repro.grammars import library_for, load_source
from repro.grammars.scanners import pascal_scanner_spec
from repro.obs import MetricsRegistry
from repro.workloads import generate_pascal_program


def _initial_apt_records(linguist, translator, n_statements=400, seed=31):
    """The real initial-spool record stream for a generated program."""
    program = generate_pascal_program(n_statements=n_statements, seed=seed)
    tokens = list(translator.scanner.tokens(program))
    spool = MemorySpool(channel="initial")
    builder = APTBuilder(linguist.ag, spool, build_tree=False)
    translator.parser.parse(tokens, listener=builder, build_tree=False)
    builder.finish()
    return list(spool.read_forward())


def _spool_cost(records, path, repeats=3):
    """Best-of-``repeats`` write/read timings + sealed file size."""
    write_best = read_best = float("inf")
    size = 0
    for _ in range(repeats):
        if os.path.exists(path):
            os.remove(path)
        start = time.perf_counter()
        spool = DiskSpool(path)
        for record in records:
            spool.append(record)
        spool.finalize()
        write_best = min(write_best, time.perf_counter() - start)
        size = os.path.getsize(path)
        start = time.perf_counter()
        reader = DiskSpool.open(path)
        n = sum(1 for _ in reader.read_backward())
        read_best = min(read_best, time.perf_counter() - start)
        assert n == len(records)
    return {"write_s": write_best, "read_s": read_best, "file_bytes": size}


def test_t6_codec_bytes_and_throughput(tmp_path, report, linguist_pascal,
                                       pascal_translator):
    records = _initial_apt_records(linguist_pascal, pascal_translator)
    n = len(records)
    v3 = _spool_cost(records, str(tmp_path / "v3.spool"))

    # v3 block economics from a metrics-instrumented write.
    metrics = MetricsRegistry()
    probe = DiskSpool(str(tmp_path / "probe.spool"), metrics=metrics)
    for record in records:
        probe.append(record)
    probe.finalize()
    snap = metrics.snapshot()
    n_blocks = snap.get("spool.codec.blocks_written", 0)
    nt_bytes = snap.get("spool.codec.nametable_bytes", 0)

    def krps(seconds):
        return n / seconds / 1000.0 if seconds > 0 else float("inf")

    lines = [
        f"EXP-T6: spool codec economics ({n} APT records, "
        "pascal initial spool)",
        f"{'format':<26} {'bytes/rec':>10} {'write krec/s':>13} "
        f"{'read krec/s':>12}",
        f"{'v3 block codec (default)':<26} {v3['file_bytes'] / n:>10.1f} "
        f"{krps(v3['write_s']):>13,.0f} {krps(v3['read_s']):>12,.0f}",
        f"v3 sealed file: {v3['file_bytes']:,} bytes",
        f"v3 blocks: {n_blocks} written "
        f"({n / max(1, n_blocks):.0f} records/block), "
        f"name table {nt_bytes:,} bytes (one copy per spool)",
    ]
    report("t6_spool_codec", "\n".join(lines))

    assert n_blocks >= 1 and nt_bytes > 0


def test_t6_adaptive_spooling_policy(report, pascal_translator):
    """Price the memory-vs-disk spooling policy on a full translation."""
    program = generate_pascal_program(n_statements=400, seed=31)
    pascal_translator.translate(program)  # warm

    def timed(budget, repeats=3):
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            pascal_translator.translate(
                program, spool_memory_budget=budget
            )
            best = min(best, time.perf_counter() - start)
        return best

    mem_s = timed(None)       # default 8 MiB budget: stays in memory
    disk_s = timed(0)         # 0 budget: every spool spills to v3 disk
    lines = [
        "EXP-T6b: adaptive spooling policy (pascal, 400 statements)",
        f"{'policy':<38} {'ms/translate':>13}",
        f"{'in-memory (default 8 MiB budget)':<38} {mem_s * 1000:>13.1f}",
        f"{'forced disk (--spool-memory-budget 0)':<38} "
        f"{disk_s * 1000:>13.1f}",
        f"memory spooling saves {100 * (1 - mem_s / disk_s):.0f}% "
        "per translation on this workload",
    ]
    report("t6b_adaptive_spooling", "\n".join(lines))
    assert mem_s > 0 and disk_s > 0


def test_t6_codec_benchmark(benchmark, tmp_path, linguist_pascal,
                            pascal_translator):
    """pytest-benchmark hook: sealed v3 write+read round trip."""
    records = _initial_apt_records(
        linguist_pascal, pascal_translator, n_statements=120, seed=23
    )
    path = str(tmp_path / "bench.spool")

    def round_trip():
        if os.path.exists(path):
            os.remove(path)
        spool = DiskSpool(path)
        for record in records:
            spool.append(record)
        spool.finalize()
        return sum(1 for _ in DiskSpool.open(path).read_backward())

    assert benchmark(round_trip) == len(records)

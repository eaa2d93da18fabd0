"""The translation hot path: exact telemetry totals, no per-record calls.

Spools charge I/O once per spool and residency is measured only on
request, so these tests pin two things.  First, every total a caller
can read (``apt.nodes``, ``io.*``, the per-pass ``pass.k.*`` rows and
``mem.peak_bytes``) holds the exact values per-record accounting
produced, with and without a spill mid-pass.  Second, a translation
without telemetry makes no per-record bookkeeping calls at all.
"""

import pytest

from repro.apt.node import APTNode
from repro.core import Linguist
from repro.grammars import load_source, scanner_and_library
from repro.obs import MetricsRegistry
from repro.obs.metrics import IOAccountant, MemoryGauge
from repro.workloads import generate_pascal_program

#: A spool budget small enough that every spool spills part-way through.
SPILL_BUDGET = 3000

#: Exact totals per (grammar, spool budget), captured from per-record
#: accounting.  The Pascal input is ``generate_pascal_program(60,
#: seed=17)``; the linguist input is ``binary.ag`` through the
#: self-generated LINGUIST translator.
PINNED = {
    ("pascal", None): {
        "apt.nodes": 2493,
        "io.records_read": 2493, "io.records_written": 4986,
        "io.bytes_read": 39061, "io.bytes_written": 68977,
        "mem.peak_bytes": 1178,
        "pass.1.records_read": 2493, "pass.1.records_written": 2493,
        "pass.1.bytes_read": 39061, "pass.1.bytes_written": 29916,
        "pass.1.peak_bytes": 1178,
    },
    ("pascal", SPILL_BUDGET): {
        "apt.nodes": 2493,
        "io.records_read": 2493, "io.records_written": 4986,
        "io.bytes_read": 38900, "io.bytes_written": 73905,
        "mem.peak_bytes": 1178,
        "pass.1.records_read": 2493, "pass.1.records_written": 2493,
        "pass.1.bytes_read": 38900, "pass.1.bytes_written": 35005,
        "pass.1.peak_bytes": 1178,
    },
    ("linguist", None): {
        "apt.nodes": 488,
        "io.records_read": 1464, "io.records_written": 1952,
        "io.bytes_read": 19612, "io.bytes_written": 25468,
        "mem.peak_bytes": 684,
        "pass.1.records_read": 488, "pass.1.records_written": 488,
        "pass.1.bytes_read": 7900, "pass.1.bytes_written": 5856,
        "pass.1.peak_bytes": 253,
        "pass.2.records_read": 488, "pass.2.records_written": 488,
        "pass.2.bytes_read": 5856, "pass.2.bytes_written": 5856,
        "pass.2.peak_bytes": 517,
        "pass.3.records_read": 488, "pass.3.records_written": 488,
        "pass.3.bytes_read": 5856, "pass.3.bytes_written": 5856,
        "pass.3.peak_bytes": 684,
    },
    ("linguist", SPILL_BUDGET): {
        "apt.nodes": 488,
        "io.records_read": 1464, "io.records_written": 1952,
        "io.bytes_read": 21296, "io.bytes_written": 27625,
        "mem.peak_bytes": 684,
        "pass.1.records_read": 488, "pass.1.records_written": 488,
        "pass.1.bytes_read": 7792, "pass.1.bytes_written": 6486,
        "pass.1.peak_bytes": 253,
        "pass.2.records_read": 488, "pass.2.records_written": 488,
        "pass.2.bytes_read": 6486, "pass.2.bytes_written": 7018,
        "pass.2.peak_bytes": 517,
        "pass.3.records_read": 488, "pass.3.records_written": 488,
        "pass.3.bytes_read": 7018, "pass.3.bytes_written": 6329,
        "pass.3.peak_bytes": 684,
    },
}


@pytest.fixture(scope="module")
def translators():
    out = {}
    for name in ("pascal", "linguist"):
        spec, library = scanner_and_library(name)
        out[name] = Linguist(load_source(name)).make_translator(
            spec, library=library
        )
    return out


INPUTS = {
    "pascal": lambda: generate_pascal_program(n_statements=60, seed=17),
    "linguist": lambda: load_source("binary"),
}


@pytest.mark.parametrize("grammar,budget", sorted(PINNED, key=str))
def test_exact_counts_match_per_record_accounting(translators, grammar, budget):
    metrics = MetricsRegistry()
    translators[grammar].translate(
        INPUTS[grammar](), metrics=metrics, spool_memory_budget=budget
    )
    snap = metrics.snapshot()
    assert {key: snap.get(key) for key in PINNED[grammar, budget]} == (
        PINNED[grammar, budget]
    )
    if budget is not None:
        # Every spool spilled after buffering some records in memory.
        assert snap["spool.spill.count"] >= 1
        assert snap["spool.spill.records"] >= snap["spool.spill.count"]
    else:
        assert "spool.spill.count" not in snap
    # A read mirrors its write, channel by channel.
    for stats in snap["io.by_channel"].values():
        if stats["records_read"]:
            assert stats["records_read"] == stats["records_written"]
            assert stats["bytes_read"] == stats["bytes_written"]


def _count_calls(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_untelemetered_translation_makes_no_per_record_calls(
    translators, monkeypatch
):
    import repro.apt.node as node_module

    calls = {}
    _count_calls(monkeypatch, APTNode, "byte_size", calls)
    _count_calls(monkeypatch, node_module, "estimate_bytes", calls)
    _count_calls(monkeypatch, MemoryGauge, "acquire", calls)
    for name in ("charge_read", "charge_write",
                 "charge_read_many", "charge_write_many"):
        _count_calls(monkeypatch, IOAccountant, name, calls)
    charges = []
    for n_statements in (50, 400):
        calls.clear()
        translators["pascal"].translate(
            generate_pascal_program(n_statements=n_statements, seed=3)
        )
        assert not {"byte_size", "estimate_bytes", "acquire"} & set(calls)
        charges.append(dict(calls))
    # One charge per spool, not per record: eight times the program,
    # the same accountant calls.
    assert charges[0] == charges[1]
    assert charges[0]


def test_untelemetered_translation_builds_no_node_objects(translators, monkeypatch):
    """The parser writes records and the passes read and write records:
    no :class:`APTNode` or :class:`TreeNode` exists on either backend,
    with either first-file strategy (pascal and linguist build the
    prefix file, binary the bottom-up one)."""
    from repro.apt.linear import TreeNode

    calls = {}
    _count_calls(monkeypatch, APTNode, "__init__", calls)
    _count_calls(monkeypatch, TreeNode, "__init__", calls)
    spec, library = scanner_and_library("pascal")
    interp = Linguist(load_source("pascal")).make_translator(
        spec, library=library, backend="interp"
    )
    spec, library = scanner_and_library("binary")
    binary = Linguist(load_source("binary")).make_translator(spec, library=library)
    program = generate_pascal_program(n_statements=50, seed=3)
    for translator, text in (
        (translators["pascal"], program),
        (interp, program),
        (translators["linguist"], load_source("calc")),
        (binary, "1101.011"),
    ):
        translator.translate(text)
    assert calls == {}

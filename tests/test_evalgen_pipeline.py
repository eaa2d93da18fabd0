"""Integration tests: file-paradigm evaluators vs the in-memory oracle.

Every combination of backend (interpretive / generated Python) and
optimization toggles (static subsumption, dead-attribute suppression)
must compute exactly the values the demand-driven oracle computes.
"""

import pytest

from repro.evalgen.driver import reconstruct_tree
from repro.passes.schedule import Direction
from repro.util.iotrack import MemoryGauge

from tests.evalharness import Pipeline, tokens_of
from tests.sample_grammars import (
    knuth_binary,
    left_flow,
    right_flow,
    synthesized_only,
    with_limb,
)

BACKENDS = ["interp", "generated"]
TOGGLES = [(True, True), (True, False), (False, True), (False, False)]


def binary_tokens(text):
    mapping = {"0": "ZERO", "1": "ONE", ".": "DOT"}
    return tokens_of([(mapping[c], c) for c in text])


class TestKnuthBinary:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("subsumption,deadness", TOGGLES)
    def test_value_101_01(self, backend, subsumption, deadness):
        pipe = Pipeline(
            knuth_binary(), subsumption=subsumption, deadness=deadness
        )
        result, _ = pipe.evaluate(binary_tokens("101.01"), backend=backend)
        assert result["VAL"] == pytest.approx(5.25)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_oracle(self, backend):
        pipe = Pipeline(knuth_binary())
        toks = binary_tokens("1101.101")
        result, _ = pipe.evaluate(toks, backend=backend)
        oracle_result, _ = pipe.oracle(toks)
        assert result["VAL"] == oracle_result["VAL"] == pytest.approx(13.625)

    @pytest.mark.parametrize("text,value", [
        ("0.0", 0.0),
        ("1.0", 1.0),
        ("0.1", 0.5),
        ("111.111", 7.875),
        ("10000.00001", 16.03125),
    ])
    def test_various_numbers(self, text, value):
        pipe = Pipeline(knuth_binary())
        result, _ = pipe.evaluate(binary_tokens(text), backend="generated")
        assert result["VAL"] == pytest.approx(value)


class TestDirectionalGrammars:
    def test_left_flow_l2r_prefix_strategy(self):
        pipe = Pipeline(left_flow(), first_direction=Direction.L2R)
        toks = tokens_of([("X", "3"), ("X", "4")])
        result, _ = pipe.evaluate(toks, backend="interp")
        assert result["OUT"] == 7

    def test_left_flow_r2l_two_passes(self):
        pipe = Pipeline(left_flow(), first_direction=Direction.R2L)
        assert pipe.assignment.n_passes == 2
        toks = tokens_of([("X", "3"), ("X", "4")])
        result, driver = pipe.evaluate(toks, backend="generated")
        assert result["OUT"] == 7
        assert len(driver.pass_times) == 2

    def test_right_flow(self):
        pipe = Pipeline(right_flow(), first_direction=Direction.R2L)
        toks = tokens_of([("X", "10"), ("X", "5")])
        result, _ = pipe.evaluate(toks, backend="generated")
        assert result["OUT"] == 15

    def test_synthesized_only(self):
        pipe = Pipeline(synthesized_only())
        # ( ( LEAF LEAF ) LEAF )
        toks = tokens_of(["LPAR", "LPAR", "LEAF", "LEAF", "RPAR", "LEAF", "RPAR"])
        result, _ = pipe.evaluate(toks, backend="interp")
        assert result["N"] == 3


class TestLimbGrammar:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_limb_common_subexpression(self, backend):
        pipe = Pipeline(with_limb())
        result, _ = pipe.evaluate(
            tokens_of([("N", "9"), ("N", "4")]), backend=backend
        )
        assert result["OUT"] == 5
        result2, _ = pipe.evaluate(
            tokens_of([("N", "4"), ("N", "9")]), backend=backend
        )
        assert result2["OUT"] == 5  # BIG - SMALL regardless of order


class TestFullTreeAgreement:
    """With dead-field suppression off, the final spool carries every
    attribute instance; the reconstructed tree must match the oracle."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("subsumption", [True, False])
    def test_knuth_full_tree(self, backend, subsumption):
        pipe = Pipeline(knuth_binary(), subsumption=subsumption, deadness=False)
        toks = binary_tokens("110.011")
        _, driver = pipe.evaluate(toks, backend=backend)
        file_tree = reconstruct_tree(pipe.ag, driver.final_spool)
        _, oracle_tree = pipe.oracle(toks)

        def compare(a, b, path="root"):
            assert a.node.symbol == b.node.symbol, path
            for attr, value in b.node.attrs.items():
                assert attr in a.node.attrs, f"{path}: missing {attr}"
                assert a.node.attrs[attr] == pytest.approx(value) \
                    if isinstance(value, float) else a.node.attrs[attr] == value, \
                    f"{path}.{attr}"
            assert len(a.children) == len(b.children), path
            for i, (ca, cb) in enumerate(zip(a.children, b.children)):
                compare(ca, cb, f"{path}[{i}]")

        compare(file_tree, oracle_tree)


class TestDeadnessEffect:
    def test_dead_suppression_reduces_io(self):
        toks = binary_tokens("1011.0101")
        lean = Pipeline(knuth_binary(), deadness=True)
        fat = Pipeline(knuth_binary(), deadness=False)
        _, d_lean = lean.evaluate(toks)
        _, d_fat = fat.evaluate(toks)
        assert d_lean.accountant.bytes_written < d_fat.accountant.bytes_written

    def test_temporary_attributes_identified(self):
        pipe = Pipeline(knuth_binary())
        temporaries = pipe.deadness.temporary_attributes()
        significant = pipe.deadness.significant_attributes()
        # LEN is defined in pass 1 and used in pass 2: significant.
        assert ("bits", "LEN") in significant
        # VAL of bit is used in the same pass it is defined... except the
        # root's VAL which outlives the final pass by definition.
        assert ("bit", "VAL") in temporaries
        assert ("number", "VAL") in significant


def block_tokens(*names, nest=0):
    """BEGIN print n1; print n2; ... END with `nest` extra nested blocks."""
    toks = ["BEGIN"]
    for i, n in enumerate(names):
        if i:
            toks.append("SEMI")
        toks.extend(["PRINT", ("NAME", n)])
    for _ in range(nest):
        toks.extend(["SEMI", "BEGIN", "PRINT", ("NAME", "x"), "END"])
    toks.append("END")
    return tokens_of(toks)


class TestContextHeavy:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("subsumption", [True, False])
    def test_lookup_results(self, backend, subsumption):
        from tests.sample_grammars import context_heavy

        pipe = Pipeline(context_heavy(), subsumption=subsumption)
        result, _ = pipe.evaluate(
            block_tokens("x", "y", nest=1), backend=backend
        )
        assert list(result["OUT"]) == [1, 2, 1]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_oracle(self, backend):
        from tests.sample_grammars import context_heavy

        pipe = Pipeline(context_heavy())
        toks = block_tokens("y", "x", "y", nest=2)
        result, _ = pipe.evaluate(toks, backend=backend)
        oracle_result, _ = pipe.oracle(toks)
        assert list(result["OUT"]) == list(oracle_result["OUT"])


class TestSubsumptionEffect:
    def test_subsumed_sites_counted(self):
        from tests.sample_grammars import context_heavy

        pipe = Pipeline(context_heavy(), subsumption=True, refine=False)
        total_subsumed = sum(p.n_subsumed for p in pipe.plans)
        assert total_subsumed >= 4  # ENV and OUT chains both subsume
        off = Pipeline(context_heavy(), subsumption=False)
        assert sum(p.n_subsumed for p in off.plans) == 0

    def test_cost_model_rejects_often_redefined_attributes(self):
        """SCALE is recomputed at every level of the Knuth grammar, so the
        cost model must leave it (and everything downstream) unallocated."""
        pipe = Pipeline(knuth_binary(), subsumption=True)
        assert not pipe.allocation.is_static("bits", "SCALE")
        assert sum(p.n_subsumed for p in pipe.plans) == 0

    def test_subsumption_preserves_results_on_stressed_grammar(self):
        """Deep inherited-context copying — the subsumption sweet spot."""
        from repro.ag import GrammarBuilder

        b = GrammarBuilder("ctx", start="root")
        b.nonterminal("root", synthesized={"OUT": "int"})
        b.nonterminal(
            "node", inherited={"DEPTH": "int", "CTX": "int"},
            synthesized={"OUT": "int"},
        )
        b.terminal("LEAF", intrinsic={"W": "int"})
        b.production("root", ["node"], functions=[
            ("node.DEPTH", "0"),
            ("node.CTX", "100"),
        ])
        # CTX copies down unchanged (implicit), DEPTH changes at each level.
        b.production("node", ["LEAF", "node"], functions=[
            ("node1.DEPTH", "node0.DEPTH + 1"),
            ("node0.OUT", "node1.OUT + LEAF.W"),
        ])
        b.production("node", ["LEAF"], functions=[
            ("node.OUT", "node.DEPTH + node.CTX + LEAF.W"),
        ])
        ag = b.finish()
        toks = tokens_of([("LEAF", "1")] * 5)
        for subsumption in (True, False):
            pipe = Pipeline(ag, subsumption=subsumption)
            for backend in BACKENDS:
                result, _ = pipe.evaluate(toks, backend=backend)
                # depth at leaf = 4, CTX = 100, leaf W = 1, plus 4 other leaves
                assert result["OUT"] == 4 + 100 + 1 + 4

    def test_name_vs_per_attribute_grouping(self):
        pipe_name = Pipeline(knuth_binary(), grouping="name")
        pipe_attr = Pipeline(knuth_binary(), grouping="per-attribute")
        n_name = sum(p.n_subsumed for p in pipe_name.plans)
        n_attr = sum(p.n_subsumed for p in pipe_attr.plans)
        # Name grouping subsumes at least as many copies (bits.SCALE ->
        # bit.SCALE crosses symbols).
        assert n_name >= n_attr
        toks = binary_tokens("10.01")
        r1, _ = pipe_name.evaluate(toks, backend="generated")
        r2, _ = pipe_attr.evaluate(toks, backend="generated")
        assert r1["VAL"] == r2["VAL"]


class TestGeneratedCode:
    def test_generated_source_is_python(self):
        from repro.evalgen.codegen_py import GeneratedEvaluator

        pipe = Pipeline(knuth_binary())
        gen = GeneratedEvaluator(pipe.ag, pipe.plans)
        src = gen.source_of_pass(1)
        assert "class Pass1Evaluator" in src
        assert "rt.get_node" in src
        compile(src, "<test>", "exec")

    def test_subsumed_copies_appear_as_comments(self):
        from repro.evalgen.codegen_py import GeneratedEvaluator
        from tests.sample_grammars import context_heavy

        pipe = Pipeline(context_heavy(), subsumption=True, refine=False)
        gen = GeneratedEvaluator(pipe.ag, pipe.plans)
        full = gen.source_of_pass(1)
        assert "subsumed" in full

    def test_trace_events_follow_paradigm(self):
        """EXP-F2 shape: get limb, get child, visit, put child, …"""
        pipe = Pipeline(with_limb())
        spool, _ = pipe.build_apt(
            tokens_of([("N", "9"), ("N", "4")]), build_tree=False
        )
        from repro.evalgen.interp import InterpretiveEvaluator
        from repro.evalgen.driver import AlternatingPassDriver

        trace = []
        driver = AlternatingPassDriver(
            pipe.ag,
            pipe.plans,
            InterpretiveEvaluator(pipe.ag).run_pass,
            library=pipe.library,
            trace=trace,
        )
        driver.run(spool, strategy="bottom-up")
        kinds = [(e.kind, e.detail) for e in trace]
        assert ("get", "PairLimb") in kinds
        assert ("visit", "PairLimb") in kinds
        # every get is balanced by a put
        gets = sum(1 for k, _ in kinds if k == "get")
        puts = sum(1 for k, _ in kinds if k == "put")
        assert gets == puts


class TestMemoryShape:
    def test_peak_resident_far_below_total(self):
        """EXP-M1 shape: the resident node stack is much smaller than the
        whole APT for a deep input."""
        pipe = Pipeline(knuth_binary())
        toks = binary_tokens("1" * 60 + "." + "1" * 60)
        spool, root = pipe.build_apt(toks, build_tree=True)
        from repro.evalgen.oracle import OracleEvaluator

        oracle = OracleEvaluator(pipe.ag, pipe.library)
        oracle.evaluate(root)
        total = oracle.total_tree_bytes
        _, driver = pipe.evaluate(toks, gauge=MemoryGauge())
        peak = driver.gauge.peak_bytes
        assert peak > 0
        assert peak < total

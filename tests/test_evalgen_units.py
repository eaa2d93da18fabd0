"""Unit tests for individual evalgen modules (beyond the pipeline tests)."""

import pytest

from repro.ag import GrammarBuilder
from repro.evalgen.deadness import analyze_deadness
from repro.evalgen.plan import ActionKind, build_pass_plans, sanitize, temp_name
from repro.evalgen.subsumption import (
    StaticAllocation,
    SubsumptionConfig,
    choose_static_attributes,
    count_subsumable_sites,
    exhaustive_allocation,
    refine_allocation,
)
from repro.passes.partition import assign_passes
from repro.passes.schedule import Direction

from tests.sample_grammars import context_heavy, env_fanout, knuth_binary


@pytest.fixture()
def knuth():
    ag = knuth_binary()
    assignment = assign_passes(ag, Direction.R2L)
    return ag, assignment


class TestDeadness:
    def test_last_use_tracks_latest_pass(self, knuth):
        ag, assignment = knuth
        dead = analyze_deadness(ag, assignment)
        # LEN defined pass 1, used in the pass-2 SCALE definition.
        assert dead.last_use[("bits", "LEN")] == 2

    def test_root_result_pinned_beyond_final_pass(self, knuth):
        ag, assignment = knuth
        dead = analyze_deadness(ag, assignment)
        assert dead.last_use[("number", "VAL")] == assignment.n_passes + 1
        assert dead.is_significant(("number", "VAL"))

    def test_fields_after_pass_progression(self, knuth):
        ag, assignment = knuth
        dead = analyze_deadness(ag, assignment)
        # After pass 1 only LEN (significant) flows; intrinsics are gone
        # (no later use), temporaries are gone.
        assert dead.fields_after_pass("bits", 1) == ["LEN"]
        # After pass 2, VAL survives only at the root.
        assert dead.fields_after_pass("number", 2) == ["VAL"]
        assert dead.fields_after_pass("bits", 2) == []

    def test_disabled_keeps_everything_defined(self, knuth):
        ag, assignment = knuth
        dead = analyze_deadness(ag, assignment, enabled=False)
        fields = dead.fields_after_pass("bits", 2)
        assert set(fields) == {"SCALE", "VAL", "LEN"}

    def test_fields_never_include_future_passes(self, knuth):
        ag, assignment = knuth
        dead = analyze_deadness(ag, assignment, enabled=False)
        assert "SCALE" not in dead.fields_after_pass("bits", 1)


class TestSubsumptionUnits:
    def test_disabled_config_empty(self, knuth):
        ag, assignment = knuth
        alloc = choose_static_attributes(
            ag, assignment, SubsumptionConfig(enabled=False)
        )
        assert len(alloc) == 0
        assert alloc.groups() == []

    def test_group_of_by_name(self):
        alloc = StaticAllocation(SubsumptionConfig(grouping="name"))
        alloc.static = {("a", "ENV"), ("b", "ENV")}
        assert alloc.group_of("a", "ENV") == alloc.group_of("b", "ENV") == "ENV"
        assert alloc.group_of("a", "OTHER") is None

    def test_group_of_per_attribute(self):
        alloc = StaticAllocation(SubsumptionConfig(grouping="per-attribute"))
        alloc.static = {("a", "ENV"), ("b", "ENV")}
        assert alloc.group_of("a", "ENV") != alloc.group_of("b", "ENV")

    def test_count_subsumable_sites_estimate(self):
        ag = context_heavy()
        assignment = assign_passes(ag, Direction.R2L)
        alloc = choose_static_attributes(ag, assignment, SubsumptionConfig())
        estimate = count_subsumable_sites(ag, assignment, alloc)
        assert estimate >= 4

    def test_refinement_promotes_chain_roots(self):
        """env_fanout's ENV chain is rejected attribute-by-attribute but
        pays globally; refinement must promote the whole group."""
        ag = env_fanout()
        assignment = assign_passes(ag, Direction.R2L)
        dead = analyze_deadness(ag, assignment)
        greedy = choose_static_attributes(ag, assignment, SubsumptionConfig())
        assert ("a", "ENV") not in greedy.static  # the local blind spot
        refined = refine_allocation(ag, assignment, greedy, dead)
        assert {("a", "ENV"), ("b", "ENV"), ("c", "ENV"), ("d", "ENV")} <= refined.static

    def test_refinement_matches_exhaustive_on_small_grammar(self):
        ag = env_fanout()
        assignment = assign_passes(ag, Direction.R2L)
        dead = analyze_deadness(ag, assignment)
        refined = refine_allocation(
            ag, assignment,
            choose_static_attributes(ag, assignment, SubsumptionConfig()),
            dead,
        )
        best, _, _ = exhaustive_allocation(ag, assignment, dead)
        assert refined.static == best.static

    def test_exhaustive_caps_candidates(self, knuth):
        ag, assignment = knuth
        dead = analyze_deadness(ag, assignment)
        with pytest.raises(ValueError):
            exhaustive_allocation(ag, assignment, dead, max_candidates=2)


class TestPlans:
    def build(self, ag, subsumption=True):
        assignment = assign_passes(ag, Direction.R2L)
        dead = analyze_deadness(ag, assignment)
        config = SubsumptionConfig(enabled=subsumption)
        alloc = choose_static_attributes(ag, assignment, config)
        if subsumption:
            alloc = refine_allocation(ag, assignment, alloc, dead)
        return assignment, build_pass_plans(ag, assignment, dead, alloc)

    def test_one_plan_per_production_per_pass(self):
        ag = knuth_binary()
        assignment, plans = self.build(ag)
        assert len(plans) == assignment.n_passes
        for pp in plans:
            assert set(pp.plans) == {p.index for p in ag.productions}

    def test_actions_balance_gets_and_puts(self):
        ag = knuth_binary()
        _, plans = self.build(ag)
        for pp in plans:
            for ep in pp.plans.values():
                gets = sum(1 for a in ep.actions if a.kind is ActionKind.GET)
                puts = sum(1 for a in ep.actions if a.kind is ActionKind.PUT)
                assert gets == puts

    def test_entry_saves_paired_with_restores(self):
        ag = env_fanout()
        _, plans = self.build(ag)
        for pp in plans:
            for ep in pp.plans.values():
                saves = [a for a in ep.actions if a.kind is ActionKind.ENTRY_SAVE]
                restores = [a for a in ep.actions if a.kind is ActionKind.EXIT_RESTORE]
                assert sorted(a.group for a in saves) == sorted(
                    a.group for a in restores
                )
                if saves:
                    assert ep.actions[0].kind is ActionKind.ENTRY_SAVE
                    assert ep.actions[-1].kind is ActionKind.EXIT_RESTORE

    def test_subsume_actions_only_with_subsumption_on(self):
        ag = env_fanout()
        _, plans_on = self.build(ag, subsumption=True)
        _, plans_off = self.build(ag, subsumption=False)
        assert sum(p.n_subsumed for p in plans_on) > 0
        assert sum(p.n_subsumed for p in plans_off) == 0

    def test_plan_render_readable(self):
        ag = env_fanout()
        _, plans = self.build(ag)
        text = plans[0].plans[1].render(ag)
        assert "GetNode" in text
        assert "visit" in text

    def test_sanitize_and_temp_names(self):
        assert sanitize("stmt$list") == "stmt_list"
        assert temp_name((2, "A$B")) == "t2_A_B"
        assert temp_name((-1, "X")) == "tL_X"

    def test_refmaps_are_complete(self):
        """Every argument of every COMPUTE has a resolved source."""
        from repro.ag.dependencies import binding_argument_keys

        ag = context_heavy()
        _, plans = self.build(ag)
        for pp in plans:
            for ep in pp.plans.values():
                for action in ep.actions:
                    if action.kind is ActionKind.COMPUTE:
                        for key in binding_argument_keys(action.binding):
                            assert key in action.refmap


class TestCodegenUnits:
    def test_python_expr_compilation(self):
        from repro.ag.exprtext import parse_expression
        from repro.ag.expr import AttrRef
        from repro.evalgen.codegen_py import PythonCodeGenerator

        ag = knuth_binary()
        gen = PythonCodeGenerator(ag)
        refmap = {
            (1, "A"): ("field", 1, "A"),
            (0, "B"): ("temp", "t0_B"),
            (2, "C"): ("global", "CTX"),
        }
        expr = parse_expression("if x1.A = 1 then x0.B else f(x2.C, 'q') endif")
        resolved = _resolve_for_test(expr)
        code = gen.compile_expr(resolved, refmap)
        assert "n1[2]['A']" in code
        assert "t0_B" in code
        assert "self.g_CTX" in code
        assert "rt.call('f'" in code

    def test_pascal_expr_compilation(self):
        from repro.ag.exprtext import parse_expression
        from repro.evalgen.codegen_pascal import PascalCodeGenerator

        ag = knuth_binary()
        gen = PascalCodeGenerator(ag)
        prod = ag.productions[1]  # bits = bits bit
        refmap = {(1, "SCALE"): ("field", 1, "SCALE")}
        expr = _resolve_for_test(parse_expression("x1.SCALE + 1"))
        code = gen.compile_expr(expr, refmap, prod)
        assert code == "(BITS1.SCALE + 1)"

    def test_pascal_refuses_if_in_expression_position(self):
        from repro.ag.expr import Const, If
        from repro.evalgen.codegen_pascal import PascalCodeGenerator
        from repro.errors import GenerationError

        gen = PascalCodeGenerator(knuth_binary())
        with pytest.raises(GenerationError):
            gen.compile_expr(
                If(Const(True), (Const(1),), (Const(2),)),
                {}, knuth_binary().productions[0],
            )

    def test_husk_equal_across_passes(self):
        from repro.evalgen.codegen_pascal import PascalCodeGenerator
        from repro.evalgen.deadness import analyze_deadness

        ag = knuth_binary()
        assignment = assign_passes(ag, Direction.R2L)
        dead = analyze_deadness(ag, assignment)
        alloc = StaticAllocation(SubsumptionConfig())
        plans = build_pass_plans(ag, assignment, dead, alloc)
        artifacts = PascalCodeGenerator(ag).generate_all(plans)
        assert artifacts[0].husk_bytes == artifacts[1].husk_bytes

    def test_semantic_code_reduction_helper(self):
        from repro.evalgen.husk import CodeSizeReport, PassSize, semantic_code_reduction

        with_sub = CodeSizeReport("g", "pascal", [PassSize(1, 100, 60, 40, 3)])
        without = CodeSizeReport("g", "pascal", [PassSize(1, 110, 60, 50, 0)])
        assert semantic_code_reduction(with_sub, without) == pytest.approx(20.0)
        empty = CodeSizeReport("g", "pascal", [PassSize(1, 0, 0, 0, 0)])
        assert semantic_code_reduction(empty, empty) == 0.0


def _resolve_for_test(expr):
    """Resolve occurrence names x<k> to position k for codegen unit tests."""
    from repro.ag.expr import AttrRef, BinOp, Call, Const, If, Not

    def walk(node):
        if isinstance(node, AttrRef):
            return AttrRef(node.occ_name, node.attr_name,
                           int(node.occ_name[1:]) if node.occ_name else None)
        if isinstance(node, Not):
            return Not(walk(node.body))
        if isinstance(node, BinOp):
            return BinOp(node.op, walk(node.left), walk(node.right))
        if isinstance(node, Call):
            return Call(node.func, tuple(walk(a) for a in node.args))
        if isinstance(node, If):
            else_b = (walk(node.else_branch) if isinstance(node.else_branch, If)
                      else tuple(walk(e) for e in node.else_branch))
            return If(walk(node.cond), tuple(walk(e) for e in node.then_branch), else_b)
        return node

    return walk(expr)


class TestOracleErrors:
    def test_wrong_root_symbol(self):
        from repro.apt.linear import TreeNode
        from repro.apt.node import APTNode
        from repro.errors import EvaluationError
        from repro.evalgen.oracle import OracleEvaluator

        ag = knuth_binary()
        oracle = OracleEvaluator(ag)
        with pytest.raises(EvaluationError):
            oracle.evaluate(TreeNode(APTNode("bits", production=1)))

    def test_missing_intrinsic_reported(self):
        from repro.apt.linear import TreeNode
        from repro.apt.node import APTNode
        from repro.errors import EvaluationError
        from repro.evalgen.oracle import OracleEvaluator
        from tests.sample_grammars import left_flow

        ag = left_flow()
        # root = item item ; item = X, but X lacks its intrinsic W.
        x1 = TreeNode(APTNode("X"))
        x2 = TreeNode(APTNode("X"))
        item1 = TreeNode(APTNode("item", production=1), [x1])
        item2 = TreeNode(APTNode("item", production=1), [x2])
        root = TreeNode(APTNode("root", production=0), [item1, item2])
        with pytest.raises(EvaluationError) as exc:
            OracleEvaluator(ag).evaluate(root)
        assert "intrinsic" in str(exc.value)


class TestRuntimeErrors:
    def test_out_of_phase_symbol(self):
        from repro.errors import EvaluationError
        from repro.evalgen.runtime import EvaluatorRuntime
        from repro.apt.storage import MemorySpool

        spool = MemorySpool()
        spool.append(("WRONG", None, {}, False))
        spool.finalize()
        out = MemorySpool()
        rt = EvaluatorRuntime(spool.read_forward(), out)
        with pytest.raises(EvaluationError) as exc:
            rt.get("EXPECTED")
        assert "out of phase" in str(exc.value)

    def test_exhausted_input(self):
        from repro.errors import EvaluationError
        from repro.evalgen.runtime import EvaluatorRuntime
        from repro.apt.storage import MemorySpool

        spool = MemorySpool()
        spool.finalize()
        rt = EvaluatorRuntime(spool.read_forward(), MemorySpool())
        with pytest.raises(EvaluationError):
            rt.get("S")

    def test_missing_external_function(self):
        from repro.errors import EvaluationError
        from repro.evalgen.runtime import FunctionLibrary

        lib = FunctionLibrary(use_standard=False)
        with pytest.raises(EvaluationError) as exc:
            lib.call("NoSuchFn", 1)
        assert "NoSuchFn" in str(exc.value)

    def test_constants_resolution(self):
        from repro.evalgen.runtime import FunctionLibrary

        lib = FunctionLibrary(constants={"int$t": "INT"})
        assert lib.constant("int$t") == "INT"
        assert lib.constant("unknown$c") == "unknown$c"  # its own name

    def test_at_end_peeks_without_consuming(self):
        from repro.evalgen.runtime import EvaluatorRuntime
        from repro.apt.storage import MemorySpool

        spool = MemorySpool()
        spool.append(("S", None, {}, False))
        spool.finalize()
        rt = EvaluatorRuntime(spool.read_forward(), MemorySpool())
        assert not rt.at_end()
        node = rt.get("S")
        assert node[0] == "S"
        assert rt.at_end()


class TestDriverUnits:
    def test_reconstruct_tree_round_trip(self):
        from repro.apt.linear import TreeNode, iter_bottom_up
        from repro.apt.node import APTNode
        from repro.apt.storage import MemorySpool
        from repro.evalgen.driver import reconstruct_tree
        from tests.sample_grammars import with_limb

        ag = with_limb()
        limb = APTNode("PairLimb", production=1, is_limb=True)
        leaf1 = TreeNode(APTNode("N", attrs={"V": 9}))
        leaf2 = TreeNode(APTNode("N", attrs={"V": 4}))
        pair = TreeNode(APTNode("pair", production=1), [leaf1, leaf2], limb)
        root = TreeNode(APTNode("root", production=0), [pair])
        spool = MemorySpool()
        for node in iter_bottom_up(root):
            spool.append((node.symbol, node.production, node.attrs, node.is_limb))
        spool.finalize()
        rebuilt = reconstruct_tree(ag, spool)
        assert rebuilt.node.symbol == "root"
        assert rebuilt.children[0].limb.symbol == "PairLimb"
        assert rebuilt.children[0].children[0].node.attrs["V"] == 9

    def test_strategy_direction_mismatch_rejected(self):
        from repro.apt.storage import MemorySpool
        from repro.errors import EvaluationError
        from tests.evalharness import Pipeline
        from tests.sample_grammars import knuth_binary as kb

        pipe = Pipeline(kb(), first_direction=Direction.R2L)
        spool = MemorySpool()
        spool.finalize()
        driver = pipe.driver()
        with pytest.raises(EvaluationError):
            driver.run(spool, strategy="prefix")

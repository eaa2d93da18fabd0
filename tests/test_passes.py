"""Unit tests for the alternating-pass evaluability analysis (S8)."""

import random

import pytest

from repro.ag.copyrules import production_bindings
from repro.ag.model import AttrKind
from repro.errors import PassError
from repro.frontend import load_grammar
from repro.grammars import load_source
from repro.passes import (
    Direction,
    StepKind,
    assign_passes,
    direction_of_pass,
    render_pass_report,
)
from repro.passes.partition import DEFAULT_MAX_PASSES, choose_first_direction
from repro.passes.schedule import INTRINSIC_PASS, schedule_production

from tests.sample_grammars import (
    context_heavy,
    env_fanout,
    knuth_binary,
    left_flow,
    right_flow,
    synthesized_only,
    with_limb,
    zigzag_unbounded,
)


class TestDirections:
    def test_alternation_from_r2l(self):
        assert direction_of_pass(1, Direction.R2L) is Direction.R2L
        assert direction_of_pass(2, Direction.R2L) is Direction.L2R
        assert direction_of_pass(3, Direction.R2L) is Direction.R2L

    def test_alternation_from_l2r(self):
        assert direction_of_pass(1, Direction.L2R) is Direction.L2R
        assert direction_of_pass(2, Direction.L2R) is Direction.R2L

    def test_opposite(self):
        assert Direction.L2R.opposite is Direction.R2L
        assert Direction.R2L.opposite is Direction.L2R


class TestPassCounts:
    def test_synthesized_only_one_pass_both_directions(self):
        ag = synthesized_only()
        assert assign_passes(ag, Direction.R2L).n_passes == 1
        assert assign_passes(ag, Direction.L2R).n_passes == 1

    def test_left_flow_depends_on_direction(self):
        ag = left_flow()
        assert assign_passes(ag, Direction.L2R).n_passes == 1
        # Starting right-to-left, ACC of the right item needs TOT of the
        # left item, which is only available in the second (L2R) pass.
        assert assign_passes(ag, Direction.R2L).n_passes == 2

    def test_right_flow_mirror(self):
        ag = right_flow()
        assert assign_passes(ag, Direction.R2L).n_passes == 1
        assert assign_passes(ag, Direction.L2R).n_passes == 2

    def test_knuth_binary_two_passes(self):
        ag = knuth_binary()
        assignment = assign_passes(ag, Direction.R2L)
        assert assignment.n_passes == 2
        # LEN is computable in pass 1; SCALE and VAL must wait.
        assert assignment.pass_of("bits", "LEN") == 1
        assert assignment.pass_of("bits", "SCALE") == 2
        assert assignment.pass_of("bits", "VAL") == 2
        assert assignment.pass_of("bit", "SCALE") == 2

    def test_zigzag_rejected(self):
        ag = zigzag_unbounded()
        with pytest.raises(PassError) as exc:
            assign_passes(ag, Direction.R2L, max_passes=8)
        assert "not evaluable" in str(exc.value)
        with pytest.raises(PassError):
            assign_passes(ag, Direction.L2R, max_passes=8)

    def test_choose_first_direction_picks_cheaper(self):
        assignment = choose_first_direction(left_flow())
        assert assignment.first_direction is Direction.L2R
        assert assignment.n_passes == 1
        assignment = choose_first_direction(right_flow())
        assert assignment.first_direction is Direction.R2L

    def test_choose_first_direction_rejects_zigzag(self):
        with pytest.raises(PassError):
            choose_first_direction(zigzag_unbounded(), max_passes=6)

    def test_intrinsic_attrs_in_pass_zero(self):
        ag = left_flow()
        assignment = assign_passes(ag, Direction.L2R)
        assert assignment.attr_pass[("X", "W")] == INTRINSIC_PASS

    def test_function_pass_numbers_stamped(self):
        ag = knuth_binary()
        assign_passes(ag, Direction.R2L)
        leaf_bits = ag.productions[2]
        passes = sorted({f.pass_number for f in leaf_bits.functions})
        assert passes == [1, 2]  # LEN in pass 1, VAL/SCALE copies in pass 2

    def test_limb_attribute_gets_pass(self):
        ag = with_limb()
        assignment = assign_passes(ag, Direction.R2L)
        assert assignment.pass_of("PairLimb", "DIFF") == 1
        assert assignment.n_passes == 1


class TestSchedules:
    def test_skeleton_order_l2r(self):
        ag = left_flow()
        assignment = assign_passes(ag, Direction.L2R)
        prod = ag.productions[0]  # root = item item
        steps = assignment.schedule(prod, 1).steps
        ops = [(s.kind, s.position) for s in steps if s.kind is not StepKind.EVAL]
        assert ops == [
            (StepKind.READ, 1),
            (StepKind.VISIT, 1),
            (StepKind.WRITE, 1),
            (StepKind.READ, 2),
            (StepKind.VISIT, 2),
            (StepKind.WRITE, 2),
        ]

    def test_skeleton_order_r2l(self):
        ag = right_flow()
        assignment = assign_passes(ag, Direction.R2L)
        prod = ag.productions[0]
        steps = assignment.schedule(prod, 1).steps
        reads = [s.position for s in steps if s.kind is StepKind.READ]
        assert reads == [2, 1]

    def test_inherited_eval_precedes_visit(self):
        ag = left_flow()
        assignment = assign_passes(ag, Direction.L2R)
        prod = ag.productions[0]
        steps = assignment.schedule(prod, 1).steps
        visit1 = next(i for i, s in enumerate(steps)
                      if s.kind is StepKind.VISIT and s.position == 1)
        acc_evals = [
            i for i, s in enumerate(steps)
            if s.kind is StepKind.EVAL
            and s.binding.target.position == 1
            and s.binding.target.attr_name == "ACC"
        ]
        assert acc_evals and all(i < visit1 for i in acc_evals)

    def test_terminals_read_and_written_not_visited(self):
        ag = knuth_binary()
        assignment = assign_passes(ag, Direction.R2L)
        prod = ag.productions[0]  # number = bits DOT bits
        steps = assignment.schedule(prod, 1).steps
        dot_ops = [s.kind for s in steps if s.position == 2 and s.kind is not StepKind.EVAL]
        assert dot_ops == [StepKind.READ, StepKind.WRITE]

    def test_limb_read_first_written_last(self):
        from repro.ag.model import LIMB_POSITION

        ag = with_limb()
        assignment = assign_passes(ag, Direction.R2L)
        prod = ag.productions[1]
        steps = assignment.schedule(prod, 1).steps
        assert steps[0].kind is StepKind.READ
        assert steps[0].position == LIMB_POSITION
        assert steps[-1].kind is StepKind.WRITE
        assert steps[-1].position == LIMB_POSITION

    def test_early_synthesized_eval(self):
        """The §III loosening: an LHS synthesized attribute whose arguments
        are ready before the last child visit is evaluated early."""
        from repro.ag import GrammarBuilder

        b = GrammarBuilder("early", start="root")
        b.nonterminal("root", synthesized={"OUT": "int"})
        b.nonterminal("u", synthesized={"V": "int"})
        b.terminal("T", intrinsic={"W": "int"})
        b.production("root", ["T", "u"], functions=[
            ("root.OUT", "T.W"),  # ready right after reading T
        ])
        b.production("u", ["T"], functions=[("u.V", "T.W")])
        ag = b.finish()
        assignment = assign_passes(ag, Direction.L2R)
        steps = assignment.schedule(ag.productions[0], 1).steps
        eval_i = next(i for i, s in enumerate(steps) if s.kind is StepKind.EVAL)
        visit_u = next(i for i, s in enumerate(steps) if s.kind is StepKind.VISIT)
        assert eval_i < visit_u

    def test_schedule_renders(self):
        ag = with_limb()
        assignment = assign_passes(ag, Direction.R2L)
        prod = ag.productions[1]
        text = "\n".join(s.render(prod) for s in assignment.schedule(prod, 1).steps)
        assert "get PairLimb" in text
        assert "eval" in text

    def test_report_renders(self):
        ag = knuth_binary()
        assignment = assign_passes(ag, Direction.R2L)
        text = render_pass_report(assignment)
        assert "2 alternating pass(es)" in text
        assert "bits.LEN" in text
        assert "intrinsic" not in text or "parser" in text


class TestScheduleFailureReporting:
    def test_failed_bindings_identified(self):
        ag = left_flow()
        # Force a wrong assignment: everything in pass 1, direction R2L.
        attr_pass = {
            ("root", "OUT"): 1,
            ("item", "ACC"): 1,
            ("item", "TOT"): 1,
            ("X", "W"): INTRINSIC_PASS,
        }
        result = schedule_production(
            ag, ag.productions[0], 1, Direction.R2L, attr_pass
        )
        assert not result.ok
        failed_targets = {str(b.target) for b in result.failed}
        # item1.ACC needs item0.TOT: impossible right-to-left in pass 1.
        assert any("ACC" in t for t in failed_targets)


# ---------------------------------------------------------------------------
# the worklist fixpoint against the round-robin one
# ---------------------------------------------------------------------------


def round_robin_assignment(ag, first, max_passes=DEFAULT_MAX_PASSES):
    """Reference oracle: monotone deferral where every round re-simulates
    every production at every pass it defines something in, then every
    (production, pass) pair once more for the schedules.  Returns
    ``(attr_pass, n_passes, schedules)`` or raises :class:`PassError`."""
    attr_pass = {
        (sym.name, attr.name):
            INTRINSIC_PASS if attr.kind is AttrKind.INTRINSIC else 1
        for sym in ag.symbols.values()
        for attr in sym.attributes.values()
    }

    def simulate(prod, pass_k):
        return schedule_production(
            ag, prod, pass_k, direction_of_pass(pass_k, first), attr_pass
        )

    while attr_pass:
        bumped = set()
        for prod in ag.productions:
            passes = {attr_pass[(b.target.symbol, b.target.attr_name)]
                      for b in production_bindings(prod)}
            for pass_k in sorted(passes - {INTRINSIC_PASS}):
                bumped.update((b.target.symbol, b.target.attr_name)
                              for b in simulate(prod, pass_k).failed)
        if not bumped:
            break
        for attr_id in bumped:
            attr_pass[attr_id] += 1
        overflow = sorted(a for a in bumped if attr_pass[a] > max_passes)
        if overflow:
            raise PassError(
                f"attribute grammar {ag.name!r} is not evaluable in "
                f"{max_passes} alternating passes (first pass "
                f"{first.value}); attributes that keep escaping: "
                + ", ".join(f"{s}.{a}" for s, a in overflow)
            )
    n_passes = max(attr_pass.values(), default=0)
    schedules = {(prod.index, pass_k): simulate(prod, pass_k)
                 for prod in ag.productions
                 for pass_k in range(1, n_passes + 1)}
    return attr_pass, n_passes, schedules


def chain_source(levels, copies, second_pass, seed=7):
    """A seeded chain grammar as the benchmark's build workload makes it."""
    from perfbench.inputs import generate_grammar

    return generate_grammar(levels, copies, second_pass,
                            random.Random(seed), f"chain{levels}").source


#: Grammar makers: the shipped grammars, the sample grammars, and every
#: perfbench build-grammar shape (levels, implicit copy-rules, second
#: alternating pass).
EQUIVALENCE_CASES = {
    **{name: (lambda name=name: load_grammar(load_source(name)))
       for name in ("binary", "calc", "pascal", "asm", "linguist")},
    **{make.__name__: make
       for make in (synthesized_only, left_flow, right_flow, knuth_binary,
                    context_heavy, with_limb, env_fanout)},
    **{f"chain{levels}{'c' * copies}{'e' * second}":
       (lambda shape=(levels, copies, second):
        load_grammar(chain_source(*shape)))
       for levels, copies, second in ((6, False, False), (9, True, False),
                                      (12, False, True), (16, True, True),
                                      (56, False, True))},
}


@pytest.mark.parametrize("first", [Direction.R2L, Direction.L2R],
                         ids=["r2l", "l2r"])
@pytest.mark.parametrize("make", list(EQUIVALENCE_CASES.values()),
                         ids=list(EQUIVALENCE_CASES))
def test_worklist_matches_round_robin(make, first):
    attr_pass, n_passes, schedules = round_robin_assignment(make(), first)
    assignment = assign_passes(make(), first)
    assert assignment.attr_pass == attr_pass
    assert assignment.n_passes == n_passes
    assert list(assignment.schedules) == list(schedules)
    productions = assignment.grammar.productions
    for (index, pass_k), expected in schedules.items():
        got = assignment.schedules[(index, pass_k)]
        assert got.ok
        assert ([step.render(productions[index]) for step in got.steps]
                == [step.render(productions[index])
                    for step in expected.steps]), (index, pass_k)


@pytest.mark.parametrize("make, max_passes", [
    (zigzag_unbounded, DEFAULT_MAX_PASSES),
    (zigzag_unbounded, 3),
    (lambda: load_grammar(load_source("linguist")), 2),
    (lambda: load_grammar(load_source("binary")), 1),
    (lambda: load_grammar(chain_source(16, True, True)), 1),
], ids=["zigzag", "zigzag-3", "linguist-2", "binary-1", "chain16ce-1"])
@pytest.mark.parametrize("first", [Direction.R2L, Direction.L2R],
                         ids=["r2l", "l2r"])
def test_worklist_raises_the_round_robin_pass_error(make, max_passes, first):
    with pytest.raises(PassError) as expected:
        round_robin_assignment(make(), first, max_passes)
    with pytest.raises(PassError) as got:
        assign_passes(make(), first, max_passes)
    assert str(got.value) == str(expected.value)


# ---------------------------------------------------------------------------
# exact simulation counts
# ---------------------------------------------------------------------------

#: ``schedule_production`` calls per grammar: (``assign_passes`` right
#: to left, a whole ``Linguist`` build with fusion).  The round-robin
#: fixpoint, with fusion re-simulating its accepted schedules, made
#: 763 / 843 (pascal), 1273 / 1730 (linguist) and 9968 / 9969 (the
#: 56-level second-pass chain).
SIMULATIONS = {
    "pascal": (273, 313),
    "linguist": (459, 688),
    "chain56e": (561, 562),
}


@pytest.mark.parametrize("name", sorted(SIMULATIONS))
def test_simulation_counts_are_pinned(name, monkeypatch):
    import repro.passes.fusion as fusion
    import repro.passes.partition as partition
    from repro.core import Linguist

    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return schedule_production(*args, **kwargs)

    monkeypatch.setattr(partition, "schedule_production", counting)
    monkeypatch.setattr(fusion, "schedule_production", counting)
    source = (chain_source(56, False, True) if name == "chain56e"
              else load_source(name))
    assign_passes(load_grammar(source), Direction.R2L)
    assigned, calls[0] = calls[0], 0
    Linguist(source)
    assert (assigned, calls[0]) == SIMULATIONS[name]

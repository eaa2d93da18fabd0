"""The plan memo (:class:`repro.evalgen.plan.PlanMemo`) against full
rebuilds.

* **Oracle:** refinement that rebuilds every production's plan in every
  pass for each trial allocation (the algorithm before the memo) picks
  the same static set, and generation renders the same plans.
* **Key soundness:** memoized ``build_pass_plans``, warmed by earlier
  draws, returns exactly the plans a fresh build returns, and the
  memo's summed line costs equal a walk over those plans.
* **Pinned counts:** ``_PlanBuilder.build`` calls per ``Linguist`` build.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.evalgen.plan as plan_module
from repro.ag.copyrules import production_bindings
from repro.ag.model import AttrKind, LIMB_POSITION
from repro.evalgen.deadness import analyze_deadness
from repro.evalgen.plan import ActionKind, PlanMemo, build_pass_plans
from repro.evalgen.subsumption import (
    StaticAllocation,
    SubsumptionConfig,
    _attr_symbol_of_ref,
    _group_costs,
    choose_static_attributes,
    refine_allocation,
)
from repro.frontend import load_grammar
from repro.grammars import load_source
from repro.passes.fusion import fuse_assignment
from repro.passes.partition import assign_passes
from repro.passes.schedule import Direction

from tests.sample_grammars import (
    context_heavy,
    env_fanout,
    knuth_binary,
    left_flow,
    right_flow,
    synthesized_only,
    with_limb,
)
from tests.test_passes import EQUIVALENCE_CASES


def prepare(ag, fused):
    """The assignment and deadness ``Linguist`` would plan against."""
    assignment = assign_passes(ag, Direction.R2L)
    if fused:
        assignment = fuse_assignment(ag, assignment).assignment
    return assignment, analyze_deadness(ag, assignment)


# ---------------------------------------------------------------------------
# the oracle: refinement by full rebuilds
# ---------------------------------------------------------------------------


def walk_group_costs(ag, plans, allocation):
    """Weighted generated-line counts per static group, by a walk over
    every action of every plan."""
    static_lines = {g: 0 for g in allocation.groups()}
    normal_lines = {g: 0 for g in allocation.groups()}
    for pass_plan in plans:
        for eplan in pass_plan.plans.values():
            prod = ag.productions[eplan.production]
            for action in eplan.actions:
                kind = action.kind
                if kind in (ActionKind.SNAPSHOT, ActionKind.SETGLOBAL,
                            ActionKind.ENTRY_SAVE, ActionKind.EXIT_RESTORE):
                    if action.group in static_lines:
                        static_lines[action.group] += 1
                elif kind in (ActionKind.COMPUTE, ActionKind.SUBSUME):
                    t = action.binding.target
                    g = allocation.group_of(t.symbol, t.attr_name)
                    if g in static_lines:
                        normal_lines[g] += 1
                        if kind is ActionKind.COMPUTE:
                            static_lines[g] += 1
                elif kind is ActionKind.PUT:
                    for attr_name, source in action.fields:
                        if source[0] != "field":
                            g = allocation.group_of(
                                _attr_symbol_of_ref(prod, action.position),
                                attr_name)
                            if g in static_lines:
                                static_lines[g] += 1
        for _attr, g in pass_plan.root_exports:
            if g in static_lines:
                static_lines[g] += 1
    return static_lines, normal_lines


def full_rebuild_refinement(ag, assignment, allocation, deadness, max_rounds=12):
    """Reference oracle: demote and promote groups like
    ``refine_allocation``, measuring every trial allocation with a fresh
    ``build_pass_plans`` of every production in every pass."""
    config = allocation.config
    if not config.enabled:
        return allocation

    def group_of(attr_id):
        return StaticAllocation(config, static={attr_id}).group_of(*attr_id)

    candidates = {}
    for sym in ag.symbols.values():
        for attr in sym.attributes.values():
            if attr.kind in (AttrKind.INHERITED, AttrKind.SYNTHESIZED):
                attr_id = (sym.name, attr.name)
                candidates.setdefault(group_of(attr_id), set()).add(attr_id)
    copy_counts = {g: 0 for g in candidates}
    for prod in ag.productions:
        for b in production_bindings(prod):
            src = b.copy_source()
            if src is None or src.position == LIMB_POSITION:
                continue
            target_id = (b.target.symbol, b.target.attr_name)
            src_id = (_attr_symbol_of_ref(prod, src.position), src.attr_name)
            if (group_of(target_id) == group_of(src_id)
                    and group_of(target_id) in copy_counts
                    and assignment.attr_pass.get(src_id)
                    == assignment.attr_pass.get(target_id)):
                copy_counts[group_of(target_id)] += 1
    promotable = {g for g, n in copy_counts.items() if n >= 2}

    def measure(static):
        trial = StaticAllocation(config, static=set(static))
        plans = build_pass_plans(ag, assignment, deadness, trial)
        return walk_group_costs(ag, plans, trial)

    for _ in range(max_rounds):
        static_lines, normal_lines = measure(allocation.static)
        losers = [g for g in static_lines
                  if static_lines[g] >= normal_lines.get(g, 0)]
        if losers:
            allocation.static = {a for a in allocation.static
                                 if allocation.group_of(*a) not in losers}
            continue
        current_groups = set(allocation.groups())
        promoted = False
        for group, members in sorted(candidates.items()):
            if group in current_groups or group not in promotable:
                continue
            trial_static = set(allocation.static) | members
            s_lines, n_lines = measure(trial_static)
            if s_lines.get(group, 0) < n_lines.get(group, 0):
                allocation.static = trial_static
                promoted = True
                break
        if not promoted:
            break
    return allocation


def rendered(ag, plans):
    return [[pass_plan.pass_k, pass_plan.groups, pass_plan.root_exports]
            + [plan.render(ag) for plan in pass_plan.plans.values()]
            for pass_plan in plans]


@pytest.mark.parametrize("fused", [True, False], ids=["fused", "unfused"])
@pytest.mark.parametrize("grouping", ["name", "per-attribute"])
@pytest.mark.parametrize("make", list(EQUIVALENCE_CASES.values()),
                         ids=list(EQUIVALENCE_CASES))
def test_memo_refinement_matches_full_rebuilds(make, grouping, fused):
    ag = make()
    assignment, deadness = prepare(ag, fused)
    config = SubsumptionConfig(grouping=grouping)
    expected = full_rebuild_refinement(
        ag, assignment, choose_static_attributes(ag, assignment, config),
        deadness)
    memo = PlanMemo(ag, assignment, deadness)
    got = refine_allocation(
        ag, assignment, choose_static_attributes(ag, assignment, config),
        deadness, memo=memo)
    assert got.static == expected.static
    fresh = build_pass_plans(ag, assignment, deadness, expected)
    reused = build_pass_plans(ag, assignment, deadness, got, memo)
    assert rendered(ag, reused) == rendered(ag, fresh)
    assert reused == fresh


# ---------------------------------------------------------------------------
# key soundness: memoized plans are the plans a fresh build makes
# ---------------------------------------------------------------------------

PROPERTY_GRAMMARS = {
    **{make.__name__: make
       for make in (synthesized_only, left_flow, right_flow, knuth_binary,
                    context_heavy, with_limb, env_fanout)},
    **{name: (lambda name=name: load_grammar(load_source(name)))
       for name in ("calc", "asm")},
}

#: (grammar, fused) -> (ag, assignment, deadness, memo, candidates).  One
#: memo per grammar outlives the examples and serves both groupings, so
#: each draw meets a memo warmed by earlier draws.
_SETUPS = {}


def setup_for(name, fused):
    if (name, fused) not in _SETUPS:
        ag = PROPERTY_GRAMMARS[name]()
        assignment, deadness = prepare(ag, fused)
        candidates = sorted(
            (sym.name, attr.name)
            for sym in ag.symbols.values()
            for attr in sym.attributes.values()
            if attr.kind in (AttrKind.INHERITED, AttrKind.SYNTHESIZED))
        _SETUPS[(name, fused)] = (ag, assignment, deadness,
                                  PlanMemo(ag, assignment, deadness),
                                  candidates)
    return _SETUPS[(name, fused)]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_memoized_plans_equal_fresh_plans(data):
    name = data.draw(st.sampled_from(sorted(PROPERTY_GRAMMARS)), label="grammar")
    fused = data.draw(st.booleans(), label="fused")
    ag, assignment, deadness, memo, candidates = setup_for(name, fused)
    for _ in range(data.draw(st.integers(1, 4), label="draws")):
        grouping = data.draw(st.sampled_from(["name", "per-attribute"]),
                             label="grouping")
        static = data.draw(st.sets(st.sampled_from(candidates)), label="static")
        allocation = StaticAllocation(SubsumptionConfig(grouping=grouping),
                                      static=static)
        fresh = build_pass_plans(ag, assignment, deadness, allocation)
        memoized = build_pass_plans(ag, assignment, deadness, allocation, memo)
        assert rendered(ag, memoized) == rendered(ag, fresh)
        assert memoized == fresh
        assert (_group_costs(memo, allocation)
                == walk_group_costs(ag, fresh, allocation))


def test_a_memo_serves_only_its_own_inputs():
    ag = knuth_binary()
    assignment, deadness = prepare(ag, False)
    memo = PlanMemo(ag, assignment, deadness)
    allocation = StaticAllocation(SubsumptionConfig())
    other = assign_passes(ag, Direction.R2L)
    with pytest.raises(ValueError):
        build_pass_plans(ag, other, deadness, allocation, memo)


# ---------------------------------------------------------------------------
# exact plan-build counts
# ---------------------------------------------------------------------------

#: ``_PlanBuilder.build`` calls per ``Linguist`` build.  Rebuilding every
#: plan for each trial allocation, then once more for generation, made
#: 91 (calc), 280 (pascal) and 2964 (linguist).
PLAN_BUILDS = {"calc": 38, "pascal": 152, "linguist": 326}


@pytest.mark.parametrize("name", sorted(PLAN_BUILDS))
def test_plan_build_counts_are_pinned(name, monkeypatch):
    from repro.core import Linguist

    calls = [0]
    build = plan_module._PlanBuilder.build

    def counting(self):
        calls[0] += 1
        return build(self)

    monkeypatch.setattr(plan_module._PlanBuilder, "build", counting)
    Linguist(load_source(name))
    assert calls[0] == PLAN_BUILDS[name]

"""Pass assignment: which attribute is evaluated in which alternating pass.

Monotone deferral to a fixpoint:  every non-intrinsic attribute starts
in pass 1; each round simulates, at every pass it defines something in,
each production that has a symbol whose attribute the previous round
bumped (the first round: every production); any binding that cannot be
scheduled bumps its target attribute to the next pass.  Because pass
numbers only ever increase and are bounded, the loop terminates — either
at a consistent assignment (the grammar is alternating-pass evaluable in
``n_passes`` passes) or by exceeding the bound, in which case
:class:`~repro.errors.PassError` reports the attributes that kept
escaping (these are the grammar's zig-zag dependencies, unbounded in
tree depth).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.ag.copyrules import Binding
from repro.ag.model import AttrKind, AttributeGrammar, Production
from repro.errors import PassError
from repro.passes.schedule import (
    AttrId,
    Direction,
    INTRINSIC_PASS,
    ScheduleResult,
    direction_of_pass,
    schedule_production,
)

#: Default bound on pass count; real grammars use 2–6 passes (the paper's
#: own grammar needs 4), so hitting this means "not pass evaluable".
DEFAULT_MAX_PASSES = 16


@dataclass
class PassAssignment:
    """The result of the evaluability analysis."""

    grammar: AttributeGrammar
    first_direction: Direction
    attr_pass: Dict[AttrId, int]
    n_passes: int
    #: Cached consistent schedules: (production index, pass) -> result.
    schedules: Dict[Tuple[int, int], ScheduleResult] = field(default_factory=dict)

    def direction(self, pass_k: int) -> Direction:
        return direction_of_pass(pass_k, self.first_direction)

    def pass_of(self, symbol: str, attr: str) -> int:
        return self.attr_pass[(symbol, attr)]

    def attributes_of_pass(self, pass_k: int) -> List[AttrId]:
        return sorted(a for a, p in self.attr_pass.items() if p == pass_k)

    def schedule(self, prod: Production, pass_k: int) -> ScheduleResult:
        """The (cached) consistent schedule of ``prod`` for ``pass_k``."""
        key = (prod.index, pass_k)
        if key not in self.schedules:
            result = schedule_production(
                self.grammar, prod, pass_k, self.direction(pass_k), self.attr_pass
            )
            assert result.ok, (
                f"internal: inconsistent pass assignment for production "
                f"{prod.index} pass {pass_k}"
            )
            self.schedules[key] = result
        return self.schedules[key]


def assign_passes(
    ag: AttributeGrammar,
    first_direction: Direction = Direction.R2L,
    max_passes: int = DEFAULT_MAX_PASSES,
) -> PassAssignment:
    """Run the evaluability analysis.

    ``first_direction`` defaults to right-to-left — the paper's own
    choice ("LINGUIST-86 itself uses the first method": the parser
    emits nodes bottom-up, so the first evaluation pass is R-to-L).
    Raises :class:`PassError` if the grammar is not evaluable within
    ``max_passes`` alternating passes.
    """
    attr_pass: Dict[AttrId, int] = {}
    for sym in ag.symbols.values():
        for attr in sym.attributes.values():
            if attr.kind is AttrKind.INTRINSIC:
                attr_pass[(sym.name, attr.name)] = INTRINSIC_PASS
            else:
                attr_pass[(sym.name, attr.name)] = 1

    if not attr_pass:
        assignment = PassAssignment(ag, first_direction, {}, 0)
        return assignment

    from repro.ag.copyrules import production_bindings

    # A simulation reads only the pass numbers of its production's own
    # symbols, so only productions touching a bumped symbol can change
    # outcome; the others keep their (failure-free) earlier results.
    users: Dict[str, Set[int]] = {}
    for prod in ag.productions:
        for name in (prod.lhs, prod.limb, *prod.rhs):
            users.setdefault(name, set()).add(prod.index)
    #: production index -> {pass: result} of its latest simulation.
    kept: Dict[int, Dict[int, ScheduleResult]] = {}
    worklist = ag.productions
    while True:
        bumped: Set[AttrId] = set()
        for prod in worklist:
            # Only simulate the passes this production defines something
            # in — a pass with no pending bindings trivially succeeds.
            target_passes = {
                attr_pass[(b.target.symbol, b.target.attr_name)]
                for b in production_bindings(prod)
            }
            kept[prod.index] = results = {}
            for pass_k in sorted(p for p in target_passes if p >= 1):
                result = results[pass_k] = schedule_production(
                    ag, prod, pass_k, direction_of_pass(pass_k, first_direction), attr_pass
                )
                for binding in result.failed:
                    bumped.add((binding.target.symbol, binding.target.attr_name))
        if not bumped:
            break
        overflow: List[AttrId] = []
        for attr_id in bumped:
            attr_pass[attr_id] += 1
            if attr_pass[attr_id] > max_passes:
                overflow.append(attr_id)
        if overflow:
            names = ", ".join(f"{s}.{a}" for s, a in sorted(overflow))
            raise PassError(
                f"attribute grammar {ag.name!r} is not evaluable in "
                f"{max_passes} alternating passes (first pass "
                f"{first_direction.value}); attributes that keep escaping: {names}"
            )
        stale = set().union(*(users[symbol] for symbol, _ in bumped))
        worklist = [ag.productions[i] for i in sorted(stale)]

    n_passes = max((p for p in attr_pass.values()), default=0)
    assignment = PassAssignment(ag, first_direction, attr_pass, n_passes)

    # Record the consistent schedules, simulating only the passes no
    # round did, and stamp pass numbers on functions.
    for prod in ag.productions:
        results = kept[prod.index]
        for pass_k in range(1, n_passes + 1):
            if pass_k in results:
                assignment.schedules[(prod.index, pass_k)] = results[pass_k]
            else:
                assignment.schedule(prod, pass_k)
        for func in prod.functions:
            func.pass_number = max(
                attr_pass[(t.symbol, t.attr_name)] for t in func.targets
            )
    return assignment


def choose_first_direction(
    ag: AttributeGrammar, max_passes: int = DEFAULT_MAX_PASSES
) -> PassAssignment:
    """Try both first directions and return the assignment with fewer
    passes (ties favor R-to-L, the paper's bottom-up-parser default)."""
    best: Optional[PassAssignment] = None
    for first in (Direction.R2L, Direction.L2R):
        try:
            candidate = assign_passes(ag, first, max_passes)
        except PassError:
            continue
        if best is None or candidate.n_passes < best.n_passes:
            best = candidate
    if best is None:
        raise PassError(
            f"attribute grammar {ag.name!r} is not alternating-pass evaluable "
            f"in either direction within {max_passes} passes"
        )
    return best

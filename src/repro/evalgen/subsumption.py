"""Static subsumption — §III's "really important optimization".

Selected attributes are allocated to *global variables* shared across
production-procedures; a copy-rule whose source and target live in the
same global then "generates no code at all" — it is **subsumed**.
LINGUIST-86 groups all static attributes of the same *name* into one
global ("it is very effective to allocate to the same global variable
all inherited attributes that have the same name"); the legality
restriction — two different attributes of the same symbol may not share
a global — is automatically satisfied because a symbol cannot carry two
same-named attributes.

This module implements the paper's selection algorithm: start with
every attribute statically allocated; repeatedly de-allocate any
attribute whose save/restore overhead exceeds the copy-code it saves
("this check is based on what percentage of the semantic functions that
define this attribute are subsumable copy-rules"); removing one
attribute can make others unprofitable, "hence all remaining static
attributes must be reexamined until the process stabilizes.  This is an
n-cubed algorithm and it does not always find an optimal set" — neither
does ours, by design.

The final subsumed/not-subsumed decision for each individual copy-rule
site is made later by :mod:`repro.evalgen.plan`, which tracks what each
global actually holds along the procedure body; this module's estimate
only chooses *which* attributes are static.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.ag.copyrules import Binding, production_bindings
from repro.ag.model import (
    AttrKind,
    AttributeGrammar,
    LHS_POSITION,
    LIMB_POSITION,
)
from repro.passes.partition import PassAssignment
from repro.passes.schedule import AttrId


@dataclass
class SubsumptionConfig:
    """Tuning knobs for the cost model.

    ``grouping`` selects the allocation policy: ``"name"`` (the paper's
    choice — one global per attribute name) or ``"per-attribute"`` (one
    global per (symbol, name) — the basic scheme of §III's opening,
    where only copies between instances of the *same* attribute
    subsume).  ABL-2 compares the two.
    """

    enabled: bool = True
    grouping: str = "name"
    #: Code units for one explicit copy assignment.
    copy_cost: int = 1
    #: Code units for the save/restore traffic a non-copy definition of a
    #: static inherited attribute causes.  Our plan brackets globals
    #: per-procedure (one save/restore pair amortized over every
    #: definition in the production), so the marginal cost of one
    #: non-copy definition is about one store — hence the default 1,
    #: which keeps context chains with a single initializer static, the
    #: situation §III highlights ("context information is not often
    #: updated").
    save_restore_cost: int = 1
    #: Code units for exporting a non-copy static synthesized definition.
    export_cost: int = 1


@dataclass
class StaticAllocation:
    """The chosen static attribute set and its grouping."""

    config: SubsumptionConfig
    static: Set[AttrId] = field(default_factory=set)

    def is_static(self, symbol: str, attr_name: str) -> bool:
        return (symbol, attr_name) in self.static

    def group_of(self, symbol: str, attr_name: str) -> Optional[str]:
        """The global-variable name holding this attribute, if static."""
        if (symbol, attr_name) not in self.static:
            return None
        if self.config.grouping == "name":
            return attr_name
        return f"{symbol}${attr_name}"

    def groups(self) -> List[str]:
        out = set()
        for symbol, attr_name in self.static:
            out.add(self.group_of(symbol, attr_name))
        return sorted(out)

    def __len__(self) -> int:
        return len(self.static)


def _attr_symbol_of_ref(prod, position: int) -> str:
    if position == LHS_POSITION:
        return prod.lhs
    if position == LIMB_POSITION:
        return prod.limb
    return prod.rhs[position - 1]


def choose_static_attributes(
    ag: AttributeGrammar,
    assignment: PassAssignment,
    config: Optional[SubsumptionConfig] = None,
) -> StaticAllocation:
    """Run the iterative selection algorithm."""
    config = config or SubsumptionConfig()
    allocation = StaticAllocation(config)
    if not config.enabled:
        return allocation

    # Candidates: inherited and synthesized attributes (intrinsics are
    # parser-set; limb locals are production-private).
    candidates: Set[AttrId] = set()
    kind_of: Dict[AttrId, AttrKind] = {}
    for sym in ag.symbols.values():
        for attr in sym.attributes.values():
            if attr.kind in (AttrKind.INHERITED, AttrKind.SYNTHESIZED):
                candidates.add((sym.name, attr.name))
                kind_of[(sym.name, attr.name)] = attr.kind

    # Defining bindings per attribute, with the (source AttrId, same-pass)
    # info needed to judge subsumability.
    defs: Dict[AttrId, List[Tuple[Optional[AttrId], bool]]] = {a: [] for a in candidates}
    for prod in ag.productions:
        for b in production_bindings(prod):
            target_id = (b.target.symbol, b.target.attr_name)
            if target_id not in defs:
                continue
            src = b.copy_source()
            if src is None or src.position == LIMB_POSITION:
                defs[target_id].append((None, False))
                continue
            src_symbol = _attr_symbol_of_ref(prod, src.position)
            src_id = (src_symbol, src.attr_name)
            same_pass = assignment.attr_pass.get(src_id, -1) == assignment.attr_pass.get(
                target_id, -2
            )
            defs[target_id].append((src_id, same_pass))

    allocation.static = set(candidates)

    def subsumable(target: AttrId, src: Optional[AttrId], same_pass: bool) -> bool:
        if src is None or not same_pass:
            return False
        if src not in allocation.static:
            return False
        return allocation.group_of(*src) == allocation.group_of(*target)

    changed = True
    while changed:
        changed = False
        for a in sorted(allocation.static):
            subsumed = 0
            other = 0
            for src, same_pass in defs[a]:
                if subsumable(a, src, same_pass):
                    subsumed += 1
                else:
                    other += 1
            if kind_of[a] is AttrKind.INHERITED:
                static_extra = other * config.save_restore_cost
            else:
                static_extra = other * config.export_cost
            normal_extra = subsumed * config.copy_cost
            if static_extra > normal_extra:
                allocation.static.discard(a)
                changed = True
    return allocation


def refine_allocation(
    ag: AttributeGrammar,
    assignment: PassAssignment,
    allocation: StaticAllocation,
    deadness,
    max_rounds: int = 12,
    memo=None,
) -> StaticAllocation:
    """Re-examine the allocation against the *actually generated* plans.

    Two moves, iterated to stability: **demote** any group whose
    save/set/restore/snapshot/marshalling lines meet or exceed the copy
    lines it eliminates, and **promote** any whole name-group the local
    greedy pass rejected but that pays off globally (a context chain
    whose single initializer made each attribute look unprofitable in
    isolation — the situation the paper's Conclusions attribute to its
    own algorithm's non-optimality).

    Each trial is measured through ``memo`` (a
    :class:`~repro.evalgen.plan.PlanMemo`; a fresh one when none is
    given), so it re-plans only the productions whose plans can see the
    groups it moved, and the caller can generate from the final plans.
    """
    from repro.evalgen.plan import memo_for

    config = allocation.config
    if not config.enabled:
        return allocation
    memo = memo_for(ag, assignment, deadness, memo)

    # All candidate attributes, grouped the way the allocation groups.
    candidates: Dict[str, Set[AttrId]] = {}
    probe = StaticAllocation(config)
    for sym in ag.symbols.values():
        for attr in sym.attributes.values():
            if attr.kind in (AttrKind.INHERITED, AttrKind.SYNTHESIZED):
                probe.static = {(sym.name, attr.name)}
                group = probe.group_of(sym.name, attr.name)
                candidates.setdefault(group, set()).add((sym.name, attr.name))

    # Promotion is only worth *measuring* for groups with at least two
    # same-pass same-group copy-rules — each plan build is expensive and
    # a group with fewer can never pay for its save/restore traffic.
    copy_counts: Dict[str, int] = {g: 0 for g in candidates}
    for prod in ag.productions:
        for b in production_bindings(prod):
            src = b.copy_source()
            if src is None or src.position == LIMB_POSITION:
                continue
            target_id = (b.target.symbol, b.target.attr_name)
            probe.static = {target_id}
            tgroup = probe.group_of(*target_id)
            src_id = (_attr_symbol_of_ref(prod, src.position), src.attr_name)
            probe.static = {src_id}
            sgroup = probe.group_of(*src_id)
            if (
                tgroup == sgroup
                and tgroup in copy_counts
                and assignment.attr_pass.get(src_id)
                == assignment.attr_pass.get(target_id)
            ):
                copy_counts[tgroup] += 1
    promotable = {g for g, n in copy_counts.items() if n >= 2}

    def measure(static: Set[AttrId]):
        """(static_lines, normal_lines) per group for this allocation."""
        return _group_costs(memo, StaticAllocation(config, static=set(static)))

    for _ in range(max_rounds):
        static_lines, normal_lines = measure(allocation.static)
        losers = [g for g in static_lines
                  if static_lines[g] >= normal_lines.get(g, 0)]
        if losers:
            allocation.static = {
                a for a in allocation.static
                if allocation.group_of(*a) not in losers
            }
            continue
        # Try promoting each absent group wholesale.
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
                break  # re-measure from scratch
        if not promoted:
            break
    return allocation


def _group_costs(memo, allocation: StaticAllocation):
    """Weighted generated-line counts per static group: what the group
    costs as allocated vs what the same bindings would cost as plain
    node-field assignments — every plan's cached line costs, plus one
    export line per static root attribute."""
    from repro.evalgen.plan import root_exports

    ag, assignment = memo.ag, memo.assignment
    static_lines: Dict[str, int] = {g: 0 for g in allocation.groups()}
    normal_lines: Dict[str, int] = dict(static_lines)
    for pass_k in range(1, assignment.n_passes + 1):
        for prod in ag.productions:
            for g, (static, normal) in memo.entry(prod, pass_k, allocation)[1].items():
                static_lines[g] += static
                normal_lines[g] += normal
        for _attr, g in root_exports(ag, assignment, allocation, pass_k):
            static_lines[g] += 1
    return static_lines, normal_lines


def exhaustive_allocation(
    ag: AttributeGrammar,
    assignment: PassAssignment,
    deadness,
    config: Optional[SubsumptionConfig] = None,
    max_candidates: int = 14,
    memo=None,
):
    """Exhaustive search for the optimal static set (Conclusions, §V:
    "whether a more complete and global analysis of the attribute
    grammar can yield markedly better static subsumption results").

    Tries *every* subset of the candidate attributes and measures the
    actual generated semantic-code bytes; only feasible for small
    grammars (the candidate count is capped).  Every subset plans
    through one :class:`~repro.evalgen.plan.PlanMemo` (``memo``, or a
    fresh one), so a production is planned once per distinct view.
    Returns ``(best_allocation, best_sem_bytes, evaluated_subsets)``.
    """
    from itertools import combinations

    from repro.evalgen.codegen_pascal import PascalCodeGenerator
    from repro.evalgen.plan import build_pass_plans, memo_for

    config = config or SubsumptionConfig()
    memo = memo_for(ag, assignment, deadness, memo)
    candidates: List[AttrId] = []
    for sym in ag.symbols.values():
        for attr in sym.attributes.values():
            if attr.kind in (AttrKind.INHERITED, AttrKind.SYNTHESIZED):
                candidates.append((sym.name, attr.name))
    candidates.sort()
    if len(candidates) > max_candidates:
        raise ValueError(
            f"exhaustive search over {len(candidates)} attributes "
            f"(> {max_candidates}) is infeasible"
        )

    def sem_bytes_of(static: Set[AttrId]) -> int:
        allocation = StaticAllocation(config, static=set(static))
        plans = build_pass_plans(ag, assignment, deadness, allocation, memo)
        artifacts = PascalCodeGenerator(ag).generate_all(plans)
        return sum(a.sem_bytes for a in artifacts)

    best_static: Set[AttrId] = set()
    best_bytes = sem_bytes_of(set())
    evaluated = 1
    for r in range(1, len(candidates) + 1):
        for subset in combinations(candidates, r):
            evaluated += 1
            size = sem_bytes_of(set(subset))
            if size < best_bytes:
                best_bytes = size
                best_static = set(subset)
    best = StaticAllocation(config, static=best_static)
    return best, best_bytes, evaluated


def count_subsumable_sites(
    ag: AttributeGrammar,
    assignment: PassAssignment,
    allocation: StaticAllocation,
) -> int:
    """Estimated subsumed copy-rule count under ``allocation`` (the plan
    reports the exact count; this estimate serves the cost-model tests)."""
    total = 0
    for prod in ag.productions:
        for b in production_bindings(prod):
            target_id = (b.target.symbol, b.target.attr_name)
            src = b.copy_source()
            if src is None or src.position == LIMB_POSITION:
                continue
            src_id = (_attr_symbol_of_ref(prod, src.position), src.attr_name)
            if (
                target_id in allocation.static
                and src_id in allocation.static
                and allocation.group_of(*src_id) == allocation.group_of(*target_id)
                and assignment.attr_pass.get(src_id) == assignment.attr_pass.get(target_id)
            ):
                total += 1
    return total

"""Lowering schedules into production-procedure plans.

A :class:`PassPlan` holds one :class:`EvaluationPlan` per production:
the concrete action list of the production-procedure body for that
pass, with every attribute reference resolved to a **node field**, a
procedure-local **temporary**, or a static **global** — and with the
save/restore and snapshot traffic static subsumption requires.

The global-variable discipline (a per-procedure variant of the paper's
per-visit bracketing, same asymptotic cost):

* Invariant at procedure entry: for every static group ``g``, if the
  LHS symbol has a pass-*k* inherited attribute in ``g``, the global
  ``G_g`` holds its value (the caller established it).
* Invariant at procedure exit: if the LHS symbol has a pass-*k*
  synthesized attribute in ``g``, ``G_g`` holds its value (the *export*
  — how ``S.DEFS := S1.DEFS`` subsumes in the paper's example); every
  other touched group is restored to its entry value (the paper's
  ``PRE_QZP``/``PRE`` save/restore pair).
* A value living only in a global that is still needed after the global
  gets overwritten is snapshotted into a stack temporary first (the
  paper's ``POST2_ZQP``).

A *subsumed* copy-rule emits a :data:`SUBSUME` action — bookkeeping
only, zero generated code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.ag.copyrules import Binding
from repro.ag.model import (
    AttrKind,
    AttributeGrammar,
    LHS_POSITION,
    LIMB_POSITION,
    Production,
    SymbolKind,
)
from repro.ag.dependencies import OccKey, binding_argument_keys
from repro.errors import GenerationError
from repro.evalgen.deadness import DeadnessAnalysis
from repro.evalgen.subsumption import StaticAllocation, _attr_symbol_of_ref
from repro.passes.partition import PassAssignment
from repro.passes.schedule import AttrId, Direction, StepKind

#: ("field", position, attr) | ("temp", name) | ("global", group)
ValueSource = Tuple


class ActionKind(enum.Enum):
    GET = "get"
    PUT = "put"
    VISIT = "visit"
    COMPUTE = "compute"
    SUBSUME = "subsume"
    SNAPSHOT = "snapshot"
    SETGLOBAL = "setglobal"
    ENTRY_SAVE = "entry_save"
    EXIT_RESTORE = "exit_restore"


@dataclass
class PlanAction:
    kind: ActionKind
    position: int = 0
    binding: Optional[Binding] = None
    group: str = ""
    temp: str = ""
    source: Optional[ValueSource] = None
    #: COMPUTE: argument occurrence -> where its value lives right now.
    refmap: Dict[OccKey, ValueSource] = field(default_factory=dict)
    #: PUT: (attribute name, value source) pairs to write to the record.
    fields: List[Tuple[str, ValueSource]] = field(default_factory=list)
    comment: str = ""


@dataclass
class EvaluationPlan:
    """The body of one production-procedure for one pass."""

    production: int
    pass_k: int
    direction: Direction
    actions: List[PlanAction]
    temps: List[str]
    saved_groups: List[str]  # groups entry-saved / exit-restored
    n_subsumed: int
    n_explicit_copies: int

    def render(self, ag: AttributeGrammar) -> str:
        prod = ag.productions[self.production]
        lines = [f"procedure {prod.tag}PP{self.pass_k} {{ {prod} }}"]
        for a in self.actions:
            lines.append("  " + _render_action(a, prod))
        return "\n".join(lines)


def _render_action(a: PlanAction, prod: Production) -> str:
    def pos_name(position: int) -> str:
        if position == LIMB_POSITION:
            return prod.limb
        return prod.occurrence_at(position).name

    if a.kind is ActionKind.GET:
        return f"GetNode {pos_name(a.position)}"
    if a.kind is ActionKind.PUT:
        keep = ", ".join(name for name, _ in a.fields)
        return f"PutNode {pos_name(a.position)} [{keep}]"
    if a.kind is ActionKind.VISIT:
        return f"visit {pos_name(a.position)}"
    if a.kind is ActionKind.COMPUTE:
        dest = f" -> {a.temp}" if a.temp else ""
        return f"eval {a.binding}{dest}"
    if a.kind is ActionKind.SUBSUME:
        return f"{{ {a.binding} }}  subsumed"
    if a.kind is ActionKind.SNAPSHOT:
        return f"{a.temp} := G_{a.group}  {{ snapshot {a.comment} }}"
    if a.kind is ActionKind.SETGLOBAL:
        return f"G_{a.group} := {a.source}  {a.comment}"
    if a.kind is ActionKind.ENTRY_SAVE:
        return f"SV_{a.group} := G_{a.group}"
    if a.kind is ActionKind.EXIT_RESTORE:
        return f"G_{a.group} := SV_{a.group}"
    return str(a.kind)


@dataclass
class PassPlan:
    """All production plans for one pass, plus driver metadata."""

    pass_k: int
    direction: Direction
    plans: Dict[int, EvaluationPlan]
    #: Global variables live in this pass.
    groups: List[str]
    #: Root synthesized statics of this pass: (attr name, group).
    root_exports: List[Tuple[str, str]]
    #: Record fields the root node keeps after this pass.
    root_fields: List[str]

    @property
    def n_subsumed(self) -> int:
        return sum(p.n_subsumed for p in self.plans.values())

    @property
    def n_explicit_copies(self) -> int:
        return sum(p.n_explicit_copies for p in self.plans.values())


def sanitize(name: str) -> str:
    return name.replace("$", "_")


def global_slot(group: str) -> str:
    """Where pass global ``group`` lives: the generated pass class's
    instance attribute, and the interpreter's key for it."""
    return f"g_{sanitize(group)}"


def temp_name(key: OccKey) -> str:
    pos, attr = key
    tag = "L" if pos == LIMB_POSITION else str(pos)
    return f"t{tag}_{sanitize(attr)}"


class _PlanBuilder:
    def __init__(
        self,
        ag: AttributeGrammar,
        prod: Production,
        pass_k: int,
        assignment: PassAssignment,
        deadness: DeadnessAnalysis,
        allocation: StaticAllocation,
    ):
        self.ag = ag
        self.prod = prod
        self.pass_k = pass_k
        self.assignment = assignment
        self.deadness = deadness
        self.allocation = allocation
        self.steps = assignment.schedule(prod, pass_k).steps
        self.holds: Dict[str, Set[OccKey]] = {}
        self.temps: Dict[OccKey, str] = {}
        self.touched: Set[str] = set()
        self.actions: List[PlanAction] = []
        self.n_subsumed = 0
        self.n_explicit_copies = 0
        self._needs = self._collect_needs()

    # -- context helpers -------------------------------------------------

    def symbol_at(self, position: int) -> str:
        return _attr_symbol_of_ref(self.prod, position)

    def pass_of(self, position: int, attr: str) -> int:
        return self.assignment.attr_pass[(self.symbol_at(position), attr)]

    def group_of(self, position: int, attr: str) -> Optional[str]:
        return self.allocation.group_of(self.symbol_at(position), attr)

    def is_live_static(self, key: OccKey) -> bool:
        pos, attr = key
        return self.group_of(pos, attr) is not None and self.pass_of(pos, attr) == self.pass_k

    # -- needs analysis ---------------------------------------------------

    def _collect_needs(self) -> Dict[OccKey, List[int]]:
        """For every static pass-k occurrence: the step indexes where its
        value is consumed (args, record writes, final export)."""
        needs: Dict[OccKey, List[int]] = {}

        def note(key: OccKey, t: int) -> None:
            if self.is_live_static(key):
                needs.setdefault(key, []).append(t)

        for t, step in enumerate(self.steps):
            if step.kind is StepKind.EVAL:
                for key in binding_argument_keys(step.binding):
                    note(key, t)
            elif step.kind is StepKind.WRITE:
                sym = self.symbol_at(step.position)
                for attr in self.deadness.fields_after_pass(sym, self.pass_k):
                    note((step.position, attr), t)
        t_end = len(self.steps)
        lhs_sym = self.ag.symbol(self.prod.lhs)
        for attr in lhs_sym.synthesized:
            note((LHS_POSITION, attr.name), t_end)
        return needs

    def _needed_after(self, key: OccKey, t: int) -> bool:
        return any(u > t for u in self._needs.get(key, ()))

    # -- value resolution ---------------------------------------------------

    def resolve(self, key: OccKey) -> ValueSource:
        pos, attr = key
        if key in self.temps:
            return ("temp", self.temps[key])
        group = self.group_of(pos, attr)
        if group is not None and self.pass_of(pos, attr) == self.pass_k:
            if key in self.holds.get(group, ()):
                return ("global", group)
            raise GenerationError(
                f"internal: static value {self.symbol_at(pos)}.{attr} at "
                f"position {pos} is neither in a temp nor in global {group} "
                f"(production {self.prod.index}, pass {self.pass_k})"
            )
        return ("field", pos, attr)

    def _snapshot_before_evict(self, group: str, keep: Optional[OccKey], t: int) -> None:
        for key in sorted(self.holds.get(group, set())):
            if key == keep or key in self.temps:
                continue
            if self._needed_after(key, t):
                name = temp_name(key)
                self.temps[key] = name
                self.actions.append(
                    PlanAction(
                        ActionKind.SNAPSHOT,
                        group=group,
                        temp=name,
                        comment=f"{self.symbol_at(key[0])}.{key[1]}@{key[0]}",
                    )
                )

    # -- the walk ------------------------------------------------------------

    def build(self) -> EvaluationPlan:
        # Entry invariant: caller left LHS pass-k inherited statics in
        # their globals.
        lhs_sym = self.ag.symbol(self.prod.lhs)
        for attr in lhs_sym.inherited:
            key = (LHS_POSITION, attr.name)
            group = self.group_of(*key)
            if group is not None and self.pass_of(*key) == self.pass_k:
                self.holds.setdefault(group, set()).add(key)

        for t, step in enumerate(self.steps):
            if step.kind is StepKind.READ:
                self.actions.append(PlanAction(ActionKind.GET, position=step.position))
            elif step.kind is StepKind.EVAL:
                self._do_eval(step.binding, t)
            elif step.kind is StepKind.VISIT:
                self._do_visit(step.position, t)
            elif step.kind is StepKind.WRITE:
                self._do_write(step.position, t)
        self._do_exports(len(self.steps))
        saved = self._wrap_saves()
        return EvaluationPlan(
            production=self.prod.index,
            pass_k=self.pass_k,
            direction=self.assignment.direction(self.pass_k),
            actions=self.actions,
            temps=sorted(set(self.temps.values())),
            saved_groups=saved,
            n_subsumed=self.n_subsumed,
            n_explicit_copies=self.n_explicit_copies,
        )

    def _do_eval(self, binding: Binding, t: int) -> None:
        tkey = (binding.target.position, binding.target.attr_name)
        tgroup = self.group_of(*tkey) if self.is_live_static(tkey) else None
        src = binding.copy_source()
        if tgroup is not None and src is not None and src.position != LIMB_POSITION:
            skey = (src.position, src.attr_name)
            sgroup = self.group_of(*skey)
            if (
                sgroup == tgroup
                and self.pass_of(*skey) == self.pass_k
                and skey in self.holds.get(tgroup, set())
            ):
                # Subsumed: the proper value is already in the global.
                # The group rides along so provenance recording can read
                # the subsumed value; it is excluded from PassPlan.groups
                # (SUBSUME never allocates the global it reads).
                self.actions.append(
                    PlanAction(ActionKind.SUBSUME, binding=binding, group=tgroup)
                )
                self.holds[tgroup].add(tkey)
                self.n_subsumed += 1
                return
        refmap = {k: self.resolve(k) for k in binding_argument_keys(binding)}
        if binding.is_copy():
            self.n_explicit_copies += 1
        if tgroup is not None:
            name = temp_name(tkey)
            self.temps[tkey] = name
            self.actions.append(
                PlanAction(ActionKind.COMPUTE, binding=binding, temp=name, refmap=refmap)
            )
        else:
            self.actions.append(
                PlanAction(ActionKind.COMPUTE, binding=binding, refmap=refmap)
            )

    def _do_visit(self, position: int, t: int) -> None:
        child_sym = self.ag.symbol(self.symbol_at(position))
        # Establish the child's entry invariant for its static inherited.
        for attr in child_sym.inherited:
            key = (position, attr.name)
            if not self.is_live_static(key):
                continue
            group = self.group_of(*key)
            if key in self.holds.get(group, set()):
                continue  # a subsumed copy already left the value there
            self._snapshot_before_evict(group, None, t)
            source = self.resolve(key)
            self.actions.append(
                PlanAction(
                    ActionKind.SETGLOBAL,
                    group=group,
                    source=source,
                    comment=f"{{ {child_sym.name}.{attr.name} down }}",
                )
            )
            self.holds[group] = {key}
            self.touched.add(group)
        # The child's visit will clobber the globals it exports into —
        # snapshot anything still needed *before* the call (the paper's
        # ``POST2_ZQP := POST`` pattern, hoisted ahead of the visit).
        export_groups: List[Tuple[str, OccKey]] = []
        for attr in child_sym.synthesized:
            key = (position, attr.name)
            if not self.is_live_static(key):
                continue
            group = self.group_of(*key)
            self._snapshot_before_evict(group, None, t)
            export_groups.append((group, key))
        self.actions.append(PlanAction(ActionKind.VISIT, position=position))
        # The child's exit invariant: its static synthesized are exported.
        for group, key in export_groups:
            self.holds[group] = {key}
            self.touched.add(group)

    def _do_write(self, position: int, t: int) -> None:
        sym = self.symbol_at(position)
        fields: List[Tuple[str, ValueSource]] = []
        for attr in self.deadness.fields_after_pass(sym, self.pass_k):
            fields.append((attr, self.resolve((position, attr))))
        self.actions.append(
            PlanAction(ActionKind.PUT, position=position, fields=fields)
        )

    def _do_exports(self, t_end: int) -> None:
        lhs_sym = self.ag.symbol(self.prod.lhs)
        for attr in lhs_sym.synthesized:
            key = (LHS_POSITION, attr.name)
            if not self.is_live_static(key):
                continue
            group = self.group_of(*key)
            if key in self.holds.get(group, set()):
                continue  # the last child's export already matches (subsumed)
            source = self.resolve(key)
            self.actions.append(
                PlanAction(
                    ActionKind.SETGLOBAL,
                    group=group,
                    source=source,
                    comment=f"{{ export {self.prod.lhs}.{attr.name} }}",
                )
            )
            self.holds[group] = {key}
            self.touched.add(group)

    def _wrap_saves(self) -> List[str]:
        """Entry-save/exit-restore every touched group the LHS does not
        itself export in this pass."""
        lhs_sym = self.ag.symbol(self.prod.lhs)
        exported: Set[str] = set()
        for attr in lhs_sym.synthesized:
            key = (LHS_POSITION, attr.name)
            if self.is_live_static(key):
                exported.add(self.group_of(*key))
        saved = sorted(g for g in self.touched if g not in exported)
        head = [PlanAction(ActionKind.ENTRY_SAVE, group=g) for g in saved]
        tail = [PlanAction(ActionKind.EXIT_RESTORE, group=g) for g in saved]
        self.actions = head + self.actions + tail
        return saved


def plan_line_costs(
    ag: AttributeGrammar, plan: EvaluationPlan, allocation: StaticAllocation
) -> Dict[str, Tuple[int, int]]:
    """Weighted generated-line counts per static group in one plan:
    ``group -> (lines as allocated, lines as plain node-field
    assignments)``, the cost model :func:`refine_allocation
    <repro.evalgen.subsumption.refine_allocation>` sums."""
    prod = ag.productions[plan.production]
    costs: Dict[str, List[int]] = {}

    def add(group: Optional[str], static: int, normal: int) -> None:
        if group is not None:
            cost = costs.setdefault(group, [0, 0])
            cost[0] += static
            cost[1] += normal

    for action in plan.actions:
        kind = action.kind
        if kind in (ActionKind.SNAPSHOT, ActionKind.SETGLOBAL,
                    ActionKind.ENTRY_SAVE, ActionKind.EXIT_RESTORE):
            add(action.group, 1, 0)
        elif kind in (ActionKind.COMPUTE, ActionKind.SUBSUME):
            t = action.binding.target
            # One code line either way; a COMPUTE also costs its store.
            add(allocation.group_of(t.symbol, t.attr_name),
                int(kind is ActionKind.COMPUTE), 1)
        elif kind is ActionKind.PUT:
            symbol = _attr_symbol_of_ref(prod, action.position)
            for attr_name, source in action.fields:
                if source[0] != "field":
                    add(allocation.group_of(symbol, attr_name), 1, 0)
    return {group: (cost[0], cost[1]) for group, cost in costs.items()}


class PlanMemo:
    """The production plans of one build, keyed by what each plan reads
    of the static allocation.

    A ``(production, pass)`` plan reads the allocation only through the
    attributes of the production's own symbols that are assigned to that
    pass: every group the builder looks up is either guarded by
    ``pass_of == pass_k`` or compared against a group that is.  So
    ``(production, pass, grouping, those attributes' static subset)``
    determines the plan, and a trial allocation that moves one group
    re-plans only the productions whose key changed.  Each entry keeps
    the plan and its :func:`plan_line_costs`.

    A memo serves the one ``(ag, assignment, deadness)`` it was made for
    and lives as long as one build; nothing stores or pickles it.
    """

    def __init__(
        self,
        ag: AttributeGrammar,
        assignment: PassAssignment,
        deadness: DeadnessAnalysis,
    ):
        self.ag = ag
        self.assignment = assignment
        self.deadness = deadness
        in_pass: Dict[Tuple[str, int], List[AttrId]] = {}
        for attr_id, pass_k in assignment.attr_pass.items():
            in_pass.setdefault((attr_id[0], pass_k), []).append(attr_id)
        #: (production, pass) -> the attributes that plan can read.
        self._readable: Dict[Tuple[int, int], FrozenSet[AttrId]] = {}
        for prod in ag.productions:
            symbols = {prod.lhs, prod.limb, *prod.rhs}
            for pass_k in range(1, assignment.n_passes + 1):
                self._readable[(prod.index, pass_k)] = frozenset(
                    attr_id for symbol in symbols
                    for attr_id in in_pass.get((symbol, pass_k), ())
                )
        self._entries: Dict[tuple, Tuple[EvaluationPlan, Dict[str, Tuple[int, int]]]] = {}

    def entry(
        self, prod: Production, pass_k: int, allocation: StaticAllocation
    ) -> Tuple[EvaluationPlan, Dict[str, Tuple[int, int]]]:
        """``(plan, line costs)`` of ``prod`` in ``pass_k`` under
        ``allocation``, built on the first request for its key."""
        key = (prod.index, pass_k, allocation.config.grouping,
               self._readable[(prod.index, pass_k)].intersection(allocation.static))
        entry = self._entries.get(key)
        if entry is None:
            plan = _PlanBuilder(
                self.ag, prod, pass_k, self.assignment, self.deadness, allocation
            ).build()
            entry = self._entries[key] = (
                plan, plan_line_costs(self.ag, plan, allocation)
            )
        return entry


def memo_for(
    ag: AttributeGrammar,
    assignment: PassAssignment,
    deadness: DeadnessAnalysis,
    memo: Optional[PlanMemo] = None,
) -> PlanMemo:
    """``memo`` once checked to serve these inputs, or a fresh memo."""
    if memo is None:
        return PlanMemo(ag, assignment, deadness)
    if memo.ag is not ag or memo.assignment is not assignment or memo.deadness is not deadness:
        raise ValueError(
            "a plan memo serves only the grammar, pass assignment and "
            "deadness analysis it was made for"
        )
    return memo


def root_exports(
    ag: AttributeGrammar,
    assignment: PassAssignment,
    allocation: StaticAllocation,
    pass_k: int,
) -> List[Tuple[str, str]]:
    """The start symbol's static synthesized attributes of ``pass_k``:
    ``(attr name, group)`` pairs the driver exports at the root."""
    out: List[Tuple[str, str]] = []
    for attr in ag.symbol(ag.start).synthesized:
        group = allocation.group_of(ag.start, attr.name)
        if group is not None and assignment.pass_of(ag.start, attr.name) == pass_k:
            out.append((attr.name, group))
    return out


def build_pass_plans(
    ag: AttributeGrammar,
    assignment: PassAssignment,
    deadness: DeadnessAnalysis,
    allocation: StaticAllocation,
    memo: Optional[PlanMemo] = None,
) -> List[PassPlan]:
    """Build every pass's plans (pass numbers 1..n), reusing the plans
    ``memo`` already holds (a fresh memo when none is given)."""
    memo = memo_for(ag, assignment, deadness, memo)
    out: List[PassPlan] = []
    for pass_k in range(1, assignment.n_passes + 1):
        plans: Dict[int, EvaluationPlan] = {}
        groups: Set[str] = set()
        for prod in ag.productions:
            plan = memo.entry(prod, pass_k, allocation)[0]
            plans[prod.index] = plan
            for action in plan.actions:
                if action.group and action.kind is not ActionKind.SUBSUME:
                    groups.add(action.group)
        exports = root_exports(ag, assignment, allocation, pass_k)
        groups.update(group for _attr, group in exports)
        out.append(
            PassPlan(
                pass_k=pass_k,
                direction=assignment.direction(pass_k),
                plans=plans,
                groups=sorted(groups),
                root_exports=exports,
                root_fields=deadness.fields_after_pass(ag.start, pass_k),
            )
        )
    return out

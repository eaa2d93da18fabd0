"""The Schulz-style interpretive evaluator.

§II: "Schulz describes an interpretive approach … LINGUIST-86 generates
in-line code".  This module is the interpretive side of that contrast
(ABL-3): it executes :class:`~repro.evalgen.plan.PassPlan` actions
directly against the runtime, walking the same file-resident APT with
the same paradigm, but paying dispatch on every action instead of
running generated code.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.ag.model import AttributeGrammar, LHS_POSITION, LIMB_POSITION
from repro.errors import EvaluationError
from repro.evalgen.exprinterp import eval_expr
from repro.evalgen.plan import ActionKind, EvaluationPlan, PassPlan, PlanAction
from repro.evalgen.runtime import EvaluatorRuntime
from repro.obs.provenance import input_keys
from repro.passes.incremental import MEMO_HIT


class InterpretiveEvaluator:
    """Executes one pass plan over one runtime (one pass of the APT)."""

    def __init__(self, ag: AttributeGrammar):
        self.ag = ag

    def run_pass(self, plan: PassPlan, runtime: EvaluatorRuntime) -> list:
        """Run the whole pass: read the root, visit, write the root.
        Returns the root's node list (with this pass's exports filled
        in; see :mod:`repro.apt.node`)."""
        globals_: Dict[str, Any] = {g: None for g in plan.groups}
        root = runtime.get(self.ag.start)
        self._visit(root, plan, runtime, globals_)
        for attr_name, group in plan.root_exports:
            root[2][attr_name] = globals_[group]
        if runtime.rec is not None:
            runtime.rec.put(LHS_POSITION, root[0], runtime.out_index())
        runtime.put(root, plan.root_fields)
        return root

    # ------------------------------------------------------------------

    def _visit(
        self,
        node: list,
        plan: PassPlan,
        runtime: EvaluatorRuntime,
        globals_: Dict[str, Any],
    ) -> None:
        if node[1] is None:
            raise EvaluationError(
                f"cannot visit terminal node {node[0]!r}; the APT is out of phase"
            )
        prod = self.ag.productions[node[1]]
        eplan = plan.plans[prod.index]
        runtime.note_visit(prod.tag)
        tracer = runtime.tracer
        if tracer is None:
            return self._run_actions(node, prod, eplan, plan, runtime, globals_)
        with tracer.span(
            prod.tag or prod.lhs,
            cat="visit",
            symbol=node[0],
            production=prod.index,
        ):
            return self._run_actions(node, prod, eplan, plan, runtime, globals_)

    def _run_actions(
        self,
        node: list,
        prod,
        eplan: EvaluationPlan,
        plan: PassPlan,
        runtime: EvaluatorRuntime,
        globals_: Dict[str, Any],
    ) -> None:
        tracer = runtime.tracer
        rec = runtime.rec
        nodes: Dict[int, list] = {LHS_POSITION: node}
        temps: Dict[str, Any] = {}
        saves: Dict[str, Any] = {}

        def symbol_at(position: int) -> str:
            if position == LIMB_POSITION:
                return prod.limb
            if position == LHS_POSITION:
                return prod.lhs
            return prod.rhs[position - 1]

        def source_value(source) -> Any:
            kind = source[0]
            if kind == "field":
                _, pos, attr = source
                try:
                    return nodes[pos][2][attr]
                except KeyError:
                    raise EvaluationError(
                        f"attribute {symbol_at(pos)}.{attr} not present on node "
                        f"(production {prod.index}, pass {plan.pass_k})"
                    ) from None
            if kind == "temp":
                return temps[source[1]]
            if kind == "global":
                return globals_[source[1]]
            raise EvaluationError(f"unknown value source {source!r}")

        for action in eplan.actions:
            kind = action.kind
            if kind is ActionKind.GET:
                nodes[action.position] = runtime.get(symbol_at(action.position))
            elif kind is ActionKind.PUT:
                target = nodes[action.position]
                names: List[str] = []
                for attr_name, source in action.fields:
                    names.append(attr_name)
                    if source[0] != "field":
                        target[2][attr_name] = source_value(source)
                if rec is not None:
                    rec.put(action.position, target[0], runtime.out_index())
                runtime.put(target, names)
            elif kind is ActionKind.VISIT:
                child = nodes[action.position]
                memo = runtime.memo
                if memo is not None:
                    token = memo.enter_interp(child, globals_)
                    if token is MEMO_HIT:
                        continue  # subtree spliced from the memo
                else:
                    token = None
                if rec is None:
                    self._visit(child, plan, runtime, globals_)
                else:
                    rec.enter_child(action.position)
                    self._visit(child, plan, runtime, globals_)
                    rec.exit_child()
                if token is not None:
                    memo.leave_interp(token, child, globals_)
            elif kind is ActionKind.COMPUTE:
                binding = action.binding

                def lookup(position: int, attr: str) -> Any:
                    return source_value(action.refmap[(position, attr)])

                if tracer is None:
                    value = eval_expr(
                        binding.expr, lookup, runtime.call, runtime.constant
                    )
                else:
                    with tracer.span(str(binding.target), cat="semfn"):
                        value = eval_expr(
                            binding.expr, lookup, runtime.call, runtime.constant
                        )
                runtime.note_eval(str(binding.target))
                if action.temp:
                    temps[action.temp] = value
                else:
                    nodes[binding.target.position][2][
                        binding.target.attr_name
                    ] = value
                if rec is not None:
                    rec.define(
                        prod.index,
                        binding.target.position,
                        binding.target.attr_name,
                        value,
                        [
                            (p, a, source_value(action.refmap[(p, a)]))
                            for p, a in input_keys(binding)
                        ],
                        "compute",
                        str(binding),
                        runtime.out_index(),
                    )
            elif kind is ActionKind.SUBSUME:
                # No code: the value is already in its global.
                runtime.note_copyrule_elided(str(action.binding))
                if rec is not None:
                    binding = action.binding
                    src = binding.copy_source()
                    value = globals_[action.group]
                    rec.define(
                        prod.index,
                        binding.target.position,
                        binding.target.attr_name,
                        value,
                        [(src.position, src.attr_name, value)],
                        "subsume",
                        str(binding),
                        runtime.out_index(),
                    )
            elif kind is ActionKind.SNAPSHOT:
                temps[action.temp] = globals_[action.group]
            elif kind is ActionKind.SETGLOBAL:
                globals_[action.group] = source_value(action.source)
            elif kind is ActionKind.ENTRY_SAVE:
                saves[action.group] = globals_[action.group]
                runtime.note_subsume_save(action.group)
            elif kind is ActionKind.EXIT_RESTORE:
                globals_[action.group] = saves[action.group]
                runtime.note_subsume_restore(action.group)
            else:  # pragma: no cover
                raise EvaluationError(f"unknown plan action {kind}")

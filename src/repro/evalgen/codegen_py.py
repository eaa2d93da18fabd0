"""Generation of executable Python evaluator modules.

LINGUIST-86 "generates in-line code to read and write APT nodes and to
evaluate semantic functions", organized as "a set of mutually recursive
procedures called production-procedures … distinct sets … for each
pass".  This module renders each :class:`~repro.evalgen.plan.PassPlan`
as a Python class whose methods are the production-procedures; the text
is ``exec``-compiled and driven by the same
:class:`~repro.evalgen.driver.AlternatingPassDriver` as the interpreter.

Every emitted line is categorized **husk** (node I/O, dispatch,
procedure scaffolding — §V: "everything except the semantic functions")
or **sem** (semantic-function evaluation, including the save/restore
and snapshot traffic of static subsumption); subsumed copy-rules are
emitted as comments, contributing zero bytes, exactly as in the paper's
ListProd example.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ag.expr import AttrRef, BinOp, Call, Const, Expr, If, Not
from repro.ag.model import (
    AttributeGrammar,
    LHS_POSITION,
    LIMB_POSITION,
    Production,
    SymbolKind,
)
from repro.errors import GenerationError
from repro.evalgen.plan import (
    ActionKind,
    EvaluationPlan,
    PassPlan,
    global_slot,
    sanitize,
)
from repro.evalgen.runtime import EvaluatorRuntime

#: Line categories for the §V size accounting.
HUSK = "husk"
SEM = "sem"
NOTE = "note"  # comments — zero weight
DECL = "decl"  # declarations — data, not code; zero weight like the 8086
PROV = "prov"  # provenance-recording hooks — zero weight, recording mode only


@dataclass
class CodeArtifact:
    """Generated source text of one pass module, with size accounting."""

    pass_k: int
    text: str
    husk_bytes: int
    sem_bytes: int
    n_subsumed: int

    @property
    def total_bytes(self) -> int:
        return self.husk_bytes + self.sem_bytes


class _Emitter:
    def __init__(self) -> None:
        self.lines: List[Tuple[str, str]] = []

    def emit(self, line: str, category: str, indent: int = 0) -> None:
        self.lines.append(("    " * indent + line, category))

    def text(self) -> str:
        return "\n".join(line for line, _ in self.lines) + "\n"

    def bytes_of(self, category: str) -> int:
        return sum(
            len(line.strip()) + 1
            for line, cat in self.lines
            if cat == category and line.strip()
        )


def _var(position: int) -> str:
    if position == LIMB_POSITION:
        return "nL"
    return f"n{position}"


class PythonCodeGenerator:
    """Renders pass plans as Python evaluator classes.

    With ``recording=True`` the generator additionally emits provenance
    hooks (``rec.define``/``rec.put``/``rec.enter_child``) at every
    attribute-definition and node-I/O site, mirroring the interpreter's
    hook placement exactly so the two backends produce byte-comparable
    provenance logs.  Recording output is a *separate* variant: normal
    (``recording=False``) output is byte-identical to what this
    generator always produced — it is golden-pinned and cached.

    With ``memo=True`` the generator emits incremental-memo hooks at
    every child ``VISIT`` (enter/leave calls into the runtime's
    :class:`~repro.passes.incremental.MemoSession`), mirroring the
    interpreter's hook placement so the two backends hit, splice, and
    record identically.  Like recording, memo output is a separate
    lazily-built variant: it is never cached, and the hot non-memo
    executor stays byte-identical to the pinned golden text.
    """

    def __init__(
        self,
        ag: AttributeGrammar,
        recording: bool = False,
        memo: bool = False,
    ):
        self.ag = ag
        self.recording = recording
        self.memo = memo

    # -- expressions ----------------------------------------------------------

    def compile_expr(self, expr: Expr, refmap: Dict[Tuple[int, str], tuple]) -> str:
        if isinstance(expr, Const):
            if expr.is_symbolic:
                return f"rt.constant({expr.value!r})"
            return repr(expr.value)
        if isinstance(expr, AttrRef):
            key = (expr.position, expr.attr_name)
            try:
                source = refmap[key]
            except KeyError:
                raise GenerationError(f"unresolved reference {expr} in codegen") from None
            return self._source_code(source)
        if isinstance(expr, Not):
            return f"(not {self.compile_expr(expr.body, refmap)})"
        if isinstance(expr, BinOp):
            left = self.compile_expr(expr.left, refmap)
            right = self.compile_expr(expr.right, refmap)
            op = expr.op
            if op == "AND":
                return f"(bool({left}) and bool({right}))"
            if op == "OR":
                return f"(bool({left}) or bool({right}))"
            if op == "DIV":
                return f"rt.div({left}, {right})"
            if op == "=":
                return f"({left} == {right})"
            if op == "<>":
                return f"({left} != {right})"
            return f"({left} {op} {right})"
        if isinstance(expr, Call):
            args = ", ".join(self.compile_expr(a, refmap) for a in expr.args)
            return f"rt.call({expr.func!r}{', ' if args else ''}{args})"
        if isinstance(expr, If):
            cond = self.compile_expr(expr.cond, refmap)
            then = self.compile_expr(expr.then_branch[0], refmap)
            if isinstance(expr.else_branch, If):
                other = self.compile_expr(expr.else_branch, refmap)
            else:
                other = self.compile_expr(expr.else_branch[0], refmap)
            return f"({then} if {cond} else {other})"
        raise GenerationError(f"unknown expression node {expr!r}")

    @staticmethod
    def _source_code(source: tuple) -> str:
        kind = source[0]
        if kind == "field":
            _, pos, attr = source
            return f"{_var(pos)}[2][{attr!r}]"
        if kind == "temp":
            return source[1]
        if kind == "global":
            return f"self.{global_slot(source[1])}"
        raise GenerationError(f"unknown value source {source!r}")

    # -- procedures -------------------------------------------------------------

    def _prov_inputs(self, binding, refmap: Dict[Tuple[int, str], tuple]) -> str:
        """Code for the define hook's inputs tuple: ``(position, attr,
        value-expression)`` triples in the same deduplicated order the
        interpreter records them."""
        from repro.obs.provenance import input_keys

        items = "".join(
            f"({p}, {a!r}, {self._source_code(refmap[(p, a)])}), "
            for p, a in input_keys(binding)
        )
        return f"({items})"

    def _emit_procedure(self, em: _Emitter, plan: EvaluationPlan) -> None:
        prod = self.ag.productions[plan.production]
        em.emit(f"def p{prod.index}_{sanitize(prod.tag)}(self, n0):", HUSK, 1)
        em.emit(f'"""{prod} (pass {plan.pass_k})"""', NOTE, 2)
        em.emit("rt = self.rt", HUSK, 2)
        if self.recording:
            em.emit("rec = rt.rec", PROV, 2)
        if self.memo:
            em.emit("m = rt.memo", PROV, 2)
        body = 2
        for action in plan.actions:
            kind = action.kind
            if kind is ActionKind.GET:
                sym = self._symbol_at(prod, action.position)
                em.emit(
                    f"{_var(action.position)} = rt.get({sym!r})", HUSK, body
                )
            elif kind is ActionKind.PUT:
                var = _var(action.position)
                names: List[str] = []
                for attr_name, source in action.fields:
                    names.append(attr_name)
                    if source[0] != "field":
                        em.emit(
                            f"{var}[2][{attr_name!r}] = {self._source_code(source)}",
                            SEM,
                            body,
                        )
                if self.recording:
                    sym = self._symbol_at(prod, action.position)
                    em.emit(
                        f"rec.put({action.position}, {sym!r}, rt.out_index())",
                        PROV,
                        body,
                    )
                em.emit(f"rt.put({var}, {tuple(names)!r})", HUSK, body)
            elif kind is ActionKind.VISIT:
                sym = self._symbol_at(prod, action.position)
                var = _var(action.position)
                if self.memo:
                    # Memo hook: candidate check + splice-or-visit.  The
                    # hit path consumes the subtree from the sealed memo
                    # spool; the miss path visits and records.
                    em.emit(
                        f"_mt = None if m is None else m.enter({var}, self.__dict__)",
                        PROV,
                        body,
                    )
                    em.emit("if _mt is not _MEMO_HIT:", PROV, body)
                    inner = body + 1
                else:
                    inner = body
                if self.recording:
                    em.emit(f"rec.enter_child({action.position})", PROV, inner)
                em.emit(
                    f"self.visit_{sanitize(sym)}({var})",
                    HUSK,
                    inner,
                )
                if self.recording:
                    em.emit("rec.exit_child()", PROV, inner)
                if self.memo:
                    em.emit("if _mt is not None:", PROV, inner)
                    em.emit(
                        f"m.leave(_mt, {var}, self.__dict__)", PROV, inner + 1
                    )
            elif kind is ActionKind.COMPUTE:
                binding = action.binding
                code = self.compile_expr(binding.expr, action.refmap)
                target = binding.target
                if action.temp:
                    em.emit(f"{action.temp} = {code}", SEM, body)
                    readback = action.temp
                else:
                    em.emit(
                        f"{_var(target.position)}[2][{target.attr_name!r}] = {code}",
                        SEM,
                        body,
                    )
                    readback = f"{_var(target.position)}[2][{target.attr_name!r}]"
                if self.recording:
                    em.emit(
                        f"rec.define({prod.index}, {target.position}, "
                        f"{target.attr_name!r}, {readback}, "
                        f"{self._prov_inputs(binding, action.refmap)}, "
                        f"'compute', {str(binding)!r}, rt.out_index())",
                        PROV,
                        body,
                    )
            elif kind is ActionKind.SUBSUME:
                em.emit(f"# {{ {action.binding} }} -- subsumed", NOTE, body)
                if self.recording:
                    if not action.group:
                        raise GenerationError(
                            "SUBSUME action carries no group (pass plans "
                            "predate provenance recording — likely a stale "
                            "build cache; clear it and rebuild)"
                        )
                    binding = action.binding
                    src = binding.copy_source()
                    gvar = f"self.{global_slot(action.group)}"
                    em.emit(
                        f"rec.define({prod.index}, "
                        f"{binding.target.position}, "
                        f"{binding.target.attr_name!r}, {gvar}, "
                        f"(({src.position}, {src.attr_name!r}, {gvar}), ), "
                        f"'subsume', {str(binding)!r}, rt.out_index())",
                        PROV,
                        body,
                    )
            elif kind is ActionKind.SNAPSHOT:
                em.emit(
                    f"{action.temp} = self.{global_slot(action.group)}", SEM, body
                )
            elif kind is ActionKind.SETGLOBAL:
                em.emit(
                    f"self.{global_slot(action.group)} = "
                    f"{self._source_code(action.source)}  # {action.comment}",
                    SEM,
                    body,
                )
            elif kind is ActionKind.ENTRY_SAVE:
                em.emit(
                    f"sv_{sanitize(action.group)} = self.{global_slot(action.group)}",
                    SEM,
                    body,
                )
            elif kind is ActionKind.EXIT_RESTORE:
                em.emit(
                    f"self.{global_slot(action.group)} = sv_{sanitize(action.group)}",
                    SEM,
                    body,
                )
            else:  # pragma: no cover
                raise GenerationError(f"unknown action {kind}")
        em.emit("", NOTE)

    @staticmethod
    def _symbol_at(prod: Production, position: int) -> str:
        if position == LIMB_POSITION:
            return prod.limb
        if position == LHS_POSITION:
            return prod.lhs
        return prod.rhs[position - 1]

    # -- pass module ---------------------------------------------------------------

    def generate_pass(self, plan: PassPlan) -> CodeArtifact:
        em = _Emitter()
        em.emit(
            f"# Generated attribute-evaluation pass {plan.pass_k} "
            f"({plan.direction.value}) for grammar {self.ag.name!r}.",
            NOTE,
        )
        if self.memo:
            em.emit(
                "from repro.passes.incremental import MEMO_HIT as _MEMO_HIT",
                PROV,
            )
        em.emit(f"class Pass{plan.pass_k}Evaluator:", HUSK)
        em.emit(f"PASS = {plan.pass_k}", HUSK, 1)
        em.emit("def __init__(self, rt):", HUSK, 1)
        em.emit("self.rt = rt", HUSK, 2)
        for group in plan.groups:
            em.emit(f"self.{global_slot(group)} = None", SEM, 2)
        em.emit("", NOTE)

        # The driver entry: read the root, visit, collect exports, write.
        em.emit("def run(self):", HUSK, 1)
        em.emit("rt = self.rt", HUSK, 2)
        em.emit(f"n0 = rt.get({self.ag.start!r})", HUSK, 2)
        em.emit(f"self.visit_{sanitize(self.ag.start)}(n0)", HUSK, 2)
        for attr_name, group in plan.root_exports:
            em.emit(
                f"n0[2][{attr_name!r}] = self.{global_slot(group)}", SEM, 2
            )
        if self.recording:
            em.emit(
                f"rt.rec.put(0, {self.ag.start!r}, rt.out_index())", PROV, 2
            )
        em.emit(f"rt.put(n0, {tuple(plan.root_fields)!r})", HUSK, 2)
        em.emit("return n0", HUSK, 2)
        em.emit("", NOTE)

        # Dispatchers: one per nonterminal.
        for sym in self.ag.nonterminals:
            em.emit(f"def visit_{sanitize(sym.name)}(self, node):", HUSK, 1)
            em.emit("p = node[1]", HUSK, 2)
            first = True
            for prod in self.ag.productions_of(sym.name):
                guard = "if" if first else "elif"
                em.emit(f"{guard} p == {prod.index}:", HUSK, 2)
                em.emit(f"self.p{prod.index}_{sanitize(prod.tag)}(node)", HUSK, 3)
                first = False
            em.emit("else:", HUSK, 2)
            em.emit(
                "raise ValueError("
                f"'APT out of phase at %r: production %r' % ({sym.name!r}, p))",
                HUSK,
                3,
            )
            em.emit("", NOTE)

        for prod in self.ag.productions:
            self._emit_procedure(em, plan.plans[prod.index])

        return CodeArtifact(
            pass_k=plan.pass_k,
            text=em.text(),
            husk_bytes=em.bytes_of(HUSK),
            sem_bytes=em.bytes_of(SEM),
            n_subsumed=plan.n_subsumed,
        )

    def generate_all(self, pass_plans: List[PassPlan]) -> List[CodeArtifact]:
        return [self.generate_pass(p) for p in pass_plans]


class GeneratedEvaluator:
    """Compiled generated evaluator: an executor for the driver."""

    def __init__(
        self,
        ag: AttributeGrammar,
        pass_plans: List[PassPlan],
        recording: bool = False,
        memo: bool = False,
    ):
        self.ag = ag
        self.pass_plans = pass_plans
        gen = PythonCodeGenerator(ag, recording=recording, memo=memo)
        self.artifacts = gen.generate_all(pass_plans)
        self._compile_artifacts()

    @classmethod
    def from_artifacts(
        cls,
        ag: AttributeGrammar,
        pass_plans: List[PassPlan],
        artifacts: List[CodeArtifact],
    ) -> "GeneratedEvaluator":
        """Rehydrate from already-generated source text (the warm-cache
        path): no :class:`PythonCodeGenerator` runs — construction goes
        straight to ``exec``-compiling the cached text."""
        self = cls.__new__(cls)
        self.ag = ag
        self.pass_plans = pass_plans
        self.artifacts = artifacts
        self._compile_artifacts()
        return self

    def _compile_artifacts(self) -> None:
        self._classes: Dict[int, type] = {}
        for artifact in self.artifacts:
            namespace: Dict[str, object] = {}
            code = compile(
                artifact.text, f"<generated pass {artifact.pass_k}>", "exec"
            )
            exec(code, namespace)
            self._classes[artifact.pass_k] = namespace[
                f"Pass{artifact.pass_k}Evaluator"
            ]

    def executor(self, plan: PassPlan, runtime: EvaluatorRuntime):
        """The :class:`AlternatingPassDriver`-compatible pass executor."""
        cls = self._classes[plan.pass_k]
        return cls(runtime).run()

    def source_of_pass(self, pass_k: int) -> str:
        for artifact in self.artifacts:
            if artifact.pass_k == pass_k:
                return artifact.text
        raise KeyError(pass_k)

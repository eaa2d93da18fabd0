"""Programmatic construction API for attribute grammars.

The ``.ag`` file format (parsed by :mod:`repro.frontend`) is the
system's real input; :class:`GrammarBuilder` is the equivalent Python
API, used by tests and by grammars embedded in example scripts.
:meth:`GrammarBuilder.finish` runs the full validator — including
implicit copy-rule insertion — so a finished grammar is always
well-formed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.ag.expr import Expr
from repro.ag.exprtext import parse_expression
from repro.ag.model import AttrKind, AttributeGrammar, Production, SymbolKind
from repro.ag.validate import RawFunction, parse_target_spec, validate_grammar
from repro.errors import DiagnosticSink, SemanticError, SourceLocation, NOWHERE

TargetSpec = Union[str, Sequence[str]]
ExprSpec = Union[str, Expr]


class GrammarBuilder:
    """Fluent builder producing a validated :class:`AttributeGrammar`."""

    def __init__(self, name: str, start: str):
        self.ag = AttributeGrammar(name, start)
        self._raw: Dict[int, List[RawFunction]] = {}
        self._finished = False

    # -- symbol declarations ----------------------------------------------

    def terminal(self, name: str, intrinsic: Optional[Dict[str, str]] = None) -> "GrammarBuilder":
        sym = self.ag.add_symbol(name, SymbolKind.TERMINAL)
        for attr, type_name in (intrinsic or {}).items():
            sym.add_attribute(attr, AttrKind.INTRINSIC, type_name)
        return self

    def nonterminal(
        self,
        name: str,
        inherited: Optional[Dict[str, str]] = None,
        synthesized: Optional[Dict[str, str]] = None,
        intrinsic: Optional[Dict[str, str]] = None,
    ) -> "GrammarBuilder":
        sym = self.ag.add_symbol(name, SymbolKind.NONTERMINAL)
        for attr, type_name in (inherited or {}).items():
            sym.add_attribute(attr, AttrKind.INHERITED, type_name)
        for attr, type_name in (synthesized or {}).items():
            sym.add_attribute(attr, AttrKind.SYNTHESIZED, type_name)
        for attr, type_name in (intrinsic or {}).items():
            sym.add_attribute(attr, AttrKind.INTRINSIC, type_name)
        return self

    def limb(self, name: str, local: Optional[Dict[str, str]] = None) -> "GrammarBuilder":
        sym = self.ag.add_symbol(name, SymbolKind.LIMB)
        for attr, type_name in (local or {}).items():
            sym.add_attribute(attr, AttrKind.LOCAL, type_name)
        return self

    # -- productions -------------------------------------------------------

    def production(
        self,
        lhs: str,
        rhs: Sequence[str],
        limb: str = "",
        functions: Sequence[Tuple[TargetSpec, ExprSpec]] = (),
        location: SourceLocation = NOWHERE,
    ) -> Production:
        """Add a production with its semantic functions.

        Each function is ``(targets, expression)`` where ``targets`` is
        one target spec or a list of them (``"occ.ATTR"``, or a bare
        limb-attribute name) and ``expression`` is expression source
        text or a pre-built :class:`~repro.ag.expr.Expr`.
        """
        prod = self.ag.add_production(lhs, rhs, limb, location)
        raw_list: List[RawFunction] = []
        for targets, expr in functions:
            if isinstance(targets, str):
                targets = [targets]
            parsed_targets = [parse_target_spec(t) for t in targets]
            node = parse_expression(expr) if isinstance(expr, str) else expr
            raw_list.append(RawFunction(parsed_targets, node, location))
        self._raw[prod.index] = raw_list
        return prod

    # -- finishing ----------------------------------------------------------

    def finish(self, sink: Optional[DiagnosticSink] = None) -> AttributeGrammar:
        """Validate (inserting implicit copy-rules) and return the grammar.

        Raises :class:`~repro.errors.SemanticError` on any static error;
        pass an explicit ``sink`` to collect warnings.
        """
        if self._finished:
            raise SemanticError("GrammarBuilder.finish() called twice")
        own_sink = sink if sink is not None else DiagnosticSink()
        validate_grammar(self.ag, self._raw, own_sink)
        own_sink.raise_if_errors(SemanticError)
        self._finished = True
        return self.ag

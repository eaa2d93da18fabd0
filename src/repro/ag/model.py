"""Symbols, attributes, productions, occurrences, semantic functions.

Terminology follows §I of the paper.  Positions within a production:
``LHS_POSITION`` (0) is the left-hand-side occurrence, 1…n are the
right-hand-side occurrences, and ``LIMB_POSITION`` (-1) is the
production's limb symbol (§IV: "LINGUIST-86 expects every production
that has non-trivial semantics to have a limb symbol").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.ag.expr import AttrRef, Expr
from repro.errors import SemanticError, SourceLocation, NOWHERE

LHS_POSITION = 0
LIMB_POSITION = -1


class SymbolKind(enum.Enum):
    TERMINAL = "terminal"
    NONTERMINAL = "nonterminal"
    LIMB = "limb"


class AttrKind(enum.Enum):
    INHERITED = "inherited"
    SYNTHESIZED = "synthesized"
    #: Set by the parser before any evaluation pass (§IV).
    INTRINSIC = "intrinsic"
    #: Limb attribute: a name for a common subexpression, production-local.
    LOCAL = "local"


@dataclass(frozen=True)
class Attribute:
    """An attribute of a grammar symbol.  ``type_name`` is uninterpreted."""

    symbol: str
    name: str
    kind: AttrKind
    type_name: str = "unspecified"

    def __str__(self) -> str:
        return f"{self.symbol}.{self.name}"


@dataclass
class Symbol:
    """A grammar symbol and its attribute dictionary."""

    name: str
    kind: SymbolKind
    attributes: Dict[str, Attribute] = field(default_factory=dict)

    def add_attribute(self, name: str, kind: AttrKind, type_name: str = "unspecified") -> Attribute:
        if name in self.attributes:
            raise SemanticError(f"attribute {name!r} declared twice on symbol {self.name!r}")
        self._check_kind(name, kind)
        attr = Attribute(self.name, name, kind, type_name)
        self.attributes[name] = attr
        return attr

    def _check_kind(self, name: str, kind: AttrKind) -> None:
        if self.kind is SymbolKind.TERMINAL and kind is AttrKind.SYNTHESIZED:
            raise SemanticError(
                f"terminal {self.name!r} may not have synthesized attribute {name!r} "
                "(terminal leaves carry intrinsic attributes instead)"
            )
        if self.kind is SymbolKind.LIMB and kind is not AttrKind.LOCAL:
            raise SemanticError(
                f"limb {self.name!r} may only have local attributes, not {kind.value}"
            )
        if self.kind is not SymbolKind.LIMB and kind is AttrKind.LOCAL:
            raise SemanticError(
                f"{self.kind.value} {self.name!r} may not have a local attribute "
                f"{name!r}; local attributes belong to limb symbols"
            )

    def attrs_of_kind(self, kind: AttrKind) -> List[Attribute]:
        return [a for a in self.attributes.values() if a.kind is kind]

    @property
    def inherited(self) -> List[Attribute]:
        return self.attrs_of_kind(AttrKind.INHERITED)

    @property
    def synthesized(self) -> List[Attribute]:
        return self.attrs_of_kind(AttrKind.SYNTHESIZED)

    @property
    def intrinsic(self) -> List[Attribute]:
        return self.attrs_of_kind(AttrKind.INTRINSIC)


@dataclass(frozen=True)
class SymbolOccurrence:
    """One occurrence of a symbol in a production.

    ``position`` is 0 for the LHS, 1…n for RHS, -1 for the limb.
    ``name`` is the source spelling used to reference this occurrence
    (e.g. ``function$list1`` — bare symbol name when unambiguous).
    """

    symbol: str
    position: int
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class AttributeOccurrence:
    """An attribute instance slot of a production: (position, attribute)."""

    production: int
    position: int
    attribute: Attribute

    @property
    def attr_name(self) -> str:
        return self.attribute.name

    @property
    def symbol(self) -> str:
        return self.attribute.symbol

    def __str__(self) -> str:
        where = {LHS_POSITION: "lhs", LIMB_POSITION: "limb"}.get(
            self.position, f"rhs{self.position}"
        )
        return f"{self.symbol}[{where}].{self.attr_name}"


@dataclass
class SemanticFunction:
    """One semantic function: targets ``=`` expression(s).

    ``targets`` are resolved attribute occurrences; ``expr`` produces
    ``len(targets)`` values (a multi-valued :class:`~repro.ag.expr.If`
    or, for a single shared value, any expression).  ``implicit`` marks
    copy-rules inserted by the validator (§IV).
    """

    targets: List[AttributeOccurrence]
    expr: Expr
    implicit: bool = False
    location: SourceLocation = NOWHERE
    #: Pass number assigned by the alternating-pass analysis (0 = unset).
    pass_number: int = 0

    def __str__(self) -> str:
        heads = ", ".join(str(t) for t in self.targets)
        mark = "  # implicit" if self.implicit else ""
        return f"{heads} = {self.expr}{mark}"


@dataclass
class Production:
    """A production with its limb and semantic functions."""

    index: int
    lhs: str
    rhs: Tuple[str, ...]
    limb: str = ""
    functions: List[SemanticFunction] = field(default_factory=list)
    location: SourceLocation = NOWHERE

    #: Occurrence objects, filled by the grammar on registration.
    occurrences: List[SymbolOccurrence] = field(default_factory=list)

    @property
    def tag(self) -> str:
        """Name used for the production-procedure (the limb name)."""
        return self.limb or f"P{self.index}"

    def occurrence_at(self, position: int) -> SymbolOccurrence:
        for occ in self.occurrences:
            if occ.position == position:
                return occ
        raise KeyError(f"production {self.index} has no occurrence at position {position}")

    def occurrence_named(self, name: str) -> Optional[SymbolOccurrence]:
        for occ in self.occurrences:
            if occ.name == name:
                return occ
        return None

    def rhs_positions(self) -> range:
        return range(1, len(self.rhs) + 1)

    def __str__(self) -> str:
        rhs = " ".join(self.rhs) if self.rhs else "ε"
        limb = f" -> {self.limb}" if self.limb else ""
        return f"{self.lhs} = {rhs}{limb}."


class AttributeGrammar:
    """The whole attribute grammar: the dictionary overlays 2–3 build."""

    def __init__(self, name: str, start: str):
        self.name = name
        self.start = start
        self.symbols: Dict[str, Symbol] = {}
        self.productions: List[Production] = []
        #: Declared order of external function names (informational).
        self.source_lines: int = 0

    # -- symbols ---------------------------------------------------------

    def add_symbol(self, name: str, kind: SymbolKind) -> Symbol:
        if name in self.symbols:
            raise SemanticError(f"grammar symbol {name!r} declared twice")
        sym = Symbol(name, kind)
        self.symbols[name] = sym
        return sym

    def symbol(self, name: str) -> Symbol:
        try:
            return self.symbols[name]
        except KeyError:
            raise SemanticError(f"unknown grammar symbol {name!r}") from None

    def symbols_of_kind(self, kind: SymbolKind) -> List[Symbol]:
        return [s for s in self.symbols.values() if s.kind is kind]

    @property
    def terminals(self) -> List[Symbol]:
        return self.symbols_of_kind(SymbolKind.TERMINAL)

    @property
    def nonterminals(self) -> List[Symbol]:
        return self.symbols_of_kind(SymbolKind.NONTERMINAL)

    @property
    def limbs(self) -> List[Symbol]:
        return self.symbols_of_kind(SymbolKind.LIMB)

    # -- productions -----------------------------------------------------

    def add_production(
        self,
        lhs: str,
        rhs: Sequence[str],
        limb: str = "",
        location: SourceLocation = NOWHERE,
    ) -> Production:
        lhs_sym = self.symbol(lhs)
        if lhs_sym.kind is not SymbolKind.NONTERMINAL:
            raise SemanticError(
                f"left-hand side {lhs!r} of a production must be a nonterminal"
            )
        for r in rhs:
            rsym = self.symbol(r)
            if rsym.kind is SymbolKind.LIMB:
                raise SemanticError(
                    f"limb symbol {r!r} may not occur in a production right-hand side"
                )
        if limb:
            limb_sym = self.symbol(limb)
            if limb_sym.kind is not SymbolKind.LIMB:
                raise SemanticError(f"{limb!r} is not declared as a limb symbol")
            for q in self.productions:
                if q.limb == limb:
                    raise SemanticError(
                        f"limb {limb!r} used by two productions ({q.index} and "
                        f"{len(self.productions)}); limbs identify productions"
                    )
        prod = Production(
            index=len(self.productions),
            lhs=lhs,
            rhs=tuple(rhs),
            limb=limb,
            location=location,
        )
        prod.occurrences = self._make_occurrences(prod)
        self.productions.append(prod)
        return prod

    def _make_occurrences(self, prod: Production) -> List[SymbolOccurrence]:
        """Name occurrences by symbol, with numeric suffixes when a symbol
        occurs more than once (LHS counts: ``S0`` is the LHS of
        ``S0 ::= V S1``)."""
        all_syms = [prod.lhs] + list(prod.rhs)
        counts: Dict[str, int] = {}
        for s in all_syms:
            counts[s] = counts.get(s, 0) + 1
        seen: Dict[str, int] = {}
        occurrences: List[SymbolOccurrence] = []
        for position, s in enumerate(all_syms):  # position 0 == LHS
            if counts[s] > 1:
                suffix = seen.get(s, 0)
                seen[s] = suffix + 1
                name = f"{s}{suffix}"
            else:
                name = s
            occurrences.append(SymbolOccurrence(s, position, name))
        if prod.limb:
            occurrences.append(SymbolOccurrence(prod.limb, LIMB_POSITION, prod.limb))
        return occurrences

    # -- attribute occurrences -------------------------------------------

    def attribute_occurrences(self, prod: Production) -> List[AttributeOccurrence]:
        """Every attribute-occurrence of ``prod`` (the paper counts 1202
        of these for its own grammar)."""
        out: List[AttributeOccurrence] = []
        for occ in prod.occurrences:
            sym = self.symbol(occ.symbol)
            for attr in sym.attributes.values():
                out.append(AttributeOccurrence(prod.index, occ.position, attr))
        return out

    def occurrence(self, prod: Production, position: int, attr_name: str) -> AttributeOccurrence:
        if position == LIMB_POSITION:
            sym = self.symbol(prod.limb)
        elif position == LHS_POSITION:
            sym = self.symbol(prod.lhs)
        else:
            sym = self.symbol(prod.rhs[position - 1])
        attr = sym.attributes.get(attr_name)
        if attr is None:
            raise SemanticError(
                f"symbol {sym.name!r} has no attribute {attr_name!r} "
                f"(production {prod.index}: {prod})"
            )
        return AttributeOccurrence(prod.index, position, attr)

    # -- convenience -----------------------------------------------------

    def productions_of(self, lhs: str) -> List[Production]:
        return [p for p in self.productions if p.lhs == lhs]

    def all_attributes(self) -> List[Attribute]:
        out: List[Attribute] = []
        for sym in self.symbols.values():
            out.extend(sym.attributes.values())
        return out

    def underlying_cfg(self):
        """The underlying context-free grammar, for the LALR builder —
        "exactly the same input file" goes to both tools (§IV)."""
        from repro.lalr.grammar import Grammar

        return Grammar(
            self.start,
            [(p.lhs, list(p.rhs), p.tag) for p in self.productions],
            terminals=[t.name for t in self.terminals],
        )

    def __str__(self) -> str:
        lines = [f"attribute grammar {self.name} (start {self.start})"]
        for p in self.productions:
            lines.append(str(p))
            for f in p.functions:
                lines.append(f"    {f}")
        return "\n".join(lines)

"""Semantic-function expression AST.

§IV fixes the expression language: "some standard infix operators
(+, -, AND, OR, =, <>, >, <), constants (e.g. 0, 14, true), as well as
a value-producing control flow construct" (``if/then/elsif/else/endif``),
with the restriction that "control flow constructs can be nested within
one another but they can not occur within the operands of infix
operators, or arguments to external functions".  Any identifier that is
not a grammar symbol or attribute is an uninterpreted constant or
function, resolved at evaluation time against a function library.

An :class:`If` whose branches are expression *lists* produces several
values pairwise for a multi-target semantic function (Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, List, Tuple, Union


class Expr:
    """Base class of expression nodes."""

    __slots__ = ()

    def arity(self) -> int:
        """Number of values this expression produces (lists only via If)."""
        return 1

    def refs(self) -> Iterator["AttrRef"]:
        """All attribute references in the expression, in syntax order."""
        return iter(())

    def contains_if(self) -> bool:
        return False

    def select(self, index: int) -> "Expr":
        """The expression computing value ``index`` of a multi-valued expr."""
        if index != 0:
            raise IndexError(f"single-valued expression has no component {index}")
        return self


@dataclass(frozen=True)
class Const(Expr):
    """A literal constant (number, boolean, string) or an uninterpreted
    constant identifier such as ``no$msg`` (value = its own name)."""

    value: Any
    is_symbolic: bool = False  # True for uninterpreted identifiers

    def __str__(self) -> str:
        if self.is_symbolic:
            return str(self.value)
        if isinstance(self.value, bool):
            return "true" if self.value else "false"
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


@dataclass(frozen=True)
class AttrRef(Expr):
    """A reference to an attribute occurrence, e.g. ``function$list1.FUNCTS``.

    ``occ_name`` is the occurrence spelling in the source (symbol name
    plus optional numeric suffix, or empty for a bare limb-attribute
    reference); ``attr_name`` is the attribute.  Resolution to a
    position happens during validation and is cached in ``position``
    (``None`` until resolved).
    """

    occ_name: str
    attr_name: str
    position: Union[int, None] = field(default=None, compare=False)

    def refs(self) -> Iterator["AttrRef"]:
        yield self

    def __str__(self) -> str:
        if self.occ_name:
            return f"{self.occ_name}.{self.attr_name}"
        return self.attr_name

    def resolved(self, position: int) -> "AttrRef":
        return AttrRef(self.occ_name, self.attr_name, position)


#: The paper's infix operators (plus the pragmatic arithmetic extensions
#: ``*`` and ``DIV`` used by the shipped Pascal grammar).
BINARY_OPS = ("+", "-", "*", "DIV", "AND", "OR", "=", "<>", ">", "<", ">=", "<=")


@dataclass(frozen=True)
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in BINARY_OPS:
            raise ValueError(f"unknown infix operator {self.op!r}")

    def refs(self) -> Iterator[AttrRef]:
        yield from self.left.refs()
        yield from self.right.refs()

    def contains_if(self) -> bool:
        return self.left.contains_if() or self.right.contains_if()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Not(Expr):
    """Logical negation — appears in the paper as ``not function.EVAL``."""

    body: Expr

    def refs(self) -> Iterator[AttrRef]:
        yield from self.body.refs()

    def contains_if(self) -> bool:
        return self.body.contains_if()

    def __str__(self) -> str:
        return f"(not {self.body})"


@dataclass(frozen=True)
class Call(Expr):
    """Application of an uninterpreted external function."""

    func: str
    args: Tuple[Expr, ...]

    def refs(self) -> Iterator[AttrRef]:
        for a in self.args:
            yield from a.refs()

    def contains_if(self) -> bool:
        return any(a.contains_if() for a in self.args)

    def __str__(self) -> str:
        return f"{self.func}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class If(Expr):
    """``if cond then e1,…,ek elsif … else f1,…,fk endif``.

    ``then_branch`` is a tuple of expressions (length = arity);
    ``else_branch`` is either a tuple of the same length or a nested
    :class:`If` (the ``elsif`` chain).
    """

    cond: Expr
    then_branch: Tuple[Expr, ...]
    else_branch: Union[Tuple[Expr, ...], "If"]

    def arity(self) -> int:
        return len(self.then_branch)

    def refs(self) -> Iterator[AttrRef]:
        yield from self.cond.refs()
        for e in self.then_branch:
            yield from e.refs()
        if isinstance(self.else_branch, If):
            yield from self.else_branch.refs()
        else:
            for e in self.else_branch:
                yield from e.refs()

    def contains_if(self) -> bool:
        return True

    def select(self, index: int) -> Expr:
        """Per-target projection of a multi-valued conditional."""
        if not 0 <= index < self.arity():
            raise IndexError(f"if-expression has arity {self.arity()}, no component {index}")
        if isinstance(self.else_branch, If):
            else_part: Union[Tuple[Expr, ...], If] = self.else_branch.select(index)
            if not isinstance(else_part, If):
                else_part = (else_part,)
        else:
            else_part = (self.else_branch[index],)
        return If(self.cond, (self.then_branch[index],), else_part)

    def __str__(self) -> str:
        then_s = ", ".join(str(e) for e in self.then_branch)
        if isinstance(self.else_branch, If):
            else_s = str(self.else_branch)
            return f"if {self.cond} then {then_s} els{else_s[2:]}"
        else_s = ", ".join(str(e) for e in self.else_branch)
        return f"if {self.cond} then {then_s} else {else_s} endif"


def expression_size(expr: Expr) -> int:
    """Node count of an expression — the code-size proxy the static
    subsumption cost model uses."""
    if isinstance(expr, (Const, AttrRef)):
        return 1
    if isinstance(expr, Not):
        return 1 + expression_size(expr.body)
    if isinstance(expr, BinOp):
        return 1 + expression_size(expr.left) + expression_size(expr.right)
    if isinstance(expr, Call):
        return 1 + sum(expression_size(a) for a in expr.args)
    if isinstance(expr, If):
        total = 1 + expression_size(expr.cond)
        total += sum(expression_size(e) for e in expr.then_branch)
        if isinstance(expr.else_branch, If):
            total += expression_size(expr.else_branch)
        else:
            total += sum(expression_size(e) for e in expr.else_branch)
        return total
    raise TypeError(f"unknown expression node {expr!r}")

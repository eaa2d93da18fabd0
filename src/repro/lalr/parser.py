"""Table-driven shift-reduce parser.

The parser interprets :class:`~repro.lalr.tables.ParseTables` over a
token stream.  Handed a :class:`RecordSink` (the APT builder), it
writes the initial APT file itself: every shift and reduce appends its
``(symbol, production, attrs, is_limb)`` records in-line, **in
bottom-up order** — exactly the paper's first linearization strategy
("for the parser to emit tree nodes in bottom-up order … the first
attribute evaluation pass is right-to-left").  Any other
:class:`ParseListener` receives shift/reduce events, and a generic
:class:`ParseTreeNode` builder is provided for tests and the front end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ParseError
from repro.lalr.grammar import EOF_SYMBOL, Grammar, Production
from repro.lalr.tables import Action, ActionKind, ParseTables
from repro.regex.scanner import Token


@dataclass
class ParseTreeNode:
    """A generic concrete-syntax tree node."""

    symbol: str
    production: Optional[Production] = None  # None for terminal leaves
    token: Optional[Token] = None
    children: List["ParseTreeNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return self.production is None

    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        if self.is_leaf:
            text = self.token.text if self.token else ""
            return f"{pad}{self.symbol} {text!r}"
        lines = [f"{pad}{self.symbol}  [{self.production.tag or self.production.index}]"]
        lines.extend(child.pretty(indent + 1) for child in self.children)
        return "\n".join(lines)

    def leaves(self) -> Iterable["ParseTreeNode"]:
        if self.is_leaf:
            yield self
            return
        for child in self.children:
            yield from child.leaves()


class ParseListener:
    """Receives shift/reduce events during parsing.

    ``on_shift`` fires for every terminal consumed; ``on_reduce`` fires
    for every production applied, in bottom-up order — together these
    form the right-parse the first evaluation pass consumes.
    """

    def on_shift(self, token: Token) -> None:  # pragma: no cover - interface
        pass

    def on_reduce(self, production: Production) -> None:  # pragma: no cover
        pass


class RecordSink:
    """Receives the APT records :meth:`LALRParser.parse` writes.

    The parser asks the sink once per distinct terminal kind
    (:meth:`terminal`) and once per production (:meth:`production`)
    what records they make; after that each shift and reduce builds its
    records in-line, with no per-node call into the sink.  ``append``,
    when set, receives every record in bottom-up order as it is made.
    With ``retain`` the parse stack keeps the subtrees: a terminal's
    record stands for itself, an interior node is a ``[record, limb
    record or None, children]`` list.  :meth:`accept` gets the final
    stack and the number of records made.
    """

    #: ``(token, symbol, attribute name) -> value`` for intrinsics.
    intrinsic_fn: Callable[[Token, str, str], object]
    append: Optional[Callable[[tuple], None]] = None
    retain: bool = False

    def terminal(self, kind: str) -> Tuple[str, Tuple[str, ...]]:
        """``(symbol, intrinsic attribute names)`` of a shifted kind."""
        raise NotImplementedError

    def production(self, production: Production) -> Tuple[int, str, Optional[str], int]:
        """``(index, lhs, limb, arity)`` of a reduced production's records."""
        raise NotImplementedError

    def accept(self, stack: List[Any], n_records: int) -> None:
        raise NotImplementedError


#: Encoded ACTION entries of :meth:`LALRParser._rows`: a shift is its
#: target state (>= 0), a reduce by production ``p`` (never 0, the
#: synthetic ``$accept``) is ``~p``, and accept is ``~0``.
_ACCEPT = ~0


class LALRParser:
    """Interprets LALR parse tables over a scanner's token stream."""

    def __init__(self, tables: ParseTables):
        self.tables = tables
        self.grammar: Grammar = tables.grammar
        #: Per-state ACTION rows and per-nonterminal GOTO rows, built on
        #: the first record-writing parse (see :meth:`_rows`).
        self._action_rows: Optional[List[Dict[str, int]]] = None
        self._goto_rows: Dict[str, Dict[int, int]] = {}

    def _rows(self):
        """The tables re-keyed for the record loop: one dict probe per
        lookup and no key tuple built per token."""
        if self._action_rows is None:
            rows: List[Dict[str, int]] = [{} for _ in range(self.tables.n_states)]
            for (state, terminal), act in self.tables.action.items():
                if act.kind is ActionKind.SHIFT:
                    code = act.target
                elif act.kind is ActionKind.REDUCE:
                    code = ~act.target
                else:
                    code = _ACCEPT
                rows[state][terminal] = code
            gotos: Dict[str, Dict[int, int]] = {}
            for (state, nonterminal), target in self.tables.goto.items():
                gotos.setdefault(nonterminal, {})[state] = target
            self._goto_rows = gotos
            self._action_rows = rows
        return self._action_rows, self._goto_rows

    def parse(
        self,
        tokens: Iterable[Token],
        listener: Optional[ParseListener] = None,
        build_tree: bool = True,
        tracer=None,
    ) -> Optional[ParseTreeNode]:
        """Parse ``tokens``; return the tree root (or None if not built).

        ``tokens`` must end with a token whose kind is ``$eof`` (the
        scanner emits one).  Raises :class:`ParseError` on syntax errors
        with the set of expected terminals.  A :class:`RecordSink`
        listener gets the APT records written straight into it (and no
        tree is built); any other listener gets shift/reduce events.
        With a ``tracer`` the whole parse runs inside one span (category
        ``parse``) whose args carry the final shift/reduce counts.
        """
        parse = self._parse_records if isinstance(listener, RecordSink) else self._parse
        if tracer is not None:
            span = tracer.begin("parse", cat="parse")
            try:
                return parse(tokens, listener, build_tree, span)
            finally:
                tracer.end()
        return parse(tokens, listener, build_tree, None)

    def _parse_records(
        self, tokens: Iterable[Token], sink: RecordSink, _build_tree, span
    ) -> None:
        rows, goto_rows = self._rows()
        productions = self.grammar.productions
        intrinsic = sink.intrinsic_fn
        append = sink.append
        retain = sink.retain
        # Resolved on first sight: kind -> (symbol, attribute names);
        # encoded reduce -> (index, lhs, limb, arity, GOTO row).
        terminals: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
        reductions: Dict[int, tuple] = {}
        states: List[int] = [0]
        # One entry per parse-stack symbol: its record, or (retaining)
        # an interior node's [record, limb, children] subtree.
        stack: List[Any] = []
        n_shifts = n_reduces = n_limbs = 0
        stream = iter(tokens)
        token = next(stream, None)
        if token is None:
            token = Token(EOF_SYMBOL, "", _loc())
        while True:
            code = rows[states[-1]].get(token.kind)
            if code is None:
                self._syntax_error(states[-1], token)
            if code >= 0:  # shift
                n_shifts += 1
                kind = token.kind
                resolved = terminals.get(kind)
                if resolved is None:
                    resolved = terminals[kind] = sink.terminal(kind)
                symbol, names = resolved
                record = (
                    symbol,
                    None,
                    {name: intrinsic(token, symbol, name) for name in names}
                    if names else {},
                    False,
                )
                if append is not None:
                    append(record)
                stack.append(record)
                states.append(code)
                token = next(stream, None)
                if token is None:
                    token = Token(EOF_SYMBOL, "", _loc())
            elif code != _ACCEPT:  # reduce
                n_reduces += 1
                resolved = reductions.get(code)
                if resolved is None:
                    production = productions[~code]
                    resolved = reductions[code] = sink.production(production) + (
                        goto_rows.get(production.lhs, {}),
                    )
                index, lhs, limb, arity, goto_row = resolved
                record = (lhs, index, {}, False)
                limb_record = None
                if limb is not None:
                    n_limbs += 1
                    limb_record = (limb, index, {}, True)
                    if append is not None:
                        append(limb_record)
                if append is not None:
                    append(record)
                if arity:
                    del states[-arity:]
                    if retain:
                        record = [record, limb_record, stack[-arity:]]
                    del stack[-arity:]
                elif retain:
                    record = [record, limb_record, []]
                stack.append(record)
                target = goto_row.get(states[-1])
                if target is None:
                    raise ParseError(
                        f"internal: missing goto for {lhs} in state {states[-1]}"
                    )
                states.append(target)
            else:  # accept
                if span is not None:
                    span.args["n_shifts"] = n_shifts
                    span.args["n_reduces"] = n_reduces
                sink.accept(stack, n_shifts + n_reduces + n_limbs)
                return None

    def _syntax_error(self, state: int, token: Token) -> None:
        expected = self.tables.expected_terminals(state)
        raise ParseError(
            f"{token.location}: syntax error at {token.kind} "
            f"({token.text!r}); expected one of: {', '.join(expected)}"
        )

    def _parse(
        self,
        tokens: Iterable[Token],
        listener: Optional[ParseListener],
        build_tree: bool,
        span,
    ) -> Optional[ParseTreeNode]:
        n_shifts = 0
        n_reduces = 0
        state_stack: List[int] = [0]
        node_stack: List[Optional[ParseTreeNode]] = []
        stream = iter(tokens)
        token = next(stream, None)
        if token is None:
            token = Token(EOF_SYMBOL, "", _loc())
        while True:
            state = state_stack[-1]
            act = self.tables.action_for(state, token.kind)
            if act is None:
                self._syntax_error(state, token)
            if act.kind is ActionKind.SHIFT:
                n_shifts += 1
                if listener is not None:
                    listener.on_shift(token)
                state_stack.append(act.target)
                node_stack.append(
                    ParseTreeNode(token.kind, token=token) if build_tree else None
                )
                token = next(stream, None)
                if token is None:
                    token = Token(EOF_SYMBOL, "", _loc())
            elif act.kind is ActionKind.REDUCE:
                n_reduces += 1
                prod = self.grammar.productions[act.target]
                n = len(prod.rhs)
                children = node_stack[len(node_stack) - n :] if n else []
                del state_stack[len(state_stack) - n :]
                del node_stack[len(node_stack) - n :]
                if listener is not None:
                    listener.on_reduce(prod)
                goto = self.tables.goto_for(state_stack[-1], prod.lhs)
                if goto is None:
                    raise ParseError(
                        f"internal: missing goto for {prod.lhs} in state {state_stack[-1]}"
                    )
                state_stack.append(goto)
                node_stack.append(
                    ParseTreeNode(prod.lhs, production=prod, children=list(children))
                    if build_tree
                    else None
                )
            else:  # ACCEPT
                if span is not None:
                    span.args["n_shifts"] = n_shifts
                    span.args["n_reduces"] = n_reduces
                if listener is not None:
                    listener.on_shift(token)  # the $eof leaf
                if build_tree:
                    root = ParseTreeNode(
                        self.grammar.productions[0].lhs,
                        production=self.grammar.productions[0],
                        children=[
                            node_stack[-1],
                            ParseTreeNode(EOF_SYMBOL, token=token),
                        ],
                    )
                    return root
                return None


def _loc():
    from repro.errors import SourceLocation

    return SourceLocation()

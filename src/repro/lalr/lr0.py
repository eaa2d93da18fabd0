"""The LR(0) automaton: items, closure, goto, canonical collection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.lalr.grammar import Grammar, Production


@dataclass(frozen=True, order=True)
class Item:
    """An LR(0) item: production index and dot position."""

    prod: int
    dot: int

    def next_symbol(self, grammar: Grammar) -> str:
        p = grammar.productions[self.prod]
        return p.rhs[self.dot] if self.dot < len(p.rhs) else ""

    def advanced(self) -> "Item":
        return Item(self.prod, self.dot + 1)

    def render(self, grammar: Grammar) -> str:
        p = grammar.productions[self.prod]
        rhs = list(p.rhs)
        rhs.insert(self.dot, "·")
        return f"{p.lhs} -> {' '.join(rhs)}"


ItemSet = FrozenSet[Item]


class LR0Automaton:
    """Canonical collection of LR(0) item sets and the goto function."""

    def __init__(self, grammar: Grammar):
        self.grammar = grammar
        self.states: List[ItemSet] = []
        self.kernels: List[ItemSet] = []
        #: goto[(state, symbol)] -> state
        self.goto: Dict[Tuple[int, str], int] = {}
        self._build()

    def closure(self, items: Set[Item]) -> ItemSet:
        g = self.grammar
        out = set(items)
        work = list(items)
        while work:
            item = work.pop()
            sym = item.next_symbol(g)
            if sym and sym in g.nonterminals:
                for p in g.productions_of(sym):
                    new = Item(p.index, 0)
                    if new not in out:
                        out.add(new)
                        work.append(new)
        return frozenset(out)

    def _build(self) -> None:
        g = self.grammar
        start_kernel = frozenset({Item(0, 0)})
        start = self.closure(set(start_kernel))
        index: Dict[ItemSet, int] = {start: 0}
        self.states = [start]
        self.kernels = [start_kernel]
        work = [0]
        while work:
            i = work.pop(0)
            items = self.states[i]
            symbols = sorted(
                {item.next_symbol(g) for item in items if item.next_symbol(g)}
            )
            for sym in symbols:
                kernel = frozenset(
                    item.advanced() for item in items if item.next_symbol(g) == sym
                )
                nxt_set = self.closure(set(kernel))
                j = index.get(nxt_set)
                if j is None:
                    j = len(self.states)
                    index[nxt_set] = j
                    self.states.append(nxt_set)
                    self.kernels.append(kernel)
                    work.append(j)
                self.goto[(i, sym)] = j

    def n_states(self) -> int:
        return len(self.states)

    def completed_items(self, state: int) -> List[Item]:
        """Items with the dot at the end (reduce candidates) in ``state``."""
        g = self.grammar
        return [
            item
            for item in self.states[state]
            if item.dot == len(g.productions[item.prod].rhs)
        ]

    def render_state(self, state: int) -> str:
        lines = [f"state {state}:"]
        for item in sorted(self.states[state]):
            marker = "  *" if item in self.kernels[state] else "   "
            lines.append(f"{marker} {item.render(self.grammar)}")
        return "\n".join(lines)

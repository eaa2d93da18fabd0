"""Grammar statistics — the §IV numbers for EXP-T1 and EXP-C1.

The paper reports, for the LINGUIST-86 grammar itself: 1800 lines, 159
symbols, 318 attributes, 72 productions, 1202 attribute-occurrences,
584 semantic functions of which 302 (~52 %) are copy-rules and 276 of
those implicit; evaluable in 4 alternating passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.ag.copyrules import is_copy_rule
from repro.ag.model import AttributeGrammar, SymbolKind


@dataclass
class GrammarStatistics:
    name: str
    source_lines: int
    n_symbols: int
    n_terminals: int
    n_nonterminals: int
    n_limbs: int
    n_attributes: int
    n_productions: int
    n_attribute_occurrences: int
    n_semantic_functions: int
    n_copy_rules: int
    n_implicit_copy_rules: int
    n_passes: int = 0  # filled by the alternating-pass analysis

    @property
    def copy_rule_percent(self) -> float:
        if not self.n_semantic_functions:
            return 0.0
        return 100.0 * self.n_copy_rules / self.n_semantic_functions

    def render(self) -> str:
        rows = [
            ("source lines", self.source_lines),
            ("grammar symbols", self.n_symbols),
            ("  terminals", self.n_terminals),
            ("  nonterminals", self.n_nonterminals),
            ("  limbs", self.n_limbs),
            ("attributes", self.n_attributes),
            ("productions", self.n_productions),
            ("attribute-occurrences", self.n_attribute_occurrences),
            ("semantic functions", self.n_semantic_functions),
            ("copy-rules", self.n_copy_rules),
            ("  implicit copy-rules", self.n_implicit_copy_rules),
            ("copy-rule percentage", f"{self.copy_rule_percent:.1f}%"),
        ]
        if self.n_passes:
            rows.append(("alternating passes", self.n_passes))
        width = max(len(label) for label, _ in rows)
        lines = [f"statistics for attribute grammar {self.name!r}:"]
        lines.extend(f"  {label:<{width}}  {value}" for label, value in rows)
        return "\n".join(lines)


def compute_statistics(ag: AttributeGrammar, n_passes: int = 0) -> GrammarStatistics:
    n_functions = 0
    n_copies = 0
    n_implicit = 0
    n_occurrences = 0
    for prod in ag.productions:
        n_occurrences += len(ag.attribute_occurrences(prod))
        for func in prod.functions:
            n_functions += 1
            if is_copy_rule(func):
                n_copies += 1
                if func.implicit:
                    n_implicit += 1
    return GrammarStatistics(
        name=ag.name,
        source_lines=ag.source_lines,
        n_symbols=len(ag.symbols),
        n_terminals=len(ag.terminals),
        n_nonterminals=len(ag.nonterminals),
        n_limbs=len(ag.limbs),
        n_attributes=len(ag.all_attributes()),
        n_productions=len(ag.productions),
        n_attribute_occurrences=n_occurrences,
        n_semantic_functions=n_functions,
        n_copy_rules=n_copies,
        n_implicit_copy_rules=n_implicit,
        n_passes=n_passes,
    )

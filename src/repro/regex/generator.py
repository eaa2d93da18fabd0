"""The scanner generator's public API.

A :class:`ScannerSpec` is "a set of regular expressions" (§V); calling
:meth:`ScannerSpec.generate` runs regex-parse → Thompson NFA → subset
construction → minimization and returns a ready :class:`Scanner` whose
tables can also be rendered as source text (the original emitted its
scanner tables as data modules linked into overlay 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.regex.ast import ALPHABET_SIZE, Regex
from repro.regex.dfa import DFA, determinize, minimize
from repro.regex.nfa import build_nfa
from repro.regex.parser import parse_regex
from repro.regex.scanner import Scanner
from repro.util.nametable import NameTable


@dataclass
class ScannerSpec:
    """Declarative description of a lexical language."""

    rules: List[Tuple[str, Regex]] = field(default_factory=list)
    skip: Set[str] = field(default_factory=set)
    keywords: Dict[str, str] = field(default_factory=dict)
    keyword_kinds: Set[str] = field(default_factory=lambda: {"IDENT"})
    intern_kinds: Set[str] = field(default_factory=set)

    def rule(self, kind: str, pattern: str, skip: bool = False, intern: bool = False) -> "ScannerSpec":
        """Add a token rule given as regex source text.  Earlier rules win ties."""
        self.rules.append((kind, parse_regex(pattern)))
        if skip:
            self.skip.add(kind)
        if intern:
            self.intern_kinds.add(kind)
        return self

    def keyword(self, lexeme: str, kind: Optional[str] = None) -> "ScannerSpec":
        """Declare ``lexeme`` a keyword (token kind defaults to the lexeme)."""
        self.keywords[lexeme] = kind if kind is not None else lexeme
        return self

    def generate(self, names: Optional[NameTable] = None, filename: str = "<input>") -> Scanner:
        return ScannerGenerator(self).generate(names=names, filename=filename)


class ScannerGenerator:
    """Compiles a :class:`ScannerSpec` into DFA tables and a scanner."""

    def __init__(self, spec: ScannerSpec, dfa: Optional[DFA] = None):
        #: ``dfa`` pre-seeds the pipeline with an already-built (e.g.
        #: cache-rehydrated) DFA, skipping NFA construction, subset
        #: construction, and minimization entirely.
        self.spec = spec
        self._dfa: Optional[DFA] = dfa

    def build_tables(self) -> DFA:
        """Run the full pipeline and cache the minimized DFA."""
        if self._dfa is None:
            nfa = build_nfa(self.spec.rules)
            self._dfa = minimize(determinize(nfa))
        return self._dfa

    def generate(self, names: Optional[NameTable] = None, filename: str = "<input>") -> Scanner:
        dfa = self.build_tables()
        return Scanner(
            dfa,
            skip=set(self.spec.skip),
            keywords=dict(self.spec.keywords),
            keyword_kinds=set(self.spec.keyword_kinds),
            intern_kinds=set(self.spec.intern_kinds),
            names=names,
            filename=filename,
        )

    def render_tables(self, module_name: str = "scanner_tables") -> str:
        """Render the DFA as a Python data module (the "generated scanner
        tables" artifact of overlay 1)."""
        dfa = self.build_tables()
        lines = [
            f'"""Generated scanner tables: {module_name}."""',
            "",
            f"N_STATES = {dfa.n_states}",
            f"START = {dfa.start}",
            f"ALPHABET_SIZE = {ALPHABET_SIZE}",
            f"ACCEPTS = {dfa.accepts!r}",
            f"TRANS = {dfa.trans!r}",
            "",
        ]
        return "\n".join(lines)

"""Table-driven maximal-munch scanner interpreter.

LINGUIST-86's overlay 1 contains "the automatically generated scanner
tables and parser tables and their interpreters".  :class:`Scanner` is
the scanner-table interpreter: it walks the minimized DFA to the longest
match, applies keyword remapping, skips ignorable tokens, and tracks
source coordinates.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Set

from repro.errors import ScanError, SourceLocation
from repro.regex.ast import ALPHABET_SIZE, OTHER
from repro.regex.dfa import DEAD, DFA
from repro.util.nametable import NameTable


class Token(NamedTuple):
    """One lexeme: kind, text, source location, optional interned name."""

    kind: str
    text: str
    location: SourceLocation
    name_index: int = 0

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.location.line}:{self.location.column})"


#: Kind used for the synthetic end-of-input token.
EOF = "$eof"


class Scanner:
    """Longest-match scanner over a DFA table.

    Parameters
    ----------
    dfa:
        the (minimized) DFA whose accept tags are token kinds.
    skip:
        token kinds to drop silently (whitespace, comments).
    keywords:
        map from exact lexeme to token kind; applied after a match of a
        kind in ``keyword_kinds`` (usually just the identifier kind).
    intern_kinds:
        kinds whose lexemes are interned in the name table and carried
        on the token as ``name_index`` — the paper's intrinsic
        name-table-index attributes of terminal leaves.
    """

    def __init__(
        self,
        dfa: DFA,
        skip: Optional[Set[str]] = None,
        keywords: Optional[Dict[str, str]] = None,
        keyword_kinds: Optional[Set[str]] = None,
        intern_kinds: Optional[Set[str]] = None,
        names: Optional[NameTable] = None,
        filename: str = "<input>",
    ):
        self.dfa = dfa
        self.skip = skip or set()
        self.keywords = keywords or {}
        self.keyword_kinds = keyword_kinds or {"IDENT"}
        self.intern_kinds = intern_kinds or set()
        self.names = names if names is not None else NameTable()
        self.filename = filename
        #: Accept tag of every DFA state (None where it rejects).
        self._tags = [dfa.accept_tag(s) for s in range(dfa.n_states)]

    def tokens(self, text: str) -> Iterator[Token]:
        """Yield tokens of ``text``, ending with one EOF token."""
        pos = 0
        line = 1
        col = 1
        n = len(text)
        # The DFA walk indexes the flat transition table and the
        # per-state accept tags directly: no call per character.
        trans = self.dfa.trans
        tags = self._tags
        start = self.dfa.start
        width, other, dead = ALPHABET_SIZE, OTHER, DEAD
        keywords, keyword_kinds = self.keywords, self.keyword_kinds
        skip, intern_kinds = self.skip, self.intern_kinds
        intern = self.names.intern
        filename = self.filename
        while pos < n:
            state = start
            last_accept: Optional[str] = None
            last_end = pos
            i = pos
            while i < n:
                code = ord(text[i])
                state = trans[state * width + (code if code < other else other)]
                if state == dead:
                    break
                i += 1
                tag = tags[state]
                if tag is not None:
                    last_accept = tag
                    last_end = i
            if last_accept is None:
                raise ScanError(
                    f"{filename}:{line}:{col}: illegal character {text[pos]!r}"
                )
            lexeme = text[pos:last_end]
            at_line, at_col = line, col
            # Advance source coordinates over the lexeme.
            newlines = lexeme.count("\n")
            if newlines:
                line += newlines
                col = len(lexeme) - lexeme.rfind("\n")
            else:
                col += len(lexeme)
            pos = last_end
            kind = last_accept
            if kind in keyword_kinds and lexeme in keywords:
                kind = keywords[lexeme]
            if kind in skip:
                continue
            name_index = intern(lexeme) if kind in intern_kinds else 0
            yield Token(
                kind, lexeme, SourceLocation(at_line, at_col, filename),
                name_index,
            )
        yield Token(EOF, "", SourceLocation(line, col, filename))

    def scan(self, text: str) -> List[Token]:
        """Scan all of ``text`` into a token list (including EOF)."""
        return list(self.tokens(text))

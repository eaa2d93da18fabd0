"""Table-driven maximal-munch scanner interpreter.

LINGUIST-86's overlay 1 contains "the automatically generated scanner
tables and parser tables and their interpreters".  :class:`Scanner` is
the scanner-table interpreter: it walks the minimized DFA to the longest
match, applies keyword remapping, skips ignorable tokens, and tracks
source coordinates.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

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

    def tokens(
        self,
        text: str,
        start: int = 0,
        line: int = 1,
        col: int = 1,
        layout: Optional["ScanLayout"] = None,
        sync: Optional[Tuple[int, int, List[int]]] = None,
    ) -> Iterator[Token]:
        """Yield tokens of ``text``, ending with one EOF token.

        A scan may start mid-text, at a lexeme boundary ``start`` that
        lies at ``line``:``col``.  ``layout`` receives the start and
        look-ahead reach of every lexeme, skipped ones included.
        ``sync = (from_pos, delta, old_starts)`` ends the scan early,
        without an EOF token, at the first lexeme boundary ``p >=
        from_pos`` where ``p - delta`` is one of the sorted
        ``old_starts``: the DFA is back in its start state on text the
        previous scan already lexed (see :meth:`rescan`).  ``layout``
        then records that boundary.
        """
        pos = start
        n = len(text)
        # The DFA walk indexes the flat transition table and the
        # per-state accept tags directly: no call per character.
        trans = self.dfa.trans
        tags = self._tags
        initial = self.dfa.start
        width, other, dead = ALPHABET_SIZE, OTHER, DEAD
        keywords, keyword_kinds = self.keywords, self.keyword_kinds
        skip, intern_kinds = self.skip, self.intern_kinds
        intern = self.names.intern
        filename = self.filename
        if sync is None:
            sync_from, delta, old_starts = n + 1, 0, None
        else:
            sync_from, delta, old_starts = sync
        while pos < n:
            if pos >= sync_from:
                j = bisect_left(old_starts, pos - delta)
                if j < len(old_starts) and old_starts[j] == pos - delta:
                    layout.synced = (j, line, col)
                    return
            state = initial
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
            if layout is not None:
                layout.add(pos, i + 1 if i < n else n)
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

    def rescan(
        self, text: str, old: Optional["ScanState"] = None
    ) -> Tuple["ScanState", "TokenWindow"]:
        """Scan ``text``, re-lexing only the window an edit of
        ``old.text`` can have changed (Wagner & Graham, "Efficient and
        flexible incremental parsing", TOPLAS 1998).

        Every lexeme of ``old`` whose look-ahead stayed before the line
        of the first changed character is kept.  Lexing resumes at the
        first lexeme that reached that line and stops at the first
        boundary past the changed text that, shifted by the length
        delta, is an old lexeme start: the DFA is in its start state on
        text the old scan lexed, so every later old token stands, moved
        by the line and column delta of the boundary.  Without ``old``
        the whole text is scanned.  Returns the new state and the
        window of tokens that differ from ``old``'s.
        """
        if old is None:
            layout = ScanLayout()
            tokens = list(self.tokens(text, layout=layout))
            state = ScanState(text, tokens, layout.starts, layout.reach)
            return state, TokenWindow(0, len(tokens), 0, len(tokens), None)
        prev = old.text
        a = _common_prefix(prev, text)
        if a == len(prev) == len(text):
            n = len(old.tokens)
            return old, TokenWindow(n, n, n, n, old.tokens)
        suffix = _common_suffix(prev, text, min(len(prev), len(text)) - a)
        delta = len(text) - len(prev)
        # The first lexeme whose look-ahead read into the edited line
        # (or hit the end of the old text there): the reach list is a
        # running maximum, so bisection finds it.
        line_start = text.rfind("\n", 0, a) + 1
        i0 = bisect_right(
            old.reach, line_start if line_start < len(prev) else line_start - 1
        )
        restart = old.starts[i0] if i0 < len(old.starts) else len(prev)
        line = text.count("\n", 0, restart) + 1
        col = restart - text.rfind("\n", 0, restart)
        t0 = _first_token_at(old.tokens, line, col)
        layout = ScanLayout(old.reach[i0 - 1] if i0 else 0)
        window = list(self.tokens(
            text, restart, line, col, layout,
            (len(text) - suffix, delta, old.starts),
        ))
        starts = old.starts[:i0] + layout.starts
        reach = old.reach[:i0] + layout.reach
        tokens = old.tokens[:t0] + window
        t_new = len(tokens)
        if layout.synced is None:
            state = ScanState(text, tokens, starts, reach)
            return state, TokenWindow(t0, t_new, len(old.tokens), t_new, old.tokens)
        j, new_line, new_col = layout.synced
        at = old.starts[j]
        old_line = prev.count("\n", 0, at) + 1
        old_col = at - prev.rfind("\n", 0, at)
        t1 = _first_token_at(old.tokens, old_line, old_col)
        tail = old.tokens[t1:]
        d_line, d_col = new_line - old_line, new_col - old_col
        # Tokens on the boundary's line move by the column delta too;
        # later ones keep their column and move only when lines did.
        on_line = 0
        while on_line < len(tail) and tail[on_line].location.line == old_line:
            on_line += 1
        moved = len(tail) if d_line else on_line if d_col else 0
        tokens += [
            Token(t.kind, t.text, SourceLocation(
                t.location.line + d_line,
                t.location.column + (d_col if k < on_line else 0),
                t.location.filename,
            ), t.name_index)
            for k, t in enumerate(tail[:moved])
        ]
        tokens += tail[moved:]
        starts += [s + delta for s in old.starts[j:]] if delta else old.starts[j:]
        # The tail's reach is the old running maximum shifted, floored
        # by the window's; an over-estimate only re-lexes more.
        floor = layout.pm
        k = bisect_right(old.reach, floor - delta, j)
        reach += [floor] * (k - j)
        reach += [r + delta for r in old.reach[k:]] if delta else old.reach[k:]
        state = ScanState(text, tokens, starts, reach)
        return state, TokenWindow(t0, t_new, t1, t_new + moved, old.tokens)


class ScanLayout:
    """Where the lexemes of one scan start and how far each one's
    longest-match look-ahead read (``reach``, an exclusive offset, kept
    as a running maximum so it is sorted); filled by
    :meth:`Scanner.tokens`."""

    __slots__ = ("starts", "reach", "pm", "synced")

    def __init__(self, pm: int = 0):
        self.starts: List[int] = []
        self.reach: List[int] = []
        self.pm = pm
        #: ``(old lexeme index, line, col)`` of the boundary a synced
        #: scan stopped at, else None.
        self.synced: Optional[Tuple[int, int, int]] = None

    def add(self, start: int, reach: int) -> None:
        self.starts.append(start)
        if reach > self.pm:
            self.pm = reach
        self.reach.append(self.pm)


class ScanState(NamedTuple):
    """One scanned text with its tokens and lexeme layout: what
    :meth:`Scanner.rescan` re-lexes an edit of."""

    text: str
    tokens: List[Token]
    starts: List[int]
    reach: List[int]


class TokenWindow(NamedTuple):
    """Where a rescan's tokens differ from the old scan's: new tokens
    ``[start, new_end)`` replace old ``[start, old_end)``; the tokens
    ``[new_end, moved_end)`` are old ones at a new location; the rest
    are the old tokens themselves.  ``old`` is the old token list."""

    start: int
    new_end: int
    old_end: int
    moved_end: int
    old: Optional[List[Token]]


#: Characters compared per slice while looking for the first difference.
_CHUNK = 4096


def _common_prefix(a: str, b: str) -> int:
    """Length of the longest common prefix of ``a`` and ``b``."""
    n = min(len(a), len(b))
    lo = 0
    while lo + _CHUNK <= n and a[lo:lo + _CHUNK] == b[lo:lo + _CHUNK]:
        lo += _CHUNK
    hi = min(lo + _CHUNK, n)
    # Invariant: a[:lo] == b[:lo]; the answer lies in [lo, hi].
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _common_suffix(a: str, b: str, limit: int) -> int:
    """Length of the longest common suffix of ``a`` and ``b``, at most
    ``limit``."""
    na, nb = len(a), len(b)
    lo = 0
    while lo + _CHUNK <= limit and a[na - lo - _CHUNK:na - lo] == b[nb - lo - _CHUNK:nb - lo]:
        lo += _CHUNK
    hi = min(lo + _CHUNK, limit)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[na - mid:na - lo] == b[nb - mid:nb - lo]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _first_token_at(tokens: List[Token], line: int, col: int) -> int:
    """Index of the first token located at or after ``line``:``col``."""
    lo, hi = 0, len(tokens)
    while lo < hi:
        mid = (lo + hi) // 2
        loc = tokens[mid].location
        if (loc.line, loc.column) < (line, col):
            lo = mid + 1
        else:
            hi = mid
    return lo

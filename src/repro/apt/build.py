"""Building the initial APT file: the parser writes the records.

The paper's two first-linearization strategies (§II):

* **bottom-up** — "for the parser to emit tree nodes in bottom-up
  order": each terminal record is written at its shift, each interior
  record (preceded by its limb record) at its reduce.  The resulting
  file is the left-to-right postfix order, "identical to what would
  have been created by a left-to-right attribute evaluator"; the first
  evaluation pass is right-to-left and reads it backwards.  LINGUIST-86
  itself uses this method, and :class:`APTBuilder` streams it with only
  a parse-stack's worth of memory.
* **prefix** — "like a recursive descent parser": the file is the
  left-to-right prefix order and the first pass is left-to-right.
  The parse keeps a tree of records, which :meth:`APTBuilder.finish`
  walks once.

:class:`APTBuilder` is a :class:`~repro.lalr.parser.RecordSink`: it
maps grammar symbols and productions onto record fields, and the
parser writes the records in-line.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.ag.model import AttributeGrammar, SymbolKind
from repro.apt.linear import TreeNode
from repro.apt.node import APTNode
from repro.apt.storage import Spool
from repro.errors import EvaluationError
from repro.lalr.grammar import Production as CFGProduction
from repro.lalr.parser import RecordSink
from repro.regex.scanner import Token

IntrinsicFn = Callable[[Token, str, str], object]

#: Intrinsic attribute names :func:`default_intrinsics` derives from a
#: token's location rather than its text.
LOCATION_INTRINSICS = frozenset(("LINE", "COL", "COLUMN"))


def default_intrinsics(token: Token, symbol: str, attr_name: str) -> object:
    """Conventional intrinsic attribute values set by the parser (§IV:
    "the name-table-index of terminal symbols and the location in the
    source").  Recognized names:

    ``LINE``/``COL`` — source coordinates; ``NAME``/``SYM$NAME``/``OBJ``
    — the name-table index; ``TEXT`` — the lexeme; anything else — the
    lexeme as an int when it looks like one, else the lexeme itself.
    """
    upper = attr_name.upper()
    if upper in LOCATION_INTRINSICS:
        if upper == "LINE":
            return token.location.line
        return token.location.column
    if upper in ("NAME", "SYM$NAME", "OBJ", "NAMEINDEX"):
        return token.name_index
    if upper == "TEXT":
        return token.text
    text = token.text
    if text.isdigit():
        return int(text)
    return text


class APTBuilder(RecordSink):
    """The initial APT's record sink.

    Pass it to :meth:`LALRParser.parse <repro.lalr.parser.LALRParser.parse>`
    as the listener, then call :meth:`finish`.  With a ``spool`` the
    bottom-up file streams into it during the parse; with ``prefix``
    the parse keeps a tree of records and :meth:`finish` writes the
    prefix file instead.  Set ``build_tree`` to get the APT back as an
    in-memory :class:`TreeNode` (``root``), for the oracle evaluator
    and tests.
    """

    def __init__(
        self,
        ag: AttributeGrammar,
        spool: Optional[Spool] = None,
        intrinsic_fn: IntrinsicFn = default_intrinsics,
        build_tree: bool = False,
        tracer=None,
        metrics=None,
        prefix: bool = False,
    ):
        self.ag = ag
        self.spool = spool
        self.intrinsic_fn = intrinsic_fn
        self.build_tree = build_tree
        self.prefix = prefix
        self.tracer = tracer
        self.metrics = metrics
        self.append = spool.append if spool is not None and not prefix else None
        self.retain = build_tree or prefix
        self._stack: List[Any] = []
        self.root: Optional[TreeNode] = None
        self.n_nodes = 0

    # -- record shapes, resolved once per kind / production by the parser --

    def terminal(self, kind: str) -> Tuple[str, Tuple[str, ...]]:
        sym = self.ag.symbols.get(kind)
        if sym is None or sym.kind is not SymbolKind.TERMINAL:
            raise EvaluationError(
                f"parser shifted {kind!r}, which is not a terminal of "
                f"attribute grammar {self.ag.name!r}"
            )
        return sym.name, tuple(attr.name for attr in sym.intrinsic)

    def production(self, cfg_prod: CFGProduction) -> Tuple[int, str, Optional[str], int]:
        prod = self.ag.productions[cfg_prod.index - 1]
        if prod.lhs != cfg_prod.lhs or prod.rhs != cfg_prod.rhs:
            raise EvaluationError(
                f"parser production {cfg_prod} does not match attribute "
                f"grammar production {prod} — the same input file must drive "
                "both tools"
            )
        return prod.index, prod.lhs, prod.limb or None, len(prod.rhs)

    def accept(self, stack: List[Any], n_records: int) -> None:
        self._stack = stack
        self.n_nodes = n_records

    # -- results -------------------------------------------------------------

    def finish(self) -> None:
        """Validate the parse completed and finalize outputs."""
        if len(self._stack) != 1:
            raise EvaluationError(
                f"APT build ended with {len(self._stack)} tree fragments; "
                "the parse did not reduce to the start symbol"
            )
        top = self._stack[0]
        symbol = (top if type(top) is tuple else top[0])[0]
        if symbol != self.ag.start:
            raise EvaluationError(
                f"APT root is {symbol!r}, expected start symbol {self.ag.start!r}"
            )
        if self.append is not None:
            self.spool.finalize()
        if self.metrics is not None:
            self.metrics.counter("apt.nodes").inc(self.n_nodes)
        if self.tracer is not None:
            self.tracer.instant("apt.built", cat="apt", n_nodes=self.n_nodes)
        if self.prefix and self.spool is not None:
            _write_prefix(top, self.spool.append)
            self.spool.finalize()
        if self.build_tree:
            self.root = _tree_of(top)


def _write_prefix(top: Any, append: Callable[[tuple], None]) -> None:
    """Append a retained record tree in left-to-right prefix order:
    node, limb, then each child's subtree (one iterative walk)."""
    work = [top]
    while work:
        subtree = work.pop()
        if type(subtree) is tuple:
            append(subtree)
            continue
        record, limb, children = subtree
        append(record)
        if limb is not None:
            append(limb)
        work.extend(reversed(children))


def _node(record: tuple) -> APTNode:
    symbol, production, attrs, is_limb = record
    return APTNode(symbol, production, dict(attrs), is_limb)


def _tree_of(top: Any) -> TreeNode:
    """A retained record tree as :class:`TreeNode` objects."""
    root = TreeNode(None)
    work = [(top, root)]
    while work:
        subtree, tree = work.pop()
        if type(subtree) is tuple:
            tree.node = _node(subtree)
            continue
        record, limb, children = subtree
        tree.node = _node(record)
        if limb is not None:
            tree.limb = _node(limb)
        tree.children = [TreeNode(None) for _ in children]
        work.extend(zip(children, tree.children))
    return root

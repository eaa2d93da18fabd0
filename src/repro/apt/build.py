"""Building the initial APT file from parser events.

The paper's two first-linearization strategies (§II):

* **bottom-up** — "for the parser to emit tree nodes in bottom-up
  order": each terminal node is emitted at its shift, each interior
  node (preceded by its limb node) at its reduce.  The resulting file
  is the left-to-right postfix order, "identical to what would have
  been created by a left-to-right attribute evaluator"; the first
  evaluation pass is right-to-left and reads it backwards.  LINGUIST-86
  itself uses this method, and :class:`APTBuilder` streams it with only
  a parse-stack's worth of memory.
* **prefix** — "like a recursive descent parser": the file is the
  left-to-right prefix order and the first pass is left-to-right.
  :meth:`APTBuilder.emit_prefix` produces it from the retained tree.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.ag.model import AttributeGrammar, SymbolKind
from repro.apt.linear import TreeNode, iter_prefix
from repro.apt.node import APTNode
from repro.apt.storage import Spool
from repro.errors import EvaluationError
from repro.lalr.grammar import EOF_SYMBOL, Production as CFGProduction
from repro.lalr.parser import ParseListener
from repro.regex.scanner import Token

IntrinsicFn = Callable[[Token, str, str], object]


def default_intrinsics(token: Token, symbol: str, attr_name: str) -> object:
    """Conventional intrinsic attribute values set by the parser (§IV:
    "the name-table-index of terminal symbols and the location in the
    source").  Recognized names:

    ``LINE``/``COL`` — source coordinates; ``NAME``/``SYM$NAME``/``OBJ``
    — the name-table index; ``TEXT`` — the lexeme; anything else — the
    lexeme as an int when it looks like one, else the lexeme itself.
    """
    upper = attr_name.upper()
    if upper == "LINE":
        return token.location.line
    if upper in ("COL", "COLUMN"):
        return token.location.column
    if upper in ("NAME", "SYM$NAME", "OBJ", "NAMEINDEX"):
        return token.name_index
    if upper == "TEXT":
        return token.text
    text = token.text
    if text.isdigit():
        return int(text)
    return text


class APTBuilder(ParseListener):
    """Parser listener producing the initial APT.

    Pass a ``spool`` to stream the bottom-up file; set ``build_tree``
    to retain an in-memory :class:`TreeNode` (needed by the oracle
    evaluator and the prefix strategy).
    """

    def __init__(
        self,
        ag: AttributeGrammar,
        spool: Optional[Spool] = None,
        intrinsic_fn: IntrinsicFn = default_intrinsics,
        build_tree: bool = False,
        tracer=None,
        metrics=None,
    ):
        self.ag = ag
        self.spool = spool
        self.intrinsic_fn = intrinsic_fn
        self.build_tree = build_tree
        self.tracer = tracer
        self._stack: List[TreeNode] = []
        self.root: Optional[TreeNode] = None
        self.n_nodes = 0
        self.metrics = metrics

    # -- parser events -----------------------------------------------------

    def on_shift(self, token: Token) -> None:
        if token.kind == EOF_SYMBOL:
            return
        sym = self.ag.symbols.get(token.kind)
        if sym is None or sym.kind is not SymbolKind.TERMINAL:
            raise EvaluationError(
                f"parser shifted {token.kind!r}, which is not a terminal of "
                f"attribute grammar {self.ag.name!r}"
            )
        attrs: Dict[str, object] = {}
        for attr in sym.intrinsic:
            attrs[attr.name] = self.intrinsic_fn(token, sym.name, attr.name)
        node = APTNode(symbol=sym.name, production=None, attrs=attrs)
        self._emit(node)
        self._stack.append(TreeNode(node))

    def on_reduce(self, cfg_prod: CFGProduction) -> None:
        if cfg_prod.index == 0:
            return  # the $accept production is synthetic
        prod = self.ag.productions[cfg_prod.index - 1]
        if prod.lhs != cfg_prod.lhs or prod.rhs != cfg_prod.rhs:
            raise EvaluationError(
                f"parser production {cfg_prod} does not match attribute "
                f"grammar production {prod} — the same input file must drive "
                "both tools"
            )
        n = len(prod.rhs)
        children = self._stack[len(self._stack) - n :] if n else []
        del self._stack[len(self._stack) - n :]
        limb_node: Optional[APTNode] = None
        if prod.limb:
            limb_node = APTNode(symbol=prod.limb, production=prod.index, is_limb=True)
            self._emit(limb_node)
        node = APTNode(symbol=prod.lhs, production=prod.index)
        self._emit(node)
        if self.build_tree:
            self._stack.append(TreeNode(node, list(children), limb_node))
        else:
            # Streaming mode: drop child links so memory stays one
            # parse-stack deep, the way the real tool worked.
            self._stack.append(TreeNode(node, [], limb_node))

    # -- results -------------------------------------------------------------

    def finish(self) -> None:
        """Validate the parse completed and finalize outputs."""
        if len(self._stack) != 1:
            raise EvaluationError(
                f"APT build ended with {len(self._stack)} tree fragments; "
                "the parse did not reduce to the start symbol"
            )
        self.root = self._stack[0]
        if self.root.node.symbol != self.ag.start:
            raise EvaluationError(
                f"APT root is {self.root.node.symbol!r}, expected start "
                f"symbol {self.ag.start!r}"
            )
        if self.spool is not None:
            self.spool.finalize()
        if self.metrics is not None:
            self.metrics.counter("apt.nodes").inc(self.n_nodes)
        if self.tracer is not None:
            self.tracer.instant("apt.built", cat="apt", n_nodes=self.n_nodes)
        if not self.build_tree:
            self.root = None  # streaming mode retains no tree

    def _emit(self, node: APTNode) -> None:
        self.n_nodes += 1
        if self.spool is not None:
            self.spool.append(
                (node.symbol, node.production, node.attrs, node.is_limb)
            )

    def emit_prefix(self, spool: Spool) -> None:
        """Write the prefix-order initial file (first pass left-to-right)."""
        if self.root is None:
            raise EvaluationError("emit_prefix before finish()")
        from repro.passes.schedule import Direction

        for node in iter_prefix(self.root, Direction.L2R):
            spool.append((node.symbol, node.production, node.attrs, node.is_limb))
        spool.finalize()


def node_from_record(record) -> APTNode:
    """Deserialize one spool record into an APT node."""
    symbol, production, attrs, is_limb = record
    return APTNode(symbol=symbol, production=production, attrs=dict(attrs), is_limb=is_limb)

"""Linearization orders and the §II reversal invariant.

For a tree node ``N`` with children ``C1 … Cn`` and limb ``L(N)``, a
left-to-right pass *writes* ``W(N) = W(C1) C1 … W(Cn) Cn L(N)`` and the
driver writes the root last, so a complete output file is
``W(root) root``.  Read backwards, that same file is exactly the
prefix order a right-to-left pass consumes: root first, then for each
subtree the limb node followed by the children right-to-left.  The
symmetric claim holds with directions exchanged.

These functions compute the orders from an in-memory tree; the real
evaluators never materialize the tree — they produce and consume the
same sequences through the spool files.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.apt.node import APTNode
from repro.passes.schedule import Direction


class TreeNode:
    """A transient in-memory APT used by tests and the oracle evaluator."""

    __slots__ = ("node", "children", "limb")

    def __init__(
        self,
        node: APTNode,
        children: Optional[List["TreeNode"]] = None,
        limb: Optional[APTNode] = None,
    ):
        self.node = node
        self.children = children or []
        self.limb = limb

    @property
    def is_leaf(self) -> bool:
        return not self.children and self.limb is None


def iter_bottom_up(root: TreeNode, direction: Direction = Direction.L2R) -> Iterator[APTNode]:
    """The write (postfix) order of a pass running ``direction``.

    This is also what a bottom-up parser emits (for L2R): the initial
    APT file of the paper's first strategy.

    Implemented with an explicit stack: APTs are as deep as the source
    program (statement lists chain linearly), and a recursive
    ``yield from`` chain would cost O(depth) per yielded node — the
    iterative walk keeps linearization O(1) amortized per node.
    """
    r2l = direction is Direction.R2L
    # Each subtree yields: children's subtrees (in visit order), then
    # its limb, then its own node; the root is no exception.
    stack = [(root, False)]
    while stack:
        tree, expanded = stack.pop()
        if expanded:
            if tree.limb is not None:
                yield tree.limb
            yield tree.node
            continue
        stack.append((tree, True))
        children = tree.children
        # Pop order reverses push order, so push the visit order backwards.
        for child in (children if r2l else reversed(children)):
            stack.append((child, False))
    # (root's own node is produced by its expanded phase above)


def iter_prefix(root: TreeNode, direction: Direction = Direction.L2R) -> Iterator[APTNode]:
    """The read (prefix) order of a pass running ``direction``: node,
    limb, then each child's prefix order in visit order.

    Iterative for the same reason as :func:`iter_bottom_up`: recursion
    would pay O(depth) per node.
    """
    r2l = direction is Direction.R2L
    stack = [root]
    while stack:
        tree = stack.pop()
        yield tree.node
        if tree.limb is not None:
            yield tree.limb
        children = tree.children
        # Pop order reverses push order, so push the visit order backwards.
        for child in (children if r2l else reversed(children)):
            stack.append(child)


def read_order_for_pass(
    pass_direction: Direction, previous_output_direction: Direction
) -> str:
    """How a pass must read its input spool.

    A pass's output spool is in its own postfix order; the next pass
    runs the opposite direction and reads it ``backward``.  Only the
    prefix-emission first strategy produces a file read ``forward``.
    """
    if pass_direction is previous_output_direction:
        return "forward"  # prefix file emitted for the same direction
    return "backward"

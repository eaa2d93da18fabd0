"""APT node records.

Each node carries the fields that correspond to the attributes of its
labelling grammar symbol (§I).  Interior nodes also record the index of
their LHS production — the paper's limb mechanism "synchronizes the
identification of productions with the parser", and our node records
carry the same information explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

#: A pass holds each node as a list made from its record:
#: ``[symbol, production, attrs, is_limb]``, ``attrs`` being the pass's
#: own copy.  A telemetered pass appends two slots: the resident bytes
#: its memory gauge charged, and (at this index) the node's input
#: record index for the incremental memo, None without one.
RECORD_INDEX = 5


def estimate_bytes(value: Any) -> int:
    """Rough byte footprint of an attribute value, 8086-record style.

    Scalars cost one machine word; strings their text; recursive list
    structures a word per cell plus their elements.  Used for the
    memory-gauge and file-size accounting that reproduces the paper's
    48K-budget and APT-size claims.
    """
    if value is None or isinstance(value, bool):
        return 2
    if isinstance(value, int):
        return 2
    if isinstance(value, float):
        return 4
    if isinstance(value, str):
        return max(2, len(value))
    if isinstance(value, tuple):
        return 2 + sum(estimate_bytes(v) for v in value)
    # Cons lists, sets, partial functions, and other iterables.
    try:
        return 2 + sum(2 + estimate_bytes(v) for v in value)
    except TypeError:
        return 8


def record_bytes(symbol: str, attrs: Dict[str, Any]) -> int:
    """Approximate record size: header word, symbol tag, attributes.

    The memory gauge charges this for every record a pass holds, so it
    is the single definition :meth:`APTNode.byte_size` also uses."""
    total = 4 + max(2, len(symbol) // 2)
    for value in attrs.values():
        total += 2 + estimate_bytes(value)
    return total


@dataclass
class APTNode:
    """One node of the attributed parse tree.

    ``production`` is the index of the LHS production (the production
    that derives this node); ``None`` for terminal leaves and limb
    nodes.  ``attrs`` maps attribute name to value; absent keys are
    not-yet-evaluated attribute instances.
    """

    symbol: str
    production: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    is_limb: bool = False

    def byte_size(self) -> int:
        """Approximate record size (see :func:`record_bytes`)."""
        return record_bytes(self.symbol, self.attrs)

    def copy(self) -> "APTNode":
        return APTNode(self.symbol, self.production, dict(self.attrs), self.is_limb)

    def __str__(self) -> str:
        kind = "limb " if self.is_limb else ""
        prod = f" p{self.production}" if self.production is not None else ""
        attrs = ", ".join(f"{k}={v!r}" for k, v in sorted(self.attrs.items()))
        return f"<{kind}{self.symbol}{prod} {{{attrs}}}>"

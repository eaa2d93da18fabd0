"""The list-processing package: immutable cons lists, sets, sequences,
partial functions.

The paper's §Intro inventories LINGUIST-86's 48K of dynamic memory and
includes "the linked lists that represent sets, sequences, and partial
functions".  Semantic functions are *pure*, so every structure here is
immutable and structurally shared — `cons` is O(1) and never mutates.

The :data:`STANDARD_FUNCTIONS` table at the bottom exports the
uninterpreted function symbols used by the shipped attribute grammars
(``union$setof``, ``consPF``, ``IsIn`` …).  LINGUIST-86 itself leaves
such identifiers to the target-language compiler; our generated Python
evaluators resolve them against a function library, and this module is
the library the self-description grammar uses.

Every list value also carries a lazily cached **content digest**
(:func:`content_digest`), and :func:`feed_value` feeds any attribute
value into a hasher — the context fingerprint that keys the incremental
memo (:mod:`repro.passes.incremental`).  A digest is set on first use and
then reused, so hashing a value that extends an already digested one
costs only the new cells.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, Iterator, Optional, Tuple


class ConsList:
    """An immutable singly linked list.

    ``ConsList(head, tail)`` is a cell; :data:`NIL` is the empty list.
    Structural equality and hashing are by contents, so cons lists can
    themselves be attribute values, set members, and dict keys.
    """

    #: ``_digest`` (the element polynomial of :func:`content_digest`)
    #: stays unset until the first digest of a list reaching this cell.
    __slots__ = ("head", "tail", "_length", "_hash", "_digest")

    def __init__(self, head: Any = None, tail: Optional["ConsList"] = None):
        if tail is None and head is None:
            # The NIL cell: length 0, no head.
            self.head = None
            self.tail = self
            self._length = 0
        else:
            if tail is None:
                tail = NIL
            if not isinstance(tail, ConsList):
                raise TypeError(f"tail must be a ConsList, got {type(tail).__name__}")
            self.head = head
            self.tail = tail
            self._length = tail._length + 1
        self._hash: Optional[int] = None

    @property
    def is_nil(self) -> bool:
        return self._length == 0

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __iter__(self) -> Iterator[Any]:
        cell = self
        while cell._length:
            yield cell.head
            cell = cell.tail

    def __contains__(self, item: Any) -> bool:
        return any(x == item for x in self)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, ConsList):
            return NotImplemented
        if self._length != other._length:
            return False
        return all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        if self._hash is None:
            # One hash domain for every sequence representation (plain
            # cons lists, Sequence, CatSeq ropes) so equal sequences
            # hash equally; SetList overrides with set semantics.
            self._hash = hash(("seq",) + tuple(self))
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}[{', '.join(repr(x) for x in self)}]"

    def cons(self, item: Any) -> "ConsList":
        """Return a new list with ``item`` prepended."""
        return type(self)(item, self)

    def reverse(self) -> "ConsList":
        return self._build(list(self)[::-1], self._empty())

    def append(self, other) -> "SeqLike":
        """Return ``self ++ other``.

        Small left sides rebuild the spine eagerly; large ones return a
        :class:`CatSeq` rope so repeated accumulation (code lists built
        statement by statement) stays linear instead of quadratic.
        """
        if self._length > _ROPE_THRESHOLD:
            return CatSeq(self, other)
        if isinstance(other, CatSeq):
            return CatSeq(self, other) if self._length else other
        return self._build(list(self), other)

    def to_pylist(self) -> list:
        out = []
        append = out.append
        cell = self
        while cell._length:
            append(cell.head)
            cell = cell.tail
        return out

    @classmethod
    def from_iterable(cls, items) -> "ConsList":
        return cls._build(list(items), cls._empty_for(cls))

    @classmethod
    def _build(cls, items: list, tail: "ConsList") -> "ConsList":
        """Cons ``items`` onto ``tail`` without per-cell validation — the
        spine-rebuild fast path the evaluators hammer."""
        length = tail._length
        for item in reversed(items):
            cell = cls.__new__(cls)
            cell.head = item
            cell.tail = tail
            length += 1
            cell._length = length
            cell._hash = None
            tail = cell
        return tail

    def _empty(self) -> "ConsList":
        return self._empty_for(type(self))

    def __reduce__(self):
        # Serialize as a flat Python list: pickling a deep cons spine
        # recursively would overflow the interpreter stack, and APT
        # attribute values routinely hold thousand-element lists.
        return (type(self).from_iterable, (self.to_pylist(),))

    @staticmethod
    def _empty_for(cls: type) -> "ConsList":
        if cls is ConsList:
            return NIL
        return cls.__new_empty__()


#: The empty list, shared by every plain ConsList.
NIL = ConsList()

#: Left sides longer than this turn ``append`` into an O(1) rope node.
_ROPE_THRESHOLD = 32


class CatSeq:
    """A concatenation rope over sequences.

    ``CatSeq(left, right)`` represents ``left ++ right`` without copying
    either side — the structure the original's list package would have
    needed to keep code-list accumulation linear.  Iteration is
    non-recursive (an explicit stack), so arbitrarily deep ropes neither
    overflow nor degrade.  Equality and hashing are by element sequence,
    interchangeable with :class:`ConsList`; pickling flattens to a plain
    :class:`Sequence`.
    """

    __slots__ = ("left", "right", "_length", "_hash", "_digest")

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self._length = len(left) + len(right)
        self._hash = None

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __iter__(self) -> Iterator[Any]:
        stack = [self.right, self.left]
        while stack:
            node = stack.pop()
            if isinstance(node, CatSeq):
                stack.append(node.right)
                stack.append(node.left)
            else:
                yield from node

    def __contains__(self, item: Any) -> bool:
        return any(x == item for x in self)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, (CatSeq, ConsList)):
            return NotImplemented
        if len(self) != len(other):
            return False
        return all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(("seq",) + tuple(self))
        return self._hash

    def __repr__(self) -> str:
        return f"CatSeq[{', '.join(repr(x) for x in self)}]"

    @property
    def is_nil(self) -> bool:
        return self._length == 0

    @property
    def head(self) -> Any:
        for item in self:
            return item
        raise IndexError("head of an empty sequence")

    @property
    def tail(self) -> "SeqLike":
        if not self._length:
            raise IndexError("tail of an empty sequence")
        # Preserve structural sharing: dropping the head of ``left``
        # must keep ``right`` as a shared spine (the right-sharing
        # invariant append guarantees), never flatten-and-rebuild.
        if len(self.left):
            left_tail = self.left.tail
            return left_tail.append(self.right) if len(left_tail) else self.right
        return self.right.tail

    def cons(self, item: Any) -> "CatSeq":
        return CatSeq(Sequence.from_iterable([item]), self)

    def append(self, other) -> "CatSeq":
        return CatSeq(self, other)

    def reverse(self) -> "ConsList":
        return Sequence.from_iterable(self.to_pylist()[::-1])

    def to_pylist(self) -> list:
        """The elements in order, by one walk over the rope's nodes and
        cells (no nested generators: pickling goes through here)."""
        out: list = []
        append = out.append
        stack = [self]
        while stack:
            node = stack.pop()
            if isinstance(node, CatSeq):
                stack.append(node.right)
                stack.append(node.left)
            elif isinstance(node, ConsList):
                while node._length:
                    append(node.head)
                    node = node.tail
            else:
                out.extend(node)
        return out

    def __reduce__(self):
        return (Sequence.from_iterable, (self.to_pylist(),))


#: Anything usable where the paper's list package expects a sequence.
SeqLike = object  # documentation alias: ConsList | CatSeq


class Sequence(ConsList):
    """A cons list used as an ordered sequence (order is significant)."""

    __slots__ = ()

    _EMPTY: Optional["Sequence"] = None

    @classmethod
    def __new_empty__(cls) -> "Sequence":
        if cls._EMPTY is None:
            empty = cls.__new__(cls)
            ConsList.__init__(empty)
            cls._EMPTY = empty
        return cls._EMPTY

    @classmethod
    def empty(cls) -> "Sequence":
        return cls.__new_empty__()


class SetList(ConsList):
    """A cons list maintained with set semantics: insertion is idempotent.

    Equality is order-insensitive, matching the mathematical set the list
    represents — the paper's evaluator passes symbol/function *sets*
    around the APT (e.g. ``FUNCTS``, ``USED$AOS``).
    """

    __slots__ = ()

    _EMPTY: Optional["SetList"] = None

    @classmethod
    def __new_empty__(cls) -> "SetList":
        if cls._EMPTY is None:
            empty = cls.__new__(cls)
            ConsList.__init__(empty)
            cls._EMPTY = empty
        return cls._EMPTY

    @classmethod
    def empty(cls) -> "SetList":
        return cls.__new_empty__()

    def add(self, item: Any) -> "SetList":
        """Return the set with ``item`` included (no-op if present)."""
        if item in self:
            return self
        return SetList(item, self)

    def union(self, other: "SetList") -> "SetList":
        out = self
        for item in other:
            out = out.add(item)
        return out

    def intersection(self, other: "SetList") -> "SetList":
        out = SetList.empty()
        for item in self:
            if item in other:
                out = out.add(item)
        return out

    def difference(self, other: "SetList") -> "SetList":
        out = SetList.empty()
        for item in self:
            if item not in other:
                out = out.add(item)
        return out

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, SetList):
            return NotImplemented
        if len(self) != len(other):
            mine = {self._key(x) for x in self}
            theirs = {self._key(x) for x in other}
            return mine == theirs
        mine = {self._key(x) for x in self}
        theirs = {self._key(x) for x in other}
        return mine == theirs

    def __hash__(self) -> int:
        return hash(frozenset(self._key(x) for x in self))

    @staticmethod
    def _key(item: Any) -> Any:
        try:
            hash(item)
            return item
        except TypeError:
            return repr(item)


class PartialFunction:
    """An immutable finite map represented as an association list.

    ``consPF(key, value, pf)`` shadows any earlier binding of ``key``;
    ``EvalPF(pf, key)`` returns :data:`BOTTOM` when unbound, mirroring
    the ``EvalPF(...) <> bottom`` test in the paper's Figure 5.
    """

    #: ``_digest`` caches :func:`content_digest` (unset until first use).
    __slots__ = ("_cell", "_digest")

    def __init__(self, cell: ConsList = NIL):
        self._cell = cell

    @classmethod
    def empty(cls) -> "PartialFunction":
        return cls(NIL)

    def bind(self, key: Any, value: Any) -> "PartialFunction":
        return PartialFunction(self._cell.cons((key, value)))

    def lookup(self, key: Any) -> Any:
        for k, v in self._cell:
            if k == key:
                return v
        return BOTTOM

    def is_bound(self, key: Any) -> bool:
        return self.lookup(key) is not BOTTOM

    def domain(self) -> SetList:
        seen = SetList.empty()
        for k, _ in self._cell:
            seen = seen.add(k)
        return seen

    def items(self) -> Iterator[Tuple[Any, Any]]:
        """Iterate visible (unshadowed) bindings, newest first."""
        seen = set()
        for k, v in self._cell:
            key = SetList._key(k)
            if key in seen:
                continue
            seen.add(key)
            yield (k, v)

    def __len__(self) -> int:
        return sum(1 for _ in self.items())

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, PartialFunction):
            return NotImplemented
        return dict(
            (SetList._key(k), v) for k, v in self.items()
        ) == dict((SetList._key(k), v) for k, v in other.items())

    def __hash__(self) -> int:
        return hash(frozenset((SetList._key(k), SetList._key(v)) for k, v in self.items()))

    def __repr__(self) -> str:
        binds = ", ".join(f"{k!r}->{v!r}" for k, v in self.items())
        return f"PartialFunction{{{binds}}}"

    def __reduce__(self):
        return (_rebuild_pf, (self._cell.to_pylist(),))


def _rebuild_pf(pairs):
    """Pickle helper: rebuild a PartialFunction from its binding list."""
    return PartialFunction(NIL.__class__.from_iterable(pairs))


class _Bottom:
    """The undefined value of a partial function (singleton)."""

    _instance: Optional["_Bottom"] = None

    def __new__(cls) -> "_Bottom":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "bottom"

    def __bool__(self) -> bool:
        return False


BOTTOM = _Bottom()


# ---------------------------------------------------------------------------
# Content digests: how the memo's context fingerprint hashes values.
# ---------------------------------------------------------------------------

#: Names the rule below; a change to how values are hashed changes it,
#: so that digests taken under the old rule are never compared with new.
DIGEST_RULE = "lists-poly127-blake2b16/3"

#: A sequence's element hashes ``v_0 … v_{n-1}`` (head first) combine
#: as the polynomial ``sum(v_i * BASE**i) mod MOD``.  The polynomial of
#: ``a ++ b`` is ``poly(a) + BASE**len(a) * poly(b)``, so every cons
#: cell and every rope node can cache the polynomial of its own
#: elements, and the result depends only on the elements in order,
#: never on how a rope was built.
_MOD = (1 << 127) - 1
_BASE = int.from_bytes(
    hashlib.blake2b(DIGEST_RULE.encode("ascii"), digest_size=16).digest(),
    "little",
) % _MOD

#: Types whose ``canonical_value`` rendering is their ``repr``.
_ATOMS = frozenset((int, str, float, bool, type(None)))


def feed_value(h, value: Any) -> None:
    """Feed one attribute value into hasher ``h``.

    List values give their cached :func:`content_digest`, tuples their
    elements in order, and everything else its
    :func:`~repro.obs.provenance.canonical_value` bytes — or, for an
    element of a tuple or a list value, its ``repr``, which is how
    ``canonical_value`` renders the elements of a container.  Each part
    is tagged and length-framed, so two values feed the same bytes only
    if they render alike — the digest is never coarser than
    ``canonical_value``, except that a ``CatSeq`` and a ``Sequence`` with
    the same elements feed the same digest (pickling turns one into the
    other).
    """
    h.update(_encode(value))


def _encode(value: Any, nested: bool = False) -> bytes:
    """The bytes :func:`feed_value` feeds for ``value``; ``nested`` when
    it is an element of a tuple or a list value."""
    t = type(value)
    if t in _ATOMS:
        data = repr(value).encode("utf-8")
    elif isinstance(value, (ConsList, CatSeq, PartialFunction)):
        return b"d" + content_digest(value)
    elif t is tuple:
        return b"t%d:" % len(value) + b"".join(
            [_encode(item, True) for item in value]
        )
    elif nested:
        data = repr(value).encode("utf-8")
    else:
        from repro.obs.provenance import canonical_value

        data = canonical_value(value).encode("utf-8")
    return b"a%d:%s" % (len(data), data)


def content_digest(value: Any) -> bytes:
    """The 16-byte blake2b content digest of a list value.

    It covers the value's kind (its class name; a ``CatSeq`` counts as
    the ``Sequence`` it pickles to, and a ``PartialFunction`` as its
    whole binding list, shadowed bindings included), its length and its
    element polynomial.  The polynomial is cached on every cell and rope
    node the first digest reaches, so a value built by consing or
    appending ``k`` cells onto a digested one costs ``k`` element hashes.
    Long chains and deep ropes are walked without recursion.
    """
    if isinstance(value, PartialFunction):
        digest = getattr(value, "_digest", None)
        if digest is None:
            cell = value._cell
            digest = value._digest = _final(
                b"PartialFunction", len(cell), _poly(cell)
            )
        return digest
    tag = b"Sequence" if isinstance(value, CatSeq) else type(value).__name__.encode()
    return _final(tag, len(value), _poly(value))


def _final(tag: bytes, length: int, poly: int) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(b"%s:%d:" % (tag, length))
    h.update(poly.to_bytes(16, "little"))
    return h.digest()


def _poly(root: Any) -> int:
    """The element polynomial of a sequence, computed bottom-up with an
    explicit stack and cached on each cons cell and rope node."""
    stack = [root]
    while stack:
        node = stack[-1]
        if isinstance(node, ConsList):
            cells = []
            cell = node
            poly = getattr(cell, "_digest", None)
            while poly is None:
                if not cell._length:
                    poly = 0
                    break
                cells.append(cell)
                cell = cell.tail
                poly = getattr(cell, "_digest", None)
            blake2b, encode, from_bytes = hashlib.blake2b, _encode, int.from_bytes
            for cell in reversed(cells):
                data = encode(cell.head, True)
                element = blake2b(data, digest_size=16).digest()
                poly = (from_bytes(element, "little") + _BASE * poly) % _MOD
                cell._digest = poly
            stack.pop()
        elif isinstance(node, CatSeq):
            if getattr(node, "_digest", None) is not None:
                stack.pop()
                continue
            left = _part_poly(node.left)
            if left is None:
                stack.append(node.left)
                continue
            right = _part_poly(node.right)
            if right is None:
                stack.append(node.right)
                continue
            node._digest = (
                left + pow(_BASE, len(node.left), _MOD) * right
            ) % _MOD
            stack.pop()
        else:
            stack.pop()
    return _part_poly(root)


def _part_poly(part: Any) -> Optional[int]:
    """A rope part's cached polynomial (None while not yet computed); a
    part outside the list package is hashed on the spot, uncached."""
    if isinstance(part, (ConsList, CatSeq)):
        if not part._length:
            return 0
        return getattr(part, "_digest", None)
    return _poly(Sequence.from_iterable(part))


# ---------------------------------------------------------------------------
# The standard function library for shipped attribute grammars.
# ---------------------------------------------------------------------------

def _union_setof(item: Any, s: SetList) -> SetList:
    """``UnionSetof(x, S)`` = ``S ∪ {x}`` (paper's ``union$setof``)."""
    if not isinstance(s, SetList):
        s = SetList.from_iterable(s or ())
    return s.add(item)


def _union(a: SetList, b: SetList) -> SetList:
    if not isinstance(a, SetList):
        a = SetList.from_iterable(a or ())
    if not isinstance(b, SetList):
        b = SetList.from_iterable(b or ())
    return a.union(b)


def _is_in(item: Any, s: Any) -> bool:
    if s is None:
        return False
    return item in s


def _cons(item: Any, seq: Any) -> Any:
    if not isinstance(seq, (ConsList, CatSeq)):
        seq = Sequence.from_iterable(seq or ())
    return seq.cons(item)


def _cons2(a: Any, b: Any, seq: Sequence) -> Sequence:
    return _cons((a, b), seq)


def _cons3(a: Any, b: Any, c: Any, seq: Sequence) -> Sequence:
    return _cons((a, b, c), seq)


def _join_pf(a: PartialFunction, b: PartialFunction) -> PartialFunction:
    """``JoinPF(a, b)``: all bindings of ``a`` overridden by ``b``'s."""
    out = a if isinstance(a, PartialFunction) else PartialFunction.empty()
    if isinstance(b, PartialFunction):
        for k, v in b.items():
            out = out.bind(k, v)
    return out


def _cons_pf(key: Any, value: Any, pf: PartialFunction) -> PartialFunction:
    if pf is None:
        pf = PartialFunction.empty()
    return pf.bind(key, value)


def _eval_pf(pf: PartialFunction, key: Any) -> Any:
    if pf is None:
        return BOTTOM
    return pf.lookup(key)


def _incr_if_zero(flag: Any, value: Any) -> Any:
    """Knuth-style helper used by the paper's Figure 1 example."""
    return value + 1 if not flag else value


def _incr_if_true(flag: Any, value: Any) -> Any:
    return value + 1 if flag else value


def _merge_msgs(a: Any, b: Any) -> Any:
    if not isinstance(a, (ConsList, CatSeq)):
        a = Sequence.from_iterable(a or ())
    if not isinstance(b, (ConsList, CatSeq)):
        b = Sequence.from_iterable(b or ())
    if not a:
        return b
    if not b:
        return a
    return a.append(b)


def _cons_msg(line: Any, msg: Any, name: Any, rest: Any) -> Any:
    """``cons$msg(line, err, name, msgs)``: prepend unless ``err`` is no-msg."""
    if not isinstance(rest, (ConsList, CatSeq)):
        rest = Sequence.from_iterable(rest or ())
    if msg in (None, "", "no$msg"):
        return rest
    if name == "null$name":
        name = None
    return rest.cons((line, msg, name))


STANDARD_FUNCTIONS: Dict[str, Callable[..., Any]] = {
    # Set operations
    "union$setof": _union_setof,
    "UnionSetof": _union_setof,
    "union": _union,
    "Union": _union,
    "intersect": lambda a, b: a.intersection(b),
    "difference": lambda a, b: a.difference(b),
    "IsIn": _is_in,
    "Isln": _is_in,  # the OCR'd paper spells it both ways
    "empty$set": lambda: SetList.empty(),
    "SizeOf": lambda s: len(s) if s is not None else 0,
    # Sequence operations
    "cons": _cons,
    "cons2": _cons2,
    "cons3": _cons3,
    "append": _merge_msgs,
    "empty$list": lambda: Sequence.empty(),
    "null$list": lambda: Sequence.empty(),
    "Head": lambda s: s.head,
    "Tail": lambda s: s.tail,
    "Length": lambda s: len(s) if s is not None else 0,
    # Partial functions
    "consPF": _cons_pf,
    "EvalPF": _eval_pf,
    "JoinPF": lambda a, b: _join_pf(a, b),
    "empty$pf": lambda: PartialFunction.empty(),
    "DomainOf": lambda pf: pf.domain(),
    # Message plumbing (the linguist.ag error channel)
    "cons$msg": _cons_msg,
    "merge$msgs": _merge_msgs,
    "null$msg$list": lambda: Sequence.empty(),
    # Arithmetic / misc helpers from the paper's running examples
    "IncrIfZero": _incr_if_zero,
    "IncrIfTrue": _incr_if_true,
    "IncrIf": _incr_if_true,
    "Add": lambda a, b: a + b,
    "Sub": lambda a, b: a - b,
    "Mul": lambda a, b: a * b,
    "Div": lambda a, b: a // b if isinstance(a, int) and isinstance(b, int) else a / b,
    "Max": lambda a, b: a if a >= b else b,
    "Min": lambda a, b: a if a <= b else b,
    "Neg": lambda a: -a,
    "Pow2": lambda s: 2.0 ** s,
    "Not": lambda a: not a,
    "Pair": lambda a, b: (a, b),
    "First": lambda p: p[0],
    "Second": lambda p: p[1],
    "Identity": lambda a: a,
}

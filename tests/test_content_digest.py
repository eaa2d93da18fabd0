"""Property suite for the list package's content digests
(:func:`repro.util.lists.content_digest` and
:func:`repro.util.lists.feed_value`), the rule by which the memo's
context fingerprint hashes attribute values.

The memo keys a ``VISIT`` by a digest of its inherited context, so the
digest must be:

1. **stable** — a value restored from a pickled MEMO2 payload digests
   like the live value it was pickled from;
2. **shape-blind** — a rope digests by its elements in order, whatever
   ``append`` calls built it, and like the ``Sequence`` it pickles to;
3. **sensitive** — changing one element, or moving one, changes it;
4. **iterative** — 10⁵-cell chains and deep ropes digest without
   recursion, and extending a digested value by ``k`` cells hashes
   exactly ``k`` elements.
"""

import hashlib
import pickle

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from repro.obs.provenance import canonical_value
from repro.util import lists
from repro.util.lists import (
    NIL,
    CatSeq,
    ConsList,
    PartialFunction,
    Sequence,
    SetList,
    content_digest,
    feed_value,
)

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def digest(value) -> bytes:
    """Feed one value through the memo's rule into a fresh hasher."""
    h = hashlib.blake2b(digest_size=16)
    feed_value(h, value)
    return h.digest()


def rope(items, splits):
    """A rope over ``items`` whose shape the ``splits`` draw decides:
    each split either cuts the range in two (a ``CatSeq`` node) or
    stops at a ``Sequence`` leaf."""
    it = iter(splits)

    def build(lo, hi):
        cut = next(it, None)
        if hi - lo < 2 or cut is None or cut == 0:
            return Sequence.from_iterable(items[lo:hi])
        mid = lo + 1 + cut % (hi - lo - 1)
        return CatSeq(build(lo, mid), build(mid, hi))

    return build(0, len(items))


atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**12), 10**12),
    st.text(max_size=6),
)


def containers(children):
    elements = st.lists(children, max_size=6)
    return st.one_of(
        st.tuples(children, children),
        st.dictionaries(atoms, atoms, max_size=3),
        elements.map(Sequence.from_iterable),
        elements.map(ConsList.from_iterable),
        elements.map(SetList.from_iterable),
        st.builds(rope, elements, st.lists(st.integers(0, 5), max_size=8)),
        st.lists(st.tuples(st.text(max_size=3), children), max_size=4).map(
            lambda pairs: PartialFunction(ConsList.from_iterable(pairs))
        ),
    )


values = st.recursive(atoms, containers, max_leaves=20)

#: Also values outside the list package whose rendering a pickle round
#: trip may change (set order, a rope's repr inside a dict or a list):
#: they may cost a memo hit, never a wrong one, so only the
#: never-coarser property must hold for them.
wider_values = st.recursive(
    atoms,
    lambda children: st.one_of(
        containers(children),
        st.dictionaries(atoms, children, max_size=3),
        st.sets(atoms, max_size=3),
        st.frozensets(atoms, max_size=3),
        st.lists(children, max_size=3),
    ),
    max_leaves=20,
)


@SETTINGS
@given(values)
def test_digest_survives_a_pickle_round_trip(value):
    restored = pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    assert digest(restored) == digest(value)


@SETTINGS
@given(st.lists(values, max_size=12), st.lists(st.integers(0, 11), max_size=16),
       st.lists(st.integers(0, 11), max_size=16))
def test_ropes_of_any_shape_digest_by_their_elements(items, shape_a, shape_b):
    flat = Sequence.from_iterable(items)
    a, b = rope(items, shape_a), rope(items, shape_b)
    assert content_digest(a) == content_digest(b) == content_digest(flat)
    # Appending onto a digested prefix lands on the same digest too.
    head = Sequence.from_iterable(items[: len(items) // 2])
    content_digest(head)
    joined = head.append(Sequence.from_iterable(items[len(items) // 2:]))
    assert content_digest(joined) == content_digest(flat)


@SETTINGS
@given(st.lists(values, min_size=1, max_size=10), st.data())
def test_changing_one_element_changes_the_digest(items, data):
    i = data.draw(st.integers(0, len(items) - 1))
    other = data.draw(values)
    assume(canonical_value([other]) != canonical_value([items[i]]))
    changed = items[:i] + [other] + items[i + 1:]
    for kind in (Sequence, ConsList, SetList):
        assert content_digest(kind.from_iterable(items)) != content_digest(
            kind.from_iterable(changed)
        )
    assert digest(tuple(items)) != digest(tuple(changed))


def shape_blind(value) -> str:
    """``canonical_value`` of ``value`` with every rope flattened, as
    the digest sees it: a ``CatSeq`` pickles to the ``Sequence`` of its
    elements."""
    return canonical_value(
        pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    )


@SETTINGS
@given(st.lists(values, min_size=2, max_size=10), st.integers(0, 9),
       st.integers(0, 9))
@example(
    items=[Sequence.from_iterable([None, None]), rope([None, None], [1])],
    i=0, j=1,
)
def test_moving_one_element_changes_the_digest(items, i, j):
    i, j = i % len(items), j % len(items)
    moved = list(items)
    moved.insert(j, moved.pop(i))
    assume(shape_blind(moved) != shape_blind(items))
    assert content_digest(Sequence.from_iterable(items)) != content_digest(
        Sequence.from_iterable(moved)
    )


def test_dict_values_change_the_fingerprint():
    """A dict attribute renders and fingerprints by its values too, not
    only by its keys (once the rendering was ``repr(list(d))``)."""
    from repro.passes.incremental import context_fingerprint

    assert canonical_value({1: 2}) != canonical_value({1: 3})
    assert digest({1: 2}) != digest({1: 3})
    assert (context_fingerprint({"A": {1: 2}}, [])
            != context_fingerprint({"A": {1: 3}}, []))
    assert (context_fingerprint({}, [("G", {1: 2})])
            != context_fingerprint({}, [("G", {1: 3})]))


def test_nested_dict_values_change_the_digest():
    """The elements of a container render by their ``repr``, which
    shows a dict's values."""
    for wrap in (lambda d: (1, d), lambda d: Sequence.from_iterable([d]),
                 lambda d: ConsList.from_iterable([d, 2]),
                 lambda d: PartialFunction.empty().bind("k", d)):
        a, b = wrap({1: 2}), wrap({1: 3})
        assert canonical_value(a) != canonical_value(b)
        assert digest(a) != digest(b)


@SETTINGS
@given(wider_values, wider_values)
def test_digest_is_never_coarser_than_canonical_value(a, b):
    assume(canonical_value(a) != canonical_value(b))
    # The one deliberate exception: a rope and the Sequence it pickles
    # to render differently when nested, yet digest alike.
    assume(canonical_value(pickle.loads(pickle.dumps(a)))
           != canonical_value(pickle.loads(pickle.dumps(b))))
    assert digest(a) != digest(b)


def test_kinds_are_told_apart():
    items = [1, 2]
    kinds = [
        Sequence.from_iterable(items),
        ConsList.from_iterable(items),
        SetList.from_iterable(items),
        (1, 2),
        [1, 2],
        PartialFunction(ConsList.from_iterable(items)),
    ]
    assert len({digest(v) for v in kinds}) == len(kinds)
    # A rope is the Sequence it pickles to.
    assert digest(CatSeq(Sequence.from_iterable([1]), Sequence.from_iterable([2]))) == digest(kinds[0])


def test_long_chains_and_deep_ropes_digest_without_recursion():
    chain = NIL
    for i in range(100_000):
        chain = chain.cons(i)
    assert content_digest(chain) == content_digest(ConsList.from_iterable(chain.to_pylist()))
    # A left-nested rope 20,000 appends deep (code-list accumulation).
    deep = Sequence.from_iterable(range(40))
    for i in range(20_000):
        deep = deep.append(Sequence.from_iterable([i]))
    assert isinstance(deep, CatSeq)
    assert content_digest(deep) == content_digest(Sequence.from_iterable(deep.to_pylist()))


class _Counting:
    """``hashlib.blake2b`` stand-in that counts the hashers made."""

    def __init__(self, real):
        self.real = real
        self.made = 0

    def __call__(self, *args, **kwargs):
        self.made += 1
        return self.real(*args, **kwargs)


@pytest.fixture
def hashers(monkeypatch):
    counting = _Counting(hashlib.blake2b)
    monkeypatch.setattr(hashlib, "blake2b", counting)
    return counting


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(0, 300), k=st.integers(1, 40))
def test_a_k_cell_extension_hashes_only_k_cells(hashers, n, k):
    base = Sequence.from_iterable(range(n))
    content_digest(base)
    # cons: k new cells in front of the digested head.
    longer = base
    for i in range(k):
        longer = longer.cons(("new", i))
    before = hashers.made
    content_digest(longer)
    assert hashers.made - before == k + 1  # k elements + the final digest
    # append: a rope of the digested value and k new cells.
    grown = base.append(Sequence.from_iterable(range(k)))
    before = hashers.made
    content_digest(grown)
    extra = 0 if isinstance(grown, CatSeq) else n  # short sides are rebuilt
    assert hashers.made - before == k + extra + 1
    # A digested value costs one final hash and no element hashes.
    before = hashers.made
    content_digest(longer)
    assert hashers.made - before == 1


def test_building_lists_leaves_the_digest_slot_unset():
    for value in (
        NIL.cons(1),
        Sequence.from_iterable([1, 2]),
        Sequence.from_iterable(range(40)).append(Sequence.from_iterable([1])),
        PartialFunction.empty().bind("a", 1),
    ):
        assert not hasattr(value, "_digest")
    value = Sequence.from_iterable([1, 2])
    content_digest(value)
    assert hasattr(value, "_digest") and hasattr(value.tail, "_digest")


@SETTINGS
@given(st.lists(values, max_size=12), st.lists(st.integers(0, 11), max_size=16))
def test_to_pylist_walks_every_shape_and_pickles_unchanged(items, shape):
    value = rope(items, shape)
    assert value.to_pylist() == list(value) == items
    flat = Sequence.from_iterable(items)
    assert flat.to_pylist() == list(flat)
    assert pickle.dumps(value) == pickle.dumps(flat)


def test_memo_identity_names_the_digest_rule(monkeypatch):
    """A memo keyed under another hashing rule reads as an identity
    mismatch, never as a run of silent misses."""
    import repro.passes.incremental as incremental

    class _Grammar:
        name, start, productions = "g", "s", []

    identity = incremental.memo_identity(_Grammar(), [])
    monkeypatch.setattr(incremental, "DIGEST_RULE", lists.DIGEST_RULE + "+")
    assert incremental.memo_identity(_Grammar(), []) != identity

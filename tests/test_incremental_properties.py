"""Property suite for the incremental subtree hashing
(:func:`repro.passes.incremental.record_digest` and the two
subtree-index sweeps).

Four properties back the memo's correctness argument:

1. **Stability** — subtree hashes are a function of the decoded
   records, invariant under a v3 disk-spool round-trip and under
   string re-construction (name-table interning produces equal-but-
   not-identical strings).
2. **Shape sensitivity** — two distinct tree shapes over the *same*
   leaf frontier hash to distinct roots (the concatenated frontier
   string is not what is hashed; the Merkle combination sees
   structure).
3. **Spine locality** — mutating a single record changes the hash of
   exactly the subtrees that contain it: ``{i : i - spans[i] + 1 <= j
   <= i}``, the spine from the mutated record to the root.  This is
   the invariant the dirty-spine evaluator relies on: everything off
   the spine keeps its hash and stays spliceable.
4. **Spine rehash** — after mutating k leaf records, the front-end's
   dirty-spine rehash over the kept structure gives the same hashes
   as a full re-index, in prefix and in postfix order.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apt.build import APTBuilder
from repro.apt.storage import DiskSpool, MemorySpool
from repro.core import Linguist
from repro.grammars import load_source, scanner_and_library
from repro.passes.incremental import (
    _rehash_spine,
    postfix_subtree_index,
    prefix_subtree_index,
    record_digest,
)
from repro.passes.schedule import Direction
from repro.workloads.generators import (
    generate_ag_source,
    generate_binary_numeral,
    generate_calc_program,
    generate_pascal_program,
)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# shared calc pipeline (built once; hypothesis examples reuse it)
# ---------------------------------------------------------------------------


class _Calc:
    _instance = None

    def __init__(self):
        source = load_source("calc")
        spec, library = scanner_and_library("calc")
        self.linguist = Linguist(source)
        self.ag = self.linguist.ag
        self.translator = self.linguist.make_translator(
            spec, library=library, backend="interp"
        )

    @classmethod
    def get(cls) -> "_Calc":
        if cls._instance is None:
            cls._instance = cls()
        return cls._instance

    def postfix_records(self, text: str):
        tokens = list(self.translator.scanner.tokens(text))
        spool = MemorySpool(channel="initial")
        builder = APTBuilder(self.ag, spool, build_tree=False)
        self.translator.parser.parse(tokens, listener=builder,
                                     build_tree=False)
        builder.finish()
        return list(spool.read_forward())


# ---------------------------------------------------------------------------
# P1: stability across spool round-trip and string re-construction
# ---------------------------------------------------------------------------


@SETTINGS
@given(
    n=st.integers(min_value=1, max_value=24),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_hashes_stable_across_spool_roundtrip(tmp_path_factory, n, seed):
    calc = _Calc.get()
    records = calc.postfix_records(generate_calc_program(n, seed=seed))
    direct = postfix_subtree_index(records, calc.ag)

    path = os.path.join(
        str(tmp_path_factory.mktemp("roundtrip")), "initial.spool"
    )
    spool = DiskSpool(path=path, channel="roundtrip")
    for record in records:
        spool.append(record)
    spool.finalize()
    rehydrated = list(DiskSpool.open(path).read_forward())
    roundtrip = postfix_subtree_index(rehydrated, calc.ag)

    assert roundtrip.hashes == direct.hashes
    assert roundtrip.spans == direct.spans


@SETTINGS
@given(
    n=st.integers(min_value=1, max_value=24),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_digests_invariant_under_string_reconstruction(n, seed):
    """Interning (or any copy) of symbol/attr strings must not move a
    digest: equal strings hash equal, identity is irrelevant."""
    calc = _Calc.get()
    records = calc.postfix_records(generate_calc_program(n, seed=seed))

    def copy_str(s):
        return s.encode("utf-8").decode("utf-8") if isinstance(s, str) else s

    for symbol, production, attrs, is_limb in records:
        clone = (
            copy_str(symbol),
            production,
            {copy_str(k): copy_str(v) for k, v in attrs.items()},
            is_limb,
        )
        assert record_digest(clone) == record_digest(
            (symbol, production, attrs, is_limb)
        )


# ---------------------------------------------------------------------------
# P2: equal leaf frontier, different shape -> different root hash
# ---------------------------------------------------------------------------
#
# postfix_subtree_index only touches ``ag.productions[p].rhs`` (its
# length) and ``.limb`` — a stub grammar suffices, so the property can
# range over arbitrary tree shapes, not just ones calc can parse.


class _FakeProd:
    def __init__(self, index, arity):
        self.index = index
        self.rhs = [f"c{i}" for i in range(arity)]
        self.limb = False


class _FakeAG:
    """productions[arity] is the (sole) production of that arity."""

    def __init__(self, max_arity=8):
        self.productions = {
            a: _FakeProd(a, a) for a in range(1, max_arity + 1)
        }


@st.composite
def tree_shapes(draw, n_leaves):
    """A tree shape over ``n_leaves`` ordered leaves, as nested tuples
    of leaf indices (a leaf is an int, an interior node a tuple of
    2..4 children)."""
    if n_leaves == 1:
        return draw(st.just(0))

    def build(lo, hi):
        count = hi - lo
        if count == 1:
            return lo
        n_children = draw(st.integers(2, min(4, count)))
        cuts = sorted(
            draw(
                st.lists(
                    st.integers(lo + 1, hi - 1),
                    min_size=n_children - 1,
                    max_size=n_children - 1,
                    unique=True,
                )
            )
        )
        bounds = [lo] + cuts + [hi]
        return tuple(
            build(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)
        )

    return build(0, n_leaves)


def shape_to_postfix(shape, leaves):
    """Flatten a shape to a postfix record stream over ``leaves``
    (each leaf a (symbol, text) pair)."""
    records = []

    def emit(node):
        if isinstance(node, int):
            sym, text = leaves[node]
            records.append((sym, None, {"text": text}, False))
            return
        for child in node:
            emit(child)
        records.append(("node", len(node), {}, False))

    emit(shape)
    return records


@SETTINGS
@given(data=st.data(), n_leaves=st.integers(min_value=2, max_value=12))
def test_distinct_shapes_over_equal_frontier_hash_distinct(data, n_leaves):
    leaves = [("num", str(i)) for i in range(n_leaves)]
    a = data.draw(tree_shapes(n_leaves), label="shape-a")
    b = data.draw(tree_shapes(n_leaves), label="shape-b")
    ag = _FakeAG()
    idx_a = postfix_subtree_index(shape_to_postfix(a, leaves), ag)
    idx_b = postfix_subtree_index(shape_to_postfix(b, leaves), ag)
    if a == b:
        assert idx_a.hashes == idx_b.hashes
    else:
        # Same frontier string, different structure: the roots (last
        # postfix records) must not collide.
        assert idx_a.hashes[-1] != idx_b.hashes[-1]


def test_equal_frontier_regression_pair():
    """The canonical counterexample from the module docstring:
    ``[a b n c n]`` vs ``[a b c n n]`` — same leaves a b c, different
    nesting — must hash apart at the root."""
    leaves = [("t", "a"), ("t", "b"), ("t", "c")]
    ag = _FakeAG()
    nested = ((0, 1), 2)  # (a b) c
    flat = (0, 1, 2)  # a b c
    i1 = postfix_subtree_index(shape_to_postfix(nested, leaves), ag)
    i2 = postfix_subtree_index(shape_to_postfix(flat, leaves), ag)
    assert i1.hashes[-1] != i2.hashes[-1]


# ---------------------------------------------------------------------------
# P3: a single-record mutation dirties exactly the spine
# ---------------------------------------------------------------------------


@SETTINGS
@given(
    data=st.data(),
    n=st.integers(min_value=2, max_value=16),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_single_mutation_dirties_exactly_the_spine(data, n, seed):
    calc = _Calc.get()
    records = calc.postfix_records(generate_calc_program(n, seed=seed))
    base = postfix_subtree_index(records, calc.ag)

    j = data.draw(
        st.integers(0, len(records) - 1).filter(
            lambda i: records[i][2]  # a record with attributes to mutate
        ),
        label="mutated-record",
    )
    symbol, production, attrs, is_limb = records[j]
    name = sorted(attrs)[0]
    mutated = dict(attrs)
    mutated[name] = str(mutated[name]) + "\x00edit"
    edited = list(records)
    edited[j] = (symbol, production, mutated, is_limb)

    after = postfix_subtree_index(edited, calc.ag)
    assert after.spans == base.spans, "a value edit must not change shape"

    spine = {
        i
        for i in range(len(records))
        if i - base.spans[i] + 1 <= j <= i
    }
    changed = {
        i for i in range(len(records)) if after.hashes[i] != base.hashes[i]
    }
    assert changed == spine
    # The spine reaches the root and is a path: one node per nesting
    # level, monotonically widening spans.
    assert (len(records) - 1) in spine


# ---------------------------------------------------------------------------
# P4: the dirty-spine rehash agrees with a full re-index
# ---------------------------------------------------------------------------


class _Initial:
    """A grammar's initial APT records in the order its translator
    emits them: prefix when the first pass runs left to right,
    postfix otherwise."""

    _cache = {}

    def __init__(self, grammar: str):
        spec, library = scanner_and_library(grammar)
        linguist = Linguist(load_source(grammar))
        self.ag = linguist.ag
        self.translator = linguist.make_translator(
            spec, library=library, backend="interp"
        )
        self.forward = linguist.assignment.first_direction is Direction.L2R

    @classmethod
    def get(cls, grammar: str) -> "_Initial":
        if grammar not in cls._cache:
            cls._cache[grammar] = cls(grammar)
        return cls._cache[grammar]

    def records(self, text: str):
        tokens = list(self.translator.scanner.tokens(text))
        spool = MemorySpool(channel="initial")
        builder = APTBuilder(
            self.ag, spool, build_tree=False, prefix=self.forward
        )
        self.translator.parser.parse(tokens, listener=builder,
                                     build_tree=False)
        builder.finish()
        return list(spool.read_forward())

    def index(self, records):
        indexer = prefix_subtree_index if self.forward else postfix_subtree_index
        return indexer(records, self.ag)


_DOCUMENTS = {
    "calc": lambda n, seed: generate_calc_program(n, seed=seed),
    "pascal": lambda n, seed: generate_pascal_program(n, seed=seed),
    "linguist": lambda n, seed: generate_ag_source(n, seed=seed),
    "binary": lambda n, seed: generate_binary_numeral(4 * n, seed=seed),
}


@pytest.mark.parametrize(
    "grammar, forward",
    [("calc", True), ("pascal", True), ("linguist", True),
     ("binary", False)],
)
@SETTINGS
@given(
    data=st.data(),
    n=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_spine_rehash_matches_full_reindex(grammar, forward, data, n, seed):
    initial = _Initial.get(grammar)
    assert initial.forward is forward
    records = initial.records(_DOCUMENTS[grammar](n, seed))
    base = initial.index(records)
    before = list(base.hashes)

    leaves = [
        i for i, (_s, production, _a, is_limb) in enumerate(records)
        if production is None and not is_limb
    ]
    dirty = data.draw(
        st.lists(st.sampled_from(leaves), min_size=1, max_size=5,
                 unique=True),
        label="mutated-leaves",
    )
    edited = list(records)
    for k, j in enumerate(dirty):
        symbol, production, attrs, is_limb = records[j]
        edited[j] = (symbol, production, dict(attrs, EDIT=k), is_limb)

    rehashed = _rehash_spine(base, edited, dirty, forward)
    full = initial.index(edited)
    assert rehashed.hashes == full.hashes
    assert rehashed.spans == full.spans
    assert rehashed.own == full.own
    assert base.hashes == before, "the cached index must stay untouched"


# ---------------------------------------------------------------------------
# 5. windowed re-scan == full scan
# ---------------------------------------------------------------------------


def _commented_calc() -> str:
    stmts = generate_calc_program(12, seed=3).split(" ;\n")
    return " ;\n".join(
        s if i % 3 else f"# note {i} ; let\n{s}" for i, s in enumerate(stmts)
    ) + "  # trailing"


def _commented_pascal() -> str:
    head, _, body = generate_pascal_program(10, seed=4).partition("begin\n")
    return head + "{ a comment\n  over two lines }\nbegin\n{x}" + body


#: The edited documents: every scanner-generated language's comments
#: (calc ``#`` lines, Pascal ``{...}`` blocks over lines, the grammar
#: language's ``#`` lines) are in the text, so edits land inside them.
_SCAN_DOCS = {
    "calc": _commented_calc,
    "pascal": _commented_pascal,
    "linguist": lambda: load_source("calc"),
}
_SCANNERS = {}

#: Fragments an edit inserts: delimiters of comments, numbers and names
#: (so tokens merge and split), and line breaks (so locations move).
_FRAGMENTS = ["", " ", "\n", "#", "{", "}", "(", ")", "x", "7", "42", ";",
              ":=", "let ", "begin", "end.", "* 3", "\t"]


def _scanner(grammar):
    scanner = _SCANNERS.get(grammar)
    if scanner is None:
        from repro.frontend.lexer import LEXICAL_SPEC

        spec = (
            LEXICAL_SPEC if grammar == "linguist"
            else scanner_and_library(grammar)[0]
        )
        scanner = _SCANNERS[grammar] = spec.generate()
    return scanner


def _as_tuples(tokens):
    return [(t.kind, t.text, t.location, t.name_index) for t in tokens]


@pytest.mark.parametrize("grammar", sorted(_SCAN_DOCS))
@SETTINGS
@given(data=st.data())
def test_windowed_rescan_equals_a_full_scan(grammar, data):
    """Re-lexing only the window an edit can have changed gives the
    very tokens (kinds, texts, locations, name indices) a full scan of
    the edited text gives, over a chain of edits anywhere: inside
    comments and tokens, across line breaks, at the end of the file."""
    from repro.errors import ScanError

    scanner = _scanner(grammar)
    state, _ = scanner.rescan(_SCAN_DOCS[grammar]())
    for _ in range(data.draw(st.integers(1, 4), label="edits")):
        n = len(state.text)
        at = data.draw(
            st.one_of(st.just(n), st.integers(0, n)), label="position"
        )
        cut = data.draw(st.integers(0, min(6, n - at)), label="deleted")
        insert = "".join(data.draw(
            st.lists(st.sampled_from(_FRAGMENTS), max_size=3), label="inserted"
        ))
        text = state.text[:at] + insert + state.text[at + cut:]
        try:
            full = _as_tuples(scanner.tokens(text))
        except ScanError:
            with pytest.raises(ScanError):
                scanner.rescan(text, state)
            continue
        new, window = scanner.rescan(text, state)
        assert _as_tuples(new.tokens) == full
        assert new.tokens[:window.start] == state.tokens[:window.start]
        assert new.tokens[window.moved_end:] == state.tokens[
            len(state.tokens) - (len(new.tokens) - window.moved_end):
        ]
        assert new.starts == scanner.rescan(text)[0].starts
        state = new

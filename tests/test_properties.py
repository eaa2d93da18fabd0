"""Property-based tests (hypothesis) on core data structures and invariants."""

import os
import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.ag.exprtext import parse_expression
from repro.apt.codec import RecordCodec, deserialize_names, serialize_names
from repro.apt.linear import TreeNode, iter_bottom_up, iter_prefix
from repro.apt.node import APTNode
from repro.apt.storage import AdaptiveSpool, DiskSpool, MemorySpool
from repro.errors import SpoolCorruptionError
from repro.passes.schedule import Direction
from repro.regex import build_nfa, determinize, minimize, parse_regex
from repro.regex.ast import char_code
from repro.regex.dfa import DEAD
from repro.util.lists import ConsList, PartialFunction, Sequence, SetList
from repro.util.nametable import NameTable

# ---------------------------------------------------------------------------
# Cons lists / sets / partial functions
# ---------------------------------------------------------------------------

values = st.one_of(st.integers(-50, 50), st.text(string.ascii_lowercase, max_size=4))


class TestConsListProperties:
    @given(st.lists(values))
    def test_round_trip(self, items):
        assert ConsList.from_iterable(items).to_pylist() == items

    @given(st.lists(values))
    def test_length(self, items):
        assert len(ConsList.from_iterable(items)) == len(items)

    @given(st.lists(values))
    def test_reverse_involution(self, items):
        lst = ConsList.from_iterable(items)
        assert lst.reverse().reverse() == lst

    @given(st.lists(values), st.lists(values))
    def test_append_is_concatenation(self, a, b):
        la, lb = ConsList.from_iterable(a), ConsList.from_iterable(b)
        assert la.append(lb).to_pylist() == a + b

    @given(st.lists(values), st.lists(values))
    def test_append_preserves_right_sharing(self, a, b):
        la, lb = ConsList.from_iterable(a), ConsList.from_iterable(b)
        out = la.append(lb)
        # Walking past a's elements lands exactly on the b spine.
        cell = out
        for _ in a:
            cell = cell.tail
        assert cell is lb

    @given(st.lists(values), values)
    def test_cons_then_head_tail(self, items, x):
        lst = ConsList.from_iterable(items).cons(x)
        assert lst.head == x
        assert lst.tail.to_pylist() == items

    @given(st.lists(values))
    def test_equal_lists_equal_hashes(self, items):
        a = ConsList.from_iterable(items)
        b = ConsList.from_iterable(list(items))
        assert a == b and hash(a) == hash(b)


class TestSetListProperties:
    @given(st.lists(st.integers(0, 30)))
    def test_add_idempotent(self, items):
        s = SetList.empty()
        for x in items:
            s = s.add(x)
        assert len(s) == len(set(items))
        assert set(s) == set(items)

    @given(st.lists(st.integers(0, 20)), st.lists(st.integers(0, 20)))
    def test_union_commutative_as_sets(self, a, b):
        sa = SetList.from_iterable(set(a))
        sb = SetList.from_iterable(set(b))
        assert sa.union(sb) == sb.union(sa)
        assert set(sa.union(sb)) == set(a) | set(b)

    @given(st.lists(st.integers(0, 20)), st.lists(st.integers(0, 20)))
    def test_difference_and_intersection_partition(self, a, b):
        sa = SetList.from_iterable(set(a))
        sb = SetList.from_iterable(set(b))
        inter = set(sa.intersection(sb))
        diff = set(sa.difference(sb))
        assert inter | diff == set(a)
        assert inter & diff == set()


class TestPartialFunctionProperties:
    @given(st.lists(st.tuples(st.integers(0, 10), st.integers())))
    def test_last_binding_wins(self, bindings):
        pf = PartialFunction.empty()
        model = {}
        for k, v in bindings:
            pf = pf.bind(k, v)
            model[k] = v
        for k, v in model.items():
            assert pf.lookup(k) == v
        assert len(pf) == len(model)

    @given(st.lists(st.tuples(st.integers(0, 10), st.integers())))
    def test_domain_matches_model(self, bindings):
        pf = PartialFunction.empty()
        for k, v in bindings:
            pf = pf.bind(k, v)
        assert set(pf.domain()) == {k for k, _ in bindings}


class TestNameTableProperties:
    @given(st.lists(st.text(string.ascii_letters, min_size=1, max_size=8)))
    def test_intern_is_stable_bijection(self, names):
        nt = NameTable()
        indexes = [nt.intern(n) for n in names]
        for n, i in zip(names, indexes):
            assert nt.intern(n) == i
            assert nt.spelling(i) == n
        assert len(nt) == len(set(names))


# ---------------------------------------------------------------------------
# Spools: write-then-read is the identity, forwards and backwards
# ---------------------------------------------------------------------------

records = st.lists(
    st.tuples(st.text(string.ascii_uppercase, min_size=1, max_size=3),
              st.one_of(st.none(), st.integers(0, 5)),
              st.dictionaries(st.text(string.ascii_uppercase, min_size=1, max_size=2),
                              st.integers(-9, 9), max_size=3),
              st.booleans()),
    max_size=20,
)


class TestSpoolProperties:
    @given(records)
    @settings(max_examples=40)
    def test_memory_spool_round_trip(self, recs):
        spool = MemorySpool()
        for r in recs:
            spool.append(r)
        spool.finalize()
        assert list(spool.read_forward()) == recs
        assert list(spool.read_backward()) == recs[::-1]

    @given(records)
    @settings(max_examples=20)
    def test_disk_spool_round_trip(self, recs):
        spool = DiskSpool()
        try:
            for r in recs:
                spool.append(r)
            spool.finalize()
            assert list(spool.read_forward()) == recs
            assert list(spool.read_backward()) == recs[::-1]
        finally:
            spool.close()

    @given(records)
    @settings(max_examples=15)
    def test_disk_spool_round_trip_format_matrix(self, recs):
        """The on-disk format round-trips in both directions, and a
        reopened spool agrees with the writer-side instance."""
        spool = DiskSpool()
        try:
            for r in recs:
                spool.append(r)
            spool.finalize()
            assert list(spool.read_forward()) == recs
            assert list(spool.read_backward()) == recs[::-1]
            reopened = DiskSpool.open(spool.path)
            assert reopened.n_records == len(recs)
            assert reopened.data_bytes == spool.data_bytes
            assert list(reopened.read_forward()) == recs
            assert list(reopened.read_backward()) == recs[::-1]
        finally:
            spool.close()

    @given(records, st.integers(0, 256))
    @settings(max_examples=20)
    def test_adaptive_spool_round_trip_across_budgets(self, recs, budget):
        """An AdaptiveSpool behaves identically whether it stays
        memory-resident or spills mid-stream."""
        spool = AdaptiveSpool(memory_budget=budget)
        try:
            for r in recs:
                spool.append(r)
            spool.finalize()
            assert spool.n_records == len(recs)
            assert list(spool.read_forward()) == recs
            assert list(spool.read_backward()) == recs[::-1]
        finally:
            spool.close()


# ---------------------------------------------------------------------------
# Record codec v3: value- and *type*-faithful round trips
# ---------------------------------------------------------------------------

codec_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),  # includes > 64-bit values (pickle fallback)
        st.floats(allow_nan=False),
        st.text(max_size=90),  # crosses the MAX_INTERN_LEN=64 boundary
        st.binary(max_size=16),  # pickle fallback
        st.sets(st.integers(-5, 5), max_size=3),  # pickle fallback
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
    ),
    max_leaves=12,
)


def _assert_type_faithful(a, b, path="value"):
    assert type(a) is type(b), f"{path}: {type(a)} != {type(b)}"
    if isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_type_faithful(x, y, f"{path}[{i}]")
    elif isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for k in a:
            _assert_type_faithful(a[k], b[k], f"{path}[{k!r}]")
    else:
        assert a == b, path


class TestRecordCodecProperties:
    @given(codec_values)
    @settings(max_examples=150)
    def test_value_round_trip_is_type_faithful(self, value):
        codec = RecordCodec()
        decoded = codec.decode(codec.encode(value))
        _assert_type_faithful(decoded, value)

    @given(
        st.text(min_size=1, max_size=10),
        st.one_of(st.none(), st.integers(0, 1000)),
        st.dictionaries(st.text(min_size=1, max_size=8), codec_values,
                        max_size=4),
        st.booleans(),
    )
    @settings(max_examples=100)
    def test_node_record_round_trip(self, symbol, production, attrs, is_limb):
        codec = RecordCodec()
        record = (symbol, production, attrs, is_limb)
        decoded = codec.decode(codec.encode(record))
        _assert_type_faithful(decoded, record)

    @given(st.lists(st.text(min_size=1, max_size=30), unique=True))
    def test_name_table_section_round_trip(self, names):
        codec = RecordCodec()
        for name in names:
            codec.names.intern(name)
        rebuilt = deserialize_names(serialize_names(codec.names))
        assert list(rebuilt) == list(codec.names)
        for name in names:
            assert rebuilt.intern(name) == codec.names.intern(name)

    @given(records, st.integers(0, 2**31 - 1), st.integers(0, 7))
    @settings(max_examples=60, deadline=None)
    def test_v3_bit_flip_detected_or_harmless(self, recs, pos_seed, bit):
        """Flip one bit anywhere in a sealed v3 file: a fresh reader
        either detects the damage in BOTH directions or the data is
        byte-for-byte unaffected (e.g. a reserved-flag bit)."""
        spool = DiskSpool()
        try:
            for r in recs:
                spool.append(r)
            spool.finalize()
            size = os.path.getsize(spool.path)
            offset = pos_seed % size
            with open(spool.path, "r+b") as f:
                f.seek(offset)
                byte = f.read(1)[0]
                f.seek(offset)
                f.write(bytes([byte ^ (1 << bit)]))
            outcomes = {}
            for name in ("fwd", "bwd"):
                try:
                    fresh = DiskSpool.open(spool.path)
                    got = list(
                        fresh.read_forward() if name == "fwd"
                        else fresh.read_backward()
                    )
                    outcomes[name] = got
                except SpoolCorruptionError:
                    outcomes[name] = None
            if outcomes["fwd"] is None or outcomes["bwd"] is None:
                assert outcomes["fwd"] is None and outcomes["bwd"] is None
            else:
                assert outcomes["fwd"] == recs
                assert outcomes["bwd"] == recs[::-1]
        finally:
            spool.close()


# ---------------------------------------------------------------------------
# Linearization: the §II reversal identity on arbitrary trees
# ---------------------------------------------------------------------------

@st.composite
def apt_trees(draw, depth=0):
    name = draw(st.text(string.ascii_uppercase, min_size=1, max_size=2))
    if depth >= 3 or draw(st.booleans()):
        return TreeNode(APTNode(name))
    n_children = draw(st.integers(1, 3))
    children = [draw(apt_trees(depth=depth + 1)) for _ in range(n_children)]
    limb = None
    if draw(st.booleans()):
        limb = APTNode(name + "$limb", production=0, is_limb=True)
    return TreeNode(APTNode(name, production=0), children, limb)


class TestLinearizationProperties:
    @given(apt_trees())
    @settings(max_examples=60)
    def test_reversal_identity_l2r(self, tree):
        out = [id(n) for n in iter_bottom_up(tree, Direction.L2R)]
        back = [id(n) for n in iter_prefix(tree, Direction.R2L)]
        assert out[::-1] == back

    @given(apt_trees())
    @settings(max_examples=60)
    def test_reversal_identity_r2l(self, tree):
        out = [id(n) for n in iter_bottom_up(tree, Direction.R2L)]
        back = [id(n) for n in iter_prefix(tree, Direction.L2R)]
        assert out[::-1] == back

    @given(apt_trees())
    @settings(max_examples=30)
    def test_both_orders_are_permutations(self, tree):
        prefix = sorted(id(n) for n in iter_prefix(tree))
        postfix = sorted(id(n) for n in iter_bottom_up(tree))
        assert prefix == postfix


# ---------------------------------------------------------------------------
# Scanner generator: the DFA agrees with a reference matcher
# ---------------------------------------------------------------------------

class TestRegexProperties:
    @given(st.text(alphabet="ab", max_size=8))
    def test_dfa_matches_reference_for_fixed_pattern(self, text):
        import re

        pattern = "a(a|b)*b"
        nfa = build_nfa([("t", parse_regex(pattern))])
        dfa = minimize(determinize(nfa))
        state = dfa.start
        alive = True
        for ch in text:
            state = dfa.step(state, char_code(ch))
            if state == DEAD:
                alive = False
                break
        ours = alive and dfa.accept_tag(state) is not None
        theirs = re.fullmatch("a[ab]*b", text) is not None
        assert ours == theirs

    @given(st.text(alphabet="01.", max_size=10))
    def test_minimization_preserves_language(self, text):
        pattern = r"(0|1)+\.(0|1)+"
        nfa = build_nfa([("t", parse_regex(pattern))])
        big = determinize(nfa)
        small = minimize(big)

        def accepts(dfa):
            state = dfa.start
            for ch in text:
                state = dfa.step(state, char_code(ch))
                if state == DEAD:
                    return False
            return dfa.accept_tag(state) is not None

        assert accepts(big) == accepts(small)


# ---------------------------------------------------------------------------
# Expression parser: printing then reparsing is the identity
# ---------------------------------------------------------------------------

@st.composite
def expressions(draw, depth=0, allow_if=True):
    """Random expression text honoring the §IV restriction: ``if`` never
    occurs inside an infix operand or a call argument."""
    if depth >= 3:
        return draw(st.sampled_from(["1", "42", "a.X", "b.Y", "true"]))
    kind = draw(st.integers(0, 5 if allow_if else 4))
    inner = lambda: draw(expressions(depth=depth + 1, allow_if=False))
    if kind == 0:
        return draw(st.sampled_from(["0", "7", "a.X", "c.Z", "false"]))
    if kind == 1:
        op = draw(st.sampled_from(["+", "-", "*"]))
        return f"({inner()} {op} {inner()})"
    if kind == 2:
        op = draw(st.sampled_from(["=", "<>", "<", ">"]))
        return f"({inner()} {op} {inner()})"
    if kind == 3:
        return f"f({inner()})"
    if kind == 4:
        return f"not {inner()}"
    # if-expressions: branches may themselves contain if.
    return (f"if {inner()} then "
            f"{draw(expressions(depth=depth + 1, allow_if=True))} else "
            f"{draw(expressions(depth=depth + 1, allow_if=True))} endif")


class TestExpressionProperties:
    @given(expressions())
    @settings(max_examples=80)
    def test_print_parse_round_trip(self, text):
        e1 = parse_expression(text)
        e2 = parse_expression(str(e1))
        assert e1 == e2

    @given(expressions())
    @settings(max_examples=80)
    def test_frontend_and_mini_parser_agree(self, text):
        """The LALR-generated frontend and the hand mini-parser must
        build identical ASTs for the same expression text."""
        from repro.frontend.syntax import parse_ag_text

        src = (
            "grammar g : s .\n"
            "symbols\n  nonterminal s ;\n  terminal T ;\n"
            "attributes\n  s : synthesized V int ;\n"
            "productions\n"
            f"s = T .\n  s.V = {text} ;\n"
            "end\n"
        )
        via_frontend = parse_ag_text(src).prods[0].funcs[0].expr
        via_mini = parse_expression(text)
        assert via_frontend == via_mini


# ---------------------------------------------------------------------------
# End-to-end: the file paradigm equals the oracle on random inputs
# ---------------------------------------------------------------------------

class TestEvaluationProperties:
    @given(st.text(alphabet="01", min_size=1, max_size=14),
           st.text(alphabet="01", min_size=1, max_size=14))
    @settings(max_examples=25, deadline=None)
    def test_binary_value_matches_semantics(self, int_part, frac_part):
        from tests.evalharness import Pipeline, tokens_of
        from tests.sample_grammars import knuth_binary

        pipe = _binary_pipe()
        mapping = {"0": "ZERO", "1": "ONE", ".": "DOT"}
        text = int_part + "." + frac_part
        toks = tokens_of([(mapping[c], c) for c in text])
        result, _ = pipe.evaluate(toks, backend="generated")
        expected = int(int_part, 2) + int(frac_part, 2) / 2 ** len(frac_part)
        assert result["VAL"] == pytest.approx(expected)


_PIPE_CACHE = {}


def _binary_pipe():
    if "binary" not in _PIPE_CACHE:
        from tests.evalharness import Pipeline
        from tests.sample_grammars import knuth_binary

        _PIPE_CACHE["binary"] = Pipeline(knuth_binary())
    return _PIPE_CACHE["binary"]

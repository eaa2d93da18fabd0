"""The parser writes the initial APT file; passes read and write records.

Two contracts:

* the records :meth:`LALRParser.parse` writes through an
  :class:`APTBuilder` equal, record for record, the bottom-up and
  prefix orders of an independently built tree (the generic parse tree,
  converted node by node here), on every shipped grammar;
* the errors of the record path stay typed and keep their messages:
  a non-terminal shift and a production mismatch at parse time, an
  out-of-phase record and an exhausted input at evaluation time, the
  latter two worded identically by both evaluator backends.
"""

import pytest

from repro.ag import GrammarBuilder
from repro.apt.build import APTBuilder, default_intrinsics
from repro.apt.linear import TreeNode, iter_bottom_up, iter_prefix
from repro.apt.node import APTNode
from repro.apt.storage import MemorySpool
from repro.core import Linguist
from repro.errors import EvaluationError
from repro.grammars import GRAMMAR_NAMES, load_source, scanner_and_library
from repro.passes.schedule import Direction
from repro.workloads import (
    generate_binary_numeral,
    generate_calc_program,
    generate_pascal_program,
)
from tests.evalharness import Pipeline, tokens_of
from tests.sample_grammars import knuth_binary

ASM_PROGRAMS = [
    "start: add 1\n jmp end\n add 2\n jmp start\nend: halt\n",
    "loop: add 7\n add 1\n jmp loop\n halt\n",
]

INPUTS = {
    "binary": [generate_binary_numeral(n, seed=s) for n, s in ((6, 1), (20, 2))],
    "calc": [generate_calc_program(n, seed=s) for n, s in ((4, 3), (12, 4))],
    "pascal": [generate_pascal_program(n, seed=s) for n, s in ((5, 5), (15, 6))],
    "asm": ASM_PROGRAMS,
    "linguist": [load_source("binary"), load_source("calc")],
}


@pytest.fixture(scope="module")
def translators():
    out = {}
    for name in GRAMMAR_NAMES:
        spec, library = scanner_and_library(name)
        out[name] = Linguist(load_source(name)).make_translator(spec, library=library)
    return out


def reference_tree(ag, parse_tree) -> TreeNode:
    """The APT built from the generic concrete parse tree, one node at a
    time, without the record path."""

    def convert(pt) -> TreeNode:
        if pt.is_leaf:
            sym = ag.symbols[pt.symbol]
            attrs = {
                a.name: default_intrinsics(pt.token, sym.name, a.name)
                for a in sym.intrinsic
            }
            return TreeNode(APTNode(sym.name, None, attrs))
        prod = ag.productions[pt.production.index - 1]
        limb = APTNode(prod.limb, prod.index, is_limb=True) if prod.limb else None
        children = [convert(child) for child in pt.children]
        return TreeNode(APTNode(prod.lhs, prod.index), children, limb)

    # The root is $accept = start $eof.
    return convert(parse_tree.children[0])


def records(nodes):
    return [(n.symbol, n.production, n.attrs, n.is_limb) for n in nodes]


def parsed_records(translator, tokens, prefix: bool):
    spool = MemorySpool(channel="initial")
    builder = APTBuilder(translator.ag, spool, prefix=prefix, build_tree=True)
    translator.parser.parse(tokens, listener=builder)
    builder.finish()
    return list(spool.read_forward()), builder


@pytest.mark.parametrize("grammar", GRAMMAR_NAMES)
def test_parser_records_equal_tree_orders(translators, grammar):
    translator = translators[grammar]
    for text in INPUTS[grammar]:
        tokens = list(translator.scanner.tokens(text))
        tree = reference_tree(translator.ag, translator.parser.parse(tokens))
        postfix, builder = parsed_records(translator, tokens, prefix=False)
        assert postfix == records(iter_bottom_up(tree, Direction.L2R))
        assert builder.n_nodes == len(postfix)
        prefix, _ = parsed_records(translator, tokens, prefix=True)
        assert prefix == records(iter_prefix(tree, Direction.L2R))
        # The retained tree comes back as the same APT.
        assert records(iter_prefix(builder.root)) == prefix


@pytest.mark.parametrize("grammar", GRAMMAR_NAMES)
def test_translator_initial_spool_is_the_parser_records(translators, grammar):
    """The translator's own first file, in its strategy's order."""
    translator = translators[grammar]
    text = INPUTS[grammar][0]
    tokens = list(translator.scanner.tokens(text))
    tree = reference_tree(translator.ag, translator.parser.parse(tokens))
    initial = translator._build_initial(tokens, lambda name: MemorySpool(channel=name))
    if translator.linguist.assignment.first_direction is Direction.R2L:
        expected = records(iter_bottom_up(tree, Direction.L2R))
    else:
        expected = records(iter_prefix(tree, Direction.L2R))
    assert list(initial.read_forward()) == expected


# ---------------------------------------------------------------------------
# typed errors
# ---------------------------------------------------------------------------


def _items(terminal: str, lhs_terminal: bool = True):
    """``root = item item ; item = <terminal>``; ``X`` optionally a
    non-terminal deriving ``Y``."""
    b = GrammarBuilder("items", start="root")
    b.nonterminal("root", synthesized={"N": "int"})
    b.nonterminal("item", synthesized={"N": "int"})
    if lhs_terminal:
        b.terminal("X")
        b.terminal("Y")
    else:
        b.nonterminal("X", synthesized={"N": "int"})
        b.terminal("Y")
        b.production("X", ["Y"], functions=[("X.N", "1")])
    b.production("root", ["item", "item"], functions=[("root.N", "item0.N + item1.N")])
    b.production("item", [terminal], functions=[("item.N", "1")])
    return b.finish()


def test_non_terminal_shift_is_typed():
    pipe = Pipeline(_items("X"))
    builder = APTBuilder(_items("X", lhs_terminal=False), MemorySpool())
    with pytest.raises(EvaluationError) as exc:
        pipe.parser.parse(tokens_of(["X", "X"]), listener=builder)
    assert str(exc.value) == (
        "parser shifted 'X', which is not a terminal of attribute grammar 'items'"
    )


def test_production_mismatch_is_typed():
    pipe = Pipeline(_items("X"))
    builder = APTBuilder(_items("Y"), MemorySpool())
    with pytest.raises(EvaluationError) as exc:
        pipe.parser.parse(tokens_of(["X", "X"]), listener=builder)
    assert str(exc.value) == (
        "parser production item -> X  [P1] does not match attribute grammar "
        "production item = Y. — the same input file must drive both tools"
    )


BINARY = tokens_of([("ONE", "1"), ("ZERO", "0"), ("DOT", "."), ("ONE", "1")])


def _evaluation_error(backend: str, edit) -> str:
    pipe = Pipeline(knuth_binary())
    spool, _ = pipe.build_apt(BINARY, build_tree=False)
    damaged = MemorySpool(channel="initial")
    for record in edit(list(spool.read_forward())):
        damaged.append(record)
    damaged.finalize()
    with pytest.raises(EvaluationError) as exc:
        pipe.driver(backend).run(damaged, strategy="bottom-up")
    return str(exc.value)


@pytest.mark.parametrize(
    "edit,message",
    [
        # The root record (read first, backwards) names the wrong symbol.
        (
            lambda recs: recs[:-1] + [("bits",) + recs[-1][1:]],
            "APT input out of phase: expected 'number', read 'bits' — the "
            "evaluator and the parser disagree about the phrase structure",
        ),
        # The file ends before the tree does.
        (
            lambda recs: recs[4:],
            "APT input exhausted while expecting a 'ZERO' node",
        ),
    ],
    ids=["out-of-phase", "exhausted"],
)
def test_record_errors_match_across_backends(edit, message):
    assert _evaluation_error("interp", edit) == message
    assert _evaluation_error("generated", edit) == message

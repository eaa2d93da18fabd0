"""Seeded benchmark inputs and their independent reference outputs.

Every input is a pure function of the workload seed.  Sizes come from
fixed ladders and only the contents vary with the seed: a run's
aggregate cost then depends on the mix the workload declares, not on
which sizes one seed happened to draw.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.workloads import generate_calc_program, generate_pascal_program

#: Statement counts of the generated Pascal programs a compile cycle
#: translates: mostly small, with a tail up to 800 statements.
COMPILE_PASCAL_LADDER = [
    50, 55, 60, 70, 80, 90, 100, 110, 120, 150, 175, 200, 300, 500, 800,
]
#: Shapes of the generated ``.ag`` grammars (build and compile):
#: (levels, implicit copy-rules, second alternating pass).  Fixed per
#: slot, so a seed changes only constants, not how much work a grammar is.
AG_LADDER = [(6, False, False), (9, True, False), (12, False, True),
             (16, True, True), (20, False, False), (26, True, False),
             (32, False, True), (40, True, True), (48, True, False),
             (56, False, True)]
#: Statement counts of the programs served over HTTP.
SERVE_PASCAL_LADDER = [50, 55, 60, 70, 80, 90, 100, 120, 140, 160, 200, 250, 300, 350, 400]
#: Edit-session documents: statements per document, versions per session.
EDIT_PASCAL_STATEMENTS = 100
EDIT_CALC_STATEMENTS = 200
EDIT_VERSIONS = 12


# Cycle lengths (build 15, compile 25, serve 15 inputs) end in 5 on
# purpose: a run repeats whole cycles, so with N distinct inputs the p50
# and p90 sit at ranks 0.5 N and 0.9 N counted in inputs, which is the
# middle of one input's repetitions rather than the gap between two
# inputs of different cost.


def interleaved(items: Sequence[Any], cost) -> List[Any]:
    """``items`` sorted by ``cost`` and then visited in bit-reversed
    order, so large and small items alternate through a cycle (and edit
    positions alternate through a session) instead of bunching up."""
    ordered = sorted(items, key=cost)
    n = len(ordered)
    bits = max(1, (n - 1).bit_length())
    keys = [int(format(i, f"0{bits}b")[::-1], 2) for i in range(n)]
    return [item for _, item in sorted(zip(keys, ordered), key=lambda p: p[0])]


# ---------------------------------------------------------------------------
# generated attribute grammars
# ---------------------------------------------------------------------------


@dataclass
class GeneratedGrammar:
    """An LALR(1), alternating-pass-evaluable ``.ag`` source plus a
    sample input for it (a token-kind/text list, no scanner needed)."""

    name: str
    source: str
    sample: List[Tuple[str, str]]


def generate_grammar(levels: int, copies: bool, second_pass: bool,
                     rng: random.Random, tag: str) -> GeneratedGrammar:
    """A chain grammar ``s_i = s_{i+1} A_i | B_i`` with ``levels`` levels.

    Distinct terminals per level keep it LALR(1).  ``D`` flows down,
    ``V`` up; ``copies`` adds ``C``, threaded down by implicit
    copy-rules (subsumption fodder), and ``second_pass`` adds ``E``/``R``,
    which depend on the root's ``V`` and so need a second alternating pass.
    """
    nts = [f"s{i}" for i in range(levels)]
    a_terms = [f"A{i}" for i in range(levels)]
    b_terms = [f"B{i}" for i in range(levels)]
    inh = ["D int"] + (["C int"] if copies else []) + (["E int"] if second_pass else [])
    syn = ["V int"] + (["R int"] if second_pass else [])
    decls = ", ".join(
        [f"inherited {a}" for a in inh] + [f"synthesized {a}" for a in syn]
    )
    lines = [
        f"grammar {tag} : root .",
        "symbols",
        "  nonterminal root, " + ", ".join(nts) + " ;",
        "  terminal " + ", ".join(a_terms + b_terms) + " ;",
        "attributes",
        "  root : synthesized V int"
        + (", synthesized R int" if second_pass else "") + " ;",
    ]
    lines += [f"  {nt} : {decls} ;" for nt in nts]
    lines += [f"  {t} : intrinsic W int ;" for t in a_terms + b_terms]
    lines.append("productions")
    root_rules = [f"s0.D = {rng.randrange(10)}"]
    if copies:
        root_rules.append(f"s0.C = {rng.randrange(1, 10)}")
    if second_pass:
        root_rules += ["s0.E = s0.V", "root.R = s0.R"]
    lines.append("root = s0 .")
    lines.append("  " + " ,\n  ".join(root_rules) + " ;")
    for i in range(levels):
        if i + 1 < levels:
            here, below = nts[i], nts[i + 1]
            rules = [
                f"{below}.D = {here}.D + {rng.randrange(1, 9)}",
                f"{here}.V = {below}.V + A{i}.W",
            ]
            # C is left to an implicit copy-rule; E is copied explicitly.
            if second_pass:
                rules += [
                    f"{below}.E = {here}.E",
                    f"{here}.R = {below}.R * {rng.randrange(1, 4)} + {here}.D",
                ]
            lines.append(f"{here} = {below} A{i} .")
            lines.append("  " + " ,\n  ".join(rules) + " ;")
        base = [f"{nts[i]}.V = {nts[i]}.D + B{i}.W" + (f" + {nts[i]}.C" if copies else "")]
        if second_pass:
            base.append(f"{nts[i]}.R = {nts[i]}.E - B{i}.W")
        lines.append(f"{nts[i]} = B{i} .")
        lines.append("  " + " ,\n  ".join(base) + " ;")
    lines.append("end")
    depth = rng.randrange(levels)
    sample = [(f"B{depth}", str(rng.randrange(100)))]
    sample += [(f"A{i}", str(rng.randrange(100))) for i in reversed(range(depth))]
    return GeneratedGrammar(tag, "\n".join(lines) + "\n", sample)


def generated_grammars(seed: int, ladder=AG_LADDER) -> List[GeneratedGrammar]:
    rng = random.Random(seed * 7919 + 1)
    return [
        generate_grammar(levels, copies, second, rng, f"gen{seed % 10000}x{levels}")
        for levels, copies, second in ladder
    ]


_TOKEN = re.compile(r"\w+|:=|<=|>=|<>|[^\s\w]")


def typical(generate, n: int, rng: random.Random, candidates: int = 7) -> str:
    """Of ``candidates`` seeded programs of ``n`` statements, the one
    with the median token count: the seed still picks the contents, but
    not how many tokens ``n`` statements happen to hold."""
    texts = [generate(n, seed=rng.randrange(1, 1 << 30)) for _ in range(candidates)]
    texts.sort(key=lambda t: len(_TOKEN.findall(t)))
    return texts[candidates // 2]


def pascal_programs(seed: int, ladder: Sequence[int]) -> List[str]:
    rng = random.Random(seed * 104729 + 2)
    return [typical(generate_pascal_program, n, rng) for n in ladder]


# ---------------------------------------------------------------------------
# edit sessions
# ---------------------------------------------------------------------------

_PASCAL_VARS = [f"v{i}" for i in range(8)]
_NUMBER = re.compile(r"\b\d+\b")
_PASCAL_VAR = re.compile(r"\bv\d\b")


def _swap_token(line: str, rng: random.Random, language: str) -> str:
    """Change one literal or identifier in ``line`` to another of the
    same token kind (so the token-kind sequence is unchanged)."""
    numbers = list(_NUMBER.finditer(line))
    names = list(_PASCAL_VAR.finditer(line)) if language == "pascal" else [
        m for m in re.finditer(r"\bx(\d+)\b", line) if m.start() > line.find("=")
    ]
    if names and (not numbers or rng.random() < 0.5):
        m = rng.choice(names)
        if language == "pascal":
            new = rng.choice([v for v in _PASCAL_VARS if v != m.group()])
        else:
            # Any variable defined earlier than the one referenced.
            new = f"x{rng.randrange(int(m.group(1)) + 1)}"
    else:
        m = rng.choice(numbers)
        new = str((int(m.group()) + 1 + rng.randrange(8)) % 100)
    return line[: m.start()] + new + line[m.end():]


def _stratum_kind(stratum: int) -> str:
    """Every fourth stratum gets a structural edit (alternately an
    insert and a delete); the rest swap one token."""
    if stratum % 4 != 2:
        return "swap"
    return "insert" if (stratum // 4) % 2 == 0 else "delete"


def edit_versions(language: str, seed: int, versions: int = EDIT_VERSIONS) -> List[str]:
    """Successive versions of one ``pascal`` or ``calc`` document, each
    one edit apart.

    The document is cut into ``versions - 1`` equal strata and each
    stratum gets one edit at a uniform position inside it, so edit
    positions cover the document evenly whatever the seed.  The kind of
    edit per stratum, the kind of statement it lands on and the order
    strata are visited in are fixed (see :func:`_stratum_kind`); the
    seed picks positions inside strata and contents.
    Calc structural edits insert or delete a ``print`` statement, so no
    later ``let`` loses its definition.
    """
    rng = random.Random(seed * 15485863 + len(language))
    if language == "pascal":
        text = typical(generate_pascal_program, EDIT_PASCAL_STATEMENTS, rng)
        head, _, rest = text.partition("begin\n")
        body, _, _ = rest.rpartition("\nend.")
        stmts = body.split(";\n")
        first = 0

        def join(lines):
            return head + "begin\n" + ";\n".join(lines) + "\nend."

        def editable(kind, line, stratum):
            return kind != "swap" or bool(_NUMBER.search(line) or _PASCAL_VAR.search(line))
    else:
        text = typical(generate_calc_program, EDIT_CALC_STATEMENTS, rng)
        stmts = text.split(" ;\n")
        first = 1  # keep ``let x0``, which every later statement may use
        join = " ;\n".join

        def editable(kind, line, stratum):
            # A changed ``let`` alters the environment every later
            # statement inherits; a changed ``print`` stays local.  Fix
            # which one each stratum swaps, since the cost differs a lot.
            if kind == "insert":
                return True
            wanted = "let" if kind == "swap" and stratum % 4 == 1 else "print"
            return line.startswith(wanted)

    k = versions - 1
    out = [text]
    for stratum in interleaved(range(k), cost=int):
        kind = _stratum_kind(stratum)
        lo = first + stratum * (len(stmts) - first) // k
        hi = first + (stratum + 1) * (len(stmts) - first) // k
        start = rng.randrange(lo, hi)
        fits = [p for p in list(range(start, hi)) + list(range(lo, start)) if editable(kind, stmts[p], stratum)]
        pos = fits[0] if fits else start
        kind = kind if fits else "insert"
        if kind == "swap":
            stmts[pos] = _swap_token(stmts[pos], rng, language)
        elif kind == "delete":
            del stmts[pos]
        elif language == "pascal":
            stmts.insert(pos, f"  {rng.choice(_PASCAL_VARS)} := {rng.choice(_PASCAL_VARS)} + {rng.randrange(10)}")
        else:
            defined = sum(1 for line in stmts[:pos] if line.startswith("let"))
            stmts.insert(pos, f"print x{rng.randrange(defined)} + {rng.randrange(10)}")
        out.append(join(stmts))
    return out


def ping_pong(n_versions: int) -> List[int]:
    """Version indices 0..n-1..1 (then repeat): every step is exactly
    one edit, applied forward or undone backward."""
    return list(range(n_versions)) + list(range(n_versions - 2, 0, -1))


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------


def canonical(root_attrs: Dict[str, Any]) -> Dict[str, str]:
    """Root attributes rendered byte-comparably (non-string iterables
    materialized as lists, then ``repr``), as the differential tests do."""
    out = {}
    for attr, value in sorted(root_attrs.items()):
        if hasattr(value, "__iter__") and not isinstance(value, str):
            value = list(value)
        out[attr] = repr(value)
    return out


def oracle_attrs(ag, library, parser, tokens) -> Dict[str, str]:
    """Canonical root attributes from the demand-driven oracle: parse
    into an in-memory tree and evaluate it with no passes and no spools."""
    from repro.apt.build import APTBuilder
    from repro.apt.storage import MemorySpool
    from repro.evalgen.oracle import OracleEvaluator

    builder = APTBuilder(ag, MemorySpool(channel="initial"), build_tree=True)
    parser.parse(tokens, listener=builder, build_tree=False)
    builder.finish()
    return canonical(OracleEvaluator(ag, library).evaluate(builder.root).root_attrs)


def matches_oracle(result_attrs: Dict[str, Any], reference: Dict[str, str]) -> bool:
    """The pass evaluators export the root's live attributes; the oracle
    computes every one, so compare on the exported set."""
    got = canonical(result_attrs)
    return bool(got) and all(reference.get(k) == v for k, v in got.items())


def pascal_reference(text: str, hand) -> List[str]:
    """Stack code from the hand-written one-pass compiler; the
    benchmark's programs are well-typed, so it must report no message."""
    result = hand.compile(text)
    if result.msgs:
        raise ValueError(f"reference compiler reported {result.msgs[:3]}")
    return result.code


def pascal_ok(result_attrs: Dict[str, Any], code: List[str]) -> bool:
    return list(result_attrs.get("CODE", ())) == code and not list(
        result_attrs.get("MSGS", ())
    )


def make_tokens(sample: List[Tuple[str, str]]):
    from repro.errors import SourceLocation
    from repro.lalr.grammar import EOF_SYMBOL
    from repro.regex.scanner import Token

    toks = [Token(kind, text, SourceLocation(1, i + 1)) for i, (kind, text) in enumerate(sample)]
    toks.append(Token(EOF_SYMBOL, "", SourceLocation(1, len(toks) + 1)))
    return toks

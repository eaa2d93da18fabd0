#!/usr/bin/env python
"""memo-replay: incremental re-translation across processes.

Successive versions of a seeded calc and a seeded Pascal document, one
edit apart (a swapped token, an inserted or a deleted statement), and
of a seeded binary numeral, one flipped bit apart, are each translated
by a process of their own::

    python -m repro run GRAMMAR VERSION_FILE --memo-dir DIR

so every memo hit restores its post-visit state from the pickled MEMO2
payload on disk, never from objects a previous translation left in
memory.  The driver checks, per version:

1. the memo run's stdout is byte-identical to a cold run's (no memo);
2. the memo run's subtree hits (from its stderr summary) equal those of
   an in-process replay of the same versions through one translator —
   a value restored from disk must key the memo exactly like the live
   value it was pickled from.

Usage: PYTHONPATH=src python tools/memo_replay.py [WORKDIR] [--edits N]
Exits non-zero with a diagnostic on any mismatch.
"""

import argparse
import os
import random
import re
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
sys.path.insert(0, SRC)

from repro.core import Linguist  # noqa: E402
from repro.grammars import load_source, scanner_and_library  # noqa: E402
from repro.obs import MetricsRegistry  # noqa: E402
from repro.workloads.generators import (  # noqa: E402
    generate_binary_numeral,
    generate_calc_program,
    generate_pascal_program,
)

KINDS = ("swap", "insert", "delete")
_LITERAL = re.compile(r"\b\d+\b")
_HITS = re.compile(r"(\d+) subtree hit")


def calc_versions(n_edits: int, seed: int) -> list:
    """A 60-statement calc program and ``n_edits`` successive edits:
    swaps change a ``let`` operator (every later statement inherits the
    changed environment), inserts and deletes touch ``print``s only, so
    no later ``let`` loses its definition."""
    rng = random.Random(seed)
    stmts = generate_calc_program(60, seed=seed).split(" ;\n")
    out = [" ;\n".join(stmts)]
    for k in range(n_edits):
        kind = KINDS[k % len(KINDS)]
        lo = 1 + (k * (len(stmts) - 1)) // n_edits
        if kind == "swap":
            pos = next(
                p for p in list(range(lo, len(stmts))) + list(range(1, lo))
                if stmts[p].startswith("let")
            )
            stmts[pos] = re.sub(
                r" ([-+*]) ",
                lambda m: " %s " % "+-*"[("+-*".index(m.group(1)) + 1) % 3],
                stmts[pos], count=1,
            )
        elif kind == "insert":
            pos = rng.randrange(lo, len(stmts) + 1)
            defined = sum(1 for s in stmts[:pos] if s.startswith("let"))
            stmts.insert(
                pos, f"print x{rng.randrange(defined)} + {rng.randrange(10)}"
            )
        else:
            prints = [p for p in range(1, len(stmts)) if stmts[p].startswith("print")]
            del stmts[min(prints, key=lambda p: abs(p - lo))]
        out.append(" ;\n".join(stmts))
    return out


def pascal_versions(n_edits: int, seed: int) -> list:
    """A 40-statement Pascal program and ``n_edits`` successive edits:
    swaps bump a literal, inserts add an assignment, deletes drop a
    statement."""
    rng = random.Random(seed)
    head, _, rest = generate_pascal_program(40, seed=seed).partition("begin\n")
    body, _, _ = rest.rpartition("\nend.")
    stmts = body.split(";\n")

    def join() -> str:
        return head + "begin\n" + ";\n".join(stmts) + "\nend."

    out = [join()]
    for k in range(n_edits):
        kind = KINDS[k % len(KINDS)]
        lo = (k * len(stmts)) // n_edits
        if kind == "swap":
            pos = next(
                p for p in list(range(lo, len(stmts))) + list(range(lo))
                if _LITERAL.search(stmts[p])
            )
            stmts[pos] = _LITERAL.sub(
                lambda m: str(int(m.group()) + 1), stmts[pos], count=1
            )
        elif kind == "insert":
            stmts.insert(
                rng.randrange(lo, len(stmts) + 1),
                f"  v{rng.randrange(8)} := v{rng.randrange(8)} + {rng.randrange(10)}",
            )
        else:
            del stmts[rng.randrange(lo, len(stmts))]
        out.append(join())
    return out


def binary_versions(n_edits: int, seed: int) -> list:
    """A 200-bit numeral and ``n_edits`` successive single-bit flips in
    its back half.  ``binary`` runs two passes from a postfix initial
    file, so pass 2 indexes and splices a real pass-1 spool."""
    rng = random.Random(seed)
    bits = list(generate_binary_numeral(200, seed=seed))
    out = ["".join(bits)]
    for _ in range(n_edits):
        pos = rng.choice([
            p for p in range(len(bits) // 2, len(bits)) if bits[p] != "."
        ])
        bits[pos] = "10"[int(bits[pos])]
        out.append("".join(bits))
    return out


def in_process_hits(grammar: str, texts: list) -> list:
    spec, library = scanner_and_library(grammar)
    translator = Linguist(load_source(grammar)).make_translator(
        spec, library=library
    )
    hits = []
    with tempfile.TemporaryDirectory() as memo, translator:
        for text in texts:
            metrics = MetricsRegistry()
            translator.translate(text, memo_dir=memo, metrics=metrics)
            hits.append(metrics.counter("incremental.hits").value)
    return hits


def run(grammar: str, path: str, memo_dir=None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    argv = [sys.executable, "-m", "repro", "run", grammar, path]
    if memo_dir is not None:
        argv += ["--memo-dir", memo_dir]
    proc = subprocess.run(argv, capture_output=True, env=env)
    if proc.returncode != 0 or b"ResourceWarning" in proc.stderr:
        sys.exit(
            f"FAIL: {' '.join(argv[2:])} exited {proc.returncode}:\n"
            + proc.stderr.decode("utf-8", "replace")
        )
    return proc


def replay(grammar: str, texts: list, workdir: str) -> int:
    expected = in_process_hits(grammar, texts)
    memo = os.path.join(workdir, f"memo-{grammar}")
    failures = 0
    for k, text in enumerate(texts):
        path = os.path.join(workdir, f"{grammar}.v{k}.txt")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        cold = run(grammar, path)
        warm = run(grammar, path, memo)
        found = _HITS.search(warm.stderr.decode("utf-8", "replace"))
        hits = int(found.group(1)) if found else None
        same = warm.stdout == cold.stdout
        status = "ok" if same and hits == expected[k] else "FAIL"
        failures += status == "FAIL"
        print(
            f"{status}: {grammar} version {k}: output "
            f"{'byte-identical to' if same else 'DIFFERS from'} the cold run, "
            f"{hits} hit(s) across processes vs {expected[k]} in-process"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workdir", nargs="?", default=None)
    parser.add_argument("--edits", type=int, default=6)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    workdir = args.workdir or tempfile.mkdtemp(prefix="memo-replay-")
    os.makedirs(workdir, exist_ok=True)
    failures = replay("calc", calc_versions(args.edits, args.seed), workdir)
    failures += replay("pascal", pascal_versions(args.edits, args.seed), workdir)
    failures += replay("binary", binary_versions(args.edits, args.seed), workdir)
    if failures:
        print(f"{failures} version(s) failed", file=sys.stderr)
        return 1
    print(f"memo replay: {3 * (args.edits + 1)} versions across processes, all consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Checks on the benchmark itself.

* The deterministic count metrics repeat exactly across two runs with
  one seed (they are the exact-gate candidates: a later change that
  moves one moved real work, not noise).
* Every end-to-end run prints exactly the metrics ``BENCHMARK.json``
  names, with the units it declares, and every output matched its
  reference.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

#: Per-layer counts each workload must repeat exactly.
EXACT_COUNTS = {
    "build": ["buildcache.store_bytes", "regex.tokens"],
    "compile": ["apt.nodes", "evalgen.semfn_calls", "regex.tokens", "apt.io_bytes"],
    "edit": ["apt.nodes", "evalgen.semfn_calls", "incremental.hits",
             "incremental.misses", "incremental.spliced_records"],
    "serve": [],
}


def run(workload: str, trace: int, seed: int = 5) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, check=True, timeout=170,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_counts_repeat_exactly(workload):
    first, second = run(workload, 0), run(workload, 0)
    traced = [run(workload, 1), run(workload, 1)]
    for result in (first, traced[0]):
        assert result["correct"] and result["failed"] == 0
    got = {name: m["unit"] for name, m in first["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert first["metrics"]["evaluator_code_bytes"] == second["metrics"]["evaluator_code_bytes"]
    for name in EXACT_COUNTS[workload]:
        values = [t["metrics"][name]["value"] for t in traced]
        assert values[0] == values[1], name
        assert values[0] > 0, name

"""Differential fuzz harness: every evaluator path must agree, byte for byte.

Six ways to compute a translation exist in this codebase:

* the **interpretive** pass evaluator (walks the plans at runtime),
* the **generated** pass modules (exec-compiled Python),
* the **oracle** (demand-driven tree evaluation straight off the
  semantic functions — no passes, no spools),
* the **cache-rehydrated** translator (pass modules compiled from
  cached source text, scanner from a cached DFA — the warm path of
  ``repro.buildcache``, which every batch worker process takes),
* the **unfused** interpretive evaluator (pass fusion disabled — the
  original alternating-pass partition, one pass per fixpoint level),
* the **incremental** translator (``memo_dir=``): after a warming run,
  a re-translation splices sealed spool records for every clean
  subtree and re-evaluates only the dirty spine
  (:mod:`repro.passes.incremental`).

They are six implementations of one semantics, so on every input the
root attributes must be *byte-identical* (canonicalized through
:func:`tests.evalharness.canonical_attrs`).  The workloads are seeded
generators from :mod:`repro.workloads.generators` — deterministic, so a
disagreement is a reproducible bug report, not a flake.  The four paths
that run the same passes (interpretive, generated, cached, incremental)
must also agree on every record of their final spool, not only on the
root.
"""

import pytest

from repro.workloads.generators import (
    generate_binary_numeral,
    generate_calc_program,
    generate_pascal_program,
)
from tests.evalharness import BackendSuite, run_all_backends

# ---------------------------------------------------------------------------
# seeded workloads: (grammar, workload-id, text) — ≥25 total
# ---------------------------------------------------------------------------

WORKLOADS = []

for size in (4, 8, 16, 32):
    for seed in (1, 2, 3, 4):
        WORKLOADS.append(
            ("calc", f"calc-n{size}-s{seed}",
             generate_calc_program(size, seed=seed))
        )  # 16 calc workloads

for bits in (8, 24, 48):
    for seed in (5, 6):
        WORKLOADS.append(
            ("binary", f"binary-b{bits}-s{seed}",
             generate_binary_numeral(bits, seed=seed))
        )  # 6 binary workloads

for size, seed in ((6, 1), (12, 2), (18, 3), (24, 4)):
    WORKLOADS.append(
        ("pascal", f"pascal-n{size}-s{seed}",
         generate_pascal_program(size, seed=seed))
    )  # 4 pascal workloads


def test_workload_pool_is_large_enough():
    assert len(WORKLOADS) >= 25
    ids = [wid for _, wid, _ in WORKLOADS]
    assert len(set(ids)) == len(ids)


# ---------------------------------------------------------------------------
# suites are per-grammar (construction is the expensive step)
# ---------------------------------------------------------------------------

_SUITES = {}


@pytest.fixture(scope="module")
def suite_cache_root(tmp_path_factory):
    return tmp_path_factory.mktemp("diff-cache")


def suite_for(grammar: str, cache_root) -> BackendSuite:
    if grammar not in _SUITES:
        _SUITES[grammar] = BackendSuite(grammar, str(cache_root / grammar))
    return _SUITES[grammar]


@pytest.mark.parametrize(
    "grammar,workload_id,text",
    WORKLOADS,
    ids=[wid for _, wid, _ in WORKLOADS],
)
def test_all_backends_agree(grammar, workload_id, text, suite_cache_root):
    suite = suite_for(grammar, suite_cache_root)
    results = suite.run(text)
    interp = results["interp"]
    assert interp, f"{workload_id}: empty root attributes"
    assert results["generated"] == interp, (
        f"{workload_id}: generated backend disagrees with interpretive"
    )
    assert results["cached"] == interp, (
        f"{workload_id}: cache-rehydrated backend disagrees with interpretive"
    )
    assert results["unfused"] == interp, (
        f"{workload_id}: unfused evaluation disagrees with the fused one"
    )
    assert results["incremental"] == interp, (
        f"{workload_id}: memo-spliced re-translation disagrees with "
        "from-scratch evaluation"
    )
    assert results["oracle"] == interp, (
        f"{workload_id}: oracle disagrees with the pass evaluators"
    )
    # The whole attributed output, not only the root: every record of
    # the final spool.
    spools = suite.final_spools
    assert spools["interp"]
    for path in ("generated", "cached", "incremental"):
        assert spools[path] == spools["interp"], (
            f"{workload_id}: {path} final spool differs from interpretive"
        )


def test_run_all_backends_helper(tmp_path):
    """The one-shot helper builds its own suite and agrees with itself."""
    results = run_all_backends(
        "calc", generate_calc_program(6, seed=99), str(tmp_path / "cache")
    )
    assert set(results) == {"interp", "generated", "cached", "unfused",
                            "incremental", "oracle"}
    assert (
        results["interp"]
        == results["generated"]
        == results["cached"]
        == results["unfused"]
        == results["incremental"]
        == results["oracle"]
    )


# ---------------------------------------------------------------------------
# fusion differential: identical bytes, strictly fewer passes
# ---------------------------------------------------------------------------

_FUSION_CASES = [
    ("calc", True, generate_calc_program(12, seed=7)),
    ("pascal", True, generate_pascal_program(10, seed=7)),
    ("binary", False, generate_binary_numeral(16, seed=7)),
]


@pytest.mark.parametrize(
    "grammar,fuses,text", _FUSION_CASES, ids=[g for g, _, _ in _FUSION_CASES]
)
def test_fusion_preserves_bytes_and_cuts_passes(
    grammar, fuses, text, suite_cache_root
):
    """The fused evaluation must be byte-identical to the unfused one
    while running strictly fewer *trace-visible* passes (when fusion
    applies; binary's dependencies admit no fusion and must not pay
    any)."""
    from repro.obs import Tracer
    from tests.evalharness import canonical_attrs

    suite = suite_for(grammar, suite_cache_root)
    fused_tracer, unfused_tracer = Tracer(), Tracer()
    fused = suite.interp.translate(text, tracer=fused_tracer)
    unfused = suite.unfused.translate(text, tracer=unfused_tracer)
    assert canonical_attrs(fused.root_attrs) == canonical_attrs(
        unfused.root_attrs
    )
    fused_passes = len(fused_tracer.spans(cat="pass"))
    unfused_passes = len(unfused_tracer.spans(cat="pass"))
    assert fused_passes == suite.fused_n_passes
    assert unfused_passes == suite.unfused_n_passes
    if fuses:
        assert fused_passes < unfused_passes, (
            f"{grammar}: fusion did not reduce the trace-visible pass count"
        )
    else:
        assert fused_passes == unfused_passes


def test_cached_suite_really_rehydrated(suite_cache_root):
    """The 'cached' path is not a silent cold rebuild."""
    suite = suite_for("calc", suite_cache_root)
    assert suite.cached.linguist.from_cache

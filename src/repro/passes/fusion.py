"""Dependency-driven pass fusion: merge adjacent passes into one traversal.

The paper's §IV economics charge every evaluation pass one full
sequential stream of the APT through two intermediate files.  The
macro-tree-transducer characterization of attributed translations
(PAPERS.md) observes that composing adjacent passes is *statically
decidable*: if the attributes of two adjacent passes can all be
scheduled inside a single production-procedure traversal, the two
streams collapse into one and a whole spool round-trip disappears.

Why only the *first* pair can ever fuse
---------------------------------------

:func:`repro.passes.partition.assign_passes` runs monotone deferral to
a fixpoint, which yields the **least** pass number for every attribute
given a fixed first direction (schedulability of a binding is antitone
in the pass numbers of the other attributes, so no attribute can move
earlier without breaking some production).  Consequently a candidate
fusion of passes *k* and *k+1* **in pass k's direction** is exactly the
assignment the fixpoint already rejected — it can never succeed.  The
one remaining degree of freedom is the direction of the merged pass:

* merge passes 1 and 2 into a single traversal that runs in **pass 2's
  direction** — i.e. relabel every pass-2 attribute into pass 1, flip
  ``first_direction`` to its opposite, and shift every later pass down
  by one;
* all later passes keep both their direction
  (``direction_of_pass(k, new_first) == direction_of_pass(k+1,
  old_first)``) and their availability sets (the merged attributes were
  already all available to them), so only the *merged* pass needs
  re-checking, production by production;
* iterate: the result is again a 2-adjacent-pass situation, so the
  merged pass may swallow the next one too.

For an interior pair *k*, *k+1* (k > 1) the direction flip would also
flip pass k−1's direction relative to pass k's reads — the evaluator
streams each spool *backward*, which forces strictly alternating
directions — so interior pairs cannot fuse independently.  First-pair
fusion, iterated, is therefore complete for this architecture.

Measured effect on the committed grammars: *calc* 2→1, *pascal* 2→1,
*linguist* 4→3; *binary* does not fuse (its ``SCALE`` attributes form a
genuine zig-zag between the two directions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.ag.model import AttributeGrammar
from repro.passes.partition import PassAssignment
from repro.passes.schedule import (
    AttrId,
    Direction,
    ScheduleResult,
    direction_of_pass,
    schedule_production,
)

__all__ = ["FusionResult", "fuse_assignment"]


@dataclass
class FusionResult:
    """Outcome of :func:`fuse_assignment`.

    ``assignment`` is the (possibly) fused assignment; when nothing
    fused it is the *original* object, untouched.  ``fused_pairs``
    records each accepted merge as ``(pass_a, pass_b)`` in the
    numbering current at the time of that merge (iterated fusion always
    merges ``(1, 2)``, so the list length equals the number of
    eliminated passes).
    """

    assignment: PassAssignment
    original_n_passes: int
    fused_pairs: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def passes_eliminated(self) -> int:
        return self.original_n_passes - self.assignment.n_passes

    @property
    def fused(self) -> bool:
        return self.passes_eliminated > 0


def _try_fuse_first_pair(
    ag: AttributeGrammar, current: PassAssignment
) -> PassAssignment | None:
    """Attempt to merge passes 1 and 2 of ``current`` into a single
    traversal running in pass 2's direction.  Returns the fused
    assignment, or None when some production cannot schedule the merged
    attribute set in one sweep."""
    if current.n_passes < 2:
        return None
    candidate: Dict[AttrId, int] = {
        attr: (1 if p == 2 else (p - 1 if p > 2 else p))
        for attr, p in current.attr_pass.items()
    }
    new_first = current.first_direction.opposite
    new_n = current.n_passes - 1
    # Only the merged pass can change schedulability (see module doc),
    # but re-verify *every* pass of every production: the check is
    # once-per-grammar work and the assertion inside
    # PassAssignment.schedule would otherwise fire far from the cause.
    # The consistent results become the fused assignment's schedules.
    schedules: Dict[Tuple[int, int], ScheduleResult] = {}
    for prod in ag.productions:
        for pass_k in range(1, new_n + 1):
            result = schedules[(prod.index, pass_k)] = schedule_production(
                ag, prod, pass_k, direction_of_pass(pass_k, new_first), candidate
            )
            if not result.ok:
                return None
    return PassAssignment(ag, new_first, candidate, new_n, schedules)


def fuse_assignment(
    ag: AttributeGrammar,
    assignment: PassAssignment,
    metrics=None,
    tracer=None,
) -> FusionResult:
    """Iteratively fuse the first adjacent pass pair while legal.

    The returned assignment is a drop-in replacement for the input:
    deadness analysis, subsumption, pass plans, code generation,
    checkpoint manifests, and the build cache all consume it through
    the ordinary :class:`PassAssignment` interface.  When at least one
    merge fires, every production's semantic functions are re-stamped
    with their new pass numbers; the fused assignment carries the
    consistent per-pass schedules its trial simulated (mirroring
    ``assign_passes``).

    ``metrics``/``tracer`` (a :class:`repro.obs.MetricsRegistry` /
    ``Tracer``) receive ``fusion.*`` counters and one ``fusion.fuse``
    instant per accepted merge.
    """
    original_n = assignment.n_passes
    current = assignment
    pairs: List[Tuple[int, int]] = []
    while current.n_passes >= 2:
        if metrics is not None:
            metrics.counter("fusion.candidates").inc()
        fused = _try_fuse_first_pair(ag, current)
        if fused is None:
            break
        # Original-numbering bookkeeping: merge number i collapses what
        # were originally passes (i, i+1) ... but after earlier merges
        # the current numbering has already shifted; record the merge
        # in the numbering current at merge time (always (1, 2)).
        pairs.append((1, 2))
        if tracer is not None:
            tracer.instant(
                "fusion.fuse",
                cat="fusion",
                merged_direction=fused.first_direction.value,
                n_passes_before=current.n_passes,
                n_passes_after=fused.n_passes,
            )
        current = fused

    if current is not assignment:
        # Restamp function pass numbers, as assign_passes does for a
        # fresh assignment (the trial already cached the schedules).
        for prod in ag.productions:
            for func in prod.functions:
                func.pass_number = max(
                    current.attr_pass[(t.symbol, t.attr_name)]
                    for t in func.targets
                )
    if metrics is not None:
        metrics.counter("fusion.fused").inc(len(pairs))
        metrics.counter("fusion.passes_eliminated").inc(
            original_n - current.n_passes
        )
        metrics.gauge("fusion.n_passes_before").set(original_n)
        metrics.gauge("fusion.n_passes_after").set(current.n_passes)
    return FusionResult(
        assignment=current, original_n_passes=original_n, fused_pairs=pairs
    )

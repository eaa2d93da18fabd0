"""The multi-pass evaluation driver.

Chains the alternating passes: each pass reads the previous pass's
output spool **backwards** (the §II reversal trick) — except the first
pass under the prefix-emission strategy, which reads the parser's
prefix file forwards — and writes its own postfix-order spool.  Two
intermediate files are live per pass, exactly as in the paper.

The driver is also the telemetry hub of an evaluation: it owns (or is
handed) a :class:`~repro.obs.metrics.MetricsRegistry` into which its
:class:`IOAccountant` and per-pass statistics register as snapshot
sources (``io.*``, ``pass.*``), as does the :class:`MemoryGauge` it is
handed, if any (``mem.*``; residency is not measured otherwise), and —
when given a :class:`~repro.obs.trace.Tracer` — wraps the run in an
``evaluation overlay`` span containing one span per pass (EXP-T3,
EXP-M1).
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Dict, List, Optional

from repro.ag.model import AttributeGrammar
from repro.apt.linear import TreeNode
from repro.apt.node import APTNode
from repro.apt.storage import (
    DiskSpool,
    Spool,
    adaptive_spool_factory,
    matches_descriptor,
    spool_descriptor,
)
from repro.errors import EvaluationError, ResumeError, SpoolCorruptionError
from repro.evalgen.plan import PassPlan
from repro.evalgen.runtime import (
    EvaluationResult,
    EvaluatorRuntime,
    FunctionLibrary,
    TraceEvent,
)
from repro.obs.metrics import MetricsRegistry
from repro.passes.schedule import Direction
from repro.util.atomic_write import atomic_write
from repro.util.iotrack import IOAccountant, MemoryGauge

#: A pass executor: (plan, runtime) -> the root's node list after the
#: pass (see :mod:`repro.apt.node`).
PassExecutor = Callable[[PassPlan, EvaluatorRuntime], list]

#: Creates the intermediate spool for a pass.
SpoolFactory = Callable[[str], Spool]


class CheckpointManager:
    """Persists per-pass progress so a killed evaluation can resume.

    The manager owns a directory holding one sealed
    :class:`~repro.apt.storage.DiskSpool` per completed pass
    (``pass<k>.spool``) plus a small JSON **manifest**
    (``checkpoint.json``) recording, for each completed pass, its
    index, direction, spool file name, record count, payload bytes,
    and whole-stream CRC32 — enough to verify the spool before
    trusting it.  The manifest itself is written atomically
    (``*.tmp`` + ``os.replace``) after every completed pass, so it
    never names a pass whose spool is not fully sealed.

    On ``resume``, :meth:`resume_state` validates the manifest against
    the live grammar and pass plans, re-verifies the *last* completed
    spool record by record, and hands back the pass index to restart
    from plus the reopened spool.  Any mismatch raises
    :class:`~repro.errors.ResumeError` — a stale or foreign checkpoint
    must never silently poison an evaluation.
    """

    MANIFEST = "checkpoint.json"
    VERSION = 1

    def __init__(self, directory: str, tracer=None, metrics=None,
                 disk_budget=None):
        self.directory = directory
        self.tracer = tracer
        self.metrics = metrics
        #: Optional :class:`repro.governance.DiskBudget`: every sealed
        #: pass spool is charged, so checkpoints count against the
        #: run's disk cap alongside temp spools.
        self.disk_budget = disk_budget
        os.makedirs(directory, exist_ok=True)
        self._completed: List[Dict[str, Any]] = []
        self._header: Dict[str, Any] = {}

    # -- paths -------------------------------------------------------------

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, self.MANIFEST)

    def spool_path(self, pass_k: int) -> str:
        return os.path.join(self.directory, f"pass{pass_k}.spool")

    # -- writing -----------------------------------------------------------

    def start_run(self, ag_name: str, strategy: str, plans: List[PassPlan]) -> None:
        """Begin a fresh checkpointed run (clears prior progress)."""
        self._header = {
            "version": self.VERSION,
            "grammar": ag_name,
            "strategy": strategy,
            "n_passes": len(plans),
            "directions": [p.direction.value for p in plans],
        }
        self._completed = []
        self._write_manifest()

    def make_spool(
        self, plan: PassPlan, accountant, channel: str, tracer=None,
        metrics=None, seed_names=None,
    ) -> DiskSpool:
        """The durable output spool for ``plan`` (kept after close).
        ``seed_names`` is the memo's splice-source name table, when a
        memo pass writes here (see ``MemoStore.seed_names``)."""
        return DiskSpool(
            self.spool_path(plan.pass_k),
            accountant,
            channel,
            tracer=tracer,
            metrics=metrics,
            seed_names=seed_names,
        )

    def record_pass(self, plan: PassPlan, spool: Spool) -> None:
        """Note that ``plan`` completed with ``spool`` sealed on disk."""
        if self.disk_budget is not None:
            path = getattr(spool, "path", None)
            if path and os.path.exists(path):
                self.disk_budget.charge(os.path.getsize(path))
        entry = {
            "pass": plan.pass_k,
            "direction": plan.direction.value,
            "spool": os.path.basename(getattr(spool, "path", "")),
            **spool_descriptor(spool),
        }
        self._completed.append(entry)
        self._write_manifest()
        if self.metrics is not None:
            self.metrics.counter("robust.checkpoint_passes_written").inc()
        if self.tracer is not None:
            self.tracer.instant(
                "checkpoint.pass", cat="robust",
                pass_k=plan.pass_k, n_records=spool.n_records,
            )

    def _write_manifest(self) -> None:
        doc = dict(self._header)
        doc["completed"] = self._completed
        with atomic_write(
            self.manifest_path, text=True, encoding="utf-8"
        ) as f:
            json.dump(doc, f, indent=2)

    # -- resuming ----------------------------------------------------------

    def load_manifest(self) -> Dict[str, Any]:
        if not os.path.exists(self.manifest_path):
            raise ResumeError(
                f"no checkpoint manifest at {self.manifest_path}"
            )
        try:
            with open(self.manifest_path, "r", encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, ValueError) as exc:
            raise ResumeError(f"unreadable checkpoint manifest: {exc}") from exc
        if doc.get("version") != self.VERSION:
            raise ResumeError(
                f"checkpoint manifest version {doc.get('version')!r} "
                f"!= {self.VERSION}"
            )
        return doc

    def resume_state(
        self, ag_name: str, strategy: str, plans: List[PassPlan]
    ) -> tuple:
        """Validate the manifest; return ``(completed_k, spool_or_None)``.

        ``completed_k`` is the number of leading passes already sealed
        on disk (0 means start from scratch); when positive, the second
        element is the reopened, fully re-verified output spool of pass
        ``completed_k``.
        """
        doc = self.load_manifest()
        if doc.get("grammar") != ag_name:
            raise ResumeError(
                f"checkpoint is for grammar {doc.get('grammar')!r}, "
                f"not {ag_name!r}"
            )
        if doc.get("strategy") != strategy:
            raise ResumeError(
                f"checkpoint used strategy {doc.get('strategy')!r}, "
                f"this run uses {strategy!r}"
            )
        if doc.get("n_passes") != len(plans) or doc.get("directions") != [
            p.direction.value for p in plans
        ]:
            raise ResumeError(
                "checkpoint pass structure does not match the current "
                "evaluator (grammar or pass assignment changed)"
            )
        completed = doc.get("completed", [])
        for i, entry in enumerate(completed):
            if entry.get("pass") != i + 1:
                raise ResumeError(
                    f"manifest completed-pass list is not contiguous "
                    f"at position {i}"
                )
        # Adopt the on-disk state so subsequent record_pass() calls
        # extend (rather than restart) the completed list.
        self._header = {key: doc[key] for key in doc if key != "completed"}
        self._completed = list(completed)
        k = len(completed)
        if k == 0:
            return 0, None
        last = completed[-1]
        path = os.path.join(self.directory, last.get("spool", ""))
        try:
            spool = DiskSpool.open(
                path, channel=f"pass{k}.out",
                tracer=self.tracer, metrics=self.metrics,
            )
        except SpoolCorruptionError as exc:
            raise ResumeError(
                f"checkpointed spool for pass {k} failed verification: {exc}"
            ) from exc
        if not matches_descriptor(spool, last):
            raise ResumeError(
                f"checkpointed spool for pass {k} does not match the "
                f"manifest (expected {last.get('n_records')} records / "
                f"crc {last.get('stream_crc'):#010x}, found "
                f"{spool.n_records} / {spool._stream_crc:#010x})"
            )
        # Full sweep: every record's framing and checksum must hold
        # before we trust the file as pass k's output.
        try:
            for _ in spool._iter_blobs_forward():
                pass
        except SpoolCorruptionError as exc:
            raise ResumeError(
                f"checkpointed spool for pass {k} is damaged at "
                f"{exc.locus()}: {exc}"
            ) from exc
        return k, spool


class AlternatingPassDriver:
    """Runs all passes of an evaluator over an initial APT spool."""

    def __init__(
        self,
        ag: AttributeGrammar,
        pass_plans: List[PassPlan],
        executor: PassExecutor,
        library: Optional[FunctionLibrary] = None,
        spool_factory: Optional[SpoolFactory] = None,
        accountant: Optional[IOAccountant] = None,
        gauge: Optional[MemoryGauge] = None,
        trace: Optional[List[TraceEvent]] = None,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
        checkpoint: Optional[CheckpointManager] = None,
        checkpoint_dir: Optional[str] = None,
        recorder=None,
        disk_budget=None,
        memo=None,
    ):
        self.ag = ag
        self.pass_plans = pass_plans
        self.executor = executor
        self.library = library or FunctionLibrary()
        self.accountant = accountant if accountant is not None else IOAccountant()
        #: Resident-node gauge, or None: residency is measured (and
        #: ``mem.*`` registered) only when the caller passes one.
        self.gauge = gauge
        self.trace = trace
        self.tracer = tracer
        #: Unified registry: io.*, mem.*, and pass.* sources live here.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.accountant.bind(self.metrics, "io")
        if gauge is not None:
            gauge.bind(self.metrics, "mem")
        self.metrics.register_source("pass", self._pass_source)
        self._spool_factory = spool_factory or adaptive_spool_factory(
            self.accountant, tracer=self.tracer, metrics=self.metrics
        )
        if checkpoint is None and checkpoint_dir is not None:
            checkpoint = CheckpointManager(
                checkpoint_dir, tracer=tracer, metrics=self.metrics,
                disk_budget=disk_budget,
            )
        #: Optional durable-progress manager (see :class:`CheckpointManager`).
        self.checkpoint = checkpoint
        #: Optional provenance recorder (repro.obs.ProvenanceRecorder).
        self.recorder = recorder
        #: Optional incremental-translation memo
        #: (:class:`repro.passes.incremental.MemoStore`).  Every pass of
        #: a fresh run consults/refreshes it; resumed runs evaluate
        #: cold (a documented invalidation rule).
        self.memo = memo
        #: Per-pass memo sessions of the last run (empty when memo was
        #: off or inapplicable); each exposes hit/miss/splice tallies.
        self.memo_sessions: List[Any] = []
        #: The first pass's session, kept for convenience.
        self.memo_session = None
        #: Seconds spent in each pass, filled by :meth:`run`.
        self.pass_times: List[float] = []
        #: Per-pass time/I/O/memory rows, filled by :meth:`run`.
        self.pass_stats: List[Dict[str, Any]] = []
        self.final_spool: Optional[Spool] = None

    def _pass_source(self) -> Dict[str, Any]:
        """Snapshot source: ``pass.<k>.seconds``, I/O deltas, peaks."""
        out: Dict[str, Any] = {"n_passes": len(self.pass_stats)}
        for stats in self.pass_stats:
            k = stats["pass"]
            for key, value in stats.items():
                if key != "pass":
                    out[f"{k}.{key}"] = value
        return out

    def run(
        self,
        initial: Spool,
        strategy: str = "bottom-up",
        resume: bool = False,
    ) -> EvaluationResult:
        """Evaluate: ``initial`` is the parser-emitted APT file.

        ``strategy`` must match how the file was emitted: ``"bottom-up"``
        (postfix; first pass right-to-left) or ``"prefix"`` (first pass
        left-to-right).  §II: "Part of its input is an indication of
        which strategy is to be used."

        With a checkpoint manager attached and ``resume=True``, the
        driver verifies the on-disk manifest and the last sealed pass
        spool and restarts from the first incomplete pass instead of
        pass 1 (raising :class:`~repro.errors.ResumeError` on any
        mismatch); ``resume=False`` starts a fresh checkpointed run.
        """
        if not self.pass_plans:
            raise EvaluationError("no passes to run (attribute-free grammar)")
        first_dir = self.pass_plans[0].direction
        if strategy == "bottom-up" and first_dir is not Direction.R2L:
            raise EvaluationError(
                "bottom-up initial files require a right-to-left first pass"
            )
        if strategy == "prefix" and first_dir is not Direction.L2R:
            raise EvaluationError(
                "prefix initial files require a left-to-right first pass"
            )
        tracer = self.tracer
        if tracer is None:
            return self._run_passes(initial, strategy, resume)
        with tracer.span(
            "evaluation overlay",
            cat="overlay",
            grammar=self.ag.name,
            strategy=strategy,
            n_passes=len(self.pass_plans),
        ):
            return self._run_passes(initial, strategy, resume)

    def _resume_point(self, strategy: str, resume: bool):
        """(start index, input spool override) per the checkpoint state."""
        if self.checkpoint is None:
            if resume:
                raise ResumeError(
                    "resume requested but the driver has no checkpoint "
                    "manager (pass checkpoint_dir=...)"
                )
            return 0, None
        if not resume:
            self.checkpoint.start_run(self.ag.name, strategy, self.pass_plans)
            return 0, None
        completed_k, spool = self.checkpoint.resume_state(
            self.ag.name, strategy, self.pass_plans
        )
        if completed_k:
            self.metrics.counter("robust.resume_passes_skipped").inc(completed_k)
            self.metrics.counter("robust.resume_runs").inc()
            if self.tracer is not None:
                self.tracer.instant(
                    "checkpoint.resume", cat="robust",
                    passes_skipped=completed_k,
                )
        return completed_k, spool

    def _root_attrs_from_spool(self, spool: Spool) -> Dict[str, Any]:
        """Root attributes straight off a finished final spool.

        The final spool is in postfix order, so its last record — the
        first one a backward read yields — is the root.  Used when a
        resume finds *every* pass already sealed on disk.
        """
        for record in spool.read_backward():
            _symbol, _production, attrs, is_limb = record
            if not is_limb:
                return dict(attrs)
        raise EvaluationError("checkpointed final spool holds no root record")

    def _run_passes(
        self, initial: Spool, strategy: str, resume: bool = False
    ) -> EvaluationResult:
        tracer = self.tracer
        acc = self.accountant
        self.pass_times = []
        self.pass_stats = []
        start_index, resumed_spool = self._resume_point(strategy, resume)
        rec = self.recorder
        if rec is not None:
            rec.begin_run(
                strategy,
                [p.direction.value for p in self.pass_plans],
                resumed_from=start_index,
            )
        spool_in = resumed_spool if resumed_spool is not None else initial
        if start_index >= len(self.pass_plans) and resumed_spool is not None:
            # Everything already completed: recover the root attributes
            # from the sealed final spool without rerunning any pass.
            if rec is not None:
                rec.seal()
            self.final_spool = resumed_spool
            return EvaluationResult(
                self._root_attrs_from_spool(resumed_spool),
                n_passes=len(self.pass_plans),
            )
        root: Optional[list] = None
        memo = self.memo
        self.memo_sessions = []
        self.memo_session = None
        memo_commits: List[Any] = []
        for plan in self.pass_plans[start_index:]:
            forward = plan.pass_k == 1 and strategy == "prefix"
            # The memo applies to every pass of a fresh run: each pass
            # reads a subtree-contiguous spool (the parser's postfix or
            # prefix emission for pass 1, the previous pass's postfix
            # output after that), which is exactly what the subtree
            # index is computed over.  Resumed runs always evaluate
            # cold (a documented invalidation rule).
            memo_pass = memo is not None and resumed_spool is None
            if self.checkpoint is not None:
                # A memo pass splices raw blobs, so its checkpoint file
                # takes the splice source's name table too.
                spool_out: Spool = self.checkpoint.make_spool(
                    plan, acc, f"pass{plan.pass_k}.out",
                    tracer=tracer, metrics=self.metrics,
                    seed_names=(
                        memo.seed_names(plan.pass_k) if memo_pass else None
                    ),
                )
            elif memo_pass:
                # Each pass seals into the memo's next generation file
                # so it can serve as the next run's splice source (never
                # the file currently being spliced *from*).
                spool_out = memo.make_output_spool(
                    plan.pass_k, acc, f"pass{plan.pass_k}.out",
                    tracer=tracer, metrics=self.metrics,
                )
            else:
                spool_out = self._spool_factory(f"pass{plan.pass_k}.out")
            if tracer is not None and spool_out.tracer is None:
                spool_out.tracer = tracer
            if rec is not None:
                rec.begin_pass(plan.pass_k, plan.direction.value)
            runtime = EvaluatorRuntime(
                None,
                spool_out,
                self.library,
                self.gauge,
                self.trace,
                tracer=tracer,
                metrics=self.metrics,
                recorder=rec,
            )
            memo_session = None
            if memo_pass:
                # A checkpointed (or recorded) run writes its passes
                # into the checkpoint directory, so the memo is
                # consulted but not refreshed (read-only).
                memo_session = memo.begin_session(
                    plan, runtime, spool_in,
                    read_only=self.checkpoint is not None,
                    forward=forward,
                )
                if memo_session is not None:
                    self.memo_sessions.append(memo_session)
                    if self.memo_session is None:
                        self.memo_session = memo_session
                runtime.memo = memo_session
            # An adaptive spool charges a whole read when its reader
            # opens and a whole write when it is finalized, so the
            # pass's I/O row spans both (the memo's index read above
            # stays outside it).
            io_before = (
                acc.records_read,
                acc.records_written,
                acc.bytes_read,
                acc.bytes_written,
            )
            runtime.open(
                spool_in.read_forward() if forward
                else spool_in.read_backward()
            )
            if tracer is not None:
                tracer.begin(
                    f"pass {plan.pass_k}",
                    cat="pass",
                    direction=plan.direction.value,
                )
            started = time.perf_counter()
            from repro.util.recursion import deep_recursion

            try:
                try:
                    with deep_recursion():
                        root = self.executor(plan, runtime)
                finally:
                    seconds = time.perf_counter() - started
                    runtime.flush_counters()
                    if tracer is not None:
                        tracer.end()
                self.pass_times.append(seconds)
                if not runtime.at_end():
                    raise EvaluationError(
                        f"pass {plan.pass_k} did not consume the whole APT file"
                    )
                spool_out.finalize()
                stats = {
                    "pass": plan.pass_k,
                    "direction": plan.direction.value,
                    "seconds": seconds,
                    "records_read": acc.records_read - io_before[0],
                    "records_written": acc.records_written - io_before[1],
                    "bytes_read": acc.bytes_read - io_before[2],
                    "bytes_written": acc.bytes_written - io_before[3],
                }
                if self.gauge is not None:
                    stats["peak_bytes"] = self.gauge.peak_bytes
                self.pass_stats.append(stats)
            except BaseException:
                # A failed pass must not leak its half-written output
                # spool (or the previous intermediate) as stray
                # apt_*.spool temp files.
                if rec is not None:
                    rec.abort()
                spool_out.close()
                if spool_in is not initial:
                    spool_in.close()
                raise
            if self.checkpoint is not None:
                self.checkpoint.record_pass(plan, spool_out)
            elif memo_pass and memo_session is not None:
                memo_commits.append((memo_session, spool_out))
            if spool_in is not initial:
                spool_in.close()
            spool_in = spool_out
        if memo_commits:
            # Seal the whole run's generation at once: the manifest
            # must reference every pass's fresh spool or none.
            memo.commit_run(memo_commits)
        if rec is not None:
            rec.seal()
        self.final_spool = spool_in
        assert root is not None
        return EvaluationResult(root[2], n_passes=len(self.pass_plans))


def reconstruct_tree(ag: AttributeGrammar, spool: Spool) -> TreeNode:
    """Rebuild the attributed tree from a postfix-order output spool.

    Used by tests to diff the file paradigm's full result against the
    oracle's in-memory attribution.
    """
    stack: List[TreeNode] = []
    pending_limb: Optional[APTNode] = None
    for record in spool.read_forward():
        symbol, production, attrs, is_limb = record
        node = APTNode(symbol, production, dict(attrs), is_limb)
        if is_limb:
            pending_limb = node
            continue
        if production is None:
            stack.append(TreeNode(node))
            continue
        prod = ag.productions[production]
        n = len(prod.rhs)
        children = stack[len(stack) - n :] if n else []
        del stack[len(stack) - n :]
        limb = None
        if prod.limb:
            if pending_limb is None or pending_limb.symbol != prod.limb:
                raise EvaluationError(
                    f"spool misses limb node for production {prod.index}"
                )
            limb = pending_limb
        pending_limb = None
        stack.append(TreeNode(node, children, limb))
    if len(stack) != 1:
        raise EvaluationError(
            f"spool did not reconstruct to a single tree ({len(stack)} fragments)"
        )
    return stack[0]

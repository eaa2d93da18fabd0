"""The LINGUIST main program and its generated translators.

``Linguist(source)`` runs the seven-overlay pipeline over an ``.ag``
source text:

1. **parser overlay** — scan and parse the input, building the
   identifier name table;
2. **first attrib eval overlay** — build the symbol/attribute
   dictionary (semantic analysis, phase 1);
3. **second attrib eval overlay** — resolve semantic functions, insert
   implicit copy-rules, validate (phase 2);
4. **evaluability test overlay** — circularity check and alternating-
   pass assignment;
5. **third attrib eval overlay** — dead-attribute analysis and static
   subsumption (the evaluator-shaping analyses);
6. **listing generation overlay** — the listing file;
7. **evaluator generation overlay** — one generated module per pass
   (run once per pass, like the original's rerun of overlay 7).

The same input also feeds the LALR parse-table builder — "we submit
exactly the same input file to both LINGUIST-86 and the parse-table
builder" (§IV) — and :meth:`Linguist.make_translator` packages tables,
scanner, and generated evaluator into a runnable :class:`Translator`.

Warm starts
-----------

All of the above is **once-per-grammar** work (§V), so it caches: pass
a :class:`repro.buildcache.BuildCache` as ``cache=`` and a cold build
seals the analyzed model, LALR tables, pass plans, subsumption
decisions, and generated pass-module text into the content-addressed
store; a warm construction rehydrates them and skips straight to
``exec``-compiling the cached text — zero LALR / DFA / planning /
code-generation work (``cache.hit`` counters prove it).  See
``docs/performance.md``.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.ag.circularity import check_noncircular
from repro.ag.model import AttributeGrammar
from repro.ag.stats import GrammarStatistics, compute_statistics
from repro.apt.build import APTBuilder, default_intrinsics
from repro.apt.storage import (
    DEFAULT_SPOOL_MEMORY_BUDGET,
    Spool,
    adaptive_spool_factory,
)
from repro.errors import DiagnosticSink, EvaluationError
from repro.evalgen.codegen_pascal import PascalCodeGenerator
from repro.evalgen.codegen_py import CodeArtifact, GeneratedEvaluator
from repro.evalgen.deadness import DeadnessAnalysis, analyze_deadness
from repro.evalgen.driver import AlternatingPassDriver
from repro.evalgen.husk import CodeSizeReport, measure_code_sizes
from repro.evalgen.interp import InterpretiveEvaluator
from repro.evalgen.plan import PassPlan, PlanMemo, build_pass_plans
from repro.evalgen.runtime import EvaluationResult, FunctionLibrary
from repro.evalgen.subsumption import (
    StaticAllocation,
    SubsumptionConfig,
    choose_static_attributes,
)
from repro.frontend.analyze import analyze
from repro.frontend.listing import render_listing
from repro.frontend.syntax import parse_ag_text
from repro.core.overlays import OverlayClock, OverlayTiming
from repro.lalr.parser import LALRParser
from repro.lalr.tables import ParseTables, build_tables
from repro.obs.metrics import MetricsRegistry
from repro.passes.fusion import FusionResult, fuse_assignment
from repro.passes.partition import PassAssignment, assign_passes
from repro.passes.schedule import Direction
from repro.regex.generator import ScannerGenerator, ScannerSpec
from repro.regex.scanner import Scanner
from repro.util.iotrack import IOAccountant, MemoryGauge

#: Keys every cached grammar payload must carry (payloads missing any
#: of these — e.g. written by a future layout — are rebuilt, not trusted).
_PAYLOAD_KEYS = frozenset(
    [
        "ag",
        "assignment",
        "deadness",
        "allocation",
        "plans",
        "artifacts",
        "pascal",
        "listing",
        "tables",
        "fusion",
    ]
)


class Linguist:
    """One run of the translator-writing system over an ``.ag`` text."""

    def __init__(
        self,
        source: str,
        filename: str = "<input>",
        first_direction=Direction.R2L,  # a Direction, or "auto" to try both
        subsumption: Optional[SubsumptionConfig] = None,
        dead_attribute_suppression: bool = True,
        check_circularity: bool = True,
        fuse_passes: bool = True,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
        cache=None,
    ):
        if first_direction != "auto" and not isinstance(first_direction, Direction):
            raise ValueError(
                f"first_direction must be a Direction or 'auto', "
                f"got {first_direction!r}"
            )
        self.source = source
        self.filename = filename
        self.sink = DiagnosticSink()
        #: Unified telemetry: every overlay's wall time registers here
        #: under ``overlay.<name>.seconds`` (see docs/observability.md);
        #: benchmarks read this registry rather than private counters.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Structured tracer (repro.obs.Tracer) or None when disabled.
        self.tracer = tracer
        #: Persistent artifact cache (repro.buildcache.BuildCache) or None.
        self.cache = cache
        #: True when this construction rehydrated from the cache.
        self.from_cache = False
        self.first_direction = first_direction
        self.subsumption_config = subsumption
        self.dead_attribute_suppression = dead_attribute_suppression
        self.check_circularity = check_circularity
        #: Whether to statically merge adjacent passes whose attribute
        #: dependencies permit evaluation in one traversal (pass fusion;
        #: see repro.passes.fusion).  Part of the cache key.
        self.fuse_passes = fuse_passes
        #: The fusion outcome (repro.passes.fusion.FusionResult); when
        #: ``fuse_passes`` is False this records zero eliminated passes.
        self.fusion: Optional[FusionResult] = None
        #: The parsed ``.ag`` syntax tree (None on an alias-level warm
        #: start, which skips parsing entirely).
        self.ag_file = None
        self._tables: Optional[ParseTables] = None
        self._analyzed = False
        self._model_key: Optional[str] = None
        self._source_key: Optional[str] = None

        clock = OverlayClock(tracer=tracer, metrics=self.metrics)

        if cache is not None and self._try_warm(clock):
            self.from_cache = True
            self.overlay_times = clock.timing
            self.overlay_details = clock.details
            return

        if not self._analyzed:
            self._parse_and_analyze(clock)
        clock.run(
            "second attrib eval overlay",
            lambda: self._build_tables(),
        )
        # (The timing above charges the LALR table-construction work;
        # the tables are kept for the translator.)

        def evaluability():
            if check_circularity:
                check_noncircular(self.ag)
            if first_direction == "auto":
                from repro.passes.partition import choose_first_direction

                assignment = choose_first_direction(self.ag)
            else:
                assignment = assign_passes(self.ag, first_direction)
            if fuse_passes:
                fusion = fuse_assignment(
                    self.ag, assignment,
                    metrics=self.metrics, tracer=self.tracer,
                )
            else:
                fusion = FusionResult(
                    assignment=assignment,
                    original_n_passes=assignment.n_passes,
                )
            return fusion

        self.fusion = clock.run("evaluability test overlay", evaluability)
        self.assignment: PassAssignment = self.fusion.assignment

        def shape():
            from repro.evalgen.subsumption import refine_allocation

            dead = analyze_deadness(
                self.ag, self.assignment, enabled=dead_attribute_suppression
            )
            alloc = choose_static_attributes(
                self.ag, self.assignment, subsumption or SubsumptionConfig()
            )
            # One plan memo for the build: refinement fills it, and
            # generation reuses refinement's final plans from it.
            memo = PlanMemo(self.ag, self.assignment, dead)
            alloc = refine_allocation(
                self.ag, self.assignment, alloc, dead, memo=memo
            )
            return dead, alloc, memo

        self.deadness, self.allocation, memo = clock.run(
            "third attrib eval overlay", shape
        )

        self.listing: str = clock.run(
            "listing generation overlay",
            lambda: render_listing(source, self.ag, self.sink, self.assignment),
        )

        def generate():
            plans = build_pass_plans(
                self.ag, self.assignment, self.deadness, self.allocation,
                memo=memo,
            )
            generated = GeneratedEvaluator(self.ag, plans)
            pascal = PascalCodeGenerator(self.ag).generate_all(plans)
            return plans, generated, pascal

        self.plans: List[PassPlan]
        self.plans, self.generated, self.pascal_artifacts = clock.run(
            "evaluator generation overlay", generate
        )
        self.overlay_times: OverlayTiming = clock.timing
        #: Per-overlay I/O and peak-memory deltas (see StageClock.details).
        self.overlay_details = clock.details

        if cache is not None:
            self._store_cache()

    # -- construction helpers ------------------------------------------------

    def _parse_and_analyze(self, clock: OverlayClock) -> None:
        """Overlays 1–2: parse the ``.ag`` text and build the dictionary."""
        self.ag_file = clock.run(
            "parser overlay", lambda: parse_ag_text(self.source, self.filename)
        )
        # Overlays 2 and 3 are the two semantic-analysis passes; our
        # analyze() does both, so we time them as one and charge the
        # validator's copy-rule insertion to the second.
        self.ag: AttributeGrammar = clock.run(
            "first attrib eval overlay", lambda: analyze(self.ag_file, self.sink)
        )
        self.sink.raise_if_errors()
        self._analyzed = True

    def _build_tables(self) -> ParseTables:
        if self._tables is None:
            self._tables = build_tables(self.ag.underlying_cfg())
        return self._tables

    def _strategy_args(self) -> tuple:
        return (
            self.first_direction,
            self.subsumption_config,
            self.dead_attribute_suppression,
            self.check_circularity,
            self.fuse_passes,
        )

    def _try_warm(self, clock: OverlayClock) -> bool:
        """Attempt a warm start from the artifact cache.

        Lookup is two-level: a parse-free *alias* over the raw source
        text, then (on alias miss) the canonical *model* key computed
        after overlays 1–2.  Returns True when every expensive overlay
        (LALR, evaluability, shaping, listing, code generation) was
        skipped; on False, overlays 1–2 may already have run and the
        cold path continues from there.
        """
        from repro.buildcache.key import grammar_key, source_key

        skey = source_key(self.source, *self._strategy_args())
        self._source_key = skey
        payload = None
        alias = self.cache.load(
            "alias", skey, metrics=self.metrics, tracer=self.tracer
        )
        if alias is not None and isinstance(alias.get("target"), str):
            self._model_key = alias["target"]
            payload = self.cache.load(
                "grammar", self._model_key,
                metrics=self.metrics, tracer=self.tracer,
            )
        if payload is None:
            self._parse_and_analyze(clock)
            mkey = grammar_key(self.ag, *self._strategy_args())
            self._model_key = mkey
            payload = self.cache.load(
                "grammar", mkey, metrics=self.metrics, tracer=self.tracer
            )
            if payload is not None:
                # Same model reached from a different serialization of
                # the source: remember the shortcut for next time.
                self.cache.store(
                    "alias", skey, {"target": mkey},
                    metrics=self.metrics, tracer=self.tracer,
                )
        if payload is None or not _PAYLOAD_KEYS <= payload.keys():
            return False
        self._rehydrate(payload)
        return True

    def _rehydrate(self, payload: Dict[str, Any]) -> None:
        """Adopt a cached build wholesale (zero rebuild work).

        The payload's objects are internally consistent — the pass
        assignment, deadness, allocation, and plans all reference the
        payload's own grammar object — so the cached ``ag`` *replaces*
        any freshly analyzed one.
        """
        own_source_lines = self.ag.source_lines if self._analyzed else None
        self.ag = payload["ag"]
        if own_source_lines is not None:
            # Presentation detail, not semantics: the cached model
            # remembers the *original* source's line count; statistics
            # and the listing should report ours.
            self.ag.source_lines = own_source_lines
        self.assignment = payload["assignment"]
        fusion_meta = payload["fusion"]
        self.fusion = FusionResult(
            assignment=self.assignment,
            original_n_passes=fusion_meta["original_n_passes"],
            fused_pairs=[tuple(p) for p in fusion_meta["fused_pairs"]],
        )
        if self.fusion.fused:
            # Re-emit the fusion metrics so `repro profile` attributes
            # the eliminated passes on warm starts too.
            self.metrics.counter("fusion.fused").inc(
                len(self.fusion.fused_pairs)
            )
            self.metrics.counter("fusion.passes_eliminated").inc(
                self.fusion.passes_eliminated
            )
            self.metrics.gauge("fusion.n_passes_before").set(
                self.fusion.original_n_passes
            )
            self.metrics.gauge("fusion.n_passes_after").set(
                self.assignment.n_passes
            )
        self.deadness = payload["deadness"]
        self.allocation = payload["allocation"]
        self.plans = payload["plans"]
        self.pascal_artifacts = payload["pascal"]
        self._tables = payload["tables"]
        if self._analyzed:
            # Model-level hit from a differently spelled source: the
            # cached listing embeds the *original* source text, so
            # re-render against ours (cheap — no analyses rerun).
            self.listing = render_listing(
                self.source, self.ag, self.sink, self.assignment
            )
        else:
            self.listing = payload["listing"]
        # Straight to exec-compiling the cached generated text: no
        # PythonCodeGenerator work on the warm path.
        self.generated = GeneratedEvaluator.from_artifacts(
            self.ag, self.plans, payload["artifacts"]
        )

    def _store_cache(self) -> None:
        from repro.buildcache.key import grammar_key

        if self._model_key is None:
            self._model_key = grammar_key(self.ag, *self._strategy_args())
        payload = {
            "ag": self.ag,
            "assignment": self.assignment,
            "deadness": self.deadness,
            "allocation": self.allocation,
            "plans": self.plans,
            "artifacts": self.generated.artifacts,
            "pascal": self.pascal_artifacts,
            "listing": self.listing,
            "tables": self._build_tables(),
            "fusion": {
                "original_n_passes": self.fusion.original_n_passes,
                "fused_pairs": [list(p) for p in self.fusion.fused_pairs],
            },
        }
        self.cache.store(
            "grammar", self._model_key, payload,
            metrics=self.metrics, tracer=self.tracer,
        )
        if self._source_key is not None:
            self.cache.store(
                "alias", self._source_key, {"target": self._model_key},
                metrics=self.metrics, tracer=self.tracer,
            )

    # ------------------------------------------------------------------

    @property
    def n_passes(self) -> int:
        return self.assignment.n_passes

    @property
    def statistics(self) -> GrammarStatistics:
        return compute_statistics(self.ag, n_passes=self.n_passes)

    @property
    def python_artifacts(self) -> List[CodeArtifact]:
        return self.generated.artifacts

    def code_sizes(self, language: str = "pascal") -> CodeSizeReport:
        artifacts = (
            self.pascal_artifacts if language == "pascal" else self.python_artifacts
        )
        return measure_code_sizes(self.ag.name, artifacts, language)

    def parse_tables(self) -> ParseTables:
        return self._build_tables()

    def make_translator(
        self,
        scanner_spec: Optional[ScannerSpec] = None,
        library: Optional[FunctionLibrary] = None,
        backend: str = "generated",
        intrinsic_fn=default_intrinsics,
    ) -> "Translator":
        """Package the generated evaluator into a runnable translator.

        ``scanner_spec`` describes the *described language's* lexical
        structure (the scanner-generator input of §V); omit it to feed
        pre-scanned token streams to :meth:`Translator.translate_tokens`.
        When this Linguist carries a build cache, the scanner DFA is
        cached/rehydrated through it as well.
        """
        return Translator(self, scanner_spec, library, backend, intrinsic_fn)


class Translator:
    """The generated product: scanner + LALR parser + attribute evaluator."""

    def __init__(
        self,
        linguist: Linguist,
        scanner_spec: Optional[ScannerSpec],
        library: Optional[FunctionLibrary],
        backend: str,
        intrinsic_fn,
    ):
        self.linguist = linguist
        self.ag = linguist.ag
        self.library = library or FunctionLibrary()
        self.backend = backend
        self.intrinsic_fn = intrinsic_fn
        self.parser = LALRParser(linguist.parse_tables())
        self.scanner: Optional[Scanner] = (
            self._make_scanner(scanner_spec) if scanner_spec is not None else None
        )
        if backend == "generated":
            self._executor = linguist.generated.executor
        elif backend == "interp":
            self._executor = InterpretiveEvaluator(self.ag).run_pass
        else:
            raise ValueError(f"unknown backend {backend!r}")
        #: Filled by each translate() call.
        self.last_driver: Optional[AlternatingPassDriver] = None
        #: Lazily-built recording variant of the generated evaluator
        #: (provenance hooks compiled in); the normal executor stays hot.
        self._recording_eval: Optional[GeneratedEvaluator] = None
        #: Lazily-built memo variants (incremental hooks compiled in)
        #: and open MemoStores keyed by absolute memo directory.
        self._memo_eval: Optional[GeneratedEvaluator] = None
        self._memo_recording_eval: Optional[GeneratedEvaluator] = None
        self._memo_identity: Optional[str] = None
        self._memo_stores: Dict[str, Any] = {}
        #: How to rebuild this translator in another process (set by the
        #: batch driver / CLI for shipped grammars; required for
        #: ``translate_many(jobs > 1)``).  A repro.batch.WorkerSpec.
        self.spawn_spec = None

    def _make_scanner(self, spec: ScannerSpec) -> Scanner:
        """Generate (or cache-rehydrate) the described language's scanner."""
        cache = self.linguist.cache
        if cache is None:
            return spec.generate()
        from repro.buildcache.key import scanner_key

        metrics = self.linguist.metrics
        tracer = self.linguist.tracer
        key = scanner_key(spec)
        payload = cache.load("scanner", key, metrics=metrics, tracer=tracer)
        dfa = payload.get("dfa") if payload is not None else None
        if dfa is None:
            generator = ScannerGenerator(spec)
            dfa = generator.build_tables()
            cache.store(
                "scanner", key, {"dfa": dfa}, metrics=metrics, tracer=tracer
            )
            return generator.generate()
        # Warm path: the cached DFA seeds the generator, so no NFA /
        # subset construction / minimization runs.
        return ScannerGenerator(spec, dfa=dfa).generate()

    # ------------------------------------------------------------------

    def translate(
        self,
        text: str,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
        spool_memory_budget: Optional[int] = None,
        record: Optional[str] = None,
        disk_budget=None,
        memo_dir: Optional[str] = None,
    ) -> EvaluationResult:
        """Scan, parse, and evaluate ``text``.

        ``tracer``/``metrics`` enable the telemetry subsystem for this
        translation (see docs/observability.md); both default to off.
        Passing ``metrics`` also measures resident node bytes
        (``mem.*``, ``last_driver.gauge``); without it no gauge runs.
        ``checkpoint_dir`` makes the evaluation durable: every
        completed pass seals its spool there and updates the manifest,
        and ``resume=True`` restarts from the first incomplete pass of
        a previously killed run (see docs/robustness.md).
        ``spool_memory_budget`` caps the bytes each intermediate APT
        spool may keep in memory before spilling to a v3 disk spool
        (None picks the default; 0 forces disk spooling throughout).
        ``disk_budget`` (a :class:`repro.governance.DiskBudget`) caps
        the run's total durable bytes — spool spills and checkpoint
        pass files are charged against it, and the charge that would
        overspend raises a typed
        :class:`~repro.errors.DiskBudgetExceeded` (surfaced on the CLI
        as ``repro run --disk-budget``; see docs/robustness.md).
        ``record`` enables attribute-provenance recording into that
        directory (a sealed NDJSON log plus every pass's sealed spool;
        see docs/debugging.md) — it implies checkpointing into the same
        directory, so the two directories must agree when both given.
        ``memo_dir`` enables incremental re-translation: every pass's
        subtree results memoized there by earlier translations through
        this grammar are spliced instead of re-evaluated wherever the
        subtree and its inherited context are unchanged — when the new
        input even tokenizes to the same kind sequence, the parse
        itself is reused and only the dirty spine from each edited
        token is re-hashed — and the memo is refreshed for the next
        call (see docs/performance.md).  Output is byte-identical to a
        cold run; a damaged memo only costs speed.
        """
        if self.scanner is None:
            raise EvaluationError(
                "this translator was built without a scanner spec; "
                "use translate_tokens()"
            )
        return self.translate_tokens(
            self.scanner.tokens(text),
            tracer=tracer,
            metrics=metrics,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            spool_memory_budget=spool_memory_budget,
            record=record,
            disk_budget=disk_budget,
            memo_dir=memo_dir,
        )

    def translate_many(
        self,
        texts: Sequence[str],
        jobs: int = 1,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
        timeout: Optional[float] = None,
    ):
        """Translate many independent inputs, optionally in parallel.

        With ``jobs <= 1`` the inputs run sequentially in-process; with
        ``jobs > 1`` they fan out across supervised worker subprocesses
        (:mod:`repro.serve.workers`), each running one input at a time
        through this same :meth:`translate` call.  Workers rehydrate
        this translator from the build cache it was built through,
        which is why it must be built with
        :func:`repro.batch.build_batch_translator` or ``repro batch``.
        Each input is isolated — one failure is reported in its
        :class:`repro.batch.BatchItem` while the others complete, and
        an input whose worker crashed is retried once on a fresh
        worker.  ``timeout`` (positive, finite seconds) bounds every
        input (enforced by killing and restarting the worker, so it
        implies the supervised path even for ``jobs=1``).
        Returns a :class:`repro.batch.BatchReport`.
        """
        from repro.batch import run_batch

        return run_batch(
            self, texts, jobs=jobs, metrics=metrics, tracer=tracer,
            timeout=timeout,
        )

    def translate_tokens(
        self,
        tokens,
        spool_factory: Optional[Callable[[str], Spool]] = None,
        accountant: Optional[IOAccountant] = None,
        gauge: Optional[MemoryGauge] = None,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
        spool_memory_budget: Optional[int] = None,
        record: Optional[str] = None,
        disk_budget=None,
        memo_dir: Optional[str] = None,
    ) -> EvaluationResult:
        accountant = accountant if accountant is not None else IOAccountant()
        if gauge is None and metrics is not None:
            # Residency is telemetry: measured only when asked for.
            gauge = MemoryGauge()
        metrics = metrics if metrics is not None else MetricsRegistry()
        factory = spool_factory or adaptive_spool_factory(
            accountant,
            tracer=tracer,
            metrics=metrics,
            memory_budget=(
                DEFAULT_SPOOL_MEMORY_BUDGET
                if spool_memory_budget is None
                else spool_memory_budget
            ),
            disk_budget=disk_budget,
        )
        recorder = None
        executor = self._executor
        if record is not None:
            if checkpoint_dir is not None and os.path.abspath(
                checkpoint_dir
            ) != os.path.abspath(record):
                raise EvaluationError(
                    "record= implies checkpointing into the record "
                    f"directory, but checkpoint_dir={checkpoint_dir!r} "
                    f"differs from record={record!r}"
                )
            checkpoint_dir = record
            from repro.obs.provenance import ProvenanceRecorder

            recorder = ProvenanceRecorder(
                record,
                grammar=self.ag.name,
                backend=self.backend,
                start=self.ag.start,
                productions=self.ag.productions,
                metrics=metrics,
            )
            if self.backend == "generated":
                # Recording variant: same plans, provenance hooks
                # compiled in.  Built once and kept; the non-recording
                # executor (and its cached text) is untouched.
                if self._recording_eval is None:
                    self._recording_eval = GeneratedEvaluator(
                        self.ag, self.linguist.plans, recording=True
                    )
                executor = self._recording_eval.executor
            # The initial spool must survive in the record directory for
            # the debug session's history queries; intermediates still go
            # through the normal factory (the checkpoint manager seals
            # every pass spool into the directory).
            from repro.apt.storage import DiskSpool

            inner_factory = factory

            def factory(name: str) -> Spool:
                if name == "initial":
                    return DiskSpool(
                        os.path.join(record, "initial.spool"),
                        accountant=accountant,
                        channel="initial",
                        tracer=tracer,
                        metrics=metrics,
                    )
                return inner_factory(name)

        memo = None
        if memo_dir is not None:
            memo = self._memo_store(memo_dir, metrics=metrics, tracer=tracer)
            if self.backend == "generated":
                # Memo variants: same plans, incremental VISIT hooks
                # compiled in.  The plain executor (and its cached
                # text) is untouched, so memo_dir=None stays tax-free.
                if recorder is not None:
                    if self._memo_recording_eval is None:
                        self._memo_recording_eval = GeneratedEvaluator(
                            self.ag, self.linguist.plans,
                            recording=True, memo=True,
                        )
                    executor = self._memo_recording_eval.executor
                else:
                    if self._memo_eval is None:
                        self._memo_eval = GeneratedEvaluator(
                            self.ag, self.linguist.plans, memo=True
                        )
                    executor = self._memo_eval.executor

        strategy = (
            "bottom-up"
            if self.linguist.assignment.first_direction is Direction.R2L
            else "prefix"
        )
        initial = None
        token_list = None
        if memo is not None and recorder is None and checkpoint_dir is None:
            # Front-end reuse needs the materialized token stream: when
            # the kind sequence matches the memoized run, the LR parse
            # is identical and the cached initial records are patched
            # (leaf intrinsics recomputed, dirty spine rehashed)
            # instead of re-parsing.  Checkpointed/recorded runs build
            # their durable initial spool the normal way.
            token_list = tokens if isinstance(tokens, list) else list(tokens)
            tokens = token_list
            initial = memo.reuse_frontend(
                token_list, strategy == "prefix", self.intrinsic_fn
            )
        if initial is None:
            initial = self._build_initial(tokens, factory, tracer, metrics)
            if token_list is not None:
                memo.cache_frontend(
                    token_list, initial, strategy == "prefix"
                )
        driver = AlternatingPassDriver(
            self.ag,
            self.linguist.plans,
            executor,
            library=self.library,
            spool_factory=factory,
            accountant=accountant,
            gauge=gauge,
            tracer=tracer,
            metrics=metrics,
            checkpoint_dir=checkpoint_dir,
            recorder=recorder,
            disk_budget=disk_budget,
            memo=memo,
        )
        self.last_driver = driver
        return driver.run(initial, strategy=strategy, resume=resume)

    def _memo_store(self, memo_dir: str, metrics=None, tracer=None):
        """Open (or reuse) the :class:`repro.passes.incremental.MemoStore`
        for ``memo_dir``.  Stores are cached per directory so repeated
        translations through one translator splice from the in-memory
        entry table without re-reading the manifest; the identity hash
        is computed once per translator."""
        from repro.passes.incremental import MemoStore, memo_identity

        key = os.path.abspath(memo_dir)
        store = self._memo_stores.get(key)
        if store is not None:
            store.metrics = metrics
            store.tracer = tracer
            return store
        if self._memo_identity is None:
            self._memo_identity = memo_identity(
                self.ag, self.linguist.plans, self.library
            )
        store = MemoStore(
            key,
            self.ag,
            self.linguist.plans,
            library=self.library,
            identity=self._memo_identity,
            metrics=metrics,
            tracer=tracer,
        )
        self._memo_stores[key] = store
        return store

    def _build_initial(
        self,
        tokens,
        factory: Callable[[str], Spool],
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> Spool:
        """Build the initial APT spool per the configured strategy.

        The parser writes the records itself.  Bottom-up (first pass
        R-to-L, the paper's own choice) streams them into the spool
        during the parse; the prefix strategy (first pass L-to-R, "like
        a recursive descent parser") keeps a tree of records and writes
        it in prefix order once the parse is done.
        """
        initial = factory("initial")
        if tracer is not None and initial.tracer is None:
            initial.tracer = tracer
        if tracer is not None:
            span_ctx = tracer.span("parser overlay", cat="overlay")
        else:
            span_ctx = nullcontext()
        with span_ctx:
            builder = APTBuilder(
                self.ag,
                initial,
                intrinsic_fn=self.intrinsic_fn,
                tracer=tracer,
                metrics=metrics,
                prefix=self.linguist.assignment.first_direction is not Direction.R2L,
            )
            self.parser.parse(tokens, listener=builder, tracer=tracer)
            builder.finish()
        return initial

"""Shared harness wiring the full pipeline for tests and benchmarks."""

from typing import List, Optional

from repro.ag.model import AttributeGrammar
from repro.apt.build import APTBuilder
from repro.apt.storage import MemorySpool
from repro.errors import SourceLocation
from repro.evalgen.codegen_py import GeneratedEvaluator
from repro.evalgen.deadness import analyze_deadness
from repro.evalgen.driver import AlternatingPassDriver, reconstruct_tree
from repro.evalgen.interp import InterpretiveEvaluator
from repro.evalgen.oracle import OracleEvaluator
from repro.evalgen.plan import build_pass_plans
from repro.evalgen.runtime import FunctionLibrary
from repro.evalgen.subsumption import SubsumptionConfig, choose_static_attributes
from repro.lalr.grammar import EOF_SYMBOL
from repro.lalr.parser import LALRParser
from repro.lalr.tables import build_tables
from repro.passes.partition import assign_passes
from repro.passes.schedule import Direction
from repro.regex.scanner import Token


def tokens_of(kinds_and_texts) -> List[Token]:
    """Build a token list from ["KIND", ("KIND", "text"), ...] + EOF."""
    out = []
    for i, item in enumerate(kinds_and_texts):
        if isinstance(item, tuple):
            kind, text = item
        else:
            kind, text = item, item.lower()
        out.append(Token(kind, text, SourceLocation(1, i + 1)))
    out.append(Token(EOF_SYMBOL, "", SourceLocation(1, len(out) + 1)))
    return out


class Pipeline:
    """One grammar, fully analyzed and ready to evaluate inputs."""

    def __init__(
        self,
        ag: AttributeGrammar,
        first_direction: Direction = Direction.R2L,
        subsumption: bool = True,
        deadness: bool = True,
        grouping: str = "name",
        refine: bool = True,
        library: Optional[FunctionLibrary] = None,
    ):
        self.ag = ag
        self.library = library or FunctionLibrary()
        self.assignment = assign_passes(ag, first_direction)
        self.deadness = analyze_deadness(ag, self.assignment, enabled=deadness)
        self.allocation = choose_static_attributes(
            ag,
            self.assignment,
            SubsumptionConfig(enabled=subsumption, grouping=grouping),
        )
        if subsumption and refine:
            from repro.evalgen.subsumption import refine_allocation

            refine_allocation(ag, self.assignment, self.allocation, self.deadness)
        self.plans = build_pass_plans(
            ag, self.assignment, self.deadness, self.allocation
        )
        self.tables = build_tables(ag.underlying_cfg())
        self.parser = LALRParser(self.tables)
        self._generated: Optional[GeneratedEvaluator] = None

    # ------------------------------------------------------------------

    def build_apt(self, tokens, build_tree: bool = True):
        """Parse tokens into (initial spool, tree-or-None)."""
        spool = MemorySpool(channel="initial")
        builder = APTBuilder(self.ag, spool, build_tree=build_tree)
        self.parser.parse(tokens, listener=builder, build_tree=False)
        builder.finish()
        return spool, builder.root

    def driver(self, backend: str = "interp", gauge=None) -> AlternatingPassDriver:
        if backend == "interp":
            executor = InterpretiveEvaluator(self.ag).run_pass
        elif backend == "generated":
            if self._generated is None:
                self._generated = GeneratedEvaluator(self.ag, self.plans)
            executor = self._generated.executor
        else:
            raise ValueError(backend)
        return AlternatingPassDriver(
            self.ag, self.plans, executor, library=self.library, gauge=gauge
        )

    def evaluate(self, tokens, backend: str = "interp", gauge=None):
        spool, _ = self.build_apt(tokens, build_tree=False)
        strategy = (
            "bottom-up"
            if self.assignment.first_direction is Direction.R2L
            else "prefix"
        )
        if strategy == "prefix":
            # Prefix emission needs the tree.
            spool2 = MemorySpool(channel="initial")
            spool_raw, root = self.build_apt(tokens, build_tree=True)
            builder_spool = spool2
            from repro.apt.linear import iter_prefix

            for node in iter_prefix(root):
                builder_spool.append(
                    (node.symbol, node.production, node.attrs, node.is_limb)
                )
            builder_spool.finalize()
            spool = builder_spool
        driver = self.driver(backend, gauge=gauge)
        result = driver.run(spool, strategy=strategy)
        return result, driver

    def oracle(self, tokens):
        _, root = self.build_apt(tokens, build_tree=True)
        oracle = OracleEvaluator(self.ag, self.library)
        result = oracle.evaluate(root)
        return result, root


# ---------------------------------------------------------------------------
# Differential backend suite: every evaluator path over one text
# ---------------------------------------------------------------------------


def canonical_attrs(root_attrs) -> dict:
    """Root attributes rendered to canonical byte-comparable strings.

    Matches the ``repro run`` rendering convention: non-string iterables
    are materialized as lists, then everything goes through ``repr``.
    """
    out = {}
    for attr, value in sorted(root_attrs.items()):
        rendered = list(value) if hasattr(value, "__iter__") and not isinstance(
            value, str
        ) else value
        out[attr] = repr(rendered)
    return out


class BackendSuite:
    """One shipped grammar, translatable through every evaluator path:

    * ``interp``    — the interpretive pass evaluator,
    * ``generated`` — the exec-compiled generated pass modules,
    * ``oracle``    — the demand-driven tree evaluator (pure semantics,
      no passes, no spools),
    * ``cached``    — a *cache-rehydrated* translator (built through a
      warm :class:`repro.buildcache.BuildCache`, so its pass modules
      come from cached source text and its scanner from a cached DFA
      — the path every batch worker process takes),
    * ``unfused``   — the interpretive evaluator with pass fusion
      disabled, running the original (pre-fusion) pass partition,
    * ``incremental`` — a memo-equipped translator
      (``translate(..., memo_dir=)``): the text is translated once to
      warm the memo, then translated again with clean subtrees
      *spliced* from the sealed MEMO1 manifest; the spliced result is
      the axis value, so incremental re-translation is pinned
      byte-identical to every from-scratch path.

    Build once per grammar (construction is the expensive per-grammar
    step); :meth:`run` is cheap per input.
    """

    def __init__(self, grammar_name: str, cache_dir: str):
        from repro.buildcache import BuildCache
        from repro.core import Linguist
        from repro.grammars import load_source, scanner_and_library

        self.grammar_name = grammar_name
        source = load_source(grammar_name)
        spec, library = scanner_and_library(grammar_name)
        assert spec is not None, f"no shipped scanner for {grammar_name!r}"
        self.library = library

        cold = Linguist(source)
        self.ag = cold.ag
        self.interp = cold.make_translator(spec, library=library, backend="interp")
        self.generated = cold.make_translator(
            spec, library=library, backend="generated"
        )

        # The fusion differential pair: same grammar, fusion off.  The
        # fused/unfused evaluations must agree byte for byte while the
        # fused one runs strictly fewer passes (when fusion applies).
        plain = Linguist(source, fuse_passes=False)
        self.unfused = plain.make_translator(
            spec, library=library, backend="interp"
        )
        self.fused_n_passes = cold.n_passes
        self.unfused_n_passes = plain.n_passes

        # Seed the cache (grammar artifacts + scanner DFA), then rebuild
        # warm: the 'cached' path must come from rehydrated artifacts,
        # not freshly generated ones.
        Linguist(source, cache=BuildCache(cache_dir)).make_translator(
            spec, library=library
        )
        warm = Linguist(source, cache=BuildCache(cache_dir))
        assert warm.from_cache, "warm rebuild did not hit the build cache"
        self.cached = warm.make_translator(
            spec, library=library, backend="generated"
        )

        # The incremental axis: its own translator (so memo executor
        # variants never leak into the plain axes) + a per-suite memo
        # directory under the cache dir.
        self.incremental = cold.make_translator(
            spec, library=library, backend="generated"
        )
        import os

        self.memo_dir = os.path.join(cache_dir, "memo")

    def oracle_attrs(self, text: str) -> dict:
        tokens = list(self.interp.scanner.tokens(text))
        spool = MemorySpool(channel="initial")
        builder = APTBuilder(self.ag, spool, build_tree=True)
        self.interp.parser.parse(tokens, listener=builder, build_tree=False)
        builder.finish()
        result = OracleEvaluator(self.ag, self.library).evaluate(builder.root)
        return result.root_attrs

    def run(self, text: str) -> dict:
        """Translate ``text`` through every path; return
        ``{path: canonical root attrs}`` (oracle projected onto the
        pass-evaluated attribute set — the oracle attributes *every*
        instance, the passes export the root's visible ones)."""
        interp = canonical_attrs(self.interp.translate(text).root_attrs)
        generated = canonical_attrs(self.generated.translate(text).root_attrs)
        cached = canonical_attrs(self.cached.translate(text).root_attrs)
        unfused = canonical_attrs(self.unfused.translate(text).root_attrs)
        # Warm the memo, then re-translate: the second run splices the
        # sealed output of every clean subtree instead of re-evaluating.
        self.incremental.translate(text, memo_dir=self.memo_dir)
        incremental = canonical_attrs(
            self.incremental.translate(text, memo_dir=self.memo_dir).root_attrs
        )
        oracle_full = canonical_attrs(self.oracle_attrs(text))
        oracle = {k: v for k, v in oracle_full.items() if k in interp}
        return {
            "interp": interp,
            "generated": generated,
            "cached": cached,
            "unfused": unfused,
            "incremental": incremental,
            "oracle": oracle,
        }


def run_all_backends(grammar_name: str, text: str, cache_dir: str) -> dict:
    """Translate ``text`` with ``grammar_name`` through every
    evaluator path (interp / generated / oracle / cache-rehydrated /
    unfused / incremental); return
    ``{path: canonical root attrs}`` for differential comparison.
    """
    return BackendSuite(grammar_name, cache_dir).run(text)

"""Layer spans recorded from outside the program.

The benchmark attributes time to layers by wrapping each layer's public
entry point (a module function or a class method) with a span, using
only this file: nothing under ``src/`` changes.  Each span adds its
*self* time, its duration minus the time covered by the spans it caused,
to its layer's total, so self times of nested layers add up without
double counting.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Tuple

#: (span name, module path, owner attribute or None, attribute).  An
#: owner names a class inside the module; without one the attribute is
#: a module-level function, patched where the caller looks it up.
ENTRY_POINTS: List[Tuple[str, str, Any, str]] = [
    # The build pipeline: Linguist's overlays call these names through
    # repro.core.linguist's module globals.
    ("frontend.parse", "repro.core.linguist", None, "parse_ag_text"),
    ("frontend.analyze", "repro.core.linguist", None, "analyze"),
    ("lalr.tables", "repro.core.linguist", None, "build_tables"),
    ("ag.circularity", "repro.core.linguist", None, "check_noncircular"),
    ("passes.assign", "repro.core.linguist", None, "assign_passes"),
    ("passes.fusion", "repro.core.linguist", None, "fuse_assignment"),
    ("evalgen.deadness", "repro.core.linguist", None, "analyze_deadness"),
    ("evalgen.subsumption", "repro.core.linguist", None,
     "choose_static_attributes"),
    ("evalgen.subsumption", "repro.evalgen.subsumption", None,
     "refine_allocation"),
    ("frontend.listing", "repro.core.linguist", None, "render_listing"),
    ("evalgen.plan", "repro.core.linguist", None, "build_pass_plans"),
    ("evalgen.codegen", "repro.evalgen.codegen_py", "GeneratedEvaluator",
     "__init__"),
    ("evalgen.codegen", "repro.evalgen.codegen_pascal",
     "PascalCodeGenerator", "generate_all"),
    ("regex.scanner_gen", "repro.regex.generator", "ScannerGenerator",
     "build_tables"),
    ("buildcache.store", "repro.buildcache.store", "BuildCache", "store"),
    ("buildcache.load", "repro.buildcache.store", "BuildCache", "load"),
    # The translation hot path.
    ("core.translate_self", "repro.core.linguist", "Translator", "translate"),
    ("lalr.parse", "repro.lalr.parser", "LALRParser", "parse"),
    ("evalgen.pass", "repro.evalgen.driver", "AlternatingPassDriver", "run"),
    # Incremental re-translation.
    ("incremental.load", "repro.passes.incremental", "MemoStore", "__init__"),
    ("incremental.reuse_frontend", "repro.passes.incremental", "MemoStore",
     "reuse_frontend"),
    ("incremental.commit", "repro.passes.incremental", "MemoStore",
     "commit_run"),
]


class LayerTracer:
    """In-memory span recorder with self-time accounting.

    ``install()`` patches every entry point; ``uninstall()`` restores
    the originals.  ``paused()`` suspends recording (used around the
    benchmark's own correctness checks, which call into the same layers).
    """

    def __init__(self) -> None:
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        #: False until ``install()``: an untraced run keeps a disabled
        #: tracer so the same code path serves both modes.
        self.enabled = False
        #: [start, seconds covered by child spans] per open span.
        self._stack: List[List[float]] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = [time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - frame[0]
                tracer.self_seconds[name] += duration - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += duration

        return span

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> "LayerTracer":
        for name, module_path, owner_name, attr in ENTRY_POINTS:
            module = importlib.import_module(module_path)
            owner = getattr(module, owner_name) if owner_name else module
            self._patch(owner, attr, self._wrap(name, owner.__dict__[attr]))
        self._install_scanner()
        self._install_semfn_counter()
        self.enabled = True
        return self

    def _install_scanner(self) -> None:
        """Time the scanner on its own: the translator consumes
        ``Scanner.tokens`` lazily inside the parse, so the traced run
        materializes the token list inside a ``regex.scan`` span."""
        from repro.regex.scanner import Scanner

        tracer = self
        tokens = Scanner.__dict__["tokens"]
        timed = self._wrap("regex.scan", lambda s, *a, **k: list(tokens(s, *a, **k)))

        def materialized(scanner, *args, **kwargs):
            if not tracer.enabled:
                return tokens(scanner, *args, **kwargs)
            out = timed(scanner, *args, **kwargs)
            tracer.counts["regex.tokens"] += len(out)
            return out

        self._patch(Scanner, "tokens", materialized)

    def _install_semfn_counter(self) -> None:
        """Count semantic-function calls; every external call of a
        generated or interpreted evaluator goes through
        ``FunctionLibrary.call``."""
        from repro.evalgen.runtime import FunctionLibrary

        tracer = self
        call = FunctionLibrary.__dict__["call"]

        def counted(library, name, *args):
            if tracer.enabled:
                tracer.counts["evalgen.semfn_calls"] += 1
            return call(library, name, *args)

        self._patch(FunctionLibrary, "call", counted)

    def uninstall(self) -> None:
        self.enabled = False
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        saved, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = saved

    def reset(self) -> None:
        self.self_seconds.clear()
        self.counts.clear()

"""Runtime services shared by generated and interpretive evaluators.

One :class:`EvaluatorRuntime` serves one pass: its ``get``/``put``
pair hands out nodes from the input spool (``GetNode``) and writes
them to the output spool (``PutNode``); it resolves uninterpreted
functions and constants against the function library, and charges the
memory gauge so the §Intro 48K-budget claim is measurable.  An
optional trace records the get/eval/visit/put event stream (EXP-F2).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.apt.node import record_bytes
from repro.apt.storage import Spool
from repro.errors import EvaluationError
from repro.util.iotrack import MemoryGauge
from repro.util.lists import STANDARD_FUNCTIONS


class FunctionLibrary:
    """Resolution of uninterpreted function and constant identifiers.

    §IV: "any identifier that is not a grammar symbol, attribute, or
    attribute type is treated as an uninterpreted constant or function.
    All … interpretation … is done by the compiler for the target
    programming language" — here, by this library at run time.
    Unresolved constants evaluate to their own name, so purely
    structural grammars run without any library at all.
    """

    def __init__(self, functions: Optional[Dict[str, Callable[..., Any]]] = None,
                 constants: Optional[Dict[str, Any]] = None,
                 use_standard: bool = True):
        self.functions: Dict[str, Callable[..., Any]] = {}
        if use_standard:
            self.functions.update(STANDARD_FUNCTIONS)
        if functions:
            self.functions.update(functions)
        self.constants: Dict[str, Any] = dict(constants or {})

    def call(self, name: str, *args: Any) -> Any:
        fn = self.functions.get(name)
        if fn is None:
            raise EvaluationError(
                f"no definition for external function {name!r} "
                f"(supply it in the function library)"
            )
        return fn(*args)

    def constant(self, name: str) -> Any:
        return self.constants.get(name, name)


class TraceEvent:
    """One paradigm event, for golden-trace tests and EXP-F2."""

    __slots__ = ("kind", "detail")

    def __init__(self, kind: str, detail: str):
        self.kind = kind
        self.detail = detail

    def __repr__(self) -> str:
        return f"{self.kind} {self.detail}"

    def __eq__(self, other):
        if isinstance(other, TraceEvent):
            return (self.kind, self.detail) == (other.kind, other.detail)
        if isinstance(other, tuple):
            return (self.kind, self.detail) == other
        return NotImplemented


class EvaluatorRuntime:
    """Per-pass runtime: node I/O, library access, gauges, tracing."""

    def __init__(
        self,
        reader: Iterator[Any],
        output: Spool,
        library: Optional[FunctionLibrary] = None,
        gauge: Optional[MemoryGauge] = None,
        trace: Optional[List[TraceEvent]] = None,
        tracer=None,
        metrics=None,
        recorder=None,
    ):
        self._output = output
        self.library = library or FunctionLibrary()
        self.gauge = gauge
        self.trace = trace
        #: Structured tracer (repro.obs.Tracer) or None — the fast path.
        self.tracer = tracer
        #: Provenance recorder (repro.obs.ProvenanceRecorder) or None.
        self.rec = recorder
        #: Incremental-memo session (repro.passes.incremental) or None —
        #: attached by the driver for pass 1 of a memoized run only.
        self.memo = None
        # Event counters, resolved once against the metrics registry so
        # the hot path pays one attribute check when telemetry is off.
        if metrics is not None:
            self._c_elided = metrics.counter("evt.copyrule_elided")
            self._c_saves = metrics.counter("evt.subsume_saves")
            self._c_restores = metrics.counter("evt.subsume_restores")
            self._c_dead = metrics.counter("evt.dead_attrs_skipped")
        else:
            self._c_elided = None
            self._c_saves = None
            self._c_restores = None
            self._c_dead = None
        #: Dead attribute instances dropped so far this pass; added to
        #: ``evt.dead_attrs_skipped`` once, by :meth:`flush_counters`.
        self._dead_skipped = 0
        #: The pass's input records and its get/put pair; the driver
        #: opens them once the memo session and I/O baseline are set.
        self.reader: Optional[Iterator[Any]] = None
        self.get: Optional[Callable[[str], list]] = None
        self.put: Optional[Callable[[list, Any], None]] = None
        if reader is not None:
            self.open(reader)

    # -- node I/O -----------------------------------------------------------

    def open(self, reader: Iterator[Any]) -> None:
        """Bind the pass's ``get``/``put`` pair over ``reader``.

        ``get(symbol)`` reads the next record, which must be a
        ``symbol``, and returns it as a node list (see
        :mod:`repro.apt.node`); ``put(node, fields)`` writes the node
        keeping only ``fields`` (the deadness analysis decides which
        instances are still alive).  Telemetry is chosen here: without
        a gauge, trace, tracer or memo session the plain pair runs and
        pays nothing per record for them.
        """
        self.reader = reader
        if (
            self.gauge is None
            and self.trace is None
            and self.tracer is None
            and self.memo is None
        ):
            self.get, self.put = self._plain_pair(reader)
        else:
            self.get, self.put = self._telemetered_pair(reader)

    def _plain_pair(self, reader: Iterator[Any]):
        read = reader.__next__
        append = self._output.append

        def get(expected: str) -> list:
            try:
                symbol, production, attrs, is_limb = read()
            except StopIteration:
                raise _exhausted(expected) from None
            if symbol != expected:
                raise _out_of_phase(expected, symbol)
            return [symbol, production, dict(attrs), is_limb]

        def put(node: list, fields) -> None:
            symbol, production, attrs, is_limb = node
            # A loop, not a comprehension: most records keep 0-2 fields,
            # where the comprehension's own frame costs more than it saves.
            live = {}
            for name in fields:
                if name in attrs:
                    live[name] = attrs[name]
            if len(live) != len(attrs):
                self._dead_skipped += len(attrs) - len(live)
            append((symbol, production, live, is_limb))

        return get, put

    def _telemetered_pair(self, reader: Iterator[Any]):
        read = reader.__next__
        append = self._output.append
        gauge = self.gauge
        trace = self.trace
        tracer = self.tracer
        memo = self.memo

        def get(expected: str) -> list:
            try:
                symbol, production, attrs, is_limb = read()
            except StopIteration:
                raise _exhausted(expected) from None
            if symbol != expected:
                raise _out_of_phase(expected, symbol)
            attrs = dict(attrs)
            index = None if memo is None else memo.next_index()
            size = 0
            if gauge is not None:
                # Residency is charged at the record size read; the
                # matching release uses the same figure (values computed
                # into the node during the visit live on the stack as
                # temporaries in the generated code's accounting).
                size = record_bytes(symbol, attrs)
                gauge.acquire(size)
            if trace is not None:
                trace.append(TraceEvent("get", symbol))
            return [symbol, production, attrs, is_limb, size, index]

        def put(node: list, fields) -> None:
            symbol, production, attrs, is_limb, size, _index = node
            live = {}
            for name in fields:
                if name in attrs:
                    live[name] = attrs[name]
            dropped = len(attrs) - len(live)
            if dropped:
                self._dead_skipped += dropped
                if tracer is not None:
                    tracer.instant("dead.skip", cat="evt", symbol=symbol, n=dropped)
            append((symbol, production, live, is_limb))
            if gauge is not None:
                gauge.release(size)
            if trace is not None:
                trace.append(TraceEvent("put", symbol))

        return get, put

    def skip_records(self, n: int) -> None:
        """Consume ``n`` input records without building nodes — the
        memo-hit path's input advance past a spliced subtree."""
        reader = self.reader
        for _ in range(n):
            try:
                next(reader)
            except StopIteration:
                raise EvaluationError(
                    "APT input exhausted while skipping a memoized subtree "
                    "(memo span disagrees with the spool)"
                ) from None

    def splice_record(self, record: Any) -> None:
        """Append an already-evaluated record verbatim to the output
        spool (memo-hit splice; bypasses node construction)."""
        self._output.append(record)

    def splice_blob(self, blob: bytes) -> None:
        """Append an already-*encoded* record verbatim (the raw memo
        splice: the output spool's codec was seeded from the splice
        source's name table, so the bytes need no decode/re-encode)."""
        self._output.append_blob(blob)

    def splice_blobs(self, blobs) -> None:
        """Bulk form of :meth:`splice_blob` — one whole memoized
        subtree's records in a single batched append."""
        self._output.append_blobs(blobs)

    @property
    def output_spool(self) -> Spool:
        """The pass's output spool (the memo session inspects it to
        decide whether the raw splice path applies)."""
        return self._output

    def out_index(self) -> int:
        """Record index the *next* ``put`` call will occupy in
        the output spool — the spool offset provenance events carry."""
        return self._output.n_records

    def at_end(self) -> bool:
        """True when the input spool is exhausted.  A record still
        there is not consumed: the pair is rebound with it pushed back."""
        for record in self.reader:
            self.open(_pushed_back(record, self.reader))
            return False
        return True

    def flush_counters(self) -> None:
        """Add the pass's accumulated event tallies to the registry."""
        if self._c_dead is not None and self._dead_skipped:
            self._c_dead.inc(self._dead_skipped)
        self._dead_skipped = 0

    # -- semantic-function services ------------------------------------------

    def call(self, name: str, *args: Any) -> Any:
        return self.library.call(name, *args)

    def constant(self, name: str) -> Any:
        return self.library.constant(name)

    @staticmethod
    def div(a: Any, b: Any) -> Any:
        """The DIV operator: integer division on ints, / otherwise."""
        if isinstance(a, int) and isinstance(b, int):
            return a // b
        return a / b

    def note_eval(self, detail: str) -> None:
        if self.trace is not None:
            self.trace.append(TraceEvent("eval", detail))

    def note_visit(self, detail: str) -> None:
        if self.trace is not None:
            self.trace.append(TraceEvent("visit", detail))

    # -- structured telemetry events ------------------------------------------

    def note_copyrule_elided(self, detail: str) -> None:
        """A copy-rule was subsumed by a global — no code, no traffic."""
        if self._c_elided is not None:
            self._c_elided.inc()
        if self.tracer is not None:
            self.tracer.instant("copyrule.elided", cat="evt", binding=detail)

    def note_subsume_save(self, group: str) -> None:
        """Entry-save of a subsumption global at a reassigning production."""
        if self._c_saves is not None:
            self._c_saves.inc()
        if self.tracer is not None:
            self.tracer.instant("subsume.save", cat="evt", group=group)

    def note_subsume_restore(self, group: str) -> None:
        """Exit-restore of a subsumption global."""
        if self._c_restores is not None:
            self._c_restores.inc()
        if self.tracer is not None:
            self.tracer.instant("subsume.restore", cat="evt", group=group)


def _exhausted(expected: str) -> EvaluationError:
    return EvaluationError(
        f"APT input exhausted while expecting a {expected!r} node"
    )


def _out_of_phase(expected: str, symbol: str) -> EvaluationError:
    return EvaluationError(
        f"APT input out of phase: expected {expected!r}, read {symbol!r} — "
        "the evaluator and the parser disagree about the phrase structure"
    )


def _pushed_back(record: Any, rest: Iterator[Any]) -> Iterator[Any]:
    yield record
    yield from rest


class EvaluationResult:
    """Outcome of a full multi-pass evaluation: the root's attributes
    (the translation result lives in the root's synthesized
    attribute-instances, §I) plus bookkeeping."""

    def __init__(self, root_attrs: Dict[str, Any], n_passes: int):
        self.root_attrs = dict(root_attrs)
        self.n_passes = n_passes

    def __getitem__(self, attr: str) -> Any:
        try:
            return self.root_attrs[attr]
        except KeyError:
            raise EvaluationError(
                f"root has no evaluated attribute {attr!r}; "
                f"available: {sorted(self.root_attrs)}"
            ) from None

    def __contains__(self, attr: str) -> bool:
        return attr in self.root_attrs

    def __repr__(self) -> str:
        return f"EvaluationResult({self.root_attrs!r}, passes={self.n_passes})"


def render_root_attrs(root_attrs: Dict[str, Any]) -> List[str]:
    """Render root attributes exactly as ``repro run`` prints them.

    This is THE canonical rendering: ``repro batch`` output files, the
    serve daemon's response bodies, and the differential harness all
    go through it, so "byte-identical across execution paths" is a
    property of one function.  Non-str iterables (``CatSeq`` chains,
    tuples) materialize as lists first.
    """
    lines = []
    for attr, value in sorted(root_attrs.items()):
        rendered = list(value) if hasattr(value, "__iter__") and not isinstance(
            value, str
        ) else value
        lines.append(f"{attr} = {rendered}")
    return lines

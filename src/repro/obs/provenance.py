"""Attribute provenance: recording and time-travel debugging.

The alternating-pass paradigm already *persists* every intermediate
attribute state: each pass streams the APT through a sealed spool file,
so the whole evaluation history sits on disk when a run finishes.  This
module adds the missing half of a time-travel debugger — a record of
**why** each attribute instance holds its value:

* :class:`ProvenanceRecorder` — attached to an evaluation (via
  ``Translator.translate(..., record=DIR)`` or ``repro run --record``),
  it captures one event per semantic-function instant: the (pass,
  production, node path, attribute, inputs-with-values, output value,
  output-spool offset) tuple, for both explicit ``compute`` instants
  and ``subsume`` instants (copy-rules elided into a static global).
  Events stream into ``DIR/provenance.ndjson``, a sealed line log
  (:mod:`repro.util.sealedlog`), published atomically (tmp + fsync +
  rename) once the seal line is written.
* :class:`ProvenanceLog` — opens and fully verifies a sealed log,
  indexing defines by (node path, attribute) and node writes by
  (pass, node path).  Any damage raises a typed
  :class:`~repro.errors.ProvenanceCorruptionError` naming the record.
* :class:`DebugSession` — the query engine behind ``repro debug``:
  ``why`` walks the dependency-directed backward slice across passes,
  ``history`` reads the attribute's value at every pass boundary out of
  the sealed spools (random access, no re-evaluation), ``step`` replays
  semantic-function instants around a cursor, and ``summary`` totals
  the recorded run.

Node identity is the **tree path** from the root: ``()`` is the root,
``(2, 1)`` is "second child's first child", and ``-1`` names a
production's limb node.  Paths are derived purely from the visit
discipline (the root-to-node stack), so the interpreter and the
generated evaluator — and fused and unfused pass plans — produce
directly comparable logs: the differential harness asserts the event
streams (and hence every backward slice) are identical.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.ag.model import LHS_POSITION, LIMB_POSITION
from repro.errors import ProvenanceCorruptionError, ProvenanceError
from repro.util import atomic_write as _aw
from repro.util import sealedlog

__all__ = [
    "PROV_FORMAT",
    "LOG_NAME",
    "ProvenanceRecorder",
    "ProvenanceLog",
    "ProvenanceScanReport",
    "DebugSession",
    "canonical_value",
    "input_keys",
    "parse_target",
    "render_path",
    "scan_provenance",
    "salvage_provenance",
]

#: Format tag in the header line; bump on incompatible layout changes.
PROV_FORMAT = "PROV1"

#: File name of the provenance log inside a record directory.
LOG_NAME = "provenance.ndjson"


def canonical_value(value: Any) -> str:
    """One attribute value as a canonical byte-comparable string.

    Matches the ``repro run`` / differential-harness rendering: non-str
    iterables (``CatSeq`` chains, tuples) materialize as lists, then
    everything goes through ``repr`` — so values recorded from lazy
    list structures compare equal across backends.  A dict renders by
    its own ``repr``, so its values count, not only its keys.
    """
    if hasattr(value, "__iter__") and not isinstance(value, (str, dict)):
        return repr(list(value))
    return repr(value)


def input_keys(binding) -> List[Tuple[int, str]]:
    """The deterministic input-occurrence keys of a binding, deduplicated
    in first-reference order — the shared keying that makes interpreter
    and generated-evaluator provenance events byte-comparable."""
    from repro.ag.dependencies import binding_argument_keys

    return list(dict.fromkeys(binding_argument_keys(binding)))


def render_path(path: Iterable[int]) -> str:
    """Render a node path as the CLI spells it: ``root``, ``root.2.1``,
    ``root.1.limb`` (``-1`` is the production's limb node)."""
    parts = ["root"]
    for p in path:
        parts.append("limb" if p == LIMB_POSITION else str(p))
    return ".".join(parts)


def parse_target(spec: str) -> Tuple[Tuple[int, ...], str]:
    """Parse a ``NODE.ATTR`` target: ``root.2.1.VAL`` -> ((2, 1), "VAL").

    The leading ``root`` is optional; path components are 1-based child
    positions or ``limb``; the last component is the attribute name.
    """
    parts = [p for p in spec.split(".") if p != ""]
    if not parts:
        raise ProvenanceError(f"empty debug target {spec!r}")
    attr = parts[-1]
    comps = parts[:-1]
    if comps and comps[0] == "root":
        comps = comps[1:]
    path: List[int] = []
    for comp in comps:
        if comp == "limb":
            path.append(LIMB_POSITION)
        elif comp.isdigit() and int(comp) >= 1:
            path.append(int(comp))
        else:
            raise ProvenanceError(
                f"bad node-path component {comp!r} in target {spec!r}; "
                "expected 'root', a 1-based child position, or 'limb' "
                "(attribute name goes last: root.2.1.VAL)"
            )
    return tuple(path), attr


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------


class ProvenanceRecorder:
    """Streams provenance events for one evaluation into a sealed log.

    Constructed with the static facts (grammar, backend, productions);
    the driver calls :meth:`begin_run` once (writing the header line),
    :meth:`begin_pass` per pass, and :meth:`seal` after the last pass.
    The evaluators call :meth:`define` at every semantic-function
    instant, :meth:`put` before every node write, and
    :meth:`enter_child`/:meth:`exit_child` around child visits (the
    root-to-node stack discipline that yields node paths).

    Events stream into ``<dir>/provenance.ndjson.tmp``; :meth:`seal`
    writes the seal line, fsyncs, and atomically renames — a crash
    mid-run leaves no sealed log, never a silently truncated one.
    """

    def __init__(
        self,
        directory: str,
        grammar: str,
        backend: str,
        start: str,
        productions,
        metrics=None,
    ):
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.path = os.path.join(directory, LOG_NAME)
        self._tmp_path = self.path + ".tmp"
        self._grammar = grammar
        self._backend = backend
        self._start = start
        #: Self-contained production table [index, lhs, rhs_len, limb, tag]
        #: so the query engine never needs to rebuild the grammar.
        self._productions = [
            [p.index, p.lhs, len(p.rhs), p.limb or "", p.tag]
            for p in productions
        ]
        self._log: Optional[sealedlog.Appender] = None
        self._seq = 0
        self._pass_k = 0
        self._path_stack: List[int] = []
        self._sealed = False
        if metrics is not None:
            self._c_instants = metrics.counter("provenance.instants")
            self._c_puts = metrics.counter("provenance.puts")
            self._c_bytes = metrics.counter("provenance.bytes_written")
            self._c_passes = metrics.counter("provenance.passes_recorded")
        else:
            self._c_instants = None
            self._c_puts = None
            self._c_bytes = None
            self._c_passes = None

    # -- lifecycle ---------------------------------------------------------

    def begin_run(
        self, strategy: str, directions: List[str], resumed_from: int = 0
    ) -> None:
        """Open the log and write the header (driver calls this once)."""
        if self._log is not None:
            raise ProvenanceError("provenance recorder already started")
        self._log = sealedlog.Appender(
            _aw.open_file(self._tmp_path, "w", encoding="utf-8")
        )
        self._emit(
            {
                "e": "hdr",
                "format": PROV_FORMAT,
                "grammar": self._grammar,
                "backend": self._backend,
                "start": self._start,
                "strategy": strategy,
                "n_passes": len(directions),
                "directions": directions,
                "resumed_from": resumed_from,
                "productions": self._productions,
            },
            count=False,
        )

    def begin_pass(self, pass_k: int, direction: str) -> None:
        self._pass_k = pass_k
        self._path_stack = []
        self._emit({"e": "pass", "i": self._seq, "p": pass_k, "d": direction})
        if self._c_passes is not None:
            self._c_passes.inc()

    def seal(self) -> None:
        """Write the seal line and atomically publish the log."""
        if self._sealed or self._log is None:
            return
        f = self._log.f
        try:
            self._log.seal(self._seq)
            _aw.fsync_file(f)
            f.close()
            self._log = None
            _aw.atomic_replace(self._tmp_path, self.path)
        except BaseException:
            # A fault while sealing (ENOSPC, failed fsync/rename) must
            # not leave an open fd or a half-published log: close the
            # writer and leave the classifiable ``.tmp`` for doctor.
            if self._log is not None:
                try:
                    f.close()
                except OSError:
                    pass
                self._log = None
            raise
        self._sealed = True

    def abort(self) -> None:
        """Close the unsealed temp log after a failed run (the .tmp file
        is left on disk as evidence; it never shadows a sealed log)."""
        if self._log is not None:
            self._log.f.close()
            self._log = None

    # -- event hooks (hot path) --------------------------------------------

    def enter_child(self, position: int) -> None:
        self._path_stack.append(position)

    def exit_child(self) -> None:
        self._path_stack.pop()

    def _node_path(self, position: int) -> List[int]:
        if position == LHS_POSITION:
            return list(self._path_stack)
        return self._path_stack + [position]

    def define(
        self,
        prod_index: int,
        position: int,
        attr: str,
        value: Any,
        inputs,
        kind: str,
        expr: str,
        out_index: int,
    ) -> None:
        """One semantic-function instant: ``kind`` is ``"compute"`` for
        an evaluated binding or ``"subsume"`` for a copy-rule elided
        into a static global; ``inputs`` is ``[(position, attr, value),
        ...]`` in :func:`input_keys` order; ``out_index`` is the output
        spool record index the owning node will be written at."""
        self._emit(
            {
                "e": "def",
                "i": self._seq,
                "p": self._pass_k,
                "pr": prod_index,
                "n": self._node_path(position),
                "a": attr,
                "v": canonical_value(value),
                "in": [
                    [self._node_path(p), a, canonical_value(v)]
                    for p, a, v in inputs
                ],
                "k": kind,
                "x": expr,
                "o": out_index,
            }
        )
        if self._c_instants is not None:
            self._c_instants.inc()

    def put(self, position: int, symbol: str, out_index: int) -> None:
        """The node at ``position`` is about to be written as record
        ``out_index`` of this pass's output spool."""
        self._emit(
            {
                "e": "put",
                "i": self._seq,
                "p": self._pass_k,
                "n": self._node_path(position),
                "s": symbol,
                "o": out_index,
            }
        )
        if self._c_puts is not None:
            self._c_puts.inc()

    def reuse(
        self, symbol: str, n_records: int, out_start: int, out_len: int
    ) -> None:
        """A memoized subtree was *spliced* instead of visited (see
        :mod:`repro.passes.incremental`): ``n_records`` input records
        under the ``symbol`` node were skipped and ``out_len`` sealed
        output records were copied to ``out_start``.  No define/put
        events exist for the spliced region — this instant is the
        provenance of the whole reuse."""
        self._emit(
            {
                "e": "reuse",
                "i": self._seq,
                "p": self._pass_k,
                "n": list(self._path_stack),
                "s": symbol,
                "r": n_records,
                "o": out_start,
                "l": out_len,
            }
        )
        if self._c_instants is not None:
            self._c_instants.inc()

    def _emit(self, obj: Dict[str, Any], count: bool = True) -> None:
        if self._log is None:
            raise ProvenanceError(
                "provenance recorder is not open (begin_run was never "
                "called, or the log was already sealed)"
            )
        line = self._log.append(obj)
        if count:
            self._seq += 1
        if self._c_bytes is not None:
            self._c_bytes.inc(len(line))


# ---------------------------------------------------------------------------
# verification + loading
# ---------------------------------------------------------------------------


def _resolve_log_path(path_or_dir: str) -> str:
    if os.path.isdir(path_or_dir):
        return os.path.join(path_or_dir, LOG_NAME)
    return path_or_dir


class ProvenanceScanReport(sealedlog.SealedScan):
    """Outcome of scanning (or salvaging) a provenance log: the PROV1
    schema over the sealed line log — a seal is required and events
    carry contiguous sequence numbers."""

    tag = PROV_FORMAT
    error_type = ProvenanceCorruptionError

    def entry(self, obj: Dict[str, Any], index: int, line: str) -> dict:
        if obj.get("i") != index - 1:
            raise ProvenanceCorruptionError(
                f"event sequence broken at record {index}: "
                f"expected seq {index - 1}, found {obj.get('i')!r}",
                record_index=index,
                path=self.path,
                reason="framing",
            )
        return obj

    @property
    def n_valid(self) -> int:
        """Valid leading records (header + events + seal when clean)."""
        return len(self.records) + self.sealed

    @property
    def n_events(self) -> int:
        return len(self.records) - 1 if self.ok else 0

    def render(self) -> str:
        head = f"provenance log: {self.path}"
        if self.ok:
            return (
                f"{head}\n  format {PROV_FORMAT}, sealed, "
                f"{self.n_events} event(s), {self.n_valid} record(s) verified"
            )
        return (
            f"{head}\n  CORRUPT at {self.error.locus()} "
            f"[{self.error.reason}]: {self.error}\n"
            f"  valid prefix: {self.n_valid} record(s)"
        )


class ProvenanceLog:
    """A fully verified, indexed, sealed provenance log."""

    def __init__(self, path: str, header: Dict[str, Any], events: List[dict]):
        self.path = path
        self.header = header
        self.events = events
        #: (node path, attr) -> define events in seq order.
        self.defines: Dict[Tuple[Tuple[int, ...], str], List[dict]] = {}
        #: (pass, node path) -> put event.
        self.puts: Dict[Tuple[int, Tuple[int, ...]], dict] = {}
        #: node path -> symbol (from put events; the root from the header).
        self.symbols: Dict[Tuple[int, ...], str] = {(): header.get("start", "?")}
        #: pass-boundary marker events in order.
        self.pass_marks: List[dict] = []
        #: production index -> [index, lhs, rhs_len, limb, tag].
        self.productions: Dict[int, list] = {
            int(row[0]): row for row in header.get("productions", [])
        }
        for ev in events:
            kind = ev.get("e")
            if kind == "def":
                key = (tuple(ev["n"]), ev["a"])
                self.defines.setdefault(key, []).append(ev)
            elif kind == "put":
                p = tuple(ev["n"])
                self.puts[(ev["p"], p)] = ev
                self.symbols[p] = ev["s"]
            elif kind == "pass":
                self.pass_marks.append(ev)

    # -- loading -----------------------------------------------------------

    @classmethod
    def open(cls, path_or_dir: str) -> "ProvenanceLog":
        """Open + verify a sealed log (every line's CRC, seq contiguity,
        and the stream seal); raise the typed corruption error on any
        damage, naming the damaged record."""
        path = _resolve_log_path(path_or_dir)
        if not os.path.exists(path):
            hint = ""
            if os.path.exists(path + ".tmp"):
                hint = (
                    " (an unsealed .tmp log exists — the recorded run "
                    "died before sealing)"
                )
            raise ProvenanceError(
                f"no sealed provenance log at {path}{hint}; record one "
                "with `repro run ... --record DIR`"
            )
        report = scan_provenance(path)
        if report.error is not None:
            raise report.error
        return cls(path, report.records[0], report.records[1:])

    # -- convenience -------------------------------------------------------

    def define_of(
        self,
        path: Tuple[int, ...],
        attr: str,
        before_seq: Optional[int] = None,
    ) -> Optional[dict]:
        """The most recent define of ``path.attr`` (optionally before a
        consumer's seq — the backward-slice resolution rule)."""
        evs = self.defines.get((path, attr))
        if not evs:
            return None
        if before_seq is None:
            return evs[-1]
        best = None
        for ev in evs:
            if ev["i"] < before_seq:
                best = ev
        return best

    def production_tag(self, index: int) -> str:
        row = self.productions.get(index)
        return row[4] if row else f"P{index}"

    @property
    def n_passes(self) -> int:
        return int(self.header.get("n_passes", 0))

    @property
    def directions(self) -> List[str]:
        return list(self.header.get("directions", []))


# ---------------------------------------------------------------------------
# fsck support
# ---------------------------------------------------------------------------


def scan_provenance(path: str, metrics=None) -> ProvenanceScanReport:
    """Verify a provenance log for ``repro fsck``; never raises."""
    report = ProvenanceScanReport.scan(_resolve_log_path(path)).require_seal()
    if metrics is not None:
        name = "clean" if report.ok else "corrupt"
        metrics.counter(f"robust.provenance_scan_{name}").inc()
    return report


def salvage_provenance(path: str, out: str, metrics=None) -> ProvenanceScanReport:
    """Recover the longest valid prefix of a damaged log into a freshly
    sealed log at ``out`` (parallel to ``salvage_spool``).  The prefix
    ends at the first damage, sequence breaks included, so its events
    are already contiguous."""
    report = scan_provenance(path, metrics=metrics)
    if not report.records:
        raise ProvenanceCorruptionError(
            "cannot salvage: no valid header line",
            record_index=0,
            path=path,
            reason="header",
        )
    sealedlog.reseal(out, [sealedlog.frame(r) for r in report.records])
    if metrics is not None:
        metrics.counter("robust.provenance_records_salvaged").inc(
            len(report.records) - 1
        )
    return report


# ---------------------------------------------------------------------------
# the query engine
# ---------------------------------------------------------------------------


class DebugSession:
    """Time-travel queries over one recorded run directory.

    The directory holds the sealed provenance log plus the recorded
    run's sealed artifacts: ``initial.spool``, one ``pass<k>.spool``
    per pass, and the checkpoint manifest.  Node states are read out of
    the sealed spools by random access — nothing is re-evaluated.
    """

    def __init__(self, directory: str, metrics=None):
        self.directory = directory
        self.log = ProvenanceLog.open(directory)
        self.metrics = metrics
        self._readers: Dict[int, Any] = {}
        self._initial_states: Optional[Dict[Tuple[int, ...], tuple]] = None

    def _count(self, name: str, n: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(n)

    # -- spool access ------------------------------------------------------

    def _reader(self, pass_k: int):
        """RandomAccessReader over pass ``k``'s sealed spool, or None."""
        if pass_k in self._readers:
            return self._readers[pass_k]
        from repro.apt.storage import DiskSpool, RandomAccessReader

        path = os.path.join(self.directory, f"pass{pass_k}.spool")
        reader = None
        if os.path.exists(path):
            reader = RandomAccessReader(
                DiskSpool.open(path, channel=f"pass{pass_k}.debug")
            )
        self._readers[pass_k] = reader
        return reader

    def node_record(self, pass_k: int, path: Tuple[int, ...]):
        """``(record, address)`` of a node in pass ``k``'s sealed spool
        (via its put event + random access), or ``(None, None)``."""
        put = self.log.puts.get((pass_k, path))
        if put is None:
            return None, None
        reader = self._reader(pass_k)
        if reader is None:
            return None, None
        index = put["o"]
        record = reader.record(index)
        self._count("debug.spool_records_fetched")
        return record, reader.address(pass_k, index)

    def _initial_attrs(self, path: Tuple[int, ...]) -> Optional[dict]:
        """Attrs of a node in the initial (parser-emitted) spool, by a
        one-time reconstruction walk; None when unavailable."""
        if self._initial_states is None:
            self._initial_states = self._walk_initial()
        state = self._initial_states.get(path)
        return state[1] if state is not None else None

    def _walk_initial(self) -> Dict[Tuple[int, ...], tuple]:
        """path -> (symbol, attrs) from ``initial.spool`` (postfix only;
        prefix-strategy recordings skip initial-state resolution)."""
        path = os.path.join(self.directory, "initial.spool")
        if not os.path.exists(path) or self.log.header.get("strategy") != "bottom-up":
            return {}
        from repro.apt.storage import DiskSpool

        spool = DiskSpool.open(path, channel="initial.debug")
        prods = self.log.productions
        stack: List[tuple] = []  # (symbol, attrs, children, limb)
        pending_limb: Optional[tuple] = None
        for record in spool.read_forward():
            symbol, production, attrs, is_limb = record
            if is_limb:
                pending_limb = (symbol, attrs, [], None)
                continue
            if production is None:
                stack.append((symbol, attrs, [], None))
                continue
            row = prods.get(production)
            arity = row[2] if row else 0
            has_limb = bool(row and row[3])
            children = stack[len(stack) - arity:] if arity else []
            del stack[len(stack) - arity:]
            limb = pending_limb if has_limb else None
            pending_limb = None
            stack.append((symbol, attrs, children, limb))
        out: Dict[Tuple[int, ...], tuple] = {}

        def assign(node: tuple, path_: Tuple[int, ...]) -> None:
            symbol, attrs, children, limb = node
            out[path_] = (symbol, attrs)
            if limb is not None:
                out[path_ + (LIMB_POSITION,)] = (limb[0], limb[1])
            for j, child in enumerate(children):
                assign(child, path_ + (j + 1,))

        if len(stack) == 1:
            assign(stack[0], ())
        return out

    # -- why: the dependency-directed backward slice -----------------------

    def why(
        self, path: Tuple[int, ...], attr: str, max_depth: int = 8
    ) -> dict:
        """The backward slice of ``path.attr``: the semantic-function
        instant that defined it and, recursively, the instants that
        defined each input — across passes, resolving every input to
        its most recent define before the consumer's instant."""
        self._count("debug.queries_why")
        return self._slice(path, attr, None, None, max_depth)

    def _slice(
        self,
        path: Tuple[int, ...],
        attr: str,
        value_hint: Optional[str],
        before_seq: Optional[int],
        depth: int,
    ) -> dict:
        ev = self.log.define_of(path, attr, before_seq)
        value = ev["v"] if ev is not None else value_hint
        if value is None:
            value = self._spool_value(path, attr)
        node = {
            "path": path,
            "attr": attr,
            "value": value,
            "event": ev,
            "inputs": [],
            "truncated": False,
        }
        if ev is None or depth <= 0:
            node["truncated"] = ev is not None and depth <= 0
            return node
        for in_path, in_attr, in_value in ev.get("in", []):
            node["inputs"].append(
                self._slice(
                    tuple(in_path), in_attr, in_value, ev["i"], depth - 1
                )
            )
        return node

    def _spool_value(self, path: Tuple[int, ...], attr: str) -> Optional[str]:
        """Last recorded value of ``path.attr`` out of the sealed spools
        (latest pass first, then the initial spool)."""
        for mark in reversed(self.log.pass_marks):
            record, _addr = self.node_record(mark["p"], path)
            if record is not None and attr in record[2]:
                return canonical_value(record[2][attr])
        attrs = self._initial_attrs(path)
        if attrs is not None and attr in attrs:
            return canonical_value(attrs[attr])
        return None

    def slice_instants(self, node: dict) -> List[tuple]:
        """Flatten a slice into ``(seq, path, attr, value, kind)`` rows —
        the comparable essence the differential test asserts on."""
        out = []

        def walk(n: dict) -> None:
            ev = n["event"]
            out.append(
                (
                    ev["i"] if ev else None,
                    n["path"],
                    n["attr"],
                    n["value"],
                    ev["k"] if ev else "leaf",
                )
            )
            for child in n["inputs"]:
                walk(child)

        walk(node)
        return out

    def render_why(self, target: str, max_depth: int = 8) -> str:
        path, attr = parse_target(target)
        node = self.why(path, attr, max_depth=max_depth)
        lines = [f"why {render_path(path)}.{attr}"]
        seen: Dict[Tuple[Tuple[int, ...], str], int] = {}

        def emit(n: dict, depth: int, marker: str) -> None:
            indent = "   " * depth
            head = f"{render_path(n['path'])}.{n['attr']} = {n['value']}"
            key = (n["path"], n["attr"])
            ev = n["event"]
            if key in seen and ev is not None:
                lines.append(
                    f"{indent}{marker}{head}  (see #{seen[key]} above)"
                )
                return
            lines.append(f"{indent}{marker}{head}")
            pad = indent + (" " * len(marker))
            if ev is None:
                lines.append(
                    f"{pad}| intrinsic: no recorded semantic-function "
                    "instant (scanner/parser-supplied, or defined "
                    "before a resumed recording began)"
                )
                return
            seen[key] = ev["i"]
            tag = self.log.production_tag(ev["pr"])
            lines.append(
                f"{pad}| #{ev['i']} {ev['k']} in pass {ev['p']}, "
                f"production {ev['pr']} ({tag}): {ev['x']}"
            )
            record, addr = self.node_record(ev["p"], n["path"])
            if addr is not None:
                lines.append(
                    f"{pad}| stored at spool address {addr.render()} "
                    f"(pass{ev['p']}.spool record {ev['o']})"
                )
            if n["truncated"]:
                lines.append(f"{pad}| ... inputs elided (--max-depth)")
                return
            for child in n["inputs"]:
                emit(child, depth + 1, "<- ")

        emit(node, 0, "")
        return "\n".join(lines)

    # -- history: value at every pass boundary -----------------------------

    def history(self, path: Tuple[int, ...], attr: str) -> List[dict]:
        self._count("debug.queries_history")
        ev = self.log.define_of(path, attr)
        def_pass = ev["p"] if ev is not None else None
        rows: List[dict] = []
        attrs0 = self._initial_attrs(path)
        rows.append(
            {
                "stage": "initial",
                "value": canonical_value(attrs0[attr])
                if attrs0 is not None and attr in attrs0
                else None,
                "status": "intrinsic"
                if attrs0 is not None and attr in attrs0
                else "absent",
                "address": None,
            }
        )
        for mark in self.log.pass_marks:
            k = mark["p"]
            record, addr = self.node_record(k, path)
            if record is None:
                rows.append(
                    {"stage": f"pass {k}", "value": None,
                     "status": "no sealed record", "address": None}
                )
                continue
            attrs = record[2]
            if attr in attrs:
                status = "defined here" if def_pass == k else "carried"
                rows.append(
                    {
                        "stage": f"pass {k}",
                        "value": canonical_value(attrs[attr]),
                        "status": status,
                        "address": addr,
                    }
                )
            else:
                status = (
                    "not yet defined"
                    if def_pass is None or k < def_pass
                    else "dropped (dead-attribute suppression)"
                )
                rows.append(
                    {"stage": f"pass {k}", "value": None,
                     "status": status, "address": addr}
                )
        return rows

    def render_history(self, target: str) -> str:
        path, attr = parse_target(target)
        rows = self.history(path, attr)
        lines = [f"history {render_path(path)}.{attr}"]
        width = max(len(r["stage"]) for r in rows)
        for r in rows:
            value = "(absent)" if r["value"] is None else r["value"]
            addr = f"  [{r['address'].render()}]" if r["address"] else ""
            lines.append(
                f"  {r['stage']:<{width}} : {value}  ({r['status']}){addr}"
            )
        ev = self.log.define_of(path, attr)
        if ev is not None:
            tag = self.log.production_tag(ev["pr"])
            lines.append(
                f"  defined by #{ev['i']} ({ev['k']}) in pass {ev['p']}, "
                f"production {ev['pr']} ({tag})"
            )
        else:
            lines.append("  no recorded semantic-function instant (intrinsic)")
        return "\n".join(lines)

    # -- step: replay instants around a cursor -----------------------------

    def step(
        self,
        at: Optional[int] = None,
        count: int = 10,
        backward: bool = False,
    ) -> List[dict]:
        self._count("debug.queries_step")
        events = self.log.events
        if not events:
            return []
        if at is None:
            at = events[-1]["i"] if backward else 0
        if not 0 <= at < len(events):
            raise ProvenanceError(
                f"cursor {at} out of range (log has events #0..#{len(events) - 1})"
            )
        if backward:
            lo = max(0, at - count + 1)
            return events[lo:at + 1]
        return events[at:at + count]

    def render_event(self, ev: dict, cursor: bool = False) -> List[str]:
        mark = ">> " if cursor else "   "
        kind = ev.get("e")
        if kind == "pass":
            return [f"{mark}#{ev['i']} -- pass {ev['p']} begins ({ev['d']})"]
        if kind == "put":
            return [
                f"{mark}#{ev['i']} put {render_path(tuple(ev['n']))} "
                f"({ev['s']}) -> pass{ev['p']}.spool record {ev['o']}"
            ]
        if kind == "reuse":
            return [
                f"{mark}#{ev['i']} reuse {ev['s']} subtree under "
                f"{render_path(tuple(ev['n']))}: {ev['r']} input records "
                f"spliced as pass{ev['p']}.spool records "
                f"[{ev['o']}, {ev['o'] + ev['l']})"
            ]
        tag = self.log.production_tag(ev["pr"])
        lines = [
            f"{mark}#{ev['i']} def {render_path(tuple(ev['n']))}.{ev['a']} "
            f"= {ev['v']}  ({ev['k']}, pass {ev['p']}, prod {ev['pr']} {tag})"
        ]
        if cursor:
            for in_path, in_attr, in_value in ev.get("in", []):
                lines.append(
                    f"       <- {render_path(tuple(in_path))}.{in_attr} "
                    f"= {in_value}"
                )
            record, addr = self.node_record(ev["p"], tuple(ev["n"]))
            if record is not None:
                attrs = ", ".join(
                    f"{k}={canonical_value(v)}"
                    for k, v in sorted(record[2].items())
                )
                lines.append(
                    f"       node state after pass {ev['p']} "
                    f"[{addr.render()}]: {{{attrs}}}"
                )
        return lines

    def render_step(
        self,
        at: Optional[int] = None,
        count: int = 10,
        backward: bool = False,
    ) -> str:
        events = self.step(at=at, count=count, backward=backward)
        if not events:
            return "step: the log records no events"
        cursor_seq = events[-1]["i"] if backward else events[0]["i"]
        arrow = "backward" if backward else "forward"
        lines = [
            f"step {arrow} from #{cursor_seq} "
            f"({len(events)} of {len(self.log.events)} instants)"
        ]
        for ev in events:
            lines.extend(self.render_event(ev, cursor=ev["i"] == cursor_seq))
        return "\n".join(lines)

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict:
        self._count("debug.queries_summary")
        per_pass: Dict[int, Dict[str, int]] = {}
        per_prod: Dict[int, int] = {}
        per_attr: Dict[str, int] = {}
        n_defines = n_subsumed = n_puts = 0
        for ev in self.log.events:
            kind = ev.get("e")
            if kind == "pass":
                per_pass.setdefault(ev["p"], {"defines": 0, "puts": 0})
            elif kind == "def":
                n_defines += 1
                if ev["k"] == "subsume":
                    n_subsumed += 1
                per_pass.setdefault(ev["p"], {"defines": 0, "puts": 0})[
                    "defines"
                ] += 1
                per_prod[ev["pr"]] = per_prod.get(ev["pr"], 0) + 1
                per_attr[ev["a"]] = per_attr.get(ev["a"], 0) + 1
            elif kind == "put":
                n_puts += 1
                per_pass.setdefault(ev["p"], {"defines": 0, "puts": 0})[
                    "puts"
                ] += 1
        return {
            "header": self.log.header,
            "n_events": len(self.log.events),
            "n_defines": n_defines,
            "n_subsumed": n_subsumed,
            "n_puts": n_puts,
            "per_pass": per_pass,
            "per_production": per_prod,
            "per_attribute": per_attr,
        }

    def render_summary(self) -> str:
        s = self.summary()
        h = s["header"]
        directions = ", ".join(h.get("directions", []))
        lines = [
            f"provenance summary: {self.log.path}",
            f"  grammar {h.get('grammar')!r}, backend {h.get('backend')}, "
            f"strategy {h.get('strategy')}, "
            f"{h.get('n_passes')} pass(es) ({directions})",
            f"  {s['n_events']} events: {s['n_defines']} defines "
            f"({s['n_subsumed']} subsumed), {s['n_puts']} node writes",
        ]
        if h.get("resumed_from"):
            lines.append(
                f"  resumed recording: passes 1..{h['resumed_from']} "
                "replayed from checkpoint (not re-recorded)"
            )
        for k in sorted(s["per_pass"]):
            row = s["per_pass"][k]
            lines.append(
                f"  pass {k}: {row['defines']} defines, {row['puts']} writes"
            )
        prods = sorted(
            s["per_production"].items(), key=lambda kv: (-kv[1], kv[0])
        )[:8]
        if prods:
            lines.append(
                "  busiest productions: "
                + ", ".join(
                    f"{self.log.production_tag(i)}={n}" for i, n in prods
                )
            )
        attrs = sorted(
            s["per_attribute"].items(), key=lambda kv: (-kv[1], kv[0])
        )[:8]
        if attrs:
            lines.append(
                "  busiest attributes: "
                + ", ".join(f"{a}={n}" for a, n in attrs)
            )
        return "\n".join(lines)

    def close(self) -> None:
        for reader in self._readers.values():
            if reader is not None:
                reader.close()
        self._readers.clear()

    def __enter__(self) -> "DebugSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

"""Incremental re-translation: APT subtree memoization (MEMO1).

LINGUIST-86's root-to-node-stack pass discipline means the attribute
state live at any node is exactly the stack above it, which makes a
"dirty spine" cut well-defined: a sealed subtree whose inherited
context is unchanged must produce byte-identical output (attributed
tree translations decompose over subtrees — Hashimoto & Maneth).

This module exploits that.  A :class:`MemoStore` lives in a directory
next to nothing else (``memo_dir``) and holds, across translations of
*different* inputs with the *same* translator:

* the sealed v3 spool of **every pass** of the previous run
  (``pass<k>.g<N>.spool`` — generation-numbered so a splice source is
  never the file being written), and
* a ``MEMO1`` manifest (``memo.ndjson``, a sealed line log —
  :mod:`repro.util.sealedlog`, shared with PROV1 and SRVJ1) of
  per-pass entries mapping ``(subtree hash, inherited-context
  fingerprint)`` to the output record range that subtree produced, its
  input span, and the post-visit attribute/global state.

The memo is *per pass* because every pass of the alternating paradigm
reads a subtree-contiguous spool and writes a postfix spool (the §II
reversal trick): pass 1 splices against the parser's postfix (or
prefix) emission, pass k against pass k-1's postfix output.  On
re-translation the evaluator consults the memo at every candidate
``VISIT``: a hit **splices** the memoized record range out of the
sealed spool (random block access via
:class:`~repro.apt.storage.RandomAccessReader`) instead of evaluating
the subtree, skips the matching input records, and restores the
post-visit state — only the dirty spine from the edit site to the root
is re-evaluated, in every pass.  Resumed (checkpoint-restart) runs
always evaluate cold — one of the documented invalidation rules
(docs/performance.md).

Any integrity failure (foreign manifest, stale spool identity, CRC
damage, unpicklable payload) degrades to a **silent cold miss** — a
corrupt memo can cost speed, never correctness.  ``repro fsck`` and
``repro doctor`` verify and salvage the manifest like every other
sealed artifact.
"""

from __future__ import annotations

import base64
import bisect
import hashlib
import os
import pickle
import re
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.ag.model import AttributeGrammar
from repro.apt.node import RECORD_INDEX
from repro.apt.storage import (
    DiskSpool,
    RandomAccessReader,
    Spool,
    matches_descriptor,
    spool_descriptor,
)
from repro.errors import MemoCorruptionError
from repro.lalr.grammar import EOF_SYMBOL
from repro.obs.provenance import canonical_value
from repro.util import sealedlog
from repro.util.lists import DIGEST_RULE, feed_value

__all__ = [
    "MEMO_FORMAT",
    "MEMO_LOG",
    "MEMO_HIT",
    "DEFAULT_MIN_SPAN",
    "MemoEntry",
    "MemoScanReport",
    "MemoSession",
    "MemoStore",
    "SubtreeIndex",
    "looks_like_memo_manifest",
    "memo_identity",
    "postfix_subtree_index",
    "prefix_subtree_index",
    "record_digest",
    "salvage_memo",
    "scan_memo",
]

#: Format tag in the manifest header line; bump on layout changes.
MEMO_FORMAT = "MEMO1"

#: Manifest file name inside a memo directory.
MEMO_LOG = "memo.ndjson"

#: Subtrees smaller than this many APT records are never memoized —
#: the fingerprint would cost more than the evaluation it saves.
DEFAULT_MIN_SPAN = 8

_GEN_RE = re.compile(r"^pass(\d+)\.g(\d+)\.spool$")


class _Hit:
    """Sentinel returned by :meth:`MemoSession.enter_*` on a splice."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "<MEMO_HIT>"


#: The hit sentinel the generated memo variant tests against.
MEMO_HIT = _Hit()


# ---------------------------------------------------------------------------
# subtree hashing
# ---------------------------------------------------------------------------


def record_digest(record: tuple) -> bytes:
    """Structural digest of one APT record.

    Computed over the *decoded* tuple — symbol, production index, limb
    flag, and every attribute rendered through
    :func:`~repro.obs.provenance.canonical_value` — so it is invariant
    under spool round-trips and name-table interning.  Decoded records
    carry no cached content digests, so rendering is cheaper here than
    :func:`~repro.util.lists.feed_value`; the subtree hash built from
    these digests and the context fingerprint are independent parts of
    a memo key.
    """
    symbol, production, attrs, is_limb = record
    h = hashlib.blake2b(digest_size=16)
    h.update(symbol.encode("utf-8"))
    h.update(b"\x00L" if is_limb else b"\x00N")
    h.update(str(production).encode("ascii"))
    for name in sorted(attrs):
        h.update(b"\x00")
        h.update(name.encode("utf-8"))
        h.update(b"=")
        h.update(canonical_value(attrs[name]).encode("utf-8"))
    return h.digest()


class SubtreeIndex:
    """Per-record subtree hashes, spans and structure of one APT record
    stream.

    ``hashes[i]`` covers the whole subtree rooted at forward index
    ``i`` and ``spans[i]`` is its record count.  Both emission orders
    keep every subtree contiguous: in postfix order the root is the
    subtree's *last* record (``[i - spans[i] + 1, i]``), in prefix
    order its *first* (``[i, i + spans[i] - 1]``).

    The structure arrays are what a dirty-spine rehash
    (:func:`_rehash_spine`) needs: ``own[i]`` is the record digest
    (≠ the subtree hash for interiors); ``parts[i]`` the ordered
    positions whose subtree hashes (or :data:`_OWN` for the record's
    own digest) combine into the node's subtree hash, None for leaves
    and limbs; ``parent[i]`` the enclosing node's position (-1 at the
    root).
    """

    __slots__ = ("hashes", "spans", "own", "parts", "parent")

    def __init__(
        self,
        hashes: List[bytes],
        spans: List[int],
        own: List[bytes],
        parts: List[Optional[List[int]]],
        parent: List[int],
    ):
        self.hashes = hashes
        self.spans = spans
        self.own = own
        self.parts = parts
        self.parent = parent


#: Sentinel position in a ``parts`` list standing for the node's *own*
#: record digest (as opposed to a child/limb subtree hash position).
_OWN = -1


def postfix_subtree_index(
    records: Iterable[tuple], ag: AttributeGrammar
) -> SubtreeIndex:
    """Hash every subtree of a postfix record stream in one sweep.

    Mirrors the stack discipline of
    :func:`~repro.evalgen.driver.reconstruct_tree`: leaves and limbs
    hash to their own record digest; an interior node combines its
    children's subtree hashes (in order), its limb's, and its own
    record digest.
    """
    hashes: List[bytes] = []
    spans: List[int] = []
    own: List[bytes] = []
    parts: List[Optional[List[int]]] = []
    parent: List[int] = []
    stack: List[Tuple[int, int, bytes]] = []  # (start, root_pos, digest)
    limb: Optional[Tuple[int, bytes]] = None
    for i, record in enumerate(records):
        _symbol, production, _attrs, is_limb = record
        d = record_digest(record)
        own.append(d)
        parts.append(None)
        parent.append(-1)
        if is_limb:
            hashes.append(d)
            spans.append(1)
            limb = (i, d)
            continue
        if production is None:
            hashes.append(d)
            spans.append(1)
            stack.append((i, i, d))
            continue
        prod = ag.productions[production]
        n = len(prod.rhs)
        children = stack[len(stack) - n :] if n else []
        if n:
            del stack[len(stack) - n :]
        start = i
        comb = hashlib.blake2b(digest_size=16)
        p_list: List[int] = []
        for child_start, child_root, child_digest in children:
            comb.update(child_digest)
            start = min(start, child_start)
            p_list.append(child_root)
            parent[child_root] = i
        if prod.limb:
            if limb is None:
                raise MemoCorruptionError(
                    f"postfix stream misses the limb of production "
                    f"{prod.index} at record {i}",
                    record_index=i,
                    reason="framing",
                )
            comb.update(limb[1])
            start = min(start, limb[0])
            p_list.append(limb[0])
            parent[limb[0]] = i
        limb = None
        comb.update(d)
        p_list.append(_OWN)
        digest = comb.digest()
        hashes.append(digest)
        spans.append(i - start + 1)
        parts[i] = p_list
        stack.append((start, i, digest))
    return SubtreeIndex(hashes, spans, own, parts, parent)


def prefix_subtree_index(
    records: Iterable[tuple], ag: AttributeGrammar
) -> SubtreeIndex:
    """Hash every subtree of a *prefix* record stream in one sweep.

    The prefix initial file (first pass left-to-right) emits ``node,
    limb, children`` — subtrees are still contiguous, but a subtree's
    *first* record is its root.  Mirrors
    :func:`~repro.apt.linear.iter_prefix`.
    """
    hashes: List[bytes] = []
    spans: List[int] = []
    own: List[bytes] = []
    parts_out: List[Optional[List[int]]] = []
    parent: List[int] = []
    #: [root position, parts (positions, _OWN first), expect_limb,
    #:  children remaining]
    frames: List[list] = []

    def finalize(frame: list, end_i: int) -> None:
        comb = hashlib.blake2b(digest_size=16)
        for p in frame[1]:
            comb.update(own[frame[0]] if p == _OWN else hashes[p])
        hashes[frame[0]] = comb.digest()
        spans[frame[0]] = end_i - frame[0] + 1
        parts_out[frame[0]] = frame[1]

    def credit(root_pos: int, end_i: int) -> None:
        """A subtree completed at ``end_i``; fold it into the enclosing
        frame, cascading completions toward the root."""
        while frames:
            frame = frames[-1]
            if frame[2]:
                raise MemoCorruptionError(
                    f"prefix stream misses the limb of the production "
                    f"opened at record {frame[0]}",
                    record_index=end_i,
                    reason="framing",
                )
            frame[1].append(root_pos)
            parent[root_pos] = frame[0]
            frame[3] -= 1
            if frame[3] > 0:
                return
            frames.pop()
            finalize(frame, end_i)
            root_pos = frame[0]

    for i, record in enumerate(records):
        _symbol, production, _attrs, is_limb = record
        d = record_digest(record)
        hashes.append(d)
        spans.append(1)
        own.append(d)
        parts_out.append(None)
        parent.append(-1)
        if is_limb:
            if not frames or not frames[-1][2]:
                raise MemoCorruptionError(
                    f"prefix stream carries an unexpected limb at record {i}",
                    record_index=i,
                    reason="framing",
                )
            frame = frames[-1]
            frame[1].append(i)
            parent[i] = frame[0]
            frame[2] = False
            if frame[3] == 0:
                frames.pop()
                finalize(frame, i)
                credit(frame[0], i)
            continue
        if production is None:
            credit(i, i)
            continue
        prod = ag.productions[production]
        frame = [i, [_OWN], bool(prod.limb), len(prod.rhs)]
        if frame[2] or frame[3]:
            frames.append(frame)
        else:
            credit(i, i)
    return SubtreeIndex(hashes, spans, own, parts_out, parent)


# ---------------------------------------------------------------------------
# front-end reuse: shape-preserving token patching + dirty-spine rehash
# ---------------------------------------------------------------------------

#: Front-end caching is skipped above this initial-spool byte estimate
#: so the in-process cache cannot defeat the bounded-memory premise.
_FRONTEND_BYTE_CAP = 64 * 1024 * 1024


class _RecordListSpool(Spool):
    """A finalized read-only spool over an in-memory record list.

    The front-end reuse path hands the driver the previous run's
    (patched) initial records without re-serializing them — the same
    by-reference discipline :class:`~repro.apt.storage.AdaptiveSpool`
    uses below its spill budget."""

    def __init__(self, records: List[tuple]):
        super().__init__(None, "initial")
        self._records = records
        self.n_records = len(records)
        self._finalized = True

    def read_forward(self):
        return iter(self._records)

    def read_backward(self):
        return iter(reversed(self._records))


class _Frontend:
    """In-process cache of one memoized translation's front-end: the
    token kind sequence, the initial APT records and their subtree
    index."""

    __slots__ = ("kinds", "records", "index", "leaf_positions", "forward")

    def __init__(self, kinds, records, index, leaf_positions, forward):
        self.kinds = kinds
        self.records = records
        self.index = index
        #: Positions of token-derived records, in source order.
        self.leaf_positions = leaf_positions
        self.forward = forward


def _rehash_spine(
    index: SubtreeIndex,
    records: List[tuple],
    dirty: List[int],
    forward: bool,
) -> SubtreeIndex:
    """The index of ``records``, which differ from the stream ``index``
    was built over only at the ``dirty`` leaf positions: those get
    fresh record digests, then exactly their ancestors' subtree hashes
    are recomputed.  Prefix order puts parents *before* children, so
    the bottom-up sweep runs descending there, ascending for postfix.
    ``index`` itself is left untouched."""
    own = list(index.own)
    hashes = list(index.hashes)
    parts = index.parts
    parent = index.parent
    spine = set()
    for j in dirty:
        own[j] = hashes[j] = record_digest(records[j])
        p = parent[j]
        while p >= 0 and p not in spine:
            spine.add(p)
            p = parent[p]
    for i in sorted(spine, reverse=forward):
        comb = hashlib.blake2b(digest_size=16)
        for p in parts[i]:
            comb.update(own[i] if p == _OWN else hashes[p])
        hashes[i] = comb.digest()
    return SubtreeIndex(hashes, index.spans, own, parts, parent)


def context_fingerprint(
    attrs: Dict[str, Any], group_values: Iterable[Tuple[str, Any]]
) -> bytes:
    """Fingerprint of the inherited context at a ``VISIT``: the node's
    entry attributes plus the live pass globals, each fed through
    :func:`~repro.util.lists.feed_value`, so a list value costs its
    cached content digest rather than a rendering of every element."""
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(attrs):
        h.update(name.encode("utf-8"))
        h.update(b"=")
        feed_value(h, attrs[name])
    for group, value in group_values:
        h.update(b"@")
        h.update(group.encode("utf-8"))
        h.update(b"=")
        feed_value(h, value)
    return h.digest()


def memo_identity(
    ag: AttributeGrammar, plans, library=None
) -> str:
    """Hex identity of everything that determines pass-1 output given
    pass-1 input: the grammar's productions, the full pass-plan action
    structure, the function library's resolvable names, and the rule
    by which context fingerprints hash attribute values.  A memo written under a
    different identity is never consulted."""
    h = hashlib.blake2b(digest_size=16)

    def feed(text: str) -> None:
        h.update(text.encode("utf-8"))
        h.update(b"\x00")

    feed(DIGEST_RULE)
    feed(ag.name)
    feed(ag.start)
    for prod in ag.productions:
        feed(f"{prod.index}:{prod.lhs}->{' '.join(prod.rhs)}|{prod.limb or ''}")
    for plan in plans:
        feed(
            f"pass{plan.pass_k}:{plan.direction.value}"
            f"|{plan.groups}|{plan.root_exports}|{plan.root_fields}"
        )
        for prod_index in sorted(plan.plans):
            feed(f"prod{prod_index}")
            for action in plan.plans[prod_index].actions:
                binding = getattr(action, "binding", None)
                feed(
                    f"{action.kind.name}:{getattr(action, 'position', '')}"
                    f":{getattr(action, 'temp', '')}"
                    f":{getattr(action, 'group', '')}"
                    f":{getattr(action, 'fields', '')}"
                    f":{getattr(action, 'source', '')}"
                    f":{binding if binding is not None else ''}"
                )
    if library is not None:
        feed(",".join(sorted(library.functions)))
        for name in sorted(library.constants):
            feed(f"{name}={canonical_value(library.constants[name])}")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# memo entries + manifest I/O
# ---------------------------------------------------------------------------


class MemoEntry:
    """One memoized subtree of one pass: where its output lives, how
    much input it covers, and the post-visit state to restore on a
    hit."""

    __slots__ = (
        "pass_k", "h", "x", "out_start", "out_len", "n_skip", "blob",
        "_payload", "_line",
    )

    def __init__(
        self,
        pass_k: int,
        h: str,
        x: str,
        out_start: int,
        out_len: int,
        n_skip: int,
        blob: str,
        payload: Optional[tuple] = None,
    ):
        self.pass_k = pass_k
        self.h = h
        self.x = x
        self.out_start = out_start
        self.out_len = out_len
        self.n_skip = n_skip
        #: base64(pickle((post_attrs, post_globals))) — decoded lazily
        #: unless the entry was made in this process, whose live
        #: ``payload`` (the very objects pickled) it keeps instead.
        self.blob = blob
        self._payload: Optional[tuple] = payload
        #: Cached framed manifest line (computed once; steady-state
        #: re-commits reuse it instead of re-serializing the entry).
        self._line: Optional[str] = None

    @property
    def key(self) -> Tuple[str, str]:
        return (self.h, self.x)

    @property
    def out_end(self) -> int:
        return self.out_start + self.out_len

    def payload(self) -> Tuple[Dict[str, Any], List[Any]]:
        """``(post_attrs, post_globals)``; raises on a damaged blob."""
        if self._payload is None:
            self._payload = pickle.loads(base64.b64decode(self.blob))
        return self._payload

    def shifted(self, delta: int) -> "MemoEntry":
        """The same entry with its output range moved by ``delta``
        records (nested carry-forward on a hit).  A zero shift — the
        common case when an edit preserves the tree shape — returns the
        entry itself, keeping its cached manifest line; any shift keeps
        its decoded payload."""
        if delta == 0:
            return self
        return MemoEntry(
            self.pass_k, self.h, self.x, self.out_start + delta,
            self.out_len, self.n_skip, self.blob, self._payload,
        )

    def line(self) -> str:
        """The framed MEMO1 manifest line for this entry (cached)."""
        if self._line is None:
            self._line = sealedlog.frame(self.to_doc())
        return self._line

    def to_doc(self) -> Dict[str, Any]:
        return {
            "e": "memo",
            "p": self.pass_k,
            "h": self.h,
            "x": self.x,
            "o": self.out_start,
            "l": self.out_len,
            "k": self.n_skip,
            "b": self.blob,
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, Any], index: int, path: str) -> "MemoEntry":
        try:
            entry = cls(
                doc["p"], doc["h"], doc["x"], doc["o"], doc["l"],
                doc["k"], doc["b"],
            )
        except KeyError as exc:
            raise MemoCorruptionError(
                f"memo entry {index} misses field {exc}",
                record_index=index,
                path=path,
                reason="framing",
            ) from None
        if (
            entry.out_start < 0
            or entry.out_len < 0
            or entry.n_skip < 0
            or not isinstance(entry.pass_k, int)
            or entry.pass_k < 1
        ):
            raise MemoCorruptionError(
                f"memo entry {index} has a negative range",
                record_index=index,
                path=path,
                reason="framing",
            )
        return entry


def _resolve_manifest_path(path_or_dir: str) -> str:
    if os.path.isdir(path_or_dir):
        return os.path.join(path_or_dir, MEMO_LOG)
    return path_or_dir


def looks_like_memo_manifest(path: str) -> bool:
    """Cheap sniff: a memo manifest's header line carries the MEMO1 tag."""
    return sealedlog.sniff(sealedlog.head(path)) == MEMO_FORMAT


class MemoScanReport(sealedlog.SealedScan):
    """Outcome of a sweep over a memo manifest (``repro fsck``): the
    MEMO1 schema over the sealed line log — a seal is required and every
    record after the header is a valid memo entry, kept as a
    :class:`MemoEntry` that caches its verified line."""

    tag = MEMO_FORMAT
    error_type = MemoCorruptionError

    def entry(self, obj: Dict[str, Any], index: int, line: str) -> MemoEntry:
        if obj.get("e") != "memo":
            raise MemoCorruptionError(
                f"memo record {index} has unknown kind {obj.get('e')!r}",
                record_index=index,
                path=self.path,
                reason="framing",
            )
        entry = MemoEntry.from_doc(obj, index, self.path)
        entry._line = line + "\n"
        return entry

    @property
    def n_valid(self) -> int:
        """Entry lines verified before any damage (header excluded)."""
        return max(len(self.records) - 1, 0)

    @property
    def n_entries(self) -> Optional[int]:
        """The sealed entry count (None unless the manifest is clean)."""
        return self.n_valid if self.ok else None

    @property
    def spools(self) -> List[str]:
        """Basenames of the splice-source spools a *clean* manifest
        references (``repro doctor`` uses this to tell live generations
        from stale debris)."""
        spools = self.records[0].get("spools") if self.ok else None
        if not isinstance(spools, dict):
            return []
        return [
            os.path.basename(str(desc.get("spool", "")))
            for desc in spools.values()
            if isinstance(desc, dict)
        ]

    def render(self) -> str:
        head = self.path
        if self.ok:
            return (
                f"{head}\n  format {MEMO_FORMAT}, sealed, "
                f"{self.n_valid} memo entr{'y' if self.n_valid == 1 else 'ies'}"
            )
        return (
            f"{head}\n  format {MEMO_FORMAT}: {self.error}\n"
            f"  {self.n_valid} entry line(s) verified before the damage"
        )


def scan_memo(path: str, metrics=None) -> MemoScanReport:
    """Sweep a memo manifest, verifying every line; never raises."""
    report = MemoScanReport.scan(_resolve_manifest_path(path)).require_seal()
    if metrics is not None:
        name = "memo_scans_clean" if report.ok else "memo_scan_errors"
        metrics.counter(f"robust.{name}").inc()
    return report


def salvage_memo(path: str, out: str, metrics=None) -> MemoScanReport:
    """Recover the longest valid prefix of a damaged manifest into a
    freshly sealed one at ``out``.  A salvaged memo is merely smaller —
    every surviving entry is still integrity-checked against the spool
    identity at load time, so loss is a cold miss, never a wrong
    answer.  Returns the scan report of the *source*."""
    report = scan_memo(path, metrics=metrics)
    if report.records:
        header = report.records[0]
    else:
        # Nothing recoverable: a tombstone header (we cannot even name
        # the spools) so downstream loads take a clean cold miss.
        header = {"e": "hdr", "format": MEMO_FORMAT, "salvaged": True}
    sealedlog.reseal(
        out, [sealedlog.frame(header)] + [e.line() for e in report.records[1:]]
    )
    if metrics is not None:
        metrics.counter("robust.memo_entries_salvaged").inc(report.n_valid)
    return report


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------


class MemoStore:
    """The durable memo of one translator in one directory.

    Constructed per translation (loading is cheap: one manifest sweep
    plus a spool footer verification); any load failure records an
    ``incremental.invalidations`` tick and starts cold.
    """

    def __init__(
        self,
        directory: str,
        ag: AttributeGrammar,
        plans,
        library=None,
        identity: Optional[str] = None,
        metrics=None,
        tracer=None,
        min_span: int = DEFAULT_MIN_SPAN,
    ):
        self.directory = directory
        self.ag = ag
        self.plans = plans
        self.metrics = metrics
        self.tracer = tracer
        self.min_span = min_span
        self.identity = identity or memo_identity(ag, plans, library)
        os.makedirs(directory, exist_ok=True)
        #: pass_k -> {(hash hex, ctx hex) -> MemoEntry}, previous gen.
        self.entries: Dict[int, Dict[Tuple[str, str], MemoEntry]] = {}
        #: pass_k -> old entries sorted by out_start (carry-forward).
        self._sorted: Dict[int, List[MemoEntry]] = {}
        self._starts: Dict[int, List[int]] = {}
        #: pass_k -> random-access reader over that pass's sealed spool.
        self.readers: Dict[int, RandomAccessReader] = {}
        self._generation = 0
        self.load_error: Optional[MemoCorruptionError] = None
        #: In-process front-end cache (:class:`_Frontend`) of the last
        #: memoized translation through this store, or None.
        self._frontend: Optional[_Frontend] = None
        #: One-shot ``(spool, SubtreeIndex, forward)`` handoff so the
        #: pass-1 session need not re-hash an input stream whose index
        #: the front-end path already holds.
        self._pending: Optional[Tuple[Spool, SubtreeIndex, bool]] = None
        self._load()

    # -- loading -----------------------------------------------------------

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.directory, MEMO_LOG)

    def _spool_path(self, pass_k: int, generation: int) -> str:
        return os.path.join(
            self.directory, f"pass{pass_k}.g{generation}.spool"
        )

    def _existing_spool_files(self) -> List[Tuple[int, int, str]]:
        """``(pass_k, generation, name)`` for every spool file present."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        out = []
        for name in names:
            m = _GEN_RE.match(name)
            if m:
                out.append((int(m.group(1)), int(m.group(2)), name))
        return sorted(out)

    def _close_readers(self) -> None:
        for reader in self.readers.values():
            try:
                reader.close()
                reader.spool.close()
            except Exception:
                pass
        self.readers = {}

    def _load(self) -> None:
        files = self._existing_spool_files()
        self._generation = max((g for _, g, _ in files), default=0)
        if not os.path.exists(self.manifest_path):
            return
        try:
            report = scan_memo(self.manifest_path)
            if report.error is not None:
                raise report.error
            header, entries = report.records[0], report.records[1:]
            if header.get("identity") != self.identity:
                raise MemoCorruptionError(
                    "memo manifest was written by a different grammar, "
                    "plan set, or library (identity mismatch)",
                    path=self.manifest_path,
                    reason="identity",
                )
            generation = header.get("generation")
            spools = header.get("spools")
            if not isinstance(generation, int) or not isinstance(spools, dict):
                raise MemoCorruptionError(
                    "memo header misses its generation/spools fields",
                    path=self.manifest_path,
                    reason="header",
                )
            for key, desc in spools.items():
                pass_k = int(key)
                spool_path = os.path.join(
                    self.directory,
                    os.path.basename(desc.get("spool", "")),
                )
                try:
                    spool = DiskSpool.open(
                        spool_path, channel="memo.splice",
                        tracer=self.tracer, metrics=self.metrics,
                    )
                    self.readers[pass_k] = RandomAccessReader(spool)
                except Exception as exc:
                    raise MemoCorruptionError(
                        f"memo splice spool for pass {pass_k} failed "
                        f"verification: {exc}",
                        path=spool_path,
                        reason="spool",
                    ) from exc
                if not matches_descriptor(spool, desc):
                    raise MemoCorruptionError(
                        f"memo splice spool for pass {pass_k} does not "
                        "match the sealed manifest (stale or swapped "
                        "generation)",
                        path=spool_path,
                        reason="stale",
                    )
            for i, entry in enumerate(entries):
                reader = self.readers.get(entry.pass_k)
                if reader is None or entry.out_end > reader.spool.n_records:
                    raise MemoCorruptionError(
                        f"memo entry {i + 1} range [{entry.out_start}, "
                        f"{entry.out_end}) of pass {entry.pass_k} "
                        "overruns (or misses) its sealed spool",
                        record_index=i + 1,
                        path=self.manifest_path,
                        reason="range",
                    )
            self._generation = max(self._generation, generation)
            self._adopt_entries(entries)
            if self.metrics is not None:
                self.metrics.counter("incremental.entries_loaded").inc(
                    len(entries)
                )
        except MemoCorruptionError as exc:
            # Silent cold miss: a damaged memo never fails a translation.
            self.load_error = exc
            self.disable()
            if self.tracer is not None:
                self.tracer.instant(
                    "incremental.invalidated", cat="robust", reason=exc.reason
                )

    def _adopt_entries(self, entries: Iterable[MemoEntry]) -> None:
        self.entries = {}
        self._sorted = {}
        self._starts = {}
        for entry in entries:
            self.entries.setdefault(entry.pass_k, {})[entry.key] = entry
        for pass_k, table in self.entries.items():
            ordered = sorted(table.values(), key=lambda e: e.out_start)
            self._sorted[pass_k] = ordered
            self._starts[pass_k] = [e.out_start for e in ordered]

    # -- carry-forward -----------------------------------------------------

    def entries_within(self, entry: MemoEntry) -> List[MemoEntry]:
        """Old entries of the same pass whose output range nests inside
        ``entry``'s (including ``entry`` itself) — re-emitted, offset,
        into the new generation on a hit so the memo's grain survives
        splicing."""
        starts = self._starts.get(entry.pass_k, [])
        lo = bisect.bisect_left(starts, entry.out_start)
        out: List[MemoEntry] = []
        for nested in self._sorted.get(entry.pass_k, [])[lo:]:
            if nested.out_start >= entry.out_end:
                break
            if nested.out_end <= entry.out_end:
                out.append(nested)
        return out

    # -- front-end reuse ---------------------------------------------------

    def cache_frontend(self, tokens, initial: Spool, forward: bool) -> None:
        """Capture the fresh run's front-end for in-process reuse: the
        token kind sequence, the initial records, and their subtree
        index.  Any failure (or an input above
        :data:`_FRONTEND_BYTE_CAP`) just leaves the cache empty — the
        next run parses from scratch."""
        self._frontend = None
        self._pending = None
        try:
            if getattr(initial, "data_bytes", 0) > _FRONTEND_BYTE_CAP:
                return
            records = list(initial.read_forward())
            indexer = (
                prefix_subtree_index if forward else postfix_subtree_index
            )
            index = indexer(records, self.ag)
            leaf_positions = [
                i for i, r in enumerate(records)
                if r[1] is None and not r[3]
            ]
            n_leaf_tokens = sum(1 for t in tokens if t.kind != EOF_SYMBOL)
            if n_leaf_tokens != len(leaf_positions):
                return
            self._frontend = _Frontend(
                tuple(t.kind for t in tokens), records, index,
                leaf_positions, forward,
            )
            self._pending = (initial, index, forward)
        except Exception:
            self._frontend = None
            self._pending = None

    def reuse_frontend(
        self, tokens, forward: bool, intrinsic_fn
    ) -> Optional[Spool]:
        """Shape-preserving front-end reuse: when the new token stream
        has the *same kind sequence* as the cached run, the LR parse is
        identical, so the cached initial records stand — only the
        token-derived leaf attributes need recomputing (through the
        translator's ``intrinsic_fn``).  Changed leaves dirty exactly
        their spine, which is rehashed in place of a full sweep.

        Returns the ready initial spool (and arms the one-shot index
        handoff for :meth:`begin_session`), or None when the cache
        cannot serve — the caller parses from scratch."""
        fe = self._frontend
        if fe is None or fe.forward != forward:
            return None
        if tuple(t.kind for t in tokens) != fe.kinds:
            return None
        try:
            leaf_tokens = [t for t in tokens if t.kind != EOF_SYMBOL]
            if len(leaf_tokens) != len(fe.leaf_positions):
                return None
            symbols = self.ag.symbols
            records = fe.records
            patched: Dict[int, tuple] = {}
            # Per-kind intrinsic spec, resolved once per distinct kind:
            # ``Symbol.intrinsic`` filters the attribute table on every
            # access, which is far too hot for a per-leaf loop.
            spec: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
            for pos, token in zip(fe.leaf_positions, leaf_tokens):
                cached = spec.get(token.kind)
                if cached is None:
                    sym = symbols[token.kind]
                    cached = spec[token.kind] = (
                        sym.name,
                        tuple(a.name for a in sym.intrinsic),
                    )
                sym_name, attr_names = cached
                attrs = {
                    name: intrinsic_fn(token, sym_name, name)
                    for name in attr_names
                }
                if attrs != records[pos][2]:
                    patched[pos] = (sym_name, None, attrs, False)
            if patched:
                records = list(records)
                for pos, record in patched.items():
                    records[pos] = record
                fe = _Frontend(
                    fe.kinds, records,
                    _rehash_spine(fe.index, records, list(patched), forward),
                    fe.leaf_positions, forward,
                )
                self._frontend = fe
            spool = _RecordListSpool(records)
            self._pending = (spool, fe.index, forward)
            if self.metrics is not None:
                self.metrics.counter("incremental.frontend_reuses").inc()
                if patched:
                    self.metrics.counter("incremental.dirty_leaves").inc(
                        len(patched)
                    )
            return spool
        except Exception:
            self._frontend = None
            self._pending = None
            return None

    # -- sessions ----------------------------------------------------------

    def begin_session(
        self,
        plan,
        runtime,
        spool_in: Spool,
        read_only: bool = False,
        forward: bool = False,
    ) -> Optional["MemoSession"]:
        """Index one pass's input spool and open a session for it; None
        when indexing fails (memo disabled for this pass, never fatal).
        ``forward=True`` for the prefix-emission first pass, whose
        input is read forward and indexed in prefix order."""
        pending = self._pending
        self._pending = None
        if (
            pending is not None
            and pending[0] is spool_in
            and pending[2] == forward
        ):
            index = pending[1]
        else:
            try:
                indexer = (
                    prefix_subtree_index if forward else postfix_subtree_index
                )
                index = indexer(spool_in.read_forward(), self.ag)
            except Exception:
                if self.metrics is not None:
                    self.metrics.counter("incremental.invalidations").inc()
                return None
        return MemoSession(
            self, plan, runtime, index, read_only=read_only, forward=forward
        )

    # -- sealing -----------------------------------------------------------

    def next_generation(self) -> int:
        return self._generation + 1

    def seed_names(self, pass_k: int):
        """The name table every output spool of pass ``pass_k`` is
        seeded with (None when the pass has no splice source): every id
        of the splice source stays valid in the new spool, so a hit
        splices the still-encoded blobs verbatim, with no decode and no
        re-encode.  A source whose table fails to load disables the
        memo here, so a pass only ever splices from the reader its
        output was seeded from."""
        reader = self.readers.get(pass_k)
        if reader is None:
            return None
        source = reader.spool
        try:
            if source._codec is None:
                source._codec = source._load_codec()
        except Exception:
            self.disable()
            return None
        return source._codec.names

    def make_output_spool(
        self, pass_k: int, accountant, channel: str, tracer=None, metrics=None
    ) -> DiskSpool:
        """The durable output spool of pass ``pass_k`` in the *next*
        generation — distinct from the current generation's file, which
        may be spliced from while this one is written — seeded per
        :meth:`seed_names`."""
        return DiskSpool(
            self._spool_path(pass_k, self.next_generation()),
            accountant,
            channel,
            tracer=tracer,
            metrics=metrics,
            seed_names=self.seed_names(pass_k),
            # Memo spools are cache artifacts: skip the fsync at seal
            # time.  A file torn by power loss fails its stream-CRC
            # check at the next load and the memo degrades to a cold
            # miss — never a wrong translation.
            durable=False,
        )

    def commit_run(
        self, commits: List[Tuple["MemoSession", Any]]
    ) -> None:
        """Seal the new generation after a completed run: write one
        MEMO1 manifest referencing every pass's fresh spool, adopt it
        all for in-process reuse, drop the old generation's files."""
        generation = self.next_generation()
        spools: Dict[str, Dict[str, Any]] = {}
        entries: List[MemoEntry] = []
        for session, spool_out in commits:
            spool_path = getattr(spool_out, "path", None)
            if spool_path is None or not os.path.exists(spool_path):
                continue
            spools[str(session.pass_k)] = {
                "spool": os.path.basename(spool_path),
                **spool_descriptor(spool_out),
            }
            entries.extend(session.new_entries.values())
        if not spools:
            return
        header = {
            "e": "hdr",
            "format": MEMO_FORMAT,
            "grammar": self.ag.name,
            "identity": self.identity,
            "generation": generation,
            "spools": spools,
            "min_span": self.min_span,
        }
        # ``fsync=False`` because the manifest, like the spools it
        # references, is a cache: a torn write fails the seal CRC on the
        # next load and reads as a cold miss.
        sealedlog.reseal(
            self.manifest_path,
            [sealedlog.frame(header)] + [e.line() for e in entries],
            fsync=False,
        )
        # Adopt the new generation in-process and retire the old files.
        self._close_readers()
        for pass_k, gen, name in self._existing_spool_files():
            if gen != generation:
                try:
                    os.unlink(os.path.join(self.directory, name))
                except OSError:
                    pass
        self._generation = generation
        self._adopt_entries(entries)
        for session, spool_out in commits:
            spool_path = getattr(spool_out, "path", None)
            if spool_path is None:
                continue
            try:
                spool = DiskSpool.open(
                    spool_path, channel="memo.splice",
                    tracer=self.tracer, metrics=self.metrics,
                )
                self.readers[session.pass_k] = RandomAccessReader(spool)
            except Exception:
                self.readers.pop(session.pass_k, None)
        if self.metrics is not None:
            self.metrics.counter("incremental.entries_written").inc(
                len(entries)
            )

    def disable(self) -> None:
        """Drop all splice state and count one invalidation: a failed
        load, a splice source that fails mid-run."""
        self._close_readers()
        self.entries = {}
        self._sorted = {}
        self._starts = {}
        if self.metrics is not None:
            self.metrics.counter("incremental.invalidations").inc()

    def close(self) -> None:
        self._close_readers()


class _Token:
    """Miss token: carries what :meth:`MemoSession.leave` needs."""

    __slots__ = ("key", "out_start", "n_skip")

    def __init__(self, key: Tuple[str, str], out_start: int, n_skip: int):
        self.key = key
        self.out_start = out_start
        self.n_skip = n_skip


class MemoSession:
    """One run's view of the memo, attached to pass 1's runtime.

    Both evaluators call :meth:`enter` at each ``VISIT``; the session
    decides candidate / hit / miss.  On a hit it splices and returns
    :data:`MEMO_HIT`; on a recordable miss it returns a token the
    matching :meth:`leave` call turns into a new memo entry.
    """

    def __init__(
        self,
        store: MemoStore,
        plan,
        runtime,
        index: SubtreeIndex,
        read_only: bool = False,
        forward: bool = False,
    ):
        from repro.evalgen.plan import global_slot

        self.store = store
        self.plan = plan
        self.pass_k = plan.pass_k
        self.runtime = runtime
        #: Only what lookups read: the driver keeps its sessions past the
        #: run, and the structure arrays belong to the front-end cache.
        self.hashes = index.hashes
        self.spans = index.spans
        self.read_only = read_only
        self._forward = forward
        self._entries = store.entries.get(plan.pass_k) or {}
        #: ``(group, scope key)`` of each pass global.
        self._slots = [(g, global_slot(g)) for g in plan.groups]
        self._n_total = len(index.hashes)
        self._reads = 0
        self.new_entries: Dict[Tuple[str, str], MemoEntry] = {}
        metrics = store.metrics
        if metrics is not None:
            self._c_hits = metrics.counter("incremental.hits")
            self._c_misses = metrics.counter("incremental.misses")
            self._c_records = metrics.counter("incremental.spliced_records")
            self._c_blocks = metrics.counter("incremental.spliced_blocks")
            self._c_spine = metrics.counter("incremental.spine_nodes")
        else:
            self._c_hits = None
            self._c_misses = None
            self._c_records = None
            self._c_blocks = None
            self._c_spine = None
        #: Plain tallies (always kept — the edit-replay smoke and the
        #: benchmark read them without a metrics registry).
        self.hits = 0
        self.misses = 0
        self.spliced_records = 0

    # -- runtime hook ------------------------------------------------------

    def next_index(self) -> int:
        """The spool record index of the read ``get`` is making — the
        index its subtree is keyed under, stamped on the node.  A
        backward pass over a postfix spool sees record ``n_total - 1 -
        r`` at read ``r`` (and a subtree is keyed at its root record,
        which a postfix stream puts *last*); the forward prefix pass
        sees record ``r``, the subtree root coming *first*."""
        reads = self._reads
        self._reads = reads + 1
        return reads if self._forward else self._n_total - 1 - reads

    # -- the evaluator-facing API -----------------------------------------

    def enter(self, node, scope: Dict[str, Any]):
        """The ``VISIT`` hook.  ``scope`` maps each pass global's
        :func:`~repro.evalgen.plan.global_slot` to its live value: the
        generated pass instance's ``__dict__``, the interpreter's
        globals dict."""
        idx = node[RECORD_INDEX]
        if idx is None or node[3] or node[1] is None:
            return None
        span = self.spans[idx]
        if span < self.store.min_span:
            return None
        ctx = context_fingerprint(
            node[2], ((g, scope[slot]) for g, slot in self._slots)
        )
        key = (self.hashes[idx].hex(), ctx.hex())
        entry = self._entries.get(key)
        if entry is not None and entry.n_skip == span - 1:
            if self._splice(entry, node, scope):
                return MEMO_HIT
        if self.read_only and self.runtime.rec is None:
            # Nothing to record into and no provenance to annotate:
            # skip the leave-side bookkeeping entirely.
            return None
        if self._c_spine is not None:
            self._c_spine.inc()
        return _Token(key, self.runtime.out_index(), span - 1)

    def _splice(self, entry: MemoEntry, node, scope: Dict[str, Any]) -> bool:
        """Reuse ``entry`` for ``node``: all fallible reads first, then
        the irreversible skip + splice + state restore.  The output
        spool was seeded from this reader's name table
        (:meth:`MemoStore.seed_names`), so the sealed blobs are valid
        there verbatim."""
        store = self.store
        reader = store.readers.get(self.pass_k)
        if reader is None:
            return False
        runtime = self.runtime
        try:
            post_attrs, post_globals = entry.payload()
            blobs, n_blocks = reader.raw_range(entry.out_start, entry.out_end)
        except Exception:
            # Damaged splice source: nothing was consumed yet, so this
            # hit (and every future one this run) degrades to a miss.
            store.disable()
            return False
        runtime.skip_records(entry.n_skip)
        self._reads += entry.n_skip
        out_start = runtime.out_index()
        runtime.splice_blobs(blobs)
        node[2] = dict(post_attrs)
        for (_group, slot), value in zip(self._slots, post_globals):
            scope[slot] = value
        rec = runtime.rec
        if rec is not None:
            rec.reuse(node[0], entry.n_skip + 1, out_start, entry.out_len)
        self.hits += 1
        self.spliced_records += entry.out_len
        if self._c_hits is not None:
            self._c_hits.inc()
            self._c_records.inc(entry.out_len)
            self._c_blocks.inc(n_blocks)
        if not self.read_only:
            delta = out_start - entry.out_start
            for nested in store.entries_within(entry):
                self.new_entries.setdefault(
                    nested.key, nested.shifted(delta)
                )
        return True

    def leave(self, token, node, scope: Dict[str, Any]) -> None:
        """Close a miss :meth:`enter` returned ``token`` for."""
        if token is None:
            return
        self.misses += 1
        if self._c_misses is not None:
            self._c_misses.inc()
        if self.read_only:
            return
        out_len = self.runtime.out_index() - token.out_start
        try:
            payload = (dict(node[2]), [scope[slot] for _g, slot in self._slots])
            blob = base64.b64encode(
                pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            ).decode("ascii")
        except Exception:
            # Unpicklable attribute value: this subtree is simply not
            # memoizable; the translation itself is unaffected.
            return
        self.new_entries.setdefault(
            token.key,
            MemoEntry(
                self.pass_k, token.key[0], token.key[1],
                token.out_start, out_len, token.n_skip, blob, payload,
            ),
        )

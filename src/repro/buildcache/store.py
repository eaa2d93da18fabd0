"""The on-disk artifact store: sealed, checksummed, atomically written.

One cache *entry* is one file under ``<root>/<kind>/<key>.l86c``,
checked and sealed by the same header check and self-checksummed
footer as the durable spool format (``apt/storage.py``)::

    header   "L86BCHE\\n" magic + u16 format version + u16 flags
             + 64-byte ASCII key                                (76 B)
    payload  one pickled blob
    footer   "L86SEAL\\n" magic + u64 payload_bytes
             + u32 payload_crc32 + u32 footer_crc32             (24 B)

The header echoes the content-address the entry was stored under, so a
renamed or mis-hashed file can never satisfy a lookup; the footer seals
the payload length and CRC32, and carries a CRC32 of itself.  Writes
stream into a writer-unique ``<path>.*.tmp``, flush + fsync, then
atomically rename — an entry is either completely present or absent,
never half-sealed, even when concurrent processes store the same key.

Every integrity failure raises a typed
:class:`~repro.errors.CacheCorruptionError` *internally*;
:meth:`BuildCache.load` translates it into a transparent miss — the
damaged file is unlinked, ``cache.corrupt`` is counted, and the caller
rebuilds — so a corrupt cache can degrade performance but never
correctness or availability.

Telemetry: with a :class:`~repro.obs.MetricsRegistry` attached (at
construction or per call), the store counts ``cache.hit``,
``cache.miss``, ``cache.write``, ``cache.corrupt`` (plus the same
per-kind, e.g. ``cache.grammar.hit``) and emits ``cache.*`` trace
instants; see ``docs/performance.md``.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.apt.storage import Seal, read_header
from repro.errors import CacheCorruptionError
from repro.util.atomic_write import atomic_write

MAGIC = b"L86BCHE\n"
FOOTER_MAGIC = b"L86SEAL\n"
_HEADER = struct.Struct("<8sHH64s")
#: Sealed footer: magic, payload bytes, payload crc32, footer crc32.
_FOOTER = Seal(FOOTER_MAGIC, "QI")

#: On-disk entry format version (independent of the *key* format
#: version in ``key.py``; both must match for a hit).
ENTRY_FORMAT = 1

#: File extension of sealed cache entries.
ENTRY_SUFFIX = ".l86c"

#: Environment variable naming the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def default_cache_root() -> str:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro-linguist``,
    else ``~/.cache/repro-linguist``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-linguist")


def read_entry(path: str, want_key: str) -> Dict[str, Any]:
    """The payload of the sealed entry at ``path``, which must have been
    stored under ``want_key``.  Raises :class:`CacheCorruptionError`
    naming any damage (``FileNotFoundError`` when the file is gone)."""
    with open(path, "rb") as f:
        size = f.seek(0, os.SEEK_END)
        if size < _HEADER.size + _FOOTER.size:
            raise CacheCorruptionError(
                f"cache entry too short ({size} bytes): {path}",
                path=path, reason="truncated",
            )

        def fail(what, value):
            if what == "version":
                return CacheCorruptionError(
                    f"unsupported cache entry format v{value} in {path}",
                    path=path, reason="version",
                )
            return CacheCorruptionError(
                f"bad cache magic in {path}", path=path, reason="header"
            )

        key_bytes = read_header(f, _HEADER, MAGIC, ENTRY_FORMAT, fail)[3]
        stored_key = key_bytes.rstrip(b"\x00").decode("ascii", "replace")
        if stored_key != want_key:
            raise CacheCorruptionError(
                f"cache entry key mismatch in {path} "
                f"(sealed {stored_key[:12]}…, looked up {want_key[:12]}…)",
                path=path, reason="key",
            )
        payload_bytes, payload_crc = _FOOTER.verify(
            f, size, lambda what, why: CacheCorruptionError(
                f"{what} in {path}{why}", path=path, reason="footer"
            ),
        )
        if _HEADER.size + payload_bytes + _FOOTER.size != size:
            raise CacheCorruptionError(
                f"footer inconsistent with file size in {path} "
                f"({size} bytes on disk, "
                f"{_HEADER.size + payload_bytes + _FOOTER.size} sealed)",
                path=path, reason="footer",
            )
        f.seek(_HEADER.size)
        blob = f.read(payload_bytes)
        if len(blob) != payload_bytes:
            raise CacheCorruptionError(
                f"payload truncated in {path}", path=path, reason="truncated"
            )
        if zlib.crc32(blob) != payload_crc:
            raise CacheCorruptionError(
                f"payload checksum mismatch in {path} "
                "(bit rot or torn write)",
                path=path, reason="checksum",
            )
    try:
        payload = pickle.loads(blob)
    except Exception as exc:  # unpicklable despite a valid checksum
        raise CacheCorruptionError(
            f"cache payload does not unpickle in {path}: {exc}",
            path=path, reason="payload",
        ) from exc
    if not isinstance(payload, dict):
        raise CacheCorruptionError(
            f"cache payload is not a mapping in {path}",
            path=path, reason="payload",
        )
    return payload


@dataclass
class CacheEntryInfo:
    """Metadata of one sealed entry (``BuildCache.entries``)."""

    kind: str
    key: str
    path: str
    file_bytes: int
    #: Last-used clock (``st_mtime``): stores and load-hits both touch
    #: it, so governance eviction can drop least-recently-used first.
    mtime: float = 0.0


class BuildCache:
    """Content-addressed store of per-grammar build artifacts.

    ``metrics``/``tracer`` attached here are the defaults; ``load`` and
    ``store`` accept per-call overrides so a :class:`repro.core.Linguist`
    can charge its own registry.
    """

    def __init__(self, root: Optional[str] = None, metrics=None, tracer=None):
        self.root = root if root is not None else default_cache_root()
        self.metrics = metrics
        self.tracer = tracer

    # -- bookkeeping -------------------------------------------------------

    def path_for(self, kind: str, key: str) -> str:
        return os.path.join(self.root, kind, key + ENTRY_SUFFIX)

    def _count(self, event: str, kind: str, metrics) -> None:
        metrics = metrics if metrics is not None else self.metrics
        if metrics is not None:
            metrics.counter(f"cache.{event}").inc()
            metrics.counter(f"cache.{kind}.{event}").inc()

    def _instant(self, event: str, kind: str, key: str, tracer, **fields) -> None:
        tracer = tracer if tracer is not None else self.tracer
        if tracer is not None:
            tracer.instant(
                f"cache.{event}", cat="cache", kind=kind, key=key, **fields
            )

    # -- reading -----------------------------------------------------------

    def load(
        self,
        kind: str,
        key: str,
        metrics=None,
        tracer=None,
    ) -> Optional[Dict[str, Any]]:
        """The payload stored under ``(kind, key)``, or None on a miss.

        A corrupt entry is unlinked and reported as a miss (with a
        ``cache.corrupt`` count and a ``cache.corruption`` trace
        instant) — the caller rebuilds and re-stores; corruption can
        never surface as a crash or a wrong payload.
        """
        path = self.path_for(kind, key)
        try:
            payload = read_entry(path, key)
        except FileNotFoundError:
            self._count("miss", kind, metrics)
            self._instant("miss", kind, key, tracer)
            return None
        except CacheCorruptionError as exc:
            self._count("corrupt", kind, metrics)
            self._count("miss", kind, metrics)
            self._instant(
                "corruption", kind, key, tracer,
                path=path, reason=exc.reason,
            )
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self._count("hit", kind, metrics)
        self._instant("hit", kind, key, tracer, nbytes=os.path.getsize(path))
        try:
            # Touch the entry so mtime is a last-used clock; governance
            # eviction (``repro cache gc``) drops least-recently-used
            # entries first.
            os.utime(path)
        except OSError:
            pass
        return payload

    # -- writing -----------------------------------------------------------

    def store(
        self,
        kind: str,
        key: str,
        payload: Dict[str, Any],
        metrics=None,
        tracer=None,
    ) -> str:
        """Seal ``payload`` under ``(kind, key)`` atomically; returns the path."""
        path = self.path_for(kind, key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        key_bytes = key.encode("ascii")
        if len(key_bytes) > 64:
            raise ValueError(f"cache key too long ({len(key_bytes)} > 64)")
        # The tmp name must be unique per writer (``unique=True``):
        # concurrent processes (e.g. restarted serve/batch workers
        # racing to rebuild the same grammar after a cache clear) may
        # store the same key at once, and a shared ``<path>.tmp`` would
        # let one writer rename the other's half-written file into
        # place.  Same-key stores are byte-identical by content
        # addressing, so last-rename-wins is safe.
        with atomic_write(path, unique=True) as f:
            f.write(_HEADER.pack(MAGIC, ENTRY_FORMAT, 0, key_bytes.ljust(64, b"\x00")))
            f.write(blob)
            f.write(_FOOTER.seal(len(blob), zlib.crc32(blob)))
        self._count("write", kind, metrics)
        self._instant(
            "write", kind, key, tracer,
            nbytes=_HEADER.size + len(blob) + _FOOTER.size,
        )
        return path

    # -- maintenance -------------------------------------------------------

    def entries(self) -> List[CacheEntryInfo]:
        """Metadata of every sealed entry currently on disk."""
        out: List[CacheEntryInfo] = []
        if not os.path.isdir(self.root):
            return out
        for kind in sorted(os.listdir(self.root)):
            kind_dir = os.path.join(self.root, kind)
            if not os.path.isdir(kind_dir):
                continue
            for name in sorted(os.listdir(kind_dir)):
                if not name.endswith(ENTRY_SUFFIX):
                    continue
                path = os.path.join(kind_dir, name)
                try:
                    st = os.stat(path)
                except FileNotFoundError:
                    continue  # racing eviction/clear in another process
                out.append(
                    CacheEntryInfo(
                        kind=kind,
                        key=name[: -len(ENTRY_SUFFIX)],
                        path=path,
                        file_bytes=st.st_size,
                        mtime=st.st_mtime,
                    )
                )
        return out

    def clear(self) -> int:
        """Remove every entry; returns the number of files unlinked."""
        n = 0
        for entry in self.entries():
            try:
                os.unlink(entry.path)
                n += 1
            except OSError:
                pass
        return n

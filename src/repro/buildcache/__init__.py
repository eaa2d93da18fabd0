"""Persistent grammar-artifact cache (content-addressed, on disk).

LINGUIST-86's value proposition (§V) is that the expensive work —
LALR table construction, scanner DFA generation, pass planning, static
subsumption, and production-procedure code generation — happens **once
per grammar**, while translating inputs stays cheap and streaming.
This package makes "once per grammar" literal across *process
lifetimes*: build products are sealed into a content-addressed on-disk
store keyed by a canonical hash of (AG model + scanner spec + pass
strategy + cache format version), and a warm
:class:`~repro.core.Linguist` / :class:`~repro.core.Translator`
construction skips straight to ``exec``-compiling cached generated
text.

* :mod:`repro.buildcache.key` — canonical serializations and SHA-256
  content addresses (:func:`grammar_key`, :func:`scanner_key`, plus the
  parse-free :func:`source_key` alias level).
* :mod:`repro.buildcache.store` — :class:`BuildCache`, the sealed
  (header + CRC32 + atomic-rename) entry store with
  corruption-is-a-miss semantics and ``cache.*`` telemetry.  Batch
  worker processes rehydrate their translator from it; serve workers
  inherit the daemon's warm instance through ``fork``.

See ``docs/performance.md`` for the cache layout, key derivation, and
invalidation rules.
"""

from repro.buildcache.key import (
    CACHE_FORMAT_VERSION,
    canonical_grammar_text,
    canonical_scanner_text,
    canonical_strategy_text,
    grammar_key,
    scanner_key,
    source_key,
)
from repro.buildcache.store import (
    CACHE_DIR_ENV,
    BuildCache,
    CacheEntryInfo,
    default_cache_root,
)

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CACHE_DIR_ENV",
    "BuildCache",
    "CacheEntryInfo",
    "canonical_grammar_text",
    "canonical_scanner_text",
    "canonical_strategy_text",
    "default_cache_root",
    "grammar_key",
    "scanner_key",
    "source_key",
]

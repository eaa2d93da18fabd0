"""Unit tests for the persistent grammar-artifact cache.

Three contracts, in increasing strictness:

1. the **store** seals entries (header echo + payload CRC + sealed
   footer) and treats *every* corruption as a transparent miss — count
   it, unlink it, rebuild — never a crash, never a wrong payload;
2. a **warm build is a real hit**: the counters say so, and the
   rehydrated translator equals the cold one;
3. a warm build does **zero rebuild work**: with every expensive
   builder (LALR construction, NFA/subset/minimize, pass planning,
   code generation, even the `.ag` parser) monkeypatch-poisoned to
   raise, construction through a warm cache still succeeds.
"""

import os
import pickle

import pytest

from repro.buildcache import (
    BuildCache,
    CACHE_DIR_ENV,
    default_cache_root,
    grammar_key,
    scanner_key,
    source_key,
)
from repro.buildcache.store import _HEADER, ENTRY_SUFFIX, read_entry
from repro.core import Linguist
from repro.errors import CacheCorruptionError
from repro.grammars import load_source, scanner_and_library
from repro.obs import MetricsRegistry, Tracer

KEY_A = "a" * 64
KEY_B = "b" * 64


# ---------------------------------------------------------------------------
# the sealed store
# ---------------------------------------------------------------------------


class TestStore:
    def test_round_trip(self, tmp_path):
        cache = BuildCache(str(tmp_path))
        payload = {"x": [1, 2, 3], "y": "text"}
        path = cache.store("unit", KEY_A, payload)
        assert path.endswith(ENTRY_SUFFIX)
        assert cache.load("unit", KEY_A) == payload

    def test_miss_counters(self, tmp_path):
        metrics = MetricsRegistry()
        cache = BuildCache(str(tmp_path), metrics=metrics)
        assert cache.load("unit", KEY_A) is None
        cache.store("unit", KEY_A, {"v": 1})
        assert cache.load("unit", KEY_A) == {"v": 1}
        snap = metrics.snapshot()
        assert snap["cache.miss"] == 1
        assert snap["cache.unit.miss"] == 1
        assert snap["cache.write"] == 1
        assert snap["cache.hit"] == 1
        assert snap["cache.unit.hit"] == 1

    def test_per_call_metrics_override(self, tmp_path):
        cache = BuildCache(str(tmp_path))
        metrics = MetricsRegistry()
        cache.store("unit", KEY_A, {}, metrics=metrics)
        cache.load("unit", KEY_A, metrics=metrics)
        snap = metrics.snapshot()
        assert snap["cache.write"] == 1 and snap["cache.hit"] == 1

    def test_entries_and_clear(self, tmp_path):
        cache = BuildCache(str(tmp_path))
        cache.store("k1", KEY_A, {"v": 1})
        cache.store("k2", KEY_B, {"v": 2})
        entries = cache.entries()
        assert [(e.kind, e.key) for e in entries] == [
            ("k1", KEY_A), ("k2", KEY_B)
        ]
        assert all(e.file_bytes > 0 for e in entries)
        assert cache.clear() == 2
        assert cache.entries() == []

    def test_default_root_honors_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env-cache"))
        assert default_cache_root() == str(tmp_path / "env-cache")
        monkeypatch.delenv(CACHE_DIR_ENV)
        assert "repro-linguist" in default_cache_root()


# ---------------------------------------------------------------------------
# corruption: always a miss, never a crash
# ---------------------------------------------------------------------------


def _corrupt(path: str, fn) -> None:
    with open(path, "rb") as f:
        data = bytearray(f.read())
    data = fn(data)
    with open(path, "wb") as f:
        f.write(bytes(data))


def _flip_payload_byte(data):
    i = _HEADER.size + 2  # inside the pickled blob
    data[i] ^= 0xFF
    return data


CORRUPTIONS = {
    "payload-bitflip": _flip_payload_byte,
    "truncated-tail": lambda d: d[: len(d) - 6],
    "truncated-short": lambda d: d[:10],
    "bad-magic": lambda d: b"XXXXXXXX" + bytes(d[8:]),
    "bad-version": lambda d: d[:8] + b"\xff\xff" + bytes(d[10:]),
    "empty": lambda d: b"",
    "garbage": lambda d: os.urandom(len(d)),
}


class TestCorruption:
    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_corruption_is_a_miss(self, tmp_path, name):
        metrics = MetricsRegistry()
        tracer = Tracer()
        cache = BuildCache(str(tmp_path), metrics=metrics, tracer=tracer)
        path = cache.store("unit", KEY_A, {"v": 42})
        _corrupt(path, CORRUPTIONS[name])
        assert cache.load("unit", KEY_A) is None  # never raises
        snap = metrics.snapshot()
        assert snap["cache.corrupt"] == 1
        assert snap["cache.unit.corrupt"] == 1
        assert snap["cache.miss"] == 1
        # the damaged file is unlinked so the rebuild can re-seal it
        assert not os.path.exists(path)
        names = [r.name for r in tracer.records]
        assert "cache.corruption" in names
        # ...and a rebuild round-trips again
        cache.store("unit", KEY_A, {"v": 42})
        assert cache.load("unit", KEY_A) == {"v": 42}

    def test_key_echo_rejects_renamed_file(self, tmp_path):
        """A file renamed to another key can never satisfy that lookup."""
        cache = BuildCache(str(tmp_path))
        path_a = cache.store("unit", KEY_A, {"v": 1})
        path_b = cache.path_for("unit", KEY_B)
        os.replace(path_a, path_b)
        assert cache.load("unit", KEY_B) is None
        assert not os.path.exists(path_b)

    def test_valid_checksum_bad_pickle(self, tmp_path):
        """A well-sealed entry whose blob is not a pickle is corrupt."""
        cache = BuildCache(str(tmp_path))
        cache.store("unit", KEY_A, {"v": 1})
        # Re-seal with a non-pickle blob through the store's own writer
        # by pickling a non-dict (valid pickle, wrong shape).
        cache.store("unit", KEY_B, {"v": 2})
        import zlib
        from repro.buildcache.store import (
            _FOOTER, ENTRY_FORMAT, MAGIC,
        )

        blob = b"not a pickle at all"
        path = cache.path_for("unit", KEY_A)
        with open(path, "wb") as f:
            f.write(_HEADER.pack(MAGIC, ENTRY_FORMAT, 0,
                                 KEY_A.encode().ljust(64, b"\x00")))
            f.write(blob)
            f.write(_FOOTER.seal(len(blob), zlib.crc32(blob)))
        assert cache.load("unit", KEY_A) is None

    def test_non_dict_payload_is_corrupt(self, tmp_path):
        cache = BuildCache(str(tmp_path))
        path = cache.store("unit", KEY_A, {"v": 1})
        # splice in a pickled list with a correct checksum
        import zlib
        from repro.buildcache.store import (
            _FOOTER, ENTRY_FORMAT, MAGIC,
        )

        blob = pickle.dumps([1, 2, 3])
        with open(path, "wb") as f:
            f.write(_HEADER.pack(MAGIC, ENTRY_FORMAT, 0,
                                 KEY_A.encode().ljust(64, b"\x00")))
            f.write(blob)
            f.write(_FOOTER.seal(len(blob), zlib.crc32(blob)))
        assert cache.load("unit", KEY_A) is None

    def test_corruption_error_is_typed(self, tmp_path):
        cache = BuildCache(str(tmp_path))
        path = cache.store("unit", KEY_A, {"v": 1})
        _corrupt(path, _flip_payload_byte)
        with pytest.raises(CacheCorruptionError) as exc:
            read_entry(path, KEY_A)
        assert exc.value.reason == "checksum"
        assert exc.value.path == path


# ---------------------------------------------------------------------------
# warm builds: counted, equal, and free
# ---------------------------------------------------------------------------


def _cold_then_warm(tmp_path, name="calc"):
    source = load_source(name)
    spec, library = scanner_and_library(name)
    cold_metrics = MetricsRegistry()
    cold = Linguist(
        source, cache=BuildCache(str(tmp_path)), metrics=cold_metrics
    )
    cold_t = cold.make_translator(spec, library=library)
    warm_metrics = MetricsRegistry()
    warm = Linguist(
        source, cache=BuildCache(str(tmp_path)), metrics=warm_metrics
    )
    warm_t = warm.make_translator(spec, library=library)
    return cold, cold_t, cold_metrics, warm, warm_t, warm_metrics


class TestWarmBuild:
    def test_counters_and_equality(self, tmp_path):
        cold, cold_t, cm, warm, warm_t, wm = _cold_then_warm(tmp_path)
        assert not cold.from_cache and warm.from_cache
        cs, ws = cm.snapshot(), wm.snapshot()
        # cold: alias miss + grammar miss + scanner miss, three writes
        assert cs["cache.miss"] == 3 and cs["cache.write"] == 3
        assert cs.get("cache.hit", 0) == 0
        # warm: alias + grammar + scanner hits, nothing written
        assert ws["cache.hit"] == 3
        assert ws.get("cache.miss", 0) == 0 and ws.get("cache.write", 0) == 0
        assert ws["cache.alias.hit"] == 1
        assert ws["cache.grammar.hit"] == 1
        assert ws["cache.scanner.hit"] == 1
        # the rehydrated build equals the cold one
        assert [a.text for a in warm.python_artifacts] == [
            a.text for a in cold.python_artifacts
        ]
        text = "let a = 2 ; let b = a * a ; print b + 1"
        assert (
            warm_t.translate(text).root_attrs
            == cold_t.translate(text).root_attrs
        )

    def test_corrupt_entry_rebuilds_cleanly(self, tmp_path):
        """Corrupting every cached file still yields a working build —
        slower, never wrong, never a crash."""
        _cold_then_warm(tmp_path)
        cache = BuildCache(str(tmp_path))
        entries = cache.entries()
        assert {e.kind for e in entries} == {"alias", "grammar", "scanner"}
        for entry in entries:
            _corrupt(entry.path, _flip_payload_byte)
        metrics = MetricsRegistry()
        source = load_source("calc")
        spec, library = scanner_and_library("calc")
        rebuilt = Linguist(
            source, cache=BuildCache(str(tmp_path)), metrics=metrics
        )
        translator = rebuilt.make_translator(spec, library=library)
        assert not rebuilt.from_cache
        snap = metrics.snapshot()
        assert snap["cache.corrupt"] >= 2  # alias + grammar (+ scanner)
        assert snap["cache.write"] == 3  # everything re-sealed
        result = translator.translate("let a = 1 ; print a + 9")
        assert list(result.root_attrs["OUT"]) == [10]
        # and the very next build is warm again
        again = Linguist(source, cache=BuildCache(str(tmp_path)))
        assert again.from_cache

    def test_payload_missing_keys_is_a_cold_build(self, tmp_path):
        """A payload from some other layout (valid seal, wrong shape)
        is not trusted."""
        source = load_source("binary")
        Linguist(source, cache=BuildCache(str(tmp_path)))
        cache = BuildCache(str(tmp_path))
        skey = source_key(source)
        alias = cache.load("alias", skey)
        cache.store("grammar", alias["target"], {"ag": None})  # wrong shape
        rebuilt = Linguist(source, cache=BuildCache(str(tmp_path)))
        assert not rebuilt.from_cache
        assert rebuilt.n_passes >= 2


def test_poisoned_builders_warm_build(tmp_path, monkeypatch):
    """Seed the cache cold, then poison every builder and construct a
    full translator warm: zero LALR / DFA / planning / codegen work."""
    source = load_source("calc")
    spec, library = scanner_and_library("calc")
    Linguist(source, cache=BuildCache(str(tmp_path))).make_translator(
        spec, library=library
    )

    import repro.core.linguist as lingmod
    import repro.evalgen.codegen_py as codegen_py
    import repro.regex.generator as regexgen

    def poison(module, name):
        def boom(*args, **kwargs):
            raise AssertionError(
                f"{name} ran on the warm path (cache hit must do zero "
                "rebuild work)"
            )

        monkeypatch.setattr(module, name, boom)

    poison(lingmod, "parse_ag_text")
    poison(lingmod, "analyze")
    poison(lingmod, "check_noncircular")
    poison(lingmod, "build_tables")
    poison(lingmod, "assign_passes")
    poison(lingmod, "analyze_deadness")
    poison(lingmod, "choose_static_attributes")
    poison(lingmod, "build_pass_plans")
    poison(codegen_py.PythonCodeGenerator, "__init__")
    poison(lingmod, "PascalCodeGenerator")
    poison(regexgen, "build_nfa")
    poison(regexgen, "determinize")
    poison(regexgen, "minimize")

    warm = Linguist(source, cache=BuildCache(str(tmp_path)))
    assert warm.from_cache
    translator = warm.make_translator(spec, library=library)
    result = translator.translate("let a = 6 ; print a * 7")
    assert list(result.root_attrs["OUT"]) == [42]


def test_format_4_entry_is_a_miss_then_a_rebuild(tmp_path, monkeypatch):
    """Pass text cached under format 4 called ``rt.get_node``, which no
    longer exists: such an entry must never be exec'd.  The format is
    part of every key, so the lookup misses and the build runs cold."""
    import repro.buildcache.key as keymod

    source = load_source("calc")
    spec, library = scanner_and_library("calc")
    monkeypatch.setattr(keymod, "CACHE_FORMAT_VERSION", 4)
    old = Linguist(source, cache=BuildCache(str(tmp_path)))
    cache = BuildCache(str(tmp_path))
    payload = cache.load("grammar", grammar_key(old.ag))
    for artifact in payload["artifacts"]:
        artifact.text = "raise AssertionError('format-4 pass text was exec'd')\n"
    cache.store("grammar", grammar_key(old.ag), payload)
    monkeypatch.undo()

    metrics = MetricsRegistry()
    rebuilt = Linguist(source, cache=BuildCache(str(tmp_path)), metrics=metrics)
    assert not rebuilt.from_cache
    snap = metrics.snapshot()
    assert snap["cache.alias.miss"] == 1 and snap["cache.grammar.miss"] == 1
    assert snap["cache.write"] == 2  # the format-5 grammar entry + alias
    translator = rebuilt.make_translator(spec, library=library)
    assert list(translator.translate("let a = 6 ; print a * 7").root_attrs["OUT"]) == [42]
    assert Linguist(source, cache=BuildCache(str(tmp_path))).from_cache


def test_keys_are_stable_hex(tmp_path):
    """Keys are 64-char hex — filesystem-safe names under any OS."""
    source = load_source("binary")
    cold = Linguist(source)
    spec, _ = scanner_and_library("binary")
    for key in (
        grammar_key(cold.ag),
        scanner_key(spec),
        source_key(source),
    ):
        assert len(key) == 64
        assert all(c in "0123456789abcdef" for c in key)

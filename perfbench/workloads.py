"""The four benchmark workloads: build, compile, edit, serve.

Each workload is driven closed-loop from one process.  ``prepare``
makes the seeded inputs and their independent references before any
clock starts; ``setup`` is the timed path from nothing to ready for the
first input; ``run_item`` is the timed work of one input and ``check``
compares its output with the reference, untimed.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import inputs
from layers import LayerTracer

import repro
from repro.baseline import HandPascalCompiler
from repro.buildcache import BuildCache
from repro.core import Linguist
from repro.grammars import GRAMMAR_NAMES, load_source, scanner_and_library, source_path
from repro.obs import MetricsRegistry
from repro.workloads import (
    generate_binary_numeral,
    generate_calc_program,
    generate_pascal_program,
)

#: The ``src`` directory the serve daemon must import ``repro`` from.
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@dataclass
class Phase:
    """One timed phase: per-item latencies and what they produced."""

    latencies: List[float] = field(default_factory=list)
    lines: int = 0
    #: Peak RSS read after the first cycle (see :meth:`Workload.run`),
    #: or None.
    peak_rss_mb: Optional[float] = None
    #: For each latency, the index of the gauge sample taken just
    #: before it (see :class:`HostGauge`); empty when ungauged.
    gauge_index: List[int] = field(default_factory=list)
    #: Seconds of item work: the sum of the latencies.
    busy: float = 0.0
    wall: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)

    @property
    def lines_per_s(self) -> float:
        return self.lines / self.busy if self.busy > 0 else 0.0


def code_bytes(linguist: Linguist) -> int:
    return sum(p.total_bytes for p in linguist.code_sizes("python").passes)


def dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


def read_hwm_kib(pid: int) -> int:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def reset_hwm(pid: int) -> None:
    """Reset the kernel's peak-RSS mark (``VmHWM``) of ``pid``."""
    with open(f"/proc/{pid}/clear_refs", "w") as f:
        f.write("5")


def warm_translator(name: str, cache_dir: str):
    spec, library = scanner_and_library(name)
    linguist = Linguist(load_source(name), filename=source_path(name), cache=BuildCache(cache_dir))
    return linguist, linguist.make_translator(spec, library=library)


class Workload:
    """One workload, driven closed-loop over its input cycle."""

    name = ""
    #: Timed set-ups per run; ``setup_s`` is their median.
    setup_repeats = 7

    def __init__(self, seed: int, tmp: str, tiny: bool = False):
        self.seed = seed
        self.tmp = tmp
        self.tiny = tiny
        self.cycle: List[Any] = []
        self.counts: Dict[str, float] = {}
        self.evaluator_code_bytes = 0

    def prepare(self) -> None:
        raise NotImplementedError

    def setup(self, index: int) -> Any:
        raise NotImplementedError

    def teardown(self, state: Any) -> None:
        pass

    def run_item(self, state: Any, item: Any, metrics: Optional[MetricsRegistry]) -> Tuple[int, Any]:
        """Do one item's work; return (source lines, output)."""
        raise NotImplementedError

    def check(self, item: Any, output: Any) -> Optional[str]:
        """None when ``output`` equals the item's reference, else why not."""
        raise NotImplementedError

    def count_item(self, item: Any, output: Any, metrics: MetricsRegistry) -> None:
        """Accumulate the deterministic per-layer counts of one item."""

    def new_cycle(self, state: Any) -> None:
        """Untimed preparation before every cycle but the first (no-op)."""

    def timed_setup(self, index: int) -> Tuple[Any, float]:
        """One set-up after a full collection; (state, seconds)."""
        gc.collect()
        t0 = time.perf_counter()
        state = self.setup(index)
        return state, time.perf_counter() - t0

    def layer_snapshot(self, state: Any) -> Any:
        """What :meth:`layer_values` needs from before the traced phase."""
        return None

    def layer_values(self, state: Any, before: Any, traced: "Phase") -> Dict[str, float]:
        """Per-layer values read outside the spans, after the traced phase."""
        return {}

    def run(self, state: Any, seconds: float, tracer: LayerTracer, min_items: int = 0,
            sampler: Optional["SetupSampler"] = None,
            gauge: Optional["HostGauge"] = None) -> Phase:
        """Closed loop over the input cycle until ``seconds`` of item
        work and ``min_items`` items are done, always ending on a cycle
        boundary: every run then covers the same multiset of inputs, so
        its percentiles do not depend on where the clock cut a cycle.
        ``sampler`` times its set-ups between items, untimed by the phase,
        once the first cycle (and the memory reading after it) is done.
        ``gauge`` reads the host's speed before every item, untimed."""
        phase = Phase()
        start = time.perf_counter()
        n = len(self.cycle)
        i = 0
        while i == 0 or i % n or phase.busy < seconds or i < min_items:
            if min_items and i == n:
                # Memory is read after one cycle, a fixed amount of work,
                # not at the end of a time-bounded run: a process whose
                # memory grows with every item would otherwise report
                # host speed.
                phase.peak_rss_mb = self.peak_rss_mb(state)
            if i and i % n == 0:
                with tracer.paused():
                    self.new_cycle(state)
            if sampler is not None and i >= n and sampler.due(phase.busy):
                sampler.take()
            if gauge is not None:
                gauge.sample()
            item = self.cycle[i % n]
            counting = tracer.enabled and i < n
            metrics = MetricsRegistry() if counting else None
            phase.attempted += 1
            t0 = time.perf_counter()
            try:
                lines, output = self.run_item(state, item, metrics)
            except Exception as exc:  # a failed item is counted, not fatal
                phase.busy += time.perf_counter() - t0
                phase.fail(f"{type(exc).__name__}: {exc}")
                i += 1
                continue
            elapsed = time.perf_counter() - t0
            phase.busy += elapsed
            phase.latencies.append(elapsed)
            if gauge is not None:
                phase.gauge_index.append(len(gauge.samples) - 1)
            phase.lines += lines
            with tracer.paused():
                why = self.check(item, output)
                if why is not None:
                    phase.fail(why)
                if counting:
                    self.count_item(item, output, metrics)
                    if i == n - 1:
                        self.counts.update(tracer.counts)
            i += 1
        phase.wall = time.perf_counter() - start
        if min_items and phase.peak_rss_mb is None:
            phase.peak_rss_mb = self.peak_rss_mb(state)
        return phase

    def peak_rss_mb(self, state: Any) -> float:
        return read_hwm_kib(os.getpid()) / 1024.0

    def reset_peak_rss(self, state: Any) -> None:
        reset_hwm(os.getpid())


class SetupSampler:
    """Times ``count`` throwaway set-ups spread evenly over a phase's
    ``seconds`` of item work.  The host's speed flips by about 1.4x from
    one second to the next, so set-ups bunched before or after the phase
    see one host state each; spread over the phase, their median sees the
    same mix of states as the phase does.  Each time is kept with the
    index of the gauge sample that follows it."""

    def __init__(self, workload: Workload, count: int, seconds: float, gauge: "HostGauge"):
        self.workload = workload
        self.count = count
        self.seconds = seconds
        self.gauge = gauge
        self.times: List[Tuple[float, int]] = []

    def due(self, busy: float) -> bool:
        taken = len(self.times)
        return taken < self.count and busy >= (taken + 1) * self.seconds / (self.count + 1)

    def take(self) -> None:
        state, seconds = self.workload.timed_setup(1 + len(self.times))
        self.times.append((seconds, len(self.gauge.samples)))
        self.workload.teardown(state)

    def finish(self) -> None:
        """Take the set-ups a short phase left over."""
        while len(self.times) < self.count:
            self.take()


def _gauge_tree(depth: int) -> list:
    return [depth, _gauge_tree(depth - 1), _gauge_tree(depth - 1)] if depth else [0, None, None]


def _gauge_walk(node: list) -> int:
    if node[1] is None:
        return 1
    return (_gauge_walk(node[1]) + 2 * _gauge_walk(node[2])) % 1009


def gauge_work() -> int:
    """A fixed piece of pure-Python work like the program's own: dict
    and string traffic (a scanner's symbol tables) plus building and
    walking a small tree (an APT and its evaluator).  It is the
    benchmark's code, so no change to the program moves it."""
    table: Dict[str, int] = {}
    names = []
    for i in range(3000):
        name = "k%d" % (i % 400)
        table[name] = table.get(name, 0) + i
        names.append(name)
    return len("".join(names)) + _gauge_walk(_gauge_tree(9))


class HostGauge:
    """Reads the speed of the shared host while a run measures.

    The host's speed drifts by up to ~1.45x within tens of seconds (a
    fixed CPU loop averaged 10.3 to 14.8 ms over consecutive 20-second
    windows), so two runs of the same code, or two stretches of one run,
    can land in different regimes.  :func:`gauge_work` is timed before
    every item, and every measured time is converted to a reference host
    on which it takes :attr:`REFERENCE_S`: the time is multiplied by
    :meth:`scale_at` for the samples around it (a rate is divided).  The
    program and the gauge slow down together: over ten seeds per workload
    in a busy stretch of the host, converted lines_per_s spread 5-9% where
    the raw figure spread 17-30% (IQR over median)."""

    #: Median of :func:`gauge_work` on the reference host.
    REFERENCE_S = 0.003
    #: Samples on each side of a time that set its scale: a regime lasts
    #: seconds, five samples span under a second of most workloads.
    HALF_WINDOW = 2

    def __init__(self):
        self.samples: List[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        gauge_work()
        self.samples.append(time.perf_counter() - t0)

    def scale_at(self, index: int) -> float:
        """Reference-host factor for a time taken next to sample ``index``."""
        lo = max(0, index - self.HALF_WINDOW)
        return self.REFERENCE_S / statistics.median(self.samples[lo:index + self.HALF_WINDOW + 1])


# ---------------------------------------------------------------------------
# build: LINGUIST itself, cold
# ---------------------------------------------------------------------------


@dataclass
class BuildItem:
    name: str
    source: str
    lines: int
    spec: Any = None
    library: Any = None
    sample: Any = None  # text for shipped grammars, a token list otherwise
    reference: Dict[str, str] = field(default_factory=dict)


ASM_SAMPLE = "start: add 1\n jmp end\n add 2\n jmp start\nend: halt\n"


class BuildWorkload(Workload):
    name = "build"
    setup_repeats = 25

    def _shipped_samples(self, rng: random.Random) -> Dict[str, str]:
        return {
            "binary": generate_binary_numeral(24, seed=rng.randrange(1, 1 << 30)),
            "calc": generate_calc_program(20, seed=rng.randrange(1, 1 << 30)),
            "pascal": generate_pascal_program(20, seed=rng.randrange(1, 1 << 30)),
            "asm": ASM_SAMPLE,
            "linguist": load_source("binary"),
        }

    def _inputs(self) -> List[BuildItem]:
        rng = random.Random(self.seed)
        samples = self._shipped_samples(rng)
        items = []
        for name in GRAMMAR_NAMES:
            spec, library = scanner_and_library(name)
            source = load_source(name)
            items.append(BuildItem(name, source, len(source.splitlines()), spec, library, samples[name]))
        ladder = inputs.AG_LADDER[:2] if self.tiny else inputs.AG_LADDER
        for g in inputs.generated_grammars(self.seed, ladder):
            items.append(BuildItem(g.name, g.source, len(g.source.splitlines()), sample=g.sample))
        return items

    def prepare(self) -> None:
        items = self._inputs()
        if self.tiny:
            items = [it for it in items if it.name in ("binary", "calc") or it.spec is None]
        for item in items:
            reference = Linguist(item.source)
            self.evaluator_code_bytes += code_bytes(reference)
            if item.spec is not None:
                translator = reference.make_translator(item.spec, library=item.library)
                tokens = list(translator.scanner.tokens(item.sample))
            else:
                translator = reference.make_translator()
                tokens = inputs.make_tokens(item.sample)
            item.reference = inputs.oracle_attrs(reference.ag, translator.library, translator.parser, tokens)
        self.cycle = inputs.interleaved(items, cost=lambda it: it.lines)
        self._n = 0

    def setup(self, index: int) -> Any:
        """Temp dirs and generated inputs: the run builds these sources
        (the same texts ``prepare`` made its references from)."""
        root = os.path.join(self.tmp, f"setup{index}")
        os.makedirs(root)
        return root, {item.name: item.source for item in self._inputs()}

    def teardown(self, state: Any) -> None:
        shutil.rmtree(state[0], ignore_errors=True)

    def run_item(self, state, item: BuildItem, metrics):
        self._n += 1
        cache = BuildCache(os.path.join(state[0], f"cache{self._n}"))
        linguist = Linguist(state[1][item.name], filename=f"{item.name}.ag", cache=cache)
        if item.spec is not None:
            translator = linguist.make_translator(item.spec, library=item.library)
        else:
            translator = linguist.make_translator()
        return item.lines, (linguist, translator, cache.root)

    def check(self, item: BuildItem, output) -> Optional[str]:
        linguist, translator, cache_root = output
        try:
            if item.spec is not None:
                result = translator.translate(item.sample)
            else:
                result = translator.translate_tokens(inputs.make_tokens(item.sample))
            ok = inputs.matches_oracle(result.root_attrs, item.reference)
        finally:
            self._last_store_bytes = dir_bytes(cache_root)
            shutil.rmtree(cache_root, ignore_errors=True)
        return None if ok else f"{item.name}: translator output differs from the oracle"

    def count_item(self, item, output, metrics) -> None:
        self.counts["buildcache.store_bytes"] = self.counts.get("buildcache.store_bytes", 0) + self._last_store_bytes


# ---------------------------------------------------------------------------
# compile: warm translators over a program mix
# ---------------------------------------------------------------------------


def _translation_counts(counts: Dict[str, float], metrics: MetricsRegistry) -> None:
    snap = metrics.snapshot()
    add = lambda k, v: counts.__setitem__(k, counts.get(k, 0) + v)  # noqa: E731
    add("apt.nodes", snap.get("apt.nodes", 0))
    add("apt.io_bytes", snap.get("io.bytes_read", 0) + snap.get("io.bytes_written", 0))
    counts["apt.mem_peak_bytes"] = max(counts.get("apt.mem_peak_bytes", 0), snap.get("mem.peak_bytes", 0))
    add("evalgen.copyrules_elided", snap.get("evt.copyrule_elided", 0))
    add("evalgen.dead_attrs_skipped", snap.get("evt.dead_attrs_skipped", 0))
    add("evalgen.records_written", sum(
        v for k, v in snap.items() if k.startswith("pass.") and k.endswith(".records_written")
    ))
    for key in ("incremental.hits", "incremental.misses", "incremental.spliced_records", "incremental.spine_nodes"):
        add(key, snap.get(key, 0))


class CompileWorkload(Workload):
    name = "compile"
    setup_repeats = 15

    def prepare(self) -> None:
        self.cache_dir = os.path.join(self.tmp, "cache")
        refs = {}
        for name in ("pascal", "linguist"):
            linguist, translator = warm_translator(name, self.cache_dir)
            refs[name] = translator
            self.evaluator_code_bytes += code_bytes(linguist)
        pascal_ladder = inputs.COMPILE_PASCAL_LADDER[:3] if self.tiny else inputs.COMPILE_PASCAL_LADDER
        ag_ladder = inputs.AG_LADDER[:1] if self.tiny else inputs.AG_LADDER[::2]
        hand = HandPascalCompiler()
        items = [
            ("pascal", text, inputs.pascal_reference(text, hand))
            for text in inputs.pascal_programs(self.seed, pascal_ladder)
        ]
        ag_texts = [load_source(n) for n in (["binary"] if self.tiny else GRAMMAR_NAMES)]
        ag_texts += [g.source for g in inputs.generated_grammars(self.seed, ag_ladder)]
        ling = refs["linguist"]
        for text in ag_texts:
            ref = inputs.oracle_attrs(ling.ag, ling.library, ling.parser, list(ling.scanner.tokens(text)))
            items.append(("linguist", text, ref))
        self.cycle = inputs.interleaved(items, cost=lambda it: len(it[1]))

    def setup(self, index: int) -> Any:
        """Translators warm-started from the seeded build cache."""
        return {name: warm_translator(name, self.cache_dir)[1] for name in ("pascal", "linguist")}

    def run_item(self, state, item, metrics):
        grammar, text, _ = item
        result = state[grammar].translate(text, metrics=metrics)
        return len(text.splitlines()), result.root_attrs

    def check(self, item, output) -> Optional[str]:
        grammar, _, ref = item
        ok = inputs.pascal_ok(output, ref) if grammar == "pascal" else inputs.matches_oracle(output, ref)
        return None if ok else f"{grammar}: output differs from the reference"

    def count_item(self, item, output, metrics) -> None:
        _translation_counts(self.counts, metrics)


# ---------------------------------------------------------------------------
# edit: memo-spliced re-translation of edited documents
# ---------------------------------------------------------------------------


class EditWorkload(Workload):
    name = "edit"
    setup_repeats = 9

    def prepare(self) -> None:
        self.cache_dir = os.path.join(self.tmp, "cache")
        versions = 4 if self.tiny else inputs.EDIT_VERSIONS
        hand = HandPascalCompiler()
        self.docs = {}
        pascal = inputs.edit_versions("pascal", self.seed, versions)
        calc = inputs.edit_versions("calc", self.seed, versions)
        for name, texts in (("pascal", pascal), ("calc", calc)):
            linguist, translator = warm_translator(name, self.cache_dir)
            self.evaluator_code_bytes += code_bytes(linguist)
            if name == "pascal":
                refs = [inputs.pascal_reference(t, hand) for t in texts]
            else:
                refs = [
                    inputs.oracle_attrs(translator.ag, translator.library, translator.parser,
                                        list(translator.scanner.tokens(t)))
                    for t in texts
                ]
            self.docs[name] = (texts, refs)
        steps = {name: inputs.ping_pong(len(texts))[1:] + [0] for name, (texts, _) in self.docs.items()}
        self.cycle = [(name, v) for pair in zip(steps["pascal"], steps["calc"]) for name, v in zip(("pascal", "calc"), pair)]

    def setup(self, index: int) -> Any:
        """Warm translators plus one priming translation per document."""
        state = {}
        for name, (texts, _) in self.docs.items():
            translator = warm_translator(name, self.cache_dir)[1]
            memo_dir = os.path.join(self.tmp, f"memo{index}-{name}")
            translator.translate(texts[0], memo_dir=memo_dir)
            state[name] = (translator, memo_dir)
        return state

    def teardown(self, state) -> None:
        for _, memo_dir in state.values():
            shutil.rmtree(memo_dir, ignore_errors=True)

    def new_cycle(self, state) -> None:
        """Every cycle is a fresh edit session: new translators and memos.
        The process's memory grows with every memo translation (about
        65 MiB per cycle), so without this each cycle would run on a
        bigger heap than the last and cost more the longer a run lasts."""
        self.teardown(state)
        self._cycles = getattr(self, "_cycles", 0) + 1
        state.update(self.setup(1000 + self._cycles))

    def run_item(self, state, item, metrics):
        name, v = item
        translator, memo_dir = state[name]
        text = self.docs[name][0][v]
        result = translator.translate(text, metrics=metrics, memo_dir=memo_dir)
        return len(text.splitlines()), result.root_attrs

    def check(self, item, output) -> Optional[str]:
        name, v = item
        ref = self.docs[name][1][v]
        ok = inputs.pascal_ok(output, ref) if name == "pascal" else inputs.matches_oracle(output, ref)
        return None if ok else f"{name} version {v}: output differs from the reference"

    def count_item(self, item, output, metrics) -> None:
        _translation_counts(self.counts, metrics)

    def layer_values(self, state, before, traced) -> Dict[str, float]:
        return {"incremental.memo_bytes": sum(dir_bytes(d) for _, d in state.values())}


# ---------------------------------------------------------------------------
# serve: the HTTP daemon with two workers and the journal on
# ---------------------------------------------------------------------------


def descendants(pid: int) -> List[int]:
    out, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except FileNotFoundError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{parent}/task/{tid}/children") as f:
                    kids = [int(k) for k in f.read().split()]
            except FileNotFoundError:
                continue
            out += kids
            frontier += kids
    return out


#: Longest a daemon may take from spawn to healthy before the run fails.
START_TIMEOUT_S = 60.0


@dataclass
class Daemon:
    proc: subprocess.Popen
    port: int
    journal: str
    #: The client's keep-alive connection, opened by the first request.
    conn: Optional[http.client.HTTPConnection] = None


class ServeWorkload(Workload):
    name = "serve"
    #: One client connection sends the next program when the previous
    #: answer arrives.  Two clients keep both CPUs of a 2-CPU host busy,
    #: which exposes every run to the host's other tenants: in six
    #: alternating pairs, two clients spread lines_per_s by 13% and the p50
    #: by 16% (IQR over median), one client by 4.7% and 9.6%.
    setup_repeats = 6

    def prepare(self) -> None:
        self.cache_dir = os.path.join(self.tmp, "cache")
        linguist, _ = warm_translator("pascal", self.cache_dir)
        self.evaluator_code_bytes = code_bytes(linguist)
        hand = HandPascalCompiler()
        ladder = inputs.SERVE_PASCAL_LADDER[:3] if self.tiny else inputs.SERVE_PASCAL_LADDER
        items = []
        for text in inputs.pascal_programs(self.seed, ladder):
            code = inputs.pascal_reference(text, hand)
            items.append((text, f"CODE = {code}\nMSGS = []\n"))
        self.cycle = inputs.interleaved(items, cost=lambda it: len(it[0]))
        self.env = dict(
            os.environ,
            PYTHONPATH=SRC_DIR,
            TMPDIR=self.tmp,
            REPRO_CACHE_DIR=self.cache_dir,
        )

    def setup(self, index: int) -> Daemon:
        """Daemon spawn until ``/healthz`` answers 200."""
        journal = os.path.join(self.tmp, f"journal{index}")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", source_path("pascal"),
             "--port", "0", "--workers", "2", "--journal", journal,
             "--cache-dir", self.cache_dir],
            # Unbuffered, so select() sees every line the daemon prints.
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, bufsize=0,
            env=self.env, start_new_session=True,
        )
        daemon = Daemon(proc, 0, journal)
        deadline = time.perf_counter() + START_TIMEOUT_S
        try:
            while not daemon.port:
                ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.perf_counter()))
                line = proc.stdout.readline().decode() if ready else ""
                if not line:
                    raise RuntimeError("repro serve exited or stalled before listening")
                m = re.search(r"listening on http://[^:]+:(\d+)", line)
                if m:
                    daemon.port = int(m.group(1))
            while self._get(daemon, "/healthz")[0] != 200:
                if time.perf_counter() > deadline:
                    raise RuntimeError("repro serve never reported healthy")
                time.sleep(0.005)
        except BaseException:
            self.teardown(daemon)
            raise
        return daemon

    def _get(self, daemon: Daemon, path: str) -> Tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def stats(self, daemon: Daemon) -> Dict[str, Any]:
        return json.loads(self._get(daemon, "/stats")[1])

    def layer_snapshot(self, daemon: Daemon) -> Dict[str, Any]:
        return self.stats(daemon)

    def layer_values(self, daemon: Daemon, before, traced) -> Dict[str, float]:
        """Serve's layers, from the daemon's ``/stats`` around the phase."""
        after = self.stats(daemon)

        def delta(key):
            return after.get(key, 0) - before.get(key, 0)

        hist_b = before.get("serve.request.seconds") or {}
        hist_a = after.get("serve.request.seconds") or {}
        n = hist_a.get("count", 0) - hist_b.get("count", 0)
        daemon_s = (hist_a.get("sum", 0.0) - hist_b.get("sum", 0.0)) / n if n else 0.0
        client_s = statistics.mean(traced.latencies) if traced.latencies else 0.0
        admitted = delta("serve.admitted")
        return {
            "serve.daemon_request_s": daemon_s,
            "serve.client_overhead_s": client_s - daemon_s,
            "serve.admitted": admitted,
            "serve.rejected": delta("serve.rejected"),
            "serve.restarts": after.get("serve.worker_restarts", 0),
            "serve.journal_bytes_per_request": (
                delta("serve.journal.bytes") / admitted if admitted else 0.0),
            "batch.shm.export_bytes": after.get("batch.shm.export_bytes", 0),
            "batch.shm.frames": after.get("batch.shm.frames", 0),
        }

    def teardown(self, daemon: Daemon) -> None:
        if daemon.conn is not None:
            daemon.conn.close()
        try:
            daemon.proc.send_signal(signal.SIGTERM)
            daemon.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            daemon.proc.kill()
            daemon.proc.communicate(timeout=30)
        finally:
            try:
                os.killpg(daemon.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            shutil.rmtree(daemon.journal, ignore_errors=True)

    def peak_rss_mb(self, daemon: Daemon) -> float:
        pids = [daemon.proc.pid] + descendants(daemon.proc.pid)
        return sum(read_hwm_kib(p) for p in pids) / 1024.0

    def reset_peak_rss(self, daemon: Daemon) -> None:
        for pid in [daemon.proc.pid] + descendants(daemon.proc.pid):
            reset_hwm(pid)

    def run_item(self, daemon: Daemon, item, metrics):
        text, _ = item
        if daemon.conn is None:
            daemon.conn = http.client.HTTPConnection("127.0.0.1", daemon.port, timeout=60)
        try:
            daemon.conn.request("POST", "/translate?grammar=pascal", body=text.encode())
            response = daemon.conn.getresponse()
            body = response.read().decode()
        except (OSError, http.client.HTTPException):
            daemon.conn.close()
            daemon.conn = None
            raise
        return len(text.splitlines()), (response.status, body)

    def check(self, item, output) -> Optional[str]:
        status, body = output
        if status != 200:
            return f"HTTP {status}: {body[:120]}"
        return None if body == item[1] else "served output differs from the reference"


WORKLOADS = {
    w.name: w for w in (BuildWorkload, CompileWorkload, EditWorkload, ServeWorkload)
}

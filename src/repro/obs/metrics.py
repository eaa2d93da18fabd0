"""The metrics registry: counters, gauges, histograms — one interface.

Before this subsystem existed the repo's quantitative claims were backed
by three ad-hoc counters (``IOAccountant``, ``MemoryGauge``,
``OverlayClock``) that benchmarks read directly.  The
:class:`MetricsRegistry` absorbs all three behind one interface:

* native metrics — :class:`Counter`, :class:`Gauge`, :class:`Histogram`
  — are created on first use by name;
* existing accounting objects register as **sources**: a prefix plus a
  ``snapshot()`` callable whose keys are merged into the registry's own
  :meth:`~MetricsRegistry.snapshot` under ``prefix.key``.

The historical names survive as thin compatibility shims: the real
implementations of :class:`IOAccountant` and :class:`MemoryGauge` now
live here (``repro.util.iotrack`` re-exports them), and
``repro.core.overlays.OverlayClock`` subclasses :class:`StageClock`.
Benchmarks read :meth:`MetricsRegistry.snapshot`, so the numbers they
report and the telemetry the ``trace``/``profile`` CLI commands export
can never diverge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import TelemetryError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "IOStats",
    "ChannelStats",
    "IOAccountant",
    "MemoryGauge",
    "StageTimes",
    "StageClock",
]


# ---------------------------------------------------------------------------
# Native metric kinds
# ---------------------------------------------------------------------------


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A value that can move both ways; tracks its peak."""

    __slots__ = ("name", "value", "peak")
    kind = "gauge"

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self.peak = 0

    def set(self, value) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value

    def add(self, n) -> None:
        self.set(self.value + n)

    def sub(self, n) -> None:
        self.value -= n

    def reset(self) -> None:
        self.value = 0
        self.peak = 0


class Histogram:
    """Streaming summary of observed values (count/sum/min/max/mean)."""

    __slots__ = ("name", "count", "total", "min", "max")
    kind = "histogram"

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
        }

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None


class _Timer:
    """Context manager observing a block's wall time into a histogram."""

    __slots__ = ("_hist", "_started")

    def __init__(self, hist: Histogram):
        self._hist = hist
        self._started = 0.0

    def __enter__(self) -> "_Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._hist.observe(time.perf_counter() - self._started)


class MetricsRegistry:
    """Named metrics plus pluggable snapshot sources, one namespace."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Any] = {}
        self._sources: Dict[str, Callable[[], Dict[str, Any]]] = {}

    # -- native metrics ----------------------------------------------------

    def _get(self, name: str, cls) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TelemetryError(
                f"metric {name!r} already registered as a {metric.kind}, "
                f"not a {cls.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def timer(self, name: str) -> _Timer:
        """``with registry.timer("phase.seconds"): ...`` observes seconds."""
        return _Timer(self.histogram(name))

    # -- sources -----------------------------------------------------------

    def register_source(
        self, prefix: str, snapshot_fn: Callable[[], Dict[str, Any]]
    ) -> None:
        """Merge ``snapshot_fn()`` under ``prefix.*`` at snapshot time.

        Re-registering a prefix replaces the previous source (a fresh
        evaluation driver supersedes the last run's counters).
        """
        self._sources[prefix] = snapshot_fn

    # -- unified view ------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """One flat dict unifying native metrics and every source.

        Counters map to ints, gauges contribute ``name`` and
        ``name.peak``, histograms map to their summary dict; source keys
        are prefixed (nested dicts, e.g. per-channel stats, stay nested).
        """
        snap: Dict[str, Any] = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, Counter):
                snap[name] = metric.value
            elif isinstance(metric, Gauge):
                snap[name] = metric.value
                snap[f"{name}.peak"] = metric.peak
            else:
                snap[name] = metric.snapshot()
        for prefix, fn in self._sources.items():
            for key, value in fn().items():
                snap[f"{prefix}.{key}"] = value
        return snap

    def render(self, title: str = "metrics") -> str:
        """Human-readable table of the current snapshot."""
        snap = self.snapshot()
        lines = [f"{title}:"]
        for key in sorted(snap):
            value = snap[key]
            if isinstance(value, dict):
                lines.append(f"  {key}:")
                for sub in sorted(value):
                    lines.append(f"    {sub:<24} {_fmt(value[sub]):>14}")
            else:
                lines.append(f"  {key:<38} {_fmt(value):>14}")
        return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6f}" if value < 1000 else f"{value:,.1f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


# ---------------------------------------------------------------------------
# I/O accounting (compatibility shims for repro.util.iotrack)
# ---------------------------------------------------------------------------


@dataclass
class IOStats:
    """Record/byte traffic counters shared by totals and channels.

    One dataclass serves both the accountant's totals and each
    per-channel breakdown — previously ``ChannelStats`` duplicated the
    fields and ``charge_*`` logic.
    """

    records_read: int = 0
    records_written: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def charge_read(self, nbytes: int) -> None:
        self.records_read += 1
        self.bytes_read += nbytes

    def charge_write(self, nbytes: int) -> None:
        self.records_written += 1
        self.bytes_written += nbytes

    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    @property
    def total_records(self) -> int:
        return self.records_read + self.records_written

    def snapshot(self) -> Dict[str, int]:
        return {
            "records_read": self.records_read,
            "records_written": self.records_written,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }

    def reset(self) -> None:
        self.records_read = 0
        self.records_written = 0
        self.bytes_read = 0
        self.bytes_written = 0


#: Historical name for per-channel traffic counters.
ChannelStats = IOStats


@dataclass
class IOAccountant(IOStats):
    """Counts record and byte traffic between memory and "disk".

    Totals live on the inherited :class:`IOStats` fields; a per-channel
    breakdown (e.g. ``{"pass1.out": IOStats(...)}``) accumulates in
    :attr:`by_channel`.  :meth:`bind` registers the accountant with a
    :class:`MetricsRegistry` so its counters appear in the unified
    snapshot under an ``io.`` prefix.
    """

    by_channel: Dict[str, IOStats] = field(default_factory=dict)

    def charge_read(self, nbytes: int, channel: str = "") -> None:
        self.records_read += 1
        self.bytes_read += nbytes
        if channel:
            self._channel(channel).charge_read(nbytes)

    def charge_write(self, nbytes: int, channel: str = "") -> None:
        self.records_written += 1
        self.bytes_written += nbytes
        if channel:
            self._channel(channel).charge_write(nbytes)

    def charge_write_many(
        self, n: int, nbytes: int, channel: str = ""
    ) -> None:
        """Charge ``n`` written records totalling ``nbytes`` in one call
        (a sealed spool or a memo splice; totals match ``n``
        charge_write calls)."""
        self.records_written += n
        self.bytes_written += nbytes
        if channel:
            stats = self._channel(channel)
            stats.records_written += n
            stats.bytes_written += nbytes

    def charge_read_many(
        self, n: int, nbytes: int, channel: str = ""
    ) -> None:
        """Charge ``n`` read records totalling ``nbytes`` in one call
        (a whole spool read; totals match ``n`` charge_read calls)."""
        self.records_read += n
        self.bytes_read += nbytes
        if channel:
            stats = self._channel(channel)
            stats.records_read += n
            stats.bytes_read += nbytes

    def _channel(self, name: str) -> IOStats:
        stats = self.by_channel.get(name)
        if stats is None:
            stats = IOStats()
            self.by_channel[name] = stats
        return stats

    def snapshot(self) -> Dict[str, Any]:
        snap: Dict[str, Any] = IOStats.snapshot(self)
        snap["by_channel"] = {
            name: stats.snapshot() for name, stats in self.by_channel.items()
        }
        return snap

    def bind(self, registry: MetricsRegistry, prefix: str = "io") -> "IOAccountant":
        registry.register_source(prefix, self.snapshot)
        return self

    def reset(self) -> None:
        IOStats.reset(self)
        self.by_channel.clear()


# ---------------------------------------------------------------------------
# Memory gauge (compatibility shim for repro.util.iotrack)
# ---------------------------------------------------------------------------


class MemoryGauge:
    """Tracks currently resident and peak resident bytes of APT nodes.

    Evaluators call :meth:`acquire` when a node enters the in-memory
    stack (``GetNode``) and :meth:`release` when it is written back
    (``PutNode``).  ``peak_bytes`` is the 48K-claim comparator.

    The ledger is defensive: a :meth:`release` that would drive the
    resident figures negative **clamps at zero** and is counted in
    :attr:`unbalanced_releases` instead of silently corrupting the peak
    statistics; with ``strict=True`` it raises immediately, and
    :meth:`assert_balanced` verifies a finished run returned every
    acquired byte.
    """

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self.current_bytes = 0
        self.peak_bytes = 0
        self.current_nodes = 0
        self.peak_nodes = 0
        self.total_acquired = 0
        self.total_released = 0
        self.unbalanced_releases = 0

    def acquire(self, nbytes: int) -> None:
        self.current_bytes += nbytes
        self.current_nodes += 1
        self.total_acquired += nbytes
        if self.current_bytes > self.peak_bytes:
            self.peak_bytes = self.current_bytes
        if self.current_nodes > self.peak_nodes:
            self.peak_nodes = self.current_nodes

    def release(self, nbytes: int) -> None:
        self.total_released += nbytes
        if nbytes > self.current_bytes or self.current_nodes == 0:
            self.unbalanced_releases += 1
            if self.strict:
                raise TelemetryError(
                    f"memory gauge underflow: release({nbytes}) with "
                    f"{self.current_bytes} bytes / {self.current_nodes} "
                    "nodes resident"
                )
            self.current_bytes = max(0, self.current_bytes - nbytes)
            self.current_nodes = max(0, self.current_nodes - 1)
            return
        self.current_bytes -= nbytes
        self.current_nodes -= 1

    def assert_balanced(self) -> None:
        """Raise unless every acquire was matched by an exact release."""
        if (
            self.unbalanced_releases
            or self.current_bytes != 0
            or self.current_nodes != 0
        ):
            raise TelemetryError(
                "memory gauge unbalanced: "
                f"{self.current_bytes} bytes / {self.current_nodes} nodes "
                f"still resident, {self.unbalanced_releases} clamped "
                f"releases (acquired {self.total_acquired}, released "
                f"{self.total_released})"
            )

    def snapshot(self) -> Dict[str, int]:
        return {
            "current_bytes": self.current_bytes,
            "peak_bytes": self.peak_bytes,
            "current_nodes": self.current_nodes,
            "peak_nodes": self.peak_nodes,
            "unbalanced_releases": self.unbalanced_releases,
        }

    def bind(self, registry: MetricsRegistry, prefix: str = "mem") -> "MemoryGauge":
        registry.register_source(prefix, self.snapshot)
        return self

    def reset(self) -> None:
        self.current_bytes = 0
        self.peak_bytes = 0
        self.current_nodes = 0
        self.peak_nodes = 0
        self.total_acquired = 0
        self.total_released = 0
        self.unbalanced_releases = 0


# ---------------------------------------------------------------------------
# Stage timing (compatibility base for repro.core.overlays)
# ---------------------------------------------------------------------------


@dataclass
class StageTimes:
    """Ordered per-stage wall-clock times of one pipeline run."""

    entries: List[Tuple[str, float]] = field(default_factory=list)

    def record(self, name: str, seconds: float) -> None:
        self.entries.append((name, seconds))

    @property
    def total(self) -> float:
        return sum(t for _, t in self.entries)

    def render(self) -> str:
        width = max(len(n) for n, _ in self.entries) if self.entries else 10
        lines = [
            f"  {name:>{width}} - {seconds * 1000:8.1f} ms"
            for name, seconds in self.entries
        ]
        lines.append(f"  {'TOTAL':>{width}} - {self.total * 1000:8.1f} ms")
        return "\n".join(lines)


class StageClock:
    """Times named pipeline stages, optionally tracing and metering them.

    With a ``tracer``, each stage runs inside a span (category
    ``overlay``); with a ``metrics`` registry, the clock registers a
    snapshot source mapping ``<stage>.seconds`` (plus per-stage I/O and
    peak-memory deltas read from the registry's ``io.``/``mem.`` keys)
    under the given prefix.
    """

    timing_factory = StageTimes

    def __init__(
        self,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
        cat: str = "overlay",
        prefix: str = "overlay",
    ):
        self.timing = self.timing_factory()
        self.tracer = tracer
        self.metrics = metrics
        self.cat = cat
        self.details: Dict[str, Dict[str, float]] = {}
        if metrics is not None:
            metrics.register_source(prefix, self._source)

    def _source(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for name, seconds in self.timing.entries:
            out[f"{name}.seconds"] = seconds
            for key, value in self.details.get(name, {}).items():
                out[f"{name}.{key}"] = value
        out["total.seconds"] = self.timing.total
        return out

    def _pulse(self) -> Tuple[int, int]:
        """(total io bytes, peak resident bytes) right now, if metered."""
        if self.metrics is None:
            return (0, 0)
        snap = self.metrics.snapshot()
        io_bytes = snap.get("io.bytes_read", 0) + snap.get("io.bytes_written", 0)
        return (io_bytes, snap.get("mem.peak_bytes", 0))

    def run(self, name: str, thunk: Callable[[], Any]) -> Any:
        tracer = self.tracer
        io_before, _ = self._pulse()
        if tracer is not None:
            tracer.begin(name, cat=self.cat)
        started = time.perf_counter()
        try:
            result = thunk()
        finally:
            seconds = time.perf_counter() - started
            if tracer is not None:
                tracer.end()
        self.timing.record(name, seconds)
        io_after, peak_after = self._pulse()
        self.details[name] = {
            "io_bytes": io_after - io_before,
            "peak_bytes": peak_after,
        }
        return result

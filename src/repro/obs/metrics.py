"""A unified metrics registry: counters, gauges, log-bucketed histograms.

Before this module existed, runtime statistics were scattered across
``FabricStats``, ``ReliableStats``, ``PeStats`` and ad-hoc tracer
counters, each with its own shape and no common way to snapshot a run.
:class:`MetricsRegistry` puts one queryable surface over all of them:

* **instruments** — :class:`Counter`, :class:`Gauge` and
  :class:`Histogram` objects created on first use via
  :meth:`MetricsRegistry.counter` / ``gauge`` / ``histogram`` and
  updated directly on hot paths (all O(1));
* **collectors** — callables returning ``{name: value}`` mappings,
  registered with :meth:`MetricsRegistry.register_collector`.  The
  existing stat structs stay exactly where they are (tests and load
  balancers read them in place); the registry *pulls* from them at
  snapshot time, so wrapping them costs nothing per event.

:meth:`MetricsRegistry.snapshot` merges both sources into a flat,
JSON-friendly dict.  Metric names are dotted paths
(``"fabric.wan-artificial.messages"``, ``"trace.masked_fraction"``);
the registry imposes no schema beyond name uniqueness per kind.

Each :class:`~repro.grid.environment.GridEnvironment` owns a private
registry so that two simulations never share counters; a process-wide
default registry is available via :func:`default_registry` for code
running outside an environment.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.errors import ConfigurationError

MetricValue = Union[int, float]
Collector = Callable[[], Mapping[str, MetricValue]]


class Counter:
    """A monotonically increasing count (events, bytes, retransmits)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: MetricValue = 0

    def inc(self, amount: MetricValue = 1) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value (queue depth, imbalance ratio, RTO)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: MetricValue = 0

    def set(self, value: MetricValue) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """A log-bucketed histogram of non-negative samples.

    Buckets are geometric: bucket *i* covers
    ``[least * growth**i, least * growth**(i+1))``, with one underflow
    bucket for samples below *least* (including zero).  Geometric
    buckets keep the memory footprint O(log(max/min)) regardless of how
    many samples are recorded — entry-method durations span nanoseconds
    to seconds, and a sweep records millions of them.

    Parameters
    ----------
    least:
        Lower bound of the first bucket.  Defaults to 1 ns, suiting
        durations in seconds.
    growth:
        Bucket width ratio (> 1).  The default of 2 gives power-of-two
        buckets.
    """

    __slots__ = ("name", "least", "growth", "_log_growth", "count",
                 "total", "min", "max", "buckets", "_last", "_last_index")

    def __init__(self, name: str, least: float = 1e-9,
                 growth: float = 2.0) -> None:
        if least <= 0:
            raise ConfigurationError(f"histogram least must be > 0: {least}")
        if growth <= 1.0:
            raise ConfigurationError(f"histogram growth must be > 1: {growth}")
        self.name = name
        self.least = least
        self.growth = growth
        self._log_growth = math.log(growth)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        #: bucket index -> sample count; index -1 is the underflow bucket.
        self.buckets: Dict[int, int] = {}
        #: The previous sample and its bucket: consecutive samples repeat
        #: heavily (a cost model's grains), and the bucket costs a log.
        self._last = -1.0
        self._last_index = 0

    def record(self, value: float) -> None:
        if value < 0:
            raise ConfigurationError(
                f"histogram {self.name!r} got negative sample {value}")
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value != self._last:
            self._last = value
            self._last_index = self.bucket_index(value)
        idx = self._last_index
        self.buckets[idx] = self.buckets.get(idx, 0) + 1

    def record_many(self, value: float, count: int) -> None:
        """Record *count* samples of *value* in one step.

        Equal to *count* :meth:`record` calls whenever the running sum
        is exact, e.g. for integer-valued samples such as queue depths.
        """
        if count <= 0:
            return
        if value < 0:
            raise ConfigurationError(
                f"histogram {self.name!r} got negative sample {value}")
        self.count += count
        self.total += value * count
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        idx = self.bucket_index(value)
        self.buckets[idx] = self.buckets.get(idx, 0) + count

    def bucket_index(self, value: float) -> int:
        """The bucket a sample falls in (-1 is the underflow bucket)."""
        if value < self.least:
            return -1
        return int(math.log(value / self.least) / self._log_growth + 1e-12)

    def bucket_bounds(self, index: int) -> Tuple[float, float]:
        """``[lo, hi)`` bounds of bucket *index*."""
        if index < 0:
            return (0.0, self.least)
        return (self.least * self.growth ** index,
                self.least * self.growth ** (index + 1))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate q-quantile, linearly interpolated.

        The covering bucket is found by rank; the returned value
        interpolates linearly within that bucket's bounds (clamped to
        the observed ``[min, max]``), rather than pessimistically
        reporting the bucket's upper bound.
        """
        if not (0.0 <= q <= 1.0):
            raise ConfigurationError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for idx in sorted(self.buckets):
            n = self.buckets[idx]
            if seen + n >= target:
                lo, hi = self.bucket_bounds(idx)
                frac = (target - seen) / n
                value = lo + frac * (hi - lo)
                return min(max(value, self.min), self.max)
            seen += n
        return self.max  # pragma: no cover - defensive

    def to_dict(self) -> Dict[str, MetricValue]:
        out: Dict[str, MetricValue] = {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Histogram({self.name}: n={self.count}, "
                f"mean={self.mean:.3g})")


class MetricsRegistry:
    """Named instruments plus pull-collectors, snapshot-able as one dict.

    Instrument getters are *get-or-create*: the first call with a name
    creates the instrument, later calls return the same object.  Asking
    for an existing name as a different kind raises — a counter silently
    shadowing a gauge is precisely the bug this registry exists to
    prevent.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._collectors: List[Tuple[str, Collector]] = []

    # -- instruments -----------------------------------------------------

    def _check_unique(self, name: str, kind: str) -> None:
        owners = {"counter": self._counters, "gauge": self._gauges,
                  "histogram": self._histograms}
        for other_kind, table in owners.items():
            if other_kind != kind and name in table:
                raise ConfigurationError(
                    f"metric {name!r} already registered as a {other_kind}")

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            self._check_unique(name, "counter")
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            self._check_unique(name, "gauge")
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str, least: float = 1e-9,
                  growth: float = 2.0) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            self._check_unique(name, "histogram")
            h = self._histograms[name] = Histogram(name, least, growth)
        return h

    # -- collectors ------------------------------------------------------

    def register_collector(self, name: str, collector: Collector) -> None:
        """Register a pull source consulted at snapshot time.

        *collector* returns a ``{metric_name: value}`` mapping; *name*
        identifies the source in error messages and allows replacement
        (re-registering a name overwrites the previous collector, so an
        environment can re-wire after swapping a fabric).
        """
        for i, (existing, _fn) in enumerate(self._collectors):
            if existing == name:
                self._collectors[i] = (name, collector)
                return
        self._collectors.append((name, collector))

    # -- querying --------------------------------------------------------

    def snapshot(self) -> Dict[str, MetricValue]:
        """Flat ``{name: value}`` view of every metric, collectors included.

        Histograms contribute ``name.count`` / ``name.sum`` /
        ``name.mean`` / ``name.min`` / ``name.max`` plus interpolated
        ``name.p50`` / ``name.p95`` / ``name.p99`` sub-keys.
        """
        out: Dict[str, MetricValue] = {}
        for name, c in self._counters.items():
            out[name] = c.value
        for name, g in self._gauges.items():
            out[name] = g.value
        for name, h in self._histograms.items():
            for sub, value in h.to_dict().items():
                out[f"{name}.{sub}"] = value
        for source, collector in self._collectors:
            values = collector()
            for name, value in values.items():
                if name in out:
                    raise ConfigurationError(
                        f"collector {source!r} redefines metric {name!r}")
                out[name] = value
        return dict(sorted(out.items()))

    def get(self, name: str, default: Optional[MetricValue] = None
            ) -> Optional[MetricValue]:
        """One metric's current value (snapshot semantics for collectors)."""
        return self.snapshot().get(name, default)

    def render(self) -> str:
        """Aligned text table of the current snapshot (for logs/CLI)."""
        snap = self.snapshot()
        if not snap:
            return "(no metrics)"
        width = max(len(k) for k in snap)
        lines = []
        for key, value in snap.items():
            if isinstance(value, float):
                lines.append(f"{key:<{width}}  {value:.6g}")
            else:
                lines.append(f"{key:<{width}}  {value}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"MetricsRegistry(counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, "
                f"histograms={len(self._histograms)}, "
                f"collectors={len(self._collectors)})")


#: Process-wide fallback registry for code running outside an environment.
_DEFAULT: Optional[MetricsRegistry] = None


def default_registry() -> MetricsRegistry:
    """The process-wide registry (created on first use)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = MetricsRegistry()
    return _DEFAULT

"""Wall-clock self-profiler: where does *host* time go?

Everything else in :mod:`repro.obs` measures the *simulated* clock; this
module measures the simulator itself.  Performance work (vectorized
kernels, a leaner message stack) is judged on host wall-clock, so the
repository needs a first-party answer to "which layer is slow" that
does not require strapping cProfile onto every run.

:class:`WallProfiler` is a *stack-free* phase timer.  The engine's
dispatch loop (see :meth:`repro.sim.engine.Engine._run_all`) takes one
chained clock read per fired event (the timestamp after event *N* is
the start of event *N+1*) and reports ``(action, elapsed)`` here; the
elapsed time lands in a flat ``function -> (calls, seconds)`` bucket
table, and each function is classified into a coarse phase by its
defining module — scheduler, network, telemetry, application — only at
reporting time (there are a handful of distinct dispatch functions, so
the fold is O(functions), not O(events)).  No per-event allocation, no
call stack, no sampling bias: total accounted time is exact to clock
resolution, and the per-event cost is one ``perf_counter`` call plus a
dict probe, bounded < 5 % by the perf-smoke acceptance bar.

Sink self-timing is *reused*, never paid for: when a sampling budget
has already installed the :class:`~repro.obs.health.TimedSink`
stride-sampler for the :class:`~repro.obs.health.ObsGovernor`, its
cumulative cost registers as a **nested** source here (trace sinks run
inside dispatch phases, so their time is a refinement of, not an
addition to, the dispatch total).  The profiler never installs a
TimedSink itself — without a budget the sinks' time simply stays
folded into the dispatch phases that call them.
Explicit non-dispatch blocks (report building, critical-path analysis)
are timed with the :meth:`WallProfiler.section` context manager.

The clock is injectable, so unit tests drive a fake clock and assert
exact aggregation; :meth:`summary` exports per-phase shares into the
run ledger (:mod:`repro.obs.ledger`), and
:meth:`chrome_trace_events` emits a flamegraph-shaped process —
a root ``run`` slice with one child slice per phase — that rides in
the same trace-event file as the virtual-time timeline.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: Dispatch-phase classification by defining-module prefix, first match
#: wins.  ``repro.obs`` actions (the telemetry sampler's daemon tick)
#: are observability's own dispatch share; anything unknown (test
#: lambdas, drivers defined in __main__) lands in "other".
_PREFIX_PHASES: Tuple[Tuple[str, str], ...] = (
    ("repro.core", "scheduler"),
    ("repro.network", "network"),
    ("repro.obs", "obs.telemetry"),
    ("repro.apps", "app"),
    ("repro.ampi", "app"),
    ("repro.sim", "engine"),
    ("repro.grid", "engine"),
)

_OTHER_PHASE = "other"


def classify_action(func) -> str:
    """Coarse profiler phase for an engine-dispatched callable.

    Classification is by the *defining module* of the underlying
    function (``__func__`` for bound methods), which survives closures
    and partials created inside the layer they belong to.
    """
    mod = getattr(func, "__module__", None) or ""
    for prefix, phase in _PREFIX_PHASES:
        if mod == prefix or mod.startswith(prefix + "."):
            return phase
    return _OTHER_PHASE


class WallProfiler:
    """Flat wall-clock phase aggregation with an injectable clock.

    Parameters
    ----------
    clock:
        Wall-clock source; tests inject a fake for deterministic
        aggregation assertions.  The total window is ``clock()`` at
        :meth:`summary` time minus ``clock()`` at construction, so a
        profiler built alongside the environment also accounts setup
        and analysis time (as ``unaccounted`` unless wrapped in a
        :meth:`section`).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        #: section name -> [calls, wall_seconds] for explicit
        #: :meth:`section` blocks; dispatch events aggregate per
        #: *function* in :attr:`_buckets` and fold into phases at
        #: reporting time via :meth:`phase_table`.
        self.phases: Dict[str, List[float]] = {}
        #: function object -> [calls, wall_seconds].  Keying the hot
        #: path by the underlying function (one dict probe, two list
        #: updates) defers phase classification entirely to reporting
        #: time — there are only ever a handful of distinct dispatch
        #: functions, so the fold is O(functions), not O(events).
        self._buckets: Dict[object, List[float]] = {}
        #: (name, cumulative-cost callable) pairs whose time is *inside*
        #: the dispatch phases (e.g. TimedSink): reported as nested,
        #: excluded from the unaccounted computation.
        self._nested: List[Tuple[str, Callable[[], float]]] = []
        self._t0 = clock()

    # -- recording --------------------------------------------------------

    def record_action(self, action, elapsed_s: float) -> None:
        """Account one dispatched event (called from the engine loop)."""
        func = getattr(action, "__func__", action)
        bucket = self._buckets.get(func)
        if bucket is None:
            bucket = self._buckets[func] = [0, 0.0]
        bucket[0] += 1
        bucket[1] += elapsed_s

    @contextmanager
    def section(self, name: str):
        """Time an explicit non-dispatch block (analysis, export...)."""
        t0 = self.clock()
        try:
            yield
        finally:
            elapsed = self.clock() - t0
            bucket = self.phases.get(name)
            if bucket is None:
                bucket = self.phases[name] = [0, 0.0]
            bucket[0] += 1
            bucket[1] += elapsed

    def add_nested_source(self, name: str,
                          cost_fn: Callable[[], float]) -> None:
        """Register a cumulative cost already contained in other phases.

        The governor's :class:`~repro.obs.health.TimedSink` estimate is
        the canonical case: sink calls run *inside* scheduler/network
        dispatch, so their seconds refine the dispatch totals rather
        than adding to them.
        """
        self._nested.append((name, cost_fn))

    # -- reporting --------------------------------------------------------

    def total_wall_s(self) -> float:
        """Wall seconds since construction (the profiled window)."""
        return max(self.clock() - self._t0, 0.0)

    def phase_table(self) -> Dict[str, List[float]]:
        """Merged ``phase -> [calls, wall_seconds]`` table.

        Folds the per-function dispatch buckets through
        :func:`classify_action` and merges the explicit sections —
        the deferred half of the hot path's work, run once per report.
        """
        table: Dict[str, List[float]] = {}
        for func, (calls, wall) in self._buckets.items():
            row = table.setdefault(classify_action(func), [0, 0.0])
            row[0] += calls
            row[1] += wall
        for name, (calls, wall) in self.phases.items():
            row = table.setdefault(name, [0, 0.0])
            row[0] += calls
            row[1] += wall
        return table

    def summary(self) -> Dict[str, object]:
        """JSON-friendly per-phase shares for the run ledger."""
        total = self.total_wall_s()
        table = self.phase_table()
        phases: Dict[str, Dict[str, object]] = {}
        accounted = 0.0
        for name in sorted(table):
            calls, wall = table[name]
            accounted += wall
            phases[name] = {
                "calls": int(calls),
                "wall_s": wall,
                "share": wall / total if total > 0 else 0.0,
            }
        for name, cost_fn in self._nested:
            cost = cost_fn()
            phases[name] = {
                "wall_s": cost,
                "share": cost / total if total > 0 else 0.0,
                "nested": True,
            }
        unaccounted = max(total - accounted, 0.0)
        return {
            "total_wall_s": total,
            "unaccounted_s": unaccounted,
            "unaccounted_share": (unaccounted / total if total > 0
                                  else 0.0),
            "phases": phases,
        }

    def render(self) -> str:
        """Terminal rendering: one bar row per phase, largest first."""
        doc = self.summary()
        total = doc["total_wall_s"]
        lines = [f"wall-clock profile: {total * 1e3:.1f} ms total"]
        rows = sorted(doc["phases"].items(),
                      key=lambda kv: -kv[1]["wall_s"])
        width = max((len(n) for n, _ in rows), default=0)
        for name, row in rows:
            bar = "#" * int(round(row["share"] * 30))
            nested = "  (nested)" if row.get("nested") else ""
            calls = (f"  {row['calls']:7d} calls"
                     if "calls" in row else " " * 15)
            lines.append(f"  {name:<{width}}  {row['wall_s'] * 1e3:8.2f} ms"
                         f"  {row['share']:6.1%} {bar}{calls}{nested}")
        lines.append(f"  {'(unaccounted)':<{width}}  "
                     f"{doc['unaccounted_s'] * 1e3:8.2f} ms"
                     f"  {doc['unaccounted_share']:6.1%}")
        return "\n".join(lines)

    def chrome_trace_events(self, pid: int = 2) -> List[dict]:
        """Flamegraph-shaped trace-event slices for this profile.

        One Chrome-trace *process* (default pid 2, next to the PE
        timeline at 0 and the network lanes at 1): a root ``run`` slice
        spanning the whole profiled window, child slices for each phase
        laid out left-to-right largest-first, nested sources as
        grandchildren at the origin of the slice they refine.  The
        horizontal axis is *cumulative wall time*, not when the work
        happened — the flamegraph convention.
        """
        doc = self.summary()
        total_us = doc["total_wall_s"] * 1e6
        events: List[dict] = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": "wall-clock profile"}},
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": "phases"}},
            {"name": "run", "ph": "X", "pid": pid, "tid": 0,
             "ts": 0.0, "dur": total_us,
             "args": {"unaccounted_s": doc["unaccounted_s"]}},
        ]
        cursor = 0.0
        flat = [(n, r) for n, r in doc["phases"].items()
                if not r.get("nested")]
        flat.sort(key=lambda kv: -kv[1]["wall_s"])
        for name, row in flat:
            dur = row["wall_s"] * 1e6
            if dur <= 0.0:
                continue
            args = {"share": row["share"]}
            if "calls" in row:
                args["calls"] = row["calls"]
            events.append({"name": name, "ph": "X", "pid": pid, "tid": 0,
                           "ts": cursor, "dur": dur, "args": args})
            cursor += dur
        # Nested sources refine the dispatch slices; they are drawn at
        # the root's origin one level deeper (their own row via a
        # second tid keeps Chrome's nesting rules happy even when they
        # straddle phase boundaries).
        for name, row in doc["phases"].items():
            if not row.get("nested"):
                continue
            dur = min(row["wall_s"], doc["total_wall_s"]) * 1e6
            if dur <= 0.0:
                continue
            events.append({"name": name, "ph": "X", "pid": pid, "tid": 1,
                           "ts": 0.0, "dur": dur,
                           "args": {"share": row["share"],
                                    "nested": True}})
        return events

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"WallProfiler(phases={sorted(self.phase_table())}, "
                f"total={self.total_wall_s():.3f}s)")


def install_profiler(engine, profiler: Optional[WallProfiler]) -> None:
    """Attach *profiler* to *engine*'s dispatch loop (None detaches)."""
    engine.profiler = profiler

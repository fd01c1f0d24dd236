"""Deterministic discrete-event simulation engine.

The engine owns a virtual clock and a single priority queue of events.
Events are ``(time, tiebreak, action)`` triples; *tiebreak* is a
monotonically increasing sequence number so that two events scheduled for
the same instant always fire in the order they were scheduled.  This is
what makes every simulation in the library bit-reproducible: no wall-clock
time, no hash ordering, no thread scheduling ever enters the picture.

The engine is intentionally tiny.  Everything interesting (processors,
networks, chares) is built on top of two operations:

* :meth:`Engine.post` — schedule a callback at an absolute virtual time.
* :meth:`Engine.run` — drain the queue until empty (or until a limit).

``post`` accepts an optional ``args`` tuple applied at fire time
(``action(*args)``).  Hot paths use this instead of wrapping arguments
in a lambda: a tuple is one small allocation where a closure costs a
function object plus one cell per captured variable, and the per-event
difference adds up over millions of simulated messages.

Only ``post`` returns an :class:`EventHandle`.  Events that are never
cancelled — message deliveries and the ends of entry executions, nearly
every event of a run — go through :meth:`Engine.fire_at`, whose queue
entry is a bare ``[when, seq, action, args]`` with no handle behind it.
Both kinds draw from one sequence counter, so ties fire in posting
order whichever method posted them.

Events posted with ``daemon=True`` are *background* events (telemetry
sampler ticks): they fire in time order like any other event, but they
do not count toward :attr:`Engine.pending` and do not keep :meth:`run`
alive — a run ends when only daemon events remain, exactly as it would
with none queued.  Without this, a self-rescheduling sampler would both
livelock ``run()`` and defeat quiescence detection (``pending == 0``).

Example
-------
>>> eng = Engine()
>>> order = []
>>> eng.post(2.0, lambda: order.append("b"))
>>> eng.post(1.0, lambda: order.append("a"))
>>> eng.run()
>>> order
['a', 'b']
>>> eng.now
2.0
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.errors import SchedulingError, SimulationError

Action = Callable[..., None]


#: Queue-entry layout: ``[when, seq, action, args]``.  A cancelled
#: entry keeps its place in the heap with ``action`` set to ``None``.
_WHEN, _SEQ, _ACTION, _ARGS = range(4)

_NO_ARGS: tuple = ()


class EventHandle:
    """Opaque handle returned by :meth:`Engine.post`, usable for cancellation.

    Cancellation is *lazy*: the event stays in the heap but is skipped when
    it reaches the front.  This keeps ``cancel`` O(1).

    The heap entry of a cancellable event fires the handle itself, which
    marks the event fired (so a late ``cancel`` is a no-op), settles the
    engine's daemon count and then runs the action.  Events that are never
    cancelled (:meth:`Engine.fire_at`) skip all of this: the dispatch loop
    runs their action straight from the entry.
    """

    __slots__ = ("time", "seq", "_entry", "_engine", "_action", "_args",
                 "_daemon", "_state")

    def __init__(self, engine: "Engine", time: float, seq: int,
                 action: Action, args: tuple, daemon: bool) -> None:
        self.time = time
        self.seq = seq
        self._engine = engine
        self._action = action
        self._args = args
        self._daemon = daemon
        #: ``None`` while queued, then "fired" or "cancelled".
        self._state: Optional[str] = None
        self._entry = [time, seq, self, _NO_ARGS]

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`Engine.cancel` was called on this handle."""
        return self._state == "cancelled"

    def __call__(self) -> None:
        self._state = "fired"
        self._entry = None  # popped: drop the entry <-> handle cycle
        if self._daemon:
            self._engine._daemon_live -= 1
        self._action(*self._args)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EventHandle(time={self.time!r}, seq={self.seq})"


class Engine:
    """A minimal, deterministic discrete-event simulation core.

    Parameters
    ----------
    start_time:
        Initial value of the virtual clock, in seconds.  Defaults to 0.
    max_events:
        Safety valve: :meth:`run` raises :class:`SimulationError` after
        processing this many events, catching accidental livelock
        (e.g. two chares ping-ponging forever).  ``None`` disables it.
    """

    def __init__(self, start_time: float = 0.0,
                 max_events: Optional[int] = None) -> None:
        #: Current virtual time in seconds.  A plain attribute, read on
        #: every send and execution; only the engine advances it.
        self.now: float = float(start_time)
        self._queue: List[list] = []
        self._seq: int = 0
        self._running: bool = False
        self._events_processed: int = 0
        self._max_events = max_events
        #: Lazily-cancelled entries still sitting in the heap.
        self._cancelled_in_queue: int = 0
        #: Live (queued, not cancelled) daemon entries in the heap.
        self._daemon_live: int = 0
        #: Optional :class:`~repro.obs.profiler.WallProfiler`: when set,
        #: dispatch loops time each fired action and report it.  Virtual
        #: time is identical either way — the profiler only *observes*
        #: wall clock; when ``None`` the dispatch loops are untouched.
        self.profiler = None

    # -- clock --------------------------------------------------------------

    @property
    def events_processed(self) -> int:
        """Number of events executed since construction."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of live (not-yet-fired, not-cancelled) events in the queue.

        Cancelled events linger in the heap until they surface, but they
        are excluded here so that quiescence detection (``pending == 0``)
        is not fooled by dead retransmit timers and the like.  Daemon
        events (telemetry ticks) are likewise excluded: they observe the
        simulation but are not part of its workload.
        """
        return len(self._queue) - self._cancelled_in_queue - self._daemon_live

    # -- scheduling -----------------------------------------------------------

    def post(self, when: float, action: Action,
             daemon: bool = False, args: tuple = _NO_ARGS) -> EventHandle:
        """Schedule ``action(*args)`` to run at absolute virtual time *when*.

        Returns a handle for :meth:`cancel`.  Events that are never
        cancelled should use :meth:`fire_at`, which skips the handle.

        With ``daemon=True`` the event is a background event: it fires in
        time order like any other, but does not count toward
        :attr:`pending` and does not keep :meth:`run` going once only
        daemon events remain (telemetry samplers reschedule themselves
        forever; the simulation must still terminate).

        Raises
        ------
        SchedulingError
            If *when* is earlier than the current virtual time.
        """
        if when < self.now:
            raise SchedulingError(
                f"cannot schedule event at t={when!r} before now={self.now!r}")
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(self, when, seq, action, args, daemon)
        heapq.heappush(self._queue, handle._entry)
        if daemon:
            self._daemon_live += 1
        return handle

    def fire_at(self, when: float, action: Action,
                args: tuple = _NO_ARGS) -> None:
        """Schedule ``action(*args)`` at *when*, with no way to cancel it.

        The event takes the next sequence number, so it orders against
        :meth:`post` events exactly as a ``post`` at the same point would;
        it only skips the handle.  Message deliveries and execution ends
        are never cancelled and use this.

        Raises
        ------
        SchedulingError
            If *when* is earlier than the current virtual time.
        """
        if when < self.now:
            raise SchedulingError(
                f"cannot schedule event at t={when!r} before now={self.now!r}")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, [when, seq, action, args])

    def post_in(self, delay: float, action: Action,
                daemon: bool = False, args: tuple = _NO_ARGS) -> EventHandle:
        """Schedule ``action(*args)`` to run *delay* seconds from now.

        Negative delays are rejected; a zero delay schedules the action at
        the current instant, after all previously scheduled same-instant
        events.
        """
        if delay < 0.0:
            raise SchedulingError(f"negative delay {delay!r}")
        return self.post(self.now + delay, action, daemon=daemon, args=args)

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a previously posted event.  Idempotent; a no-op after
        the event has already fired."""
        if handle._state is None:
            handle._state = "cancelled"
            handle._action = None
            handle._args = _NO_ARGS
            handle._entry[_ACTION] = None
            self._cancelled_in_queue += 1
            if handle._daemon:
                self._daemon_live -= 1

    # -- execution ------------------------------------------------------------

    def _fire(self, when: float, action: Action, args: tuple) -> None:
        """Advance the clock to *when* and run one popped live event."""
        self.now = when
        self._events_processed += 1
        if (self._max_events is not None
                and self._events_processed > self._max_events):
            raise SimulationError(
                f"exceeded max_events={self._max_events}; "
                "likely a livelock in the simulated system")
        profiler = self.profiler
        if profiler is None:
            action(*args)
        else:
            t0 = profiler.clock()
            action(*args)
            if type(action) is EventHandle:  # bill the posted action
                action = action._action
            profiler.record_action(action, profiler.clock() - t0)

    def step(self) -> bool:
        """Fire the single next event.  Returns ``False`` when queue is empty."""
        while self._queue:
            when, _seq, action, args = heapq.heappop(self._queue)
            if action is None:  # lazily cancelled
                self._cancelled_in_queue -= 1
                continue
            self._fire(when, action, args)
            return True
        return False

    def run(self, until: Optional[float] = None) -> float:
        """Drain the event queue.

        Parameters
        ----------
        until:
            If given, stop once the next event would fire strictly after
            this virtual time; the clock is then advanced exactly to
            *until*.  If ``None``, run until no non-daemon events remain
            (a self-rescheduling daemon must not keep the run alive).

        Returns
        -------
        float
            The virtual time at which execution stopped.
        """
        if self._running:
            raise SimulationError("Engine.run() is not re-entrant")
        self._running = True
        try:
            if until is None:
                self._run_all()
            else:
                self._run_bounded(until)
                if self.now < until:
                    self.now = until
        finally:
            self._running = False
        return self.now

    def _run_bounded(self, bound: float) -> None:
        """Dispatch loop of ``run(until=bound)``: fires every event with
        ``when <= bound``, skipping lazily-cancelled entries (popped and
        accounted here, exactly once)."""
        queue = self._queue
        pop = heapq.heappop
        while queue:
            entry = queue[0]
            if entry[_ACTION] is None:
                pop(queue)
                self._cancelled_in_queue -= 1
                continue
            if entry[_WHEN] > bound:
                break
            pop(queue)
            self._fire(entry[_WHEN], entry[_ACTION], entry[_ARGS])

    def _run_all(self) -> None:
        """Run-until-quiescence fast path: :meth:`step` inlined.

        Semantically identical to ``while self.pending > 0: self.step()``
        but with the queue, ``heappop`` and the max-events limit held in
        locals and no property/method call per event.  This is the loop
        every simulation spends its life in, so the constant factor
        matters; any behavioral change here must land in :meth:`_fire`
        too (and vice versa).  ``pending > 0`` guarantees a live
        non-daemon event, so the pop loop always fires something; daemon
        events fire too (in time order) but cannot keep the loop alive
        alone.  Their count is settled by their handle when they fire,
        not here.

        With a profiler attached, dispatch runs through the separate
        :meth:`_run_all_profiled` variant so the common case pays zero
        per-event cost for the feature; the two loops must stay
        behaviorally identical apart from the timing.
        """
        if self.profiler is not None:
            self._run_all_profiled()
            return
        queue = self._queue
        pop = heapq.heappop
        max_events = self._max_events
        while len(queue) > self._cancelled_in_queue + self._daemon_live:
            when, _seq, action, args = pop(queue)
            if action is None:
                self._cancelled_in_queue -= 1
                continue
            self.now = when
            self._events_processed += 1
            if (max_events is not None
                    and self._events_processed > max_events):
                raise SimulationError(
                    f"exceeded max_events={max_events}; "
                    "likely a livelock in the simulated system")
            action(*args)

    def _run_all_profiled(self) -> None:
        """:meth:`_run_all` with per-event wall-clock attribution.

        A verbatim copy of the fast path plus ONE chained clock read and
        one :meth:`~repro.obs.profiler.WallProfiler.record_action` call
        per fired event: the timestamp taken after event *N* doubles as
        the start of event *N+1*, so the heap pop and loop bookkeeping
        between them are charged to the action they precede.  That keeps
        total accounted time exact while halving the clock cost — the
        profiler's whole dispatch overhead, bounded < 5 % by the
        perf-smoke acceptance bar.  Virtual-time behaviour is
        bit-identical to the unprofiled loop.
        """
        queue = self._queue
        pop = heapq.heappop
        max_events = self._max_events
        profiler = self.profiler
        clock = profiler.clock
        record = profiler.record_action
        buckets = profiler._buckets
        t_prev = clock()
        while len(queue) > self._cancelled_in_queue + self._daemon_live:
            when, _seq, action, args = pop(queue)
            if action is None:
                self._cancelled_in_queue -= 1
                continue
            self.now = when
            self._events_processed += 1
            if (max_events is not None
                    and self._events_processed > max_events):
                raise SimulationError(
                    f"exceeded max_events={max_events}; "
                    "likely a livelock in the simulated system")
            action(*args)
            t_now = clock()
            # WallProfiler.record_action inlined (bucket-hit fast path)
            # to drop a method call per event; the miss path delegates
            # and creates the per-function bucket.
            if type(action) is EventHandle:
                action = action._action
            func = getattr(action, "__func__", action)
            bucket = buckets.get(func)
            if bucket is None:
                record(action, t_now - t_prev)
            else:
                bucket[0] += 1
                bucket[1] += t_now - t_prev
            t_prev = t_now

    # -- debugging -------------------------------------------------------------

    def snapshot(self) -> Tuple[float, int, int]:
        """Return ``(now, pending, processed)`` for logging/assertions."""
        return (self.now, self.pending, self._events_processed)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Engine(now={self.now:.9f}, pending={self.pending}, "
                f"processed={self._events_processed})")

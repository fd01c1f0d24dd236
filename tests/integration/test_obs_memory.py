"""Default observability keeps fixed memory.

With stats on (the library default) the streaming aggregator folds every
event into per-PE, per-lane and per-object state as it arrives, so what
it retains is proportional to the machine and the objects, not to the
number of events.  These tests run the same configuration for different
lengths and compare what the aggregator still holds, check that the
per-message bookkeeping it keeps is released when the message is done
with, and that the live fold and its replay from a full trace agree.
"""

from __future__ import annotations

import inspect
import tracemalloc
from collections import Counter

from repro.apps.leanmd import LeanMDApp
from repro.apps.stencil import StencilApp
from repro.grid.presets import artificial_latency_env, lossy_wan_env
from repro.obs.objview import ObjectView, fold_from_tracer
from repro.sim.trace import TraceAggregator
from repro.units import ms

#: Growth allowed between a 4-step and a 16-step 8-PE x 64-object run.
#: What still grows is the few grain values float rounding adds as
#: virtual time advances: tens of kB.  Buffering every labelled event
#: retained about 0.9 MB more for the 12 extra steps.
GROWTH_BOUND_BYTES = 128 * 1024


def _aggregator_bytes(steps: int) -> int:
    """Bytes allocated in the aggregator's module and alive after a run."""
    env = artificial_latency_env(8, ms(2))
    app = StencilApp(env, mesh=(512, 512), objects=64, payload="modeled",
                     seed=0)
    tracemalloc.start()
    try:
        app.run(steps)
        snap = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert env.aggregator.objview.profiles  # the fold is live
    module = inspect.getsourcefile(TraceAggregator)
    traces = snap.filter_traces([tracemalloc.Filter(True, module)])
    return sum(stat.size for stat in traces.statistics("filename"))


def test_aggregator_memory_does_not_grow_with_run_length():
    short, long = _aggregator_bytes(4), _aggregator_bytes(16)
    assert long - short < GROWTH_BOUND_BYTES, (short, long)


def _stencil(env, steps=4):
    StencilApp(env, mesh=(128, 128), objects=32, payload="modeled",
               seed=0).run(steps)
    return env


def test_ack_deliveries_are_not_parked_for_queue_wait():
    """Acks never trigger an execution, so neither fold parks them; nor
    do the duplicate copies the reliable layer suppresses.  After the
    run nothing is left parked on either fold."""
    env = _stencil(lossy_wan_env(8, ms(2), trace=True))
    delivered = Counter(ev.seq for ev in env.tracer.messages
                        if ev.kind == "deliver" and ev.ack_for is None)
    acks = {ev.seq for ev in env.tracer.messages
            if ev.kind == "deliver" and ev.ack_for is not None}
    assert acks
    assert env.transport.rstats.dups_suppressed > 0
    assert max(delivered.values()) > 1  # duplicate copies did arrive
    live, replay = env.aggregator.objview, fold_from_tracer(env.tracer)
    assert live.to_dict() == replay.to_dict()
    assert live._pending == {}
    assert replay._pending == {}


def test_wan_dedup_ids_stay_empty_without_arq():
    """A fault-free run needs no record of delivered WAN messages."""
    env = artificial_latency_env(8, ms(2))
    StencilApp(env, mesh=(512, 512), objects=64, payload="modeled",
               seed=0).run(4)
    agg = env.aggregator
    assert agg.wan_delivers > 0 and agg.wan.windows > 0
    assert agg._wan_delivered == set()


def test_wan_dedup_ids_hold_only_unacked_transfers():
    """Under ARQ a delivered transfer is remembered only until its ack
    reaches the sender, and the windows still match the batch trace."""
    env = lossy_wan_env(8, ms(2), seed=3, trace=True)
    LeanMDApp(env, cells=(4, 4, 4), payload="modeled", seed=0).run(2)
    agg, tracer = env.aggregator, env.tracer
    assert env.transport.rstats.retransmits > 0
    acked = {(ev.dst_pe, ev.src_pe, ev.ack_for) for ev in tracer.messages
             if ev.kind == "deliver" and ev.ack_for is not None}
    assert acked
    assert not agg._wan_delivered & acked
    assert agg.wan.windows == len(tracer.wan_flight_windows())


def test_live_and_replayed_fold_totals_agree_bitwise():
    """Object totals sum in label order, not profile-creation order (the
    replay creates every profile from the messages before any
    execution).  This run's compute total has non-dyadic terms whose sum
    depends on the order."""
    env = artificial_latency_env(16, ms(2), trace=True)
    StencilApp(env, mesh=(1024, 1024), objects=256, payload="modeled",
               seed=0).run(4)
    live = ObjectView.from_source(env.aggregator)
    replay = ObjectView.from_source(env.tracer)
    assert live.fold.to_dict() == replay.fold.to_dict()
    assert live.totals() == replay.totals()
    assert env.aggregator.summary()["objects"]["compute_s"] == \
        replay.totals()["compute_s"]


def test_queue_wait_table_empty_after_lossy_run_without_duplicates():
    env = _stencil(lossy_wan_env(8, ms(2), loss=0.0, duplication=0.0,
                                 reordering=0.2))
    assert env.transport.rstats.acks_sent > 0
    assert env.transport.rstats.dups_suppressed == 0
    fold = env.aggregator.objview
    assert fold.profiles
    assert fold._pending == {}

"""Invariants of the per-message hot path, independent of Python version.

The send path relies on things being computed once rather than per
message: canonical chare ids (dict lookups hit the identity fast path),
per-pair route plans (static devices are not re-asked), the fabric's
cached "does the sink take hop ledgers" decision and the sink itself,
which every layer reads as a plain attribute.  A lane-only sink takes
a copy whose ledger would be one fixed span as numbers, and must end
with the sums built ledgers give.  With observability off, a pair whose
route is fixed is sent from its wire plan without walking the chain,
and a message reaching an idle PE with an empty queue runs without
passing through the queue.  These tests observe each one directly
during a run.
"""

from __future__ import annotations

import copy
import pickle

import pytest

import repro.network.chain as chain_module
from repro.apps.leanmd import LeanMDApp
from repro.apps.stencil import StencilApp
from repro.core.chare import Chare
from repro.core.ids import ChareID
from repro.core.method import entry
from repro.core.queue import MessageQueue
from repro.core.records import Bundle
from repro.core.scheduler import Scheduler
from repro.grid.presets import (
    artificial_latency_env,
    lossy_wan_env,
    single_cluster_env,
    teragrid_env,
)
from repro.network.chain import DeviceChain
from repro.network.delay import DelayDevice
from repro.network.devices import ChainDevice, TransportDevice
from repro.network.message import Message
from repro.sim.trace import TraceAggregator, Tracer
from repro.units import ms


def _stencil(env, objects=64, steps=3):
    return StencilApp(env, mesh=(256, 256), objects=objects,
                      payload="modeled", seed=0).run(steps)


def test_chare_id_equality_never_runs_on_the_hot_path(monkeypatch):
    calls = []
    original = ChareID.__eq__

    def counting_eq(self, other):
        calls.append((self, other))
        return original(self, other)

    env = artificial_latency_env(8, ms(2), stats=True)
    monkeypatch.setattr(ChareID, "__eq__", counting_eq)
    result = _stencil(env)
    assert result.steps == 3
    assert env.aggregator.sends > 0
    assert calls == []


def test_static_devices_process_only_while_planning(monkeypatch):
    planning = [False]
    outside, inside = [], []
    statics = {TransportDevice, DelayDevice}
    for cls in list(statics):
        statics.update(cls.__subclasses__())
    for cls in statics:
        if "process" not in vars(cls):
            continue
        original = vars(cls)["process"]

        def spy(self, *args, _orig=original, **kwargs):
            (inside if planning[0] else outside).append(self.name)
            return _orig(self, *args, **kwargs)

        monkeypatch.setattr(cls, "process", spy)
    original_plan = DeviceChain._plan
    plans = []

    def plan(self, msg, topo):
        plans.append((msg.src_pe, msg.dst_pe))
        planning[0] = True
        try:
            return original_plan(self, msg, topo)
        finally:
            planning[0] = False

    monkeypatch.setattr(DeviceChain, "_plan", plan)
    env = artificial_latency_env(8, ms(2), stats=True)
    _stencil(env)
    assert outside == []
    assert inside  # the plans did consult the static devices
    assert len(plans) == len(set(plans))  # one plan per pair
    delay = next(d for d in env.chain.devices if isinstance(d, DelayDevice))
    assert delay.messages_delayed == env.fabric.wan_sent > 0


def _spy_ledgers(monkeypatch, chain):
    """Record, per resolve, whether the fabric asked for a hop ledger."""
    ledgers = []
    original = chain.resolve

    def resolve(msg, topo, rng=None, **kwargs):
        ledgers.append(kwargs.get("ledger") is not None)
        return original(msg, topo, rng, **kwargs)

    monkeypatch.setattr(chain, "resolve", resolve)
    return ledgers


class NoHopsSink:
    """A live sink without ``message_hops``: it takes no ledgers."""

    enabled = True

    def __getattr__(self, name):
        if name == "message_hops":
            raise AttributeError(name)
        return lambda *args, **kwargs: None


def test_fabric_tracer_assignment_toggles_ledgers(monkeypatch):
    env = artificial_latency_env(8, ms(2), stats=True)
    ledgers = _spy_ledgers(monkeypatch, env.chain)
    fabric = env.fabric
    app = StencilApp(env, mesh=(256, 256), objects=64, payload="modeled",
                     seed=0)
    assert fabric.tracer is env.aggregator
    fabric.tracer = None
    assert fabric.tracer is None
    tracer = Tracer()
    fabric.tracer = tracer
    app.run(2)
    assert ledgers and all(ledgers)
    assert tracer.hops and env.aggregator.link_usage() == {}

    env = artificial_latency_env(8, ms(2), stats=False)
    ledgers = _spy_ledgers(monkeypatch, env.chain)
    env.fabric.tracer = NoHopsSink()
    _stencil(env, steps=2)
    assert ledgers and not any(ledgers)
    env.fabric.tracer = Tracer()
    ledgers.clear()
    _stencil(env, steps=2)
    assert ledgers and all(ledgers)


def test_runtime_hands_out_canonical_ids():
    env = artificial_latency_env(4, ms(2))
    app = StencilApp(env, mesh=(64, 64), objects=16, payload="modeled")
    app.run(2)
    rts = env.runtime
    mapping = rts.current_mapping()
    for cid in mapping:
        assert rts.chare_id(cid.collection, cid.index) is cid
        assert rts.chare_object(cid).chare_id is cid
        proxy = rts.collection_proxy(cid.collection)
        assert proxy[cid.index].chare_id is cid
        assert cid.label == str(cid)
        for clone in (pickle.loads(pickle.dumps(cid)), copy.deepcopy(cid)):
            assert clone == cid and hash(clone) == hash(cid)
            assert clone.label == cid.label
    singleton = ChareID(3, ())
    assert singleton.label == str(singleton) == "c3"


def test_unknown_element_still_fails_on_use():
    from repro.errors import UnknownChareError
    env = artificial_latency_env(4, ms(2))
    app = StencilApp(env, mesh=(64, 64), objects=16, payload="modeled")
    app.run(2)
    coll = next(iter(env.runtime.current_mapping())).collection
    proxy = env.runtime.collection_proxy(coll)[99, 99]
    assert proxy.chare_id == ChareID(coll, (99, 99))
    with pytest.raises(UnknownChareError):
        proxy.ghost(0, "north", None)


@pytest.mark.parametrize("make_env", [
    lambda **kw: artificial_latency_env(8, ms(2), **kw),
    lambda **kw: artificial_latency_env(8, ms(2), routing="hierarchical",
                                        wan_streams=2, **kw),
    lambda **kw: lossy_wan_env(8, ms(2), **kw),
], ids=["flat", "striped", "lossy"])
def test_lane_only_sink_matches_built_ledgers(monkeypatch, make_env):
    """Copies a lane-only sink folds from their numbers give the same
    per-lane sums, in the same lane order, as built ledgers."""
    folded = []
    original = TraceAggregator.fold_wire

    def spy(self, *args):
        folded.append(args[0])
        return original(self, *args)

    monkeypatch.setattr(TraceAggregator, "fold_wire", spy)
    stats = make_env()
    _stencil(stats)
    traced = make_env(stats=False, trace=True)
    _stencil(traced)
    assert folded
    lanes, built = stats.aggregator.link_usage(), traced.tracer.link_summary()
    assert list(lanes) == list(built)
    assert lanes == built


def test_sink_is_a_plain_attribute_on_every_layer():
    env = lossy_wan_env(8, ms(2))
    for layer in (env.runtime, env.transport):
        assert "tracer" in vars(layer)
        assert layer.tracer is env.fabric.tracer is env.aggregator
    env.fabric.tracer = None
    assert env.runtime.tracer is None and env.transport.tracer is None


def _all_subclasses(cls):
    out = {cls}
    for sub in cls.__subclasses__():
        out |= _all_subclasses(sub)
    return out


def _spy_walks(monkeypatch):
    """Count the routes built and device calls made for recorded sends
    (not model-only probes, not route planning)."""
    planning = [False]
    walks = {"routes": 0, "process": 0}
    original_resolve = DeviceChain.resolve

    def resolve(self, msg, topo, rng=None, **kwargs):
        if kwargs.get("record", True):
            walks["routes"] += 1
        return original_resolve(self, msg, topo, rng, **kwargs)

    monkeypatch.setattr(DeviceChain, "resolve", resolve)
    original_route = chain_module.Route
    built = [0]

    def route(*args, **kwargs):
        built[0] += 1
        return original_route(*args, **kwargs)

    monkeypatch.setattr(chain_module, "Route", route)
    for cls in _all_subclasses(ChainDevice):
        if "process" not in vars(cls):
            continue

        def spy(self, *args, _orig=vars(cls)["process"], **kwargs):
            if not planning[0] and kwargs.get("record", True):
                walks["process"] += 1
            return _orig(self, *args, **kwargs)

        monkeypatch.setattr(cls, "process", spy)
    original_plan = DeviceChain._plan

    def plan(self, msg, topo):
        planning[0] = True
        try:
            return original_plan(self, msg, topo)
        finally:
            planning[0] = False

    monkeypatch.setattr(DeviceChain, "_plan", plan)
    return walks, built


def test_obs_off_static_send_builds_no_route(monkeypatch):
    walks, built = _spy_walks(monkeypatch)
    env = artificial_latency_env(8, ms(2), stats=False)
    assert env.fabric.tracer is None
    _stencil(env)
    fabric = env.fabric
    assert fabric.stats.total_messages > 0 and fabric.wan_sent > 0
    assert walks == {"routes": 0, "process": 0} and built == [0]
    # The counters a walk would have bumped were replayed.
    delay = next(d for d in env.chain.devices if isinstance(d, DelayDevice))
    assert delay.messages_delayed == fabric.wan_sent
    transports = [d for d in env.chain.devices
                  if isinstance(d, TransportDevice)]
    assert sum(t.messages_carried for t in transports) == \
        fabric.stats.total_messages
    assert {t.name: t.messages_carried for t in transports
            if t.messages_carried} == fabric.stats.messages


def test_piped_and_dynamic_pairs_take_the_walk(monkeypatch):
    walks, _built = _spy_walks(monkeypatch)
    env = teragrid_env(8, seed=1, stats=False)  # a piped (and jittered) WAN
    _stencil(env)
    # Every WAN copy was routed by a walk; intra-cluster pairs were not.
    assert walks["routes"] == env.fabric.wan_sent > 0
    walks.update(routes=0, process=0)
    env = lossy_wan_env(8, ms(2), stats=False)  # a fault device per WAN send
    _stencil(env)
    assert walks["routes"] == env.transport.rstats.transfers + \
        env.transport.rstats.retransmits + env.transport.rstats.acks_sent
    assert walks["process"] == walks["routes"]  # the fault device only


def _deliver_through_the_queue(self, msg):
    """``Scheduler.deliver`` as it was before idle PEs took messages
    directly: every message is pushed, then the idle PE pops it."""
    ps = self._pes[msg.dst_pe]
    payload = msg.payload
    if isinstance(payload, Bundle):
        for inv in payload.invocations:
            sub = Message(src_pe=msg.src_pe, dst_pe=msg.dst_pe,
                          size_bytes=0, payload=inv,
                          priority=msg.priority, tag=msg.tag,
                          seq=msg.seq, cause=msg.cause)
            sub.crossed_wan = msg.crossed_wan
            sub.sent_at = msg.sent_at
            ps.queue.push(sub)
            ps.stats.messages_received += 1
    else:
        ps.queue.push(msg)
        ps.stats.messages_received += 1
    if ps.idle:
        self._dispatch(ps)


def _pe_figures(env):
    return [(ps.queue.high_water, ps.stats.messages_received,
             ps.stats.executions, ps.stats.busy_time, ps.stats.last_idle_at)
            for ps in env.runtime.scheduler.pes]


@pytest.mark.parametrize("workload", ["stencil", "leanmd"])
def test_idle_pe_direct_delivery_keeps_queue_figures(monkeypatch, workload):
    def run():
        if workload == "stencil":
            env = artificial_latency_env(8, ms(2), stats=False)
            result = _stencil(env)
        else:
            env = lossy_wan_env(8, ms(2), stats=False)
            result = LeanMDApp(env, cells=(3, 3, 3), payload="modeled",
                               seed=0).run(2)
        return env, result

    pushes = [0]
    original_push = MessageQueue.push

    def counting_push(self, msg):
        pushes[0] += 1
        original_push(self, msg)

    monkeypatch.setattr(MessageQueue, "push", counting_push)
    env, result = run()
    direct_pushes = pushes[0]
    received = sum(ps.stats.messages_received
                   for ps in env.runtime.scheduler.pes)
    assert direct_pushes < received  # some messages skipped the queue
    figures, events = _pe_figures(env), env.engine.events_processed

    monkeypatch.setattr(Scheduler, "deliver", _deliver_through_the_queue)
    pushes[0] = 0
    ref_env, ref_result = run()
    assert pushes[0] == received
    assert _pe_figures(ref_env) == figures
    assert ref_env.engine.events_processed == events
    assert ref_result.time_per_step_ms == result.time_per_step_ms


class _Sink(Chare):
    def __init__(self):
        super().__init__()
        self.got = 0

    @entry
    def take(self):
        self.got += 1


def test_message_to_an_idle_pe_counts_in_its_queue_figures():
    """A PE that only ever receives while idle still reports the one
    queued message the push would have left at its high-water mark."""
    env = single_cluster_env(2, stats=False)
    sink = env.runtime.create_chare(_Sink, pe=1)
    sink.take()
    env.run()
    ps = env.runtime.scheduler.pe_state(1)
    assert ps.stats.messages_received == 1 and ps.stats.executions == 1
    assert ps.queue.high_water == 1 and len(ps.queue) == 0

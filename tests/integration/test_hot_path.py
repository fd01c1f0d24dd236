"""Invariants of the per-message hot path, independent of Python version.

The send path relies on things being computed once rather than per
message: canonical chare ids (dict lookups hit the identity fast path),
per-pair route plans (static devices are not re-asked), the fabric's
cached "does the sink take hop ledgers" decision and the sink itself,
which every layer reads as a plain attribute.  A lane-only sink takes
a copy whose ledger would be one fixed span as numbers, and must end
with the sums built ledgers give.  These tests observe each one
directly during a stats-on stencil run.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.apps.stencil import StencilApp
from repro.core.ids import ChareID
from repro.grid.presets import artificial_latency_env, lossy_wan_env
from repro.network.chain import DeviceChain
from repro.network.delay import DelayDevice
from repro.network.devices import TransportDevice
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

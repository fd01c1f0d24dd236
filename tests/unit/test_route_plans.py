"""Per-pair route plans against a reference chain walk.

:meth:`DeviceChain.resolve` walks each (src, dst) pair's devices once
into a plan and replays it.  These tests keep the plain walk (resolve as
it was before plans) as a reference and check, for every pair of several
chains, that the planned resolution gives the same routes, hop spans and
device counters, including model-only probes and chain mutation.  Pairs
whose route is fixed also get a wire plan, which an untraced fabric
sends from without walking; it must give the arrival times and counters
of the walk it replaces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import RoutingError
from repro.grid.presets import (
    artificial_latency_env,
    lossy_wan_env,
    teragrid_env,
)
from repro.network.chain import DeviceChain, Route
from repro.network.contention import PipePair
from repro.network.delay import (
    DelayDevice,
    PairwiseDelayDevice,
    cross_cluster_pairs,
)
from repro.network.devices import (
    LanDevice,
    LoopbackDevice,
    ShmemDevice,
    TransportDevice,
    WanDevice,
)
from repro.network.fabric import NetworkFabric
from repro.network.faults import FaultyDevice, LinkFlap
from repro.network.hops import HopSpan
from repro.network.links import (
    LinkModel,
    LognormalJitter,
    myrinet_like,
    shared_memory,
)
from repro.network.message import Message
from repro.sim.engine import Engine
from repro.network.topology import GridTopology
from repro.network.transform import CompressionDevice, EncryptionDevice
from repro.units import ms

PES = 8


def reference_resolve(devices, msg, topo, rng=None, *, record=True,
                      now=0.0, ledger=None) -> Route:
    """The unplanned chain walk: every device's ``process`` in order."""
    delay = 0.0
    current = msg
    dropped = False
    duplicates = 0
    for dev in devices:
        result = dev.process(current, topo, rng, record=record)
        if result.added_delay and ledger is not None:
            ledger.append(HopSpan(
                device=dev.name, link=dev.name, kind=dev.hop_kind,
                enqueue=now + delay, dequeue=now + delay,
                arrive=now + (delay + result.added_delay)))
        delay += result.added_delay
        current = result.message
        dropped = dropped or result.dropped
        duplicates += result.duplicates
        if result.claimed:
            if not isinstance(dev, TransportDevice):
                raise RoutingError(
                    f"device {dev.name!r} claimed a message but is not "
                    "a transport device")
            return Route(message=current, transport=dev,
                         pre_transport_delay=delay,
                         dropped=dropped, duplicates=duplicates)
    raise RoutingError(
        f"no device in chain claims PE {msg.src_pe} -> PE {msg.dst_pe} "
        f"(devices: {[d.name for d in devices]})")


def _base():
    return [LoopbackDevice(myrinet_like("loopback")),
            ShmemDevice(shared_memory()), LanDevice(myrinet_like())]


def _preset(factory):
    def build():
        env = factory()
        return env.chain, env.topology
    return build


def _manual(make_devices):
    def build():
        return (DeviceChain(make_devices()),
                GridTopology.two_cluster(PES, pes_per_node=2))
    return build


CHAINS = {
    "artificial-latency": _preset(
        lambda: artificial_latency_env(PES, ms(2), stats=False)),
    "teragrid": _preset(lambda: teragrid_env(PES, seed=3, stats=False)),
    "lossy-arq": _preset(lambda: lossy_wan_env(
        PES, ms(2), seed=5, stats=False,
        flap=LinkFlap([(0.004, 0.006)]))),
    "striped": _preset(lambda: artificial_latency_env(
        PES, ms(2), wan_streams=4, stats=False)),
    "compress-encrypt": _manual(lambda: _base()[:1] + [
        CompressionDevice(0.5, throughput=1e8,
                          applies_to=cross_cluster_pairs),
        EncryptionDevice(2e8, header_bytes=48),
    ] + _base()[1:] + [DelayDevice(ms(1)), WanDevice(myrinet_like("wan"))]),
    "pairwise-delay": _manual(lambda: _base()[:2] + [
        PairwiseDelayDevice({(0, 5): ms(1), (5, 0): ms(3), (1, 2): ms(0.5),
                             (3, 3): ms(0.25)}),
    ] + _base()[2:] + [WanDevice(myrinet_like("wan"))]),
    "jittered-wan": _manual(lambda: _base() + [
        DelayDevice(ms(1)),
        WanDevice(LinkModel("wan", 1e-3, jitter=LognormalJitter(1e-4)))]),
}


def _counters(dev) -> dict:
    """A device's plain statistics and, for fault devices, its stream."""
    out = {k: v for k, v in vars(dev).items()
           if isinstance(v, (int, float)) and not isinstance(v, bool)}
    rng = getattr(dev, "rng", None)
    if rng is not None:
        out["rng"] = rng.bit_generator.state
    return out


def _same(planned: Route, ref: Route, pdevs, rdevs, msg_p, msg_r) -> None:
    assert pdevs.index(planned.transport) == rdevs.index(ref.transport)
    assert planned.pre_transport_delay == ref.pre_transport_delay
    assert planned.dropped == ref.dropped
    assert planned.duplicates == ref.duplicates
    assert planned.message.size_bytes == ref.message.size_bytes
    assert (planned.message is msg_p) == (ref.message is msg_r)


def _traffic(rounds: int):
    """Every ordered pair, *rounds* times, in a shuffled order."""
    pairs = [(s, d) for s in range(PES) for d in range(PES)] * rounds
    order = np.random.default_rng(11).permutation(len(pairs))
    return [pairs[i] for i in order]


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_planned_resolve_matches_reference_walk(name):
    planned, topo = CHAINS[name]()
    reference, _ = CHAINS[name]()
    pdevs, rdevs = planned.devices, reference.devices
    rng_p, rng_r = np.random.default_rng(7), np.random.default_rng(7)
    for i, (src, dst) in enumerate(_traffic(rounds=4)):
        now = i * 1e-4
        size = 100 + 997 * (i % 9)
        msg_p = Message(src, dst, size, seq=i)
        msg_r = Message(src, dst, size, seq=i)
        msg_p.sent_at = msg_r.sent_at = now
        led_p, led_r = [], []
        route_p = planned.resolve(msg_p, topo, rng_p, now=now, ledger=led_p)
        route_r = reference_resolve(rdevs, msg_r, topo, rng_r, now=now,
                                    ledger=led_r)
        _same(route_p, route_r, pdevs, rdevs, msg_p, msg_r)
        assert led_p == led_r
    assert [_counters(d) for d in pdevs] == [_counters(d) for d in rdevs]
    assert rng_p.bit_generator.state == rng_r.bit_generator.state


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_probe_resolution_matches_and_counts_nothing(name):
    planned, topo = CHAINS[name]()
    reference, _ = CHAINS[name]()
    pdevs, rdevs = planned.devices, reference.devices
    before = [_counters(d) for d in pdevs]
    for src, dst in _traffic(rounds=2):
        msg_p = Message(src, dst, 4096, seq=0)
        msg_r = Message(src, dst, 4096, seq=0)
        route_p = planned.resolve(msg_p, topo, None, record=False)
        route_r = reference_resolve(rdevs, msg_r, topo, None, record=False)
        _same(route_p, route_r, pdevs, rdevs, msg_p, msg_r)
    assert [_counters(d) for d in pdevs] == before
    assert [_counters(d) for d in rdevs] == before


def test_insert_before_transport_clears_plans():
    chain, topo = CHAINS["artificial-latency"]()
    wan = Message(0, PES - 1, 64, seq=0)
    first = chain.resolve(wan, topo)
    assert first.pre_transport_delay == ms(2)
    late = DelayDevice(ms(5), applies_to=lambda s, d, t: True, name="late")
    chain.insert_before_transport(late)
    ledger = []
    again = chain.resolve(wan, topo, ledger=ledger)
    assert again.pre_transport_delay == ms(5) + ms(2)
    assert [h.device for h in ledger] == ["late", "delay"]
    local = chain.resolve(Message(0, 0, 64, seq=1), topo)
    assert local.pre_transport_delay == ms(5)
    assert local.transport.name == "loopback"
    assert late.messages_delayed == 2


def test_plans_follow_the_topology():
    chain = DeviceChain(_base() + [DelayDevice(ms(1)),
                                   WanDevice(myrinet_like("wan"))])
    split = GridTopology.two_cluster(4, pes_per_node=2)
    whole = GridTopology.single_cluster(4, pes_per_node=2)
    msg = Message(0, 3, 64, seq=0)
    assert chain.resolve(msg, split).transport.name == "wan"
    assert chain.resolve(msg, whole).transport.name == "lan"


def test_unclaimed_pair_still_raises():
    chain = DeviceChain([LoopbackDevice(myrinet_like("loopback"))])
    topo = GridTopology.single_cluster(2)
    with pytest.raises(RoutingError, match="no device in chain claims"):
        chain.resolve(Message(0, 1, 8, seq=0), topo)
    with pytest.raises(RoutingError, match="no device in chain claims"):
        chain.resolve(Message(0, 1, 8, seq=1), topo)  # from the plan


def _fabric_figures(fabric: NetworkFabric) -> dict:
    stats = fabric.stats
    return {"messages": stats.messages, "bytes": stats.bytes,
            "filter_delay": stats.filter_delay_total,
            "dropped": stats.dropped, "duplicated": stats.duplicated,
            "wan_sent": fabric.wan_sent, "in_flight": fabric.in_flight,
            "devices": [_counters(d) for d in fabric.chain.devices]}


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_wire_plan_sends_match_the_walk(name):
    """An untraced fabric sends wire-planned pairs without a walk; a
    fabric whose plans carry no wire plan walks every send.  Both give
    the same arrivals, the same counters and the same jitter draws."""
    fabrics = []
    for with_wire in (True, False):
        chain, topo = CHAINS[name]()
        if not with_wire:
            plan = chain.plan
            chain.plan = lambda msg, topo, _plan=plan: \
                _plan(msg, topo)[:3] + (None,)
        fabrics.append(NetworkFabric(Engine(), topo, chain,
                                     rng=np.random.default_rng(7)))
    arrivals = ([], [])
    for i, (src, dst) in enumerate(_traffic(rounds=4)):
        now = i * 1e-4
        size = 100 + 997 * (i % 9)
        for fabric, out in zip(fabrics, arrivals):
            fabric.engine.run(until=now)
            out.append(fabric.send(Message(src, dst, size, seq=i),
                                   lambda m: None))
    assert arrivals[0] == arrivals[1]
    planned, walked = fabrics
    assert _fabric_figures(planned) == _fabric_figures(walked)
    assert planned.rng.bit_generator.state == walked.rng.bit_generator.state


def _wired_pairs(chain, topo) -> set:
    return {(s, d) for s in range(topo.num_pes) for d in range(topo.num_pes)
            if chain.plan(Message(s, d, 64, seq=0), topo)[3] is not None}


def test_only_fixed_routes_get_a_wire_plan():
    everything = {(s, d) for s in range(PES) for d in range(PES)}
    chain, topo = CHAINS["artificial-latency"]()
    assert _wired_pairs(chain, topo) == everything
    local = {(s, d) for s, d in everything
             if not topo.crosses_wan(s, d)}
    # A jittered and piped WAN (teragrid), a striped one and a fault
    # device on the WAN each leave only the intra-cluster pairs.
    for name in ("teragrid", "striped", "lossy-arq"):
        chain, topo = CHAINS[name]()
        assert _wired_pairs(chain, topo) == local, name
    # Jitter alone (no pipe) keeps the wire plan: the wire path draws
    # the transit exactly as the transport would.
    chain, topo = CHAINS["jittered-wan"]()
    assert _wired_pairs(chain, topo) == everything
    # A pipe alone (no jitter) keeps the walk.
    piped = WanDevice(myrinet_like("wan"), pipe=PipePair(name="wan"))
    chain = DeviceChain(_base() + [DelayDevice(ms(1)), piped])
    assert _wired_pairs(chain, topo) == local
    # So is a dynamic device ahead of the claiming transport.
    chain, topo = CHAINS["compress-encrypt"]()
    assert _wired_pairs(chain, topo) == {(s, s) for s in range(PES)}


def test_wire_plan_is_dropped_with_its_route_plan():
    chain, topo = CHAINS["artificial-latency"]()
    wan = Message(0, PES - 1, 64, seq=0)
    pre_delay, delayers, transport, crosses = chain.plan(wan, topo)[3]
    assert (pre_delay, crosses, transport.name) == (ms(2), True,
                                                    "wan-artificial")
    assert [d.name for d in delayers] == ["delay"]
    late = DelayDevice(ms(5), applies_to=lambda s, d, t: True, name="late")
    chain.insert_before_transport(late)
    pre_delay, delayers, _t, _c = chain.plan(wan, topo)[3]
    assert pre_delay == 0.0 + ms(5) + ms(2)
    assert [d.name for d in delayers] == ["late", "delay"]
    chain.insert_before_transport(FaultyDevice(0.0, 0.0, 0.0,
                                               rng=np.random.default_rng(1)))
    assert chain.plan(wan, topo)[3] is None
    # A plan is valid for one topology only.
    chain = DeviceChain(_base() + [DelayDevice(ms(1)),
                                   WanDevice(myrinet_like("wan"))])
    split = GridTopology.two_cluster(4, pes_per_node=2)
    whole = GridTopology.single_cluster(4, pes_per_node=2)
    msg = Message(0, 3, 64, seq=0)
    devices = chain.devices
    assert chain.plan(msg, split)[3] == (ms(1), (devices[3],), devices[4],
                                         True)
    assert chain.plan(msg, whole)[3] == (0.0, (), devices[2], False)

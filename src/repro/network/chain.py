"""Send-chain assembly and dispatch.

A :class:`DeviceChain` is an ordered list of chain devices.  Resolving a
message walks the chain in order, accumulating filter-device delays and
transformations, until a transport device claims the message — the VMI
dispatch rule from paper §2.2 ("each driver on the chain examines the
message to determine whether that driver should deliver the message or
whether it should simply send the message to the next device").

Chains are built once per environment; see :mod:`repro.grid.presets` for
the two configurations used in the paper's experiments.

Most devices decide from the (src, dst) pair alone
(:attr:`~repro.network.devices.ChainDevice.static_route`), so the walk
is done once per pair into a *route plan* and replayed for every later
message: static pass-throughs vanish from the plan, static delays
replay their fixed delay, hop span and counter, and only the dynamic
devices (fault injection, transforms) still run per message.  A pair
whose whole route is fixed (no dynamic device, an unpiped transport)
also gets a *wire plan*, from which the fabric computes the
arrival time without walking the chain at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import RoutingError
from repro.network.devices import ChainDevice, TransportDevice
from repro.network.hops import HopSpan
from repro.network.message import Message
from repro.network.topology import GridTopology


@dataclass
class Route:
    """The outcome of resolving one message against a chain."""

    #: Message as transformed by filter devices (wire size may differ).
    message: Message
    #: The transport device that claimed the message.
    transport: TransportDevice
    #: Total delay added by filter devices before transport starts.
    pre_transport_delay: float
    #: A fault device decided the message is lost: no delivery happens.
    dropped: bool = False
    #: Extra wire copies injected by fault devices (0 = just the original).
    duplicates: int = 0


class DeviceChain:
    """An ordered VMI send chain.

    Parameters
    ----------
    devices:
        Chain devices in dispatch order.  At least one must be a
        transport device or resolution will fail for every pair.
    """

    def __init__(self, devices: Sequence[ChainDevice]) -> None:
        self._devices: List[ChainDevice] = list(devices)
        if not self._devices:
            raise RoutingError("empty device chain")
        #: ``(src_pe, dst_pe) -> (steps, transport, error, wire)`` route
        #: plans (see :meth:`_plan`), valid for :attr:`_plan_topo` and the
        #: current device list; cleared whenever either changes.
        self._plans: Dict[Tuple[int, int], tuple] = {}
        self._plan_topo: Optional[GridTopology] = None

    @property
    def devices(self) -> List[ChainDevice]:
        return list(self._devices)

    def insert_before_transport(self, device: ChainDevice) -> None:
        """Insert a filter device immediately before the first transport.

        This is how the paper wires its delay device: "send and receive
        chains that consist of two network drivers with a 'delay device
        driver' in between".

        Raises
        ------
        RoutingError
            If the chain has no transport device: appending the filter
            at the end would leave it after every possible claim point,
            i.e. unreachable dead code.
        """
        for i, dev in enumerate(self._devices):
            if isinstance(dev, TransportDevice):
                self._devices.insert(i, device)
                self._plans.clear()
                return
        raise RoutingError(
            f"cannot insert {device.name!r}: chain has no transport "
            f"device (devices: {[d.name for d in self._devices]})")

    def plan(self, msg: Message, topo: GridTopology) -> tuple:
        """The route plan of *msg*'s (src, dst) pair on *topo*, built on
        the pair's first message (see :meth:`_plan`).

        Plans are valid for one topology and the current device list;
        asking with another topology drops every plan first.
        """
        if topo is not self._plan_topo:
            self._plans.clear()
            self._plan_topo = topo
        plan = self._plans.get((msg.src_pe, msg.dst_pe))
        if plan is None:
            plan = self._plans[msg.src_pe, msg.dst_pe] = self._plan(msg, topo)
        return plan

    def resolve(self, msg: Message, topo: GridTopology,
                rng: Optional[np.random.Generator] = None, *,
                record: bool = True, now: float = 0.0,
                ledger: Optional[List[HopSpan]] = None) -> Route:
        """Walk the chain until a transport claims *msg*.

        The walk follows the route plan of *msg*'s (src, dst) pair (see
        :meth:`plan`); the result is the same as asking every device in
        turn.

        ``record=False`` resolves a model-only probe: no device statistics
        are updated and fault devices behave as pure pass-throughs (see
        :meth:`~repro.network.fabric.NetworkFabric.one_way_time`).

        When a *ledger* is supplied, every filter device that adds delay
        stamps one :class:`~repro.network.hops.HopSpan` on it, anchored
        at *now* (the send instant); the spans telescope so the last
        span's ``arrive`` equals ``now + pre_transport_delay`` exactly.

        Raises
        ------
        RoutingError
            If no device claims the message (misconfigured chain).
        """
        steps, transport, error, _wire = self.plan(msg, topo)
        delay = 0.0
        current = msg
        dropped = False
        duplicates = 0
        for dev, fixed in steps:
            if fixed is not None:
                # A static device's replayed outcome: same delay, span
                # and counter as calling its ``process`` would give.
                if record:
                    dev.note_planned()
                if ledger is not None:
                    ledger.append(HopSpan(
                        dev.name, dev.name, dev.hop_kind,
                        now + delay, now + delay, now + (delay + fixed)))
                delay += fixed
                continue
            result = dev.process(current, topo, rng, record=record)
            if result.added_delay and ledger is not None:
                ledger.append(HopSpan(
                    dev.name, dev.name, dev.hop_kind, now + delay,
                    now + delay, now + (delay + result.added_delay)))
            delay += result.added_delay
            current = result.message
            dropped = dropped or result.dropped
            duplicates += result.duplicates
            if result.claimed:
                if not isinstance(dev, TransportDevice):
                    raise RoutingError(
                        f"device {dev.name!r} claimed a message but is not "
                        "a transport device")
                transport = dev
                break
        else:
            if transport is None:
                raise RoutingError(error)
        return Route(message=current, transport=transport,
                     pre_transport_delay=delay,
                     dropped=dropped, duplicates=duplicates)

    def _plan(self, msg: Message, topo: GridTopology) -> tuple:
        """Walk the chain once for *msg*'s (src, dst) pair.

        Returns ``(steps, transport, error, wire)``.  ``steps`` lists, in
        chain order, every dynamic device as ``(device, None)`` and
        every static device that adds delay as ``(device, delay)``;
        static devices that pass the pair through are left out.
        ``transport`` is the first static device that claims the pair,
        after which the walk stops.  When no static transport claims
        it, ``transport`` is ``None`` and ``error`` says why resolution
        fails unless a dynamic device claims the message first.

        ``wire`` is the pair's *wire plan*, or ``None``.  It exists when
        the whole route is fixed: every step is static, and the transport
        has a fixed lane (no pipe, no striping) and the base ``transit``,
        whose only draw (the link's jitter) the fabric makes itself.
        It is ``(pre_delay, delayers, transport, crosses_wan)``: the
        summed step delay (added in chain order from ``0.0``, the float
        expression :meth:`resolve` evaluates), the static devices whose
        counters each message bumps, the transport, and whether the pair
        crosses the wide area.  With it a send needs no walk at all
        (see :meth:`~repro.network.fabric.NetworkFabric.send`).  It lives
        and dies with its route plan: inserting a device or resolving
        against another topology drops both.
        """
        steps = []
        for dev in self._devices:
            if not dev.static_route:
                steps.append((dev, None))
                continue
            result = dev.process(msg, topo, None, record=False)
            if result.added_delay:
                steps.append((dev, result.added_delay))
            if result.claimed:
                if isinstance(dev, TransportDevice):
                    steps = tuple(steps)
                    return steps, dev, None, self._wire_plan(
                        steps, dev, topo.crosses_wan(msg.src_pe, msg.dst_pe))
                return tuple(steps), None, (
                    f"device {dev.name!r} claimed a message but is not "
                    "a transport device"), None
        return tuple(steps), None, (
            f"no device in chain claims PE {msg.src_pe} -> PE {msg.dst_pe} "
            f"(devices: {[d.name for d in self._devices]})"), None

    @staticmethod
    def _wire_plan(steps: tuple, transport: TransportDevice,
                   crosses_wan: bool) -> Optional[tuple]:
        """The wire plan of a statically claimed route, or ``None``."""
        if any(fixed is None for _dev, fixed in steps):
            return None
        if (transport.fixed_lane is None
                or type(transport).transit is not TransportDevice.transit):
            return None
        pre_delay = 0.0
        for _dev, fixed in steps:
            pre_delay += fixed
        return (pre_delay, tuple(dev for dev, _fixed in steps), transport,
                crosses_wan)

    def transports(self) -> List[TransportDevice]:
        """All transport devices in the chain, in order."""
        return [d for d in self._devices if isinstance(d, TransportDevice)]

    def reset_stats(self) -> None:
        """Clear statistics on every device that keeps them."""
        for dev in self._devices:
            reset = getattr(dev, "reset_stats", None)
            if reset is not None:
                reset()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "DeviceChain(" + " -> ".join(d.name for d in self._devices) + ")"

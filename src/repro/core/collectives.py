"""Broadcasts and section multicasts.

Paper §2.1: "Messages may be sent to individual chares within a chare
array or to the entire chare array simultaneously", and LeanMD (§4)
relies on each cell *multicasting* its coordinates to the 26 cell-pairs
that depend on it.

Both collectives are implemented with **per-PE bundling**: the payload is
sent once to each destination PE (as a :class:`~repro.core.records.Bundle`)
and fanned out locally.  This matters for the Grid setting — a cell with
pair objects on a remote cluster sends its coordinates across the WAN
once per remote PE, not once per remote object.

With ``RuntimeConfig.collective_routing = "hierarchical"`` the downward
direction becomes topology-aware as well (the MPICH-G2 multi-level
scheme): destination PEs are grouped by cluster, each remote cluster
receives **one** :class:`~repro.core.records.RelayMsg` addressed to its
lowest destination PE, and that cluster root re-fans locally — per-PE
bundles over loopback/shmem/LAN, plus nested node-level relays where
several destination PEs share a physical node.  The payload then crosses
the wide area exactly once per remote cluster instead of once per remote
PE.  Per-element delivery semantics, priorities and tags are preserved
verbatim on every hop, and because the relay runs inside an ordinary
entry-method execution, re-fanned messages carry the relay execution's
id as their ``cause`` — the causal chain through the relay hop stays
exact for critical-path attribution.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.core.ids import Index
from repro.core.method import invocation_bytes
from repro.core.records import Bundle, Invocation, RelayMsg

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.rts import Runtime

#: Extra bytes per additional local fan-out target inside one bundle
#: (the per-element header; the payload itself is carried once).
PER_TARGET_BYTES = 16


def bundle_size(args: tuple, kwargs: dict, num_targets: int) -> int:
    """Wire size of a bundle carrying *args*/*kwargs* to *num_targets*."""
    return (invocation_bytes(args, kwargs)
            + max(num_targets - 1, 0) * PER_TARGET_BYTES)


def group_targets_by_pe(rts: "Runtime", collection: int,
                        indices: Sequence[Index]) -> Dict[int, List[Index]]:
    """Group element indices by their current host PE (sorted, stable)."""
    mapping = rts._collection(collection).mapping
    groups: Dict[int, List[Index]] = {}
    for idx in indices:
        pe = mapping.get(idx)
        if pe is None:  # reports the unknown element
            pe = rts.pe_of(rts.chare_id(collection, idx))
        group = groups.get(pe)
        if group is None:
            groups[pe] = [idx]
        else:
            group.append(idx)
    for lst in groups.values():
        lst.sort()
    return groups


def _dispatch_group(rts: "Runtime", collection: int, entry: str,
                    pe: int, targets: Sequence[Index], args: tuple,
                    kwargs: dict, size: Optional[int],
                    priority: Optional[int], tag: str,
                    relay_hop: int = 0) -> None:
    """Send one per-PE bundle covering *targets* on *pe*."""
    invocations = [Invocation(rts.chare_id(collection, idx), entry,
                              args, dict(kwargs))
                   for idx in targets]
    wire = size if size is not None else bundle_size(
        args, kwargs, len(targets))
    rts._dispatch_payload(
        dst_pe=pe, payload=Bundle(invocations), size=wire,
        priority=priority, tag=tag, relay_hop=relay_hop)


def send_bundled(rts: "Runtime", collection: int, entry: str,
                 indices: Sequence[Index], args: tuple, kwargs: dict,
                 size: Optional[int], priority: Optional[int],
                 tag: Optional[str]) -> None:
    """Send bundles covering *indices*: one per destination PE (flat
    routing) or one per remote cluster plus local bundles (hierarchical
    routing, see the module docstring)."""
    send_grouped(rts, collection, entry,
                 group_targets_by_pe(rts, collection, indices), args,
                 kwargs, size, priority, tag)


def send_grouped(rts: "Runtime", collection: int, entry: str,
                 groups: Dict[int, List[Index]], args: tuple, kwargs: dict,
                 size: Optional[int], priority: Optional[int],
                 tag: Optional[str]) -> None:
    """:func:`send_bundled` for targets already grouped by
    :func:`group_targets_by_pe` (a caller that needs the grouping itself
    groups once)."""
    if rts.config.collective_routing == "hierarchical" and len(groups) > 1:
        _send_hierarchical(rts, collection, entry, groups, args, kwargs,
                           size, priority, tag or entry)
        return
    for pe in sorted(groups):
        _dispatch_group(rts, collection, entry, pe, groups[pe], args,
                        kwargs, size, priority, tag or entry)


def _send_hierarchical(rts: "Runtime", collection: int, entry: str,
                       groups: Dict[int, List[Index]], args: tuple,
                       kwargs: dict, size: Optional[int],
                       priority: Optional[int], tag: str) -> None:
    """Topology-aware multicast: one relay per remote cluster.

    Destination PEs in the originating PE's own cluster get direct
    per-PE bundles (those ride loopback/shmem/LAN and were never the
    problem); each remote cluster with more than one destination PE gets
    a single :class:`RelayMsg` to its lowest destination PE, which
    re-fans via :func:`process_relay`.  A remote cluster with exactly
    one destination PE needs no relay — the direct bundle already
    crosses the WAN exactly once.
    """
    topo = rts.topology
    origin_cluster = topo.cluster_of(rts._originating_pe())
    by_cluster: Dict[int, List[int]] = {}
    for pe in sorted(groups):
        by_cluster.setdefault(topo.cluster_of(pe), []).append(pe)
    for cluster in sorted(by_cluster):
        pes = by_cluster[cluster]
        if cluster == origin_cluster or len(pes) == 1:
            for pe in pes:
                _dispatch_group(rts, collection, entry, pe, groups[pe],
                                args, kwargs, size, priority, tag)
            continue
        cluster_groups = [(pe, groups[pe]) for pe in pes]
        total = sum(len(idxs) for _pe, idxs in cluster_groups)
        wire = size if size is not None else bundle_size(args, kwargs,
                                                         total)
        rts._dispatch_payload(
            dst_pe=pes[0],
            payload=RelayMsg(collection=collection, entry=entry,
                             args=args, kwargs=kwargs,
                             groups=cluster_groups, size=size,
                             priority=priority, tag=tag, hop=1),
            size=wire, priority=priority, tag=tag, relay_hop=1)


def process_relay(rts: "Runtime", pe: int, relay: RelayMsg) -> None:
    """Re-fan an arrived relay from its root PE (runs inside an
    entry-method execution, so re-sends inherit the relay's cause id).

    Target PEs on the root's own node get direct bundles (loopback for
    the root itself, shmem for node siblings); each other node with more
    than one destination PE gets a nested node-level relay to its lowest
    destination PE (whose re-fan is then all same-node); single-PE nodes
    get their bundle directly over the LAN.
    """
    topo = rts.topology
    my_node = topo.node_of(pe)
    by_node: Dict[int, List[Tuple[int, List[Index]]]] = {}
    for dst_pe, idxs in relay.groups:
        by_node.setdefault(topo.node_of(dst_pe), []).append((dst_pe, idxs))
    for node in sorted(by_node):
        entries = by_node[node]
        if node == my_node or len(entries) == 1:
            for dst_pe, idxs in entries:
                _dispatch_group(rts, relay.collection, relay.entry,
                                dst_pe, idxs, relay.args, relay.kwargs,
                                relay.size, relay.priority, relay.tag,
                                relay_hop=relay.hop + 1)
            continue
        total = sum(len(idxs) for _pe, idxs in entries)
        wire = relay.size if relay.size is not None else bundle_size(
            relay.args, relay.kwargs, total)
        rts._dispatch_payload(
            dst_pe=entries[0][0],
            payload=RelayMsg(collection=relay.collection,
                             entry=relay.entry, args=relay.args,
                             kwargs=relay.kwargs, groups=entries,
                             size=relay.size, priority=relay.priority,
                             tag=relay.tag, hop=relay.hop + 1),
            size=wire, priority=relay.priority, tag=relay.tag,
            relay_hop=relay.hop + 1)


class SectionEntry:
    """Bound entry method of a section proxy; calling it multicasts."""

    __slots__ = ("_rts", "_collection", "_indices", "_entry")

    def __init__(self, rts: "Runtime", collection: int,
                 indices: List[Index], entry: str) -> None:
        self._rts = rts
        self._collection = collection
        self._indices = indices
        self._entry = entry

    def __call__(self, *args: Any, _size: Optional[int] = None,
                 _priority: Optional[int] = None, _tag: Optional[str] = None,
                 **kwargs: Any) -> None:
        send_bundled(self._rts, self._collection, self._entry,
                     self._indices, args, kwargs, _size, _priority, _tag)


class SectionProxy:
    """A fixed subset of a chare array, multicast-addressable.

    Created via :meth:`repro.core.proxy.ArrayProxy.section`.  The member
    list is frozen at creation; PE destinations are re-resolved at every
    multicast, so sections stay correct across migrations.
    """

    __slots__ = ("_rts", "_collection", "_indices")

    def __init__(self, rts: "Runtime", collection: int,
                 indices: List[Index]) -> None:
        self._rts = rts
        self._collection = collection
        self._indices = list(indices)

    @property
    def indices(self) -> List[Index]:
        return list(self._indices)

    def __len__(self) -> int:
        return len(self._indices)

    def __getattr__(self, name: str) -> SectionEntry:
        if name.startswith("_"):
            raise AttributeError(name)
        return SectionEntry(self._rts, self._collection, self._indices, name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<section of c{self._collection}, "
                f"{len(self._indices)} elements>")

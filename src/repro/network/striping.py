"""Striped wide-area transport (MPWide-style parallel TCP streams).

A single TCP stream over a long fat pipe is window-limited: the
achievable rate is roughly ``window / RTT``, far below the physical
capacity of the path.  Message-passing libraries for wide-area runs
(MPWide, GridFTP's parallel mode) therefore split each large message
into chunks sent round-robin over *N* concurrent streams, aggregating
roughly ``N×`` the single-stream rate until the path itself saturates.

:class:`StripedDevice` models that: it claims the same (src, dst) pairs
as :class:`~repro.network.devices.WanDevice`, but its ``link.bandwidth``
is interpreted as the *per-stream* achievable rate.  A message of S
bytes is split into up to ``streams`` round-robin chunks; each chunk
occupies one stream for its serialization time (chunks queue FIFO per
stream — that is the pacing/congestion state), then propagates with the
link's latency.  The message is delivered when its **last** chunk
arrives.  Small messages (below ``min_chunk_bytes``) ride a single
stream and see exactly the plain-WAN cost, so striping never penalizes
the latency-bound traffic the paper cares about.

The device composes unchanged with everything that wraps a transport:
:class:`~repro.network.chain.DeviceChain` dispatch, delay/fault filter
devices ahead of it, and :class:`~repro.network.reliable.ReliableTransport`
above the fabric.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.network.contention import SharedPipe
from repro.network.devices import TransportDevice
from repro.network.hops import HopSpan
from repro.network.links import LinkModel
from repro.network.message import Message
from repro.network.topology import GridTopology


class _DirectionState:
    """Per-(src cluster, dst cluster) stream occupancy and round-robin."""

    __slots__ = ("streams", "next_stream")

    def __init__(self, name: str, num_streams: int) -> None:
        self.streams: List[SharedPipe] = [
            SharedPipe(name=f"{name}/s{i}") for i in range(num_streams)
        ]
        self.next_stream = 0


class StripedDevice(TransportDevice):
    """WAN transport striping each message over parallel streams.

    Parameters
    ----------
    link:
        Per-stream performance model: ``bandwidth`` is what **one** TCP
        stream achieves over this path; latency/overhead apply per chunk.
    streams:
        Number of concurrent streams per direction (``1`` degenerates to
        a plain, uncontended :class:`WanDevice`).
    min_chunk_bytes:
        Never split below this chunk size — tiny chunks would pay the
        per-chunk overhead without buying any aggregation.
    """

    def __init__(self, link: LinkModel, streams: int = 4,
                 min_chunk_bytes: int = 4096) -> None:
        super().__init__(link)
        if streams < 1:
            raise ConfigurationError(f"streams must be >= 1, got {streams}")
        if min_chunk_bytes < 1:
            raise ConfigurationError(
                f"min_chunk_bytes must be >= 1, got {min_chunk_bytes}")
        self.streams = streams
        self.min_chunk_bytes = min_chunk_bytes
        self.name = f"{link.name}x{streams}"
        self.fixed_lane = None
        #: Total chunks put on the wire (>= messages_carried).
        self.chunks_sent = 0
        self._directions: Dict[Tuple[int, int], _DirectionState] = {}

    def reaches(self, src_pe: int, dst_pe: int, topo: GridTopology) -> bool:
        return not topo.same_cluster(src_pe, dst_pe)

    def _direction(self, src_cluster: int, dst_cluster: int
                   ) -> _DirectionState:
        key = (src_cluster, dst_cluster)
        state = self._directions.get(key)
        if state is None:
            state = _DirectionState(
                f"{self.name}[{src_cluster}->{dst_cluster}]", self.streams)
            self._directions[key] = state
        return state

    def transit(self, msg: Message, topo: GridTopology, now: float,
                rng: Optional[np.random.Generator],
                ledger: Optional[List[HopSpan]] = None) -> float:
        self.messages_carried += 1
        self.bytes_carried += msg.size_bytes
        size = msg.size_bytes
        n_chunks = min(self.streams, max(1, size // self.min_chunk_bytes))
        self.chunks_sent += n_chunks

        state = self._direction(topo.cluster_of(msg.src_pe),
                                topo.cluster_of(msg.dst_pe))
        base, rem = divmod(size, n_chunks)
        last_arrival = now
        link = self.link
        for i in range(n_chunks):
            chunk = base + (1 if i < rem else 0)
            stream_idx = (state.next_stream + i) % len(state.streams)
            stream = state.streams[stream_idx]
            ser = link.serialization_time(chunk)
            start = stream.reserve(now, ser)
            arrival = (start + ser + link.latency
                       + link.per_message_overhead)
            if link.jitter is not None and rng is not None:
                arrival += link.jitter.sample(rng)
            if ledger is not None:
                ledger.append(HopSpan(
                    device=stream.name, link=self.name, kind="stream",
                    enqueue=now, dequeue=start, arrive=arrival,
                    ser_s=ser, queue_depth=stream.last_queue_depth,
                    stream=stream_idx))
            if arrival > last_arrival:
                last_arrival = arrival
        state.next_stream = ((state.next_stream + n_chunks)
                             % len(state.streams))
        return last_arrival - now

    def queue_delay_total(self) -> float:
        """Aggregate chunk queueing delay across all streams/directions."""
        return sum(s.queue_delay_total
                   for state in self._directions.values()
                   for s in state.streams)

    def in_flight(self, now: float) -> int:
        """Chunks occupying (or queued on) any stream at *now*.

        Mirrors the fabric's ``wan_in_flight`` gauge at stream
        granularity: a chunk counts from its reservation until its
        serialization window ends.
        """
        return sum(s.in_flight(now)
                   for state in self._directions.values()
                   for s in state.streams)

    def stream_gauges(self) -> Dict[str, Dict[str, float]]:
        """Per-stream occupancy gauges keyed by stream lane name.

        Each value carries the stream's ``reservations`` (chunks
        carried), ``queue_delay_total`` and ``high_water`` occupancy —
        the observability surface of the MPWide-style pacing state.
        """
        out: Dict[str, Dict[str, float]] = {}
        for state in self._directions.values():
            for s in state.streams:
                out[s.name] = {
                    "reservations": s.reservations,
                    "queue_delay_total": s.queue_delay_total,
                    "high_water": s.high_water,
                }
        return out

    def reset_stats(self) -> None:
        super().reset_stats()
        self.chunks_sent = 0
        self._directions.clear()

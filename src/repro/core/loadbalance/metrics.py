"""Measurement database for load balancing.

Charm++'s measurement-based load balancers observe, between balancing
steps, how much compute time each chare consumed and how much it talked
to whom.  The scheduler and send path feed the same observations into
:class:`LBDatabase`; strategies read it through the accessors below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.ids import ChareID


@dataclass
class CommRecord:
    """Accumulated traffic between one ordered chare pair."""

    messages: int = 0
    bytes: int = 0
    #: Messages that crossed the wide-area link (at send-time mapping).
    wan_messages: int = 0


class LBDatabase:
    """Per-chare load and per-pair communication since the last reset.

    The records are keyed by each chare's :attr:`~repro.core.ids.ChareID.label`
    (a string equal for equal ids, whose hash CPython caches), not by the
    id itself: the scheduler records one execution and the send path one
    message per event, and a :class:`ChareID` key would run its Python
    ``__hash__`` on every lookup.  :attr:`chare_load` and :attr:`comm`
    present the records keyed by ids.
    """

    def __init__(self) -> None:
        #: label -> seconds.
        self._load: Dict[str, float] = {}
        #: (src label, dst label) -> traffic record.
        self._comm: Dict[Tuple[str, str], CommRecord] = {}
        #: label -> the first id recorded under it.
        self._ids: Dict[str, ChareID] = {}

    @property
    def chare_load(self) -> Dict[ChareID, float]:
        """Accumulated compute seconds per chare, in first-seen order."""
        ids = self._ids
        return {ids[label]: load for label, load in self._load.items()}

    @property
    def comm(self) -> Dict[Tuple[ChareID, ChareID], CommRecord]:
        """Traffic per ordered chare pair, in first-seen order."""
        ids = self._ids
        return {(ids[src], ids[dst]): rec
                for (src, dst), rec in self._comm.items()}

    # -- recording (called by the runtime) ---------------------------------

    def record_execution(self, chare: ChareID, cost: float) -> None:
        label = chare.label
        load = self._load
        prev = load.get(label)
        if prev is None:
            self._ids.setdefault(label, chare)
            load[label] = 0.0 + cost
        else:
            load[label] = prev + cost

    def record_send(self, src: Optional[ChareID], dst: ChareID,
                    size_bytes: int, crossed_wan: bool) -> None:
        if src is None:
            return  # driver-originated traffic is not a chare's doing
        key = (src.label, dst.label)
        rec = self._comm.get(key)
        if rec is None:
            rec = self._comm[key] = CommRecord()
            ids = self._ids
            ids.setdefault(key[0], src)
            ids.setdefault(key[1], dst)
        rec.messages += 1
        rec.bytes += size_bytes
        if crossed_wan:
            rec.wan_messages += 1

    def reset(self) -> None:
        """Forget everything (called after each balancing step)."""
        self._load.clear()
        self._comm.clear()
        self._ids.clear()

    # -- queries (used by strategies) ----------------------------------------

    def load_of(self, chare: ChareID) -> float:
        return self._load.get(chare.label, 0.0)

    def known_chares(self) -> List[ChareID]:
        """Chares with any recorded activity, deterministically ordered."""
        return sorted(self._ids.values())

    def partners_of(self, chare: ChareID) -> List[Tuple[ChareID, CommRecord]]:
        """Every chare *chare* exchanged messages with, and the traffic."""
        out: Dict[ChareID, CommRecord] = {}
        for (src, dst), rec in self.comm.items():
            other = None
            if src == chare:
                other = dst
            elif dst == chare:
                other = src
            if other is None:
                continue
            agg = out.setdefault(other, CommRecord())
            agg.messages += rec.messages
            agg.bytes += rec.bytes
            agg.wan_messages += rec.wan_messages
        return sorted(out.items(), key=lambda kv: kv[0])

    def wan_talkers(self) -> List[ChareID]:
        """Chares that sent or received wide-area traffic.

        These are the objects the paper's §6 Grid load balancer singles
        out for even distribution within their home cluster.
        """
        talkers = set()
        for (src, dst), rec in self.comm.items():
            if rec.wan_messages > 0:
                talkers.add(src)
                talkers.add(dst)
        return sorted(talkers)

    def total_load(self) -> float:
        return sum(self._load.values())

"""Checkpoint / restore of a runtime's application state.

Paper §2.1: the chare migration capability "is leveraged to support
other capabilities such as automatic checkpointing [and] fault
tolerance".  The same packing machinery that moves one chare between
PEs can serialize *all* of them: a checkpoint is the set of packed
chares plus their location map, taken at a quiescent point.

Semantics mirror Charm++'s synchronous checkpoint:

* :func:`take_checkpoint` requires quiescence (no queued messages, no
  pending events) — checkpointing mid-flight messages is exactly the
  hard part Charm++ also sidesteps at this level;
* :func:`restore_checkpoint` re-creates every collection, element and
  placement inside a *fresh* runtime (typically a new environment of
  identical topology, simulating a restart after failure);
* determinism guarantee (pinned by tests): continue-after-checkpoint
  and restore-then-continue produce identical application state.

Chare state is deep-copied via :mod:`pickle`, which doubles as an
honest byte count for the checkpoint-size accounting.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.ids import Index
from repro.errors import RuntimeSystemError


@dataclass(frozen=True)
class CollectionImage:
    """Serialized form of one chare collection."""

    cid: int
    cls: type
    #: index -> (pe, pickled chare state)
    elements: Dict[Index, Tuple[int, bytes]]


@dataclass(frozen=True)
class Checkpoint:
    """A full application snapshot."""

    num_pes: int
    collections: Tuple[CollectionImage, ...]
    taken_at: float

    @property
    def total_bytes(self) -> int:
        """Serialized size of all chare state (the wire/disk cost)."""
        return sum(len(blob) for image in self.collections
                   for (_pe, blob) in image.elements.values())

    @property
    def num_chares(self) -> int:
        return sum(len(image.elements) for image in self.collections)


def assert_quiescent(rts) -> None:
    """Raise unless the runtime has no in-flight work anywhere."""
    if rts.engine.pending != 0 or not rts.scheduler.all_queues_empty():
        raise RuntimeSystemError(
            "checkpoint requires quiescence: "
            f"{rts.engine.pending} pending events, busy/queued PEs "
            f"{[ps.pe for ps in rts.scheduler.pes if ps.busy or ps.queue]}")


def _strip_runtime(chare) -> bytes:
    """Pickle a chare without its runtime binding (rebound on restore)."""
    rts, cid = chare._rts, chare._id
    chare._rts, chare._id = None, None
    try:
        return pickle.dumps(chare)
    finally:
        chare._rts, chare._id = rts, cid


def take_checkpoint(rts) -> Checkpoint:
    """Snapshot every chare of *rts* (must be quiescent)."""
    assert_quiescent(rts)
    images: List[CollectionImage] = []
    for cid in sorted(rts._collections):
        coll = rts._collections[cid]
        elements: Dict[Index, Tuple[int, bytes]] = {}
        for idx in sorted(coll.mapping):
            obj = coll.objects.get(idx)
            if obj is None:
                raise RuntimeSystemError(
                    f"chare c{cid}[{idx}] is mid-migration; "
                    "checkpoint at a quiescent point")
            elements[idx] = (coll.mapping[idx], _strip_runtime(obj))
        images.append(CollectionImage(cid=cid, cls=coll.cls,
                                      elements=elements))
    return Checkpoint(num_pes=rts.num_pes, collections=tuple(images),
                      taken_at=rts.now)


def restore_checkpoint(rts, checkpoint: Checkpoint) -> None:
    """Recreate the checkpointed application inside a fresh runtime.

    *rts* must be empty (no collections yet) and span at least as many
    PEs as the checkpoint used (shrink-restore would need remapping,
    which Charm++ supports but the paper does not exercise).
    """
    if rts._collections:
        raise RuntimeSystemError(
            "restore target runtime already hosts collections")
    if rts.num_pes < checkpoint.num_pes:
        raise RuntimeSystemError(
            f"checkpoint used {checkpoint.num_pes} PEs; target has "
            f"only {rts.num_pes}")
    for image in checkpoint.collections:
        coll = rts._new_collection(image.cls)
        if coll.cid != image.cid:
            raise RuntimeSystemError(
                f"collection id drift: expected c{image.cid}, got "
                f"c{coll.cid} (restore into a *fresh* runtime)")
        for idx, (pe, blob) in sorted(image.elements.items()):
            obj = pickle.loads(blob)
            rts._register(coll, idx, obj, pe)

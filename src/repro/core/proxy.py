"""Proxies: the asynchronous invocation surface.

A proxy stands in for a (possibly remote) chare or chare collection.
Calling an entry method on a proxy never runs user code synchronously —
it marshals an invocation message and hands it to the runtime, which
routes it through the network fabric to the target's PE queue.  This is
the Charm++ programming surface:

>>> blocks[1, 2].ghost_recv(side, vector)          # point send
>>> blocks.start_step(42)                          # broadcast
>>> blocks.section([(0, 0), (0, 1)]).coords(xyz)   # section multicast

Reserved keyword arguments on every proxy call:

``_size``
    Explicit wire size in bytes (else estimated from the arguments).
``_priority``
    Message priority (smaller = sooner; else the entry's default).
``_tag``
    Trace label (else the entry-method name).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, TYPE_CHECKING

from repro.core.ids import ChareID, Index, normalize_index

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.rts import Runtime


class BoundEntry:
    """A chare proxy's entry method, ready to be invoked asynchronously."""

    __slots__ = ("_rts", "_target", "_entry")

    def __init__(self, rts: "Runtime", target: ChareID, entry: str) -> None:
        self._rts = rts
        self._target = target
        self._entry = entry

    def __call__(self, *args: Any, _size: Optional[int] = None,
                 _priority: Optional[int] = None, _tag: Optional[str] = None,
                 **kwargs: Any) -> None:
        self._rts.send(self._target, self._entry, args, kwargs,
                       size=_size, priority=_priority, tag=_tag)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<entry {self._target}.{self._entry}>"


class ChareProxy:
    """Proxy to a single chare (singleton or one array element)."""

    __slots__ = ("_rts", "_target")

    def __init__(self, rts: "Runtime", target: ChareID) -> None:
        self._rts = rts
        self._target = target

    @property
    def chare_id(self) -> ChareID:
        return self._target

    def __getattr__(self, name: str) -> BoundEntry:
        if name.startswith("_"):
            raise AttributeError(name)
        return BoundEntry(self._rts, self._target, name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<proxy {self._target}>"


class BroadcastEntry:
    """An array proxy's entry method: invoking it broadcasts."""

    __slots__ = ("_rts", "_collection", "_entry")

    def __init__(self, rts: "Runtime", collection: int, entry: str) -> None:
        self._rts = rts
        self._collection = collection
        self._entry = entry

    def __call__(self, *args: Any, _size: Optional[int] = None,
                 _priority: Optional[int] = None, _tag: Optional[str] = None,
                 **kwargs: Any) -> None:
        self._rts.broadcast(self._collection, self._entry, args, kwargs,
                            size=_size, priority=_priority, tag=_tag)


class ArrayProxy:
    """Proxy to a whole chare array.

    * ``proxy[index]`` / ``proxy.elem(index)`` — one element;
    * ``proxy.entry(...)`` — broadcast to every element;
    * ``proxy.section(indices)`` — a multicast section
      (see :mod:`repro.core.collectives`).
    """

    __slots__ = ("_rts", "_collection")

    def __init__(self, rts: "Runtime", collection: int) -> None:
        self._rts = rts
        self._collection = collection

    @property
    def collection(self) -> int:
        return self._collection

    def elem(self, index) -> ChareProxy:
        """Proxy to the element at *index*."""
        idx: Index = normalize_index(index)
        return ChareProxy(self._rts, self._rts.chare_id(self._collection, idx))

    def __getitem__(self, index) -> ChareProxy:
        # ``elem`` inlined: element access is on the per-send path.
        rts = self._rts
        return ChareProxy(rts, rts.chare_id(self._collection,
                                            normalize_index(index)))

    def section(self, indices: Sequence) -> "SectionProxy":
        """A multicast section over the given element indices."""
        from repro.core.collectives import SectionProxy  # cycle guard
        return SectionProxy(self._rts, self._collection,
                            [normalize_index(i) for i in indices])

    def indices(self) -> list:
        """All element indices currently in the collection."""
        return self._rts.collection_indices(self._collection)

    def __getattr__(self, name: str) -> BroadcastEntry:
        if name.startswith("_"):
            raise AttributeError(name)
        return BroadcastEntry(self._rts, self._collection, name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<array proxy c{self._collection}>"

"""Identifiers for chares, collections and entry methods.

A chare is addressed by a :class:`ChareID` — the pair of its collection
number and its index within the collection.  Singleton chares live in
their own one-element collection with the empty index ``()``.

Indices are tuples of ints so the same machinery serves 1-D arrays
(``(i,)``), the stencil's 2-D arrays (``(i, j)``), and LeanMD's 3-D cell
grid (``(x, y, z)``) and 6-D cell-pair space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

Index = Tuple[int, ...]


def normalize_index(index) -> Index:
    """Coerce user-facing index spellings to the canonical tuple form.

    ``arr[3]`` and ``arr[(3,)]`` address the same element; likewise
    ``arr[1, 2]`` and ``arr[(1, 2)]``.
    """
    if isinstance(index, tuple):
        return tuple(map(int, index))
    return (int(index),)


class ChareID:
    """Globally unique chare address: (collection, index).

    The runtime creates one *canonical* instance per registered chare
    (:meth:`~repro.core.rts.Runtime.chare_id`) and every proxy,
    collective and send plan hands that instance out, so the dicts keyed
    on chare ids (load-balancer database, reduction counters) hit
    CPython's identity fast path and never call :meth:`__eq__`.  The
    hash and the location-independent trace :attr:`label` (equal to
    ``str(cid)``) are computed once, at construction: a lazy label would
    need ``__getattr__``, which slows every attribute read on the class.
    """

    __slots__ = ("collection", "index", "label", "_hash")

    def __init__(self, collection: int, index: Index) -> None:
        self.collection = collection
        self.index = index
        self._hash = hash((collection, index))
        #: ``str(self)``: the object label trace sinks attribute events
        #: to.  It never mentions a PE, so it is stable across migration.
        self.label = (f"c{collection}[{','.join(map(str, index))}]"
                      if index else f"c{collection}")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if isinstance(other, ChareID):
            return (self.collection == other.collection
                    and self.index == other.index)
        return NotImplemented

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __lt__(self, other) -> bool:
        if isinstance(other, ChareID):
            return ((self.collection, self.index)
                    < (other.collection, other.index))
        return NotImplemented

    def __le__(self, other) -> bool:
        if isinstance(other, ChareID):
            return ((self.collection, self.index)
                    <= (other.collection, other.index))
        return NotImplemented

    def __gt__(self, other) -> bool:
        if isinstance(other, ChareID):
            return ((self.collection, self.index)
                    > (other.collection, other.index))
        return NotImplemented

    def __ge__(self, other) -> bool:
        if isinstance(other, ChareID):
            return ((self.collection, self.index)
                    >= (other.collection, other.index))
        return NotImplemented

    def __reduce__(self):
        return (ChareID, (self.collection, self.index))

    def __repr__(self) -> str:
        return f"ChareID(collection={self.collection}, index={self.index})"

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class EntryRef:
    """A bound (chare, entry-method) pair — the unit reductions target."""

    chare: ChareID
    entry: str

    def __str__(self) -> str:
        return f"{self.chare}.{self.entry}"

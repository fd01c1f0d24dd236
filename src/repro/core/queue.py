"""Per-PE message queues.

Paper §4: "As messages arrive at a physical processor, they are enqueued
in a message queue in either FIFO or priority order.  When a physical
processor becomes idle, its message scheduler dequeues the next waiting
message and delivers it."

:class:`MessageQueue` implements both disciplines behind one interface.
In priority mode, messages are ordered by ``(priority, arrival_seq)`` —
smaller priority first, FIFO among equals.  FIFO mode (the paper's main
experiments) bypasses the heap entirely: a :class:`collections.deque`
gives O(1) push/pop with no key tuple allocation, where the heap costs
O(log n) per operation even when every priority ties.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Deque, List, Optional

from repro.network.message import Message


class MessageQueue:
    """A scheduler queue for one PE.

    Parameters
    ----------
    prioritized:
        When ``False`` (default, matching the paper's main experiments)
        the queue is pure FIFO and message priorities are ignored.  When
        ``True``, smaller :attr:`Message.priority` values dequeue first —
        the §6 "prioritized message delivery" extension.
    """

    def __init__(self, prioritized: bool = False) -> None:
        self.prioritized = prioritized
        self._fifo: Deque[Message] = deque()
        self._heap: List[tuple] = []
        self._arrival = itertools.count()
        #: Messages queued now (``len(queue)``); a plain attribute so
        #: the scheduler's per-message checks need no method call.
        self.size = 0
        #: Largest queue depth ever reached (telemetry gauge: a deep
        #: high-water mark means arrivals outran the scheduler).
        self.high_water = 0

    def push(self, msg: Message) -> None:
        """Enqueue an arrived message."""
        if self.prioritized:
            key = (msg.priority, next(self._arrival))
            heapq.heappush(self._heap, (key, msg))
        else:
            self._fifo.append(msg)
        self.size += 1
        if self.size > self.high_water:
            self.high_water = self.size

    def pop(self) -> Message:
        """Dequeue the next message to execute.

        Raises
        ------
        IndexError
            If the queue is empty.
        """
        if self.prioritized:
            _key, msg = heapq.heappop(self._heap)
        else:
            msg = self._fifo.popleft()
        self.size -= 1
        return msg

    def peek(self) -> Optional[Message]:
        """The message :meth:`pop` would return, or ``None`` if empty."""
        if self.prioritized:
            return self._heap[0][1] if self._heap else None
        return self._fifo[0] if self._fifo else None

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return self.size > 0

    def drain(self) -> List[Message]:
        """Remove and return all queued messages in dequeue order.

        Used when migrating a chare with pending messages and when
        tearing down a runtime between benchmark repetitions.
        """
        out = []
        while self:
            out.append(self.pop())
        return out

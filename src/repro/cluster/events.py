"""A minimal discrete-event loop.

Events are ``(time, seq, action)`` triples kept in one binary heap;
``seq`` breaks ties deterministically in scheduling order, which keeps
whole simulations reproducible under a fixed seed. Actions may schedule
further events. :meth:`EventLoop.schedule` returns an :class:`EventHandle`
so timers that become moot (a request's deadline after it finished, a
retry after a cancel) can be disarmed instead of firing as no-ops.

A caller that knows up front how many events it will feed lazily (the
simulator's trace-arrival cursor) can :meth:`~EventLoop.reserve` a
contiguous ``seq`` band and later schedule into it: those events then
pop exactly where they would have had they all been scheduled at
reservation time, ahead of later-scheduled events at the same time.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass, field


@dataclass
class EventHandle:
    """Disarmable reference to one scheduled event."""

    time: float
    cancelled: bool = field(default=False)

    def cancel(self) -> None:
        """Disarm: the loop drops the event instead of running its action."""
        self.cancelled = True


# An event record. Tuple comparison never reaches the (uncomparable)
# action element because ``seq`` is unique.
_Item = tuple[float, int, Callable[[float], None], EventHandle]


class EventLoop:
    """Deterministic discrete-event executor over a ``(time, seq)`` heap."""

    def __init__(self) -> None:
        self._heap: list[_Item] = []
        self._seq = 0
        self._now = 0.0
        self._processed = 0
        self._until: float | None = None
        self._max_events: int | None = None
        self._running = False

    @property
    def now(self) -> float:
        return self._now

    @property
    def pending(self) -> int:
        return len(self._heap)

    @property
    def processed(self) -> int:
        return self._processed

    def reserve(self, count: int) -> int:
        """Reserve ``count`` consecutive sequence numbers; returns the first.

        Events later scheduled with ``seq=base + i`` tie-break exactly as
        if they had been scheduled now, in index order.
        """
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count}")
        base = self._seq
        self._seq += count
        return base

    def schedule(
        self,
        time: float,
        action: Callable[[float], None],
        seq: "int | None" = None,
    ) -> EventHandle:
        """Enqueue ``action`` to run at ``time`` (must not be in the past).

        ``seq`` places the event at a number obtained from :meth:`reserve`
        (each may be used once); by default it takes the next fresh one.
        """
        if time < self._now - 1e-12:
            raise ValueError(f"cannot schedule at {time} before now={self._now}")
        if seq is None:
            seq = self._seq
            self._seq += 1
        elif not 0 <= seq < self._seq:
            raise ValueError(f"seq {seq} was never reserved")
        handle = EventHandle(time=time)
        heapq.heappush(self._heap, (time, seq, action, handle))
        return handle

    def schedule_after(
        self, delay: float, action: Callable[[float], None]
    ) -> EventHandle:
        if delay < 0:
            raise ValueError(f"delay must be nonnegative, got {delay}")
        return self.schedule(self._now + delay, action)

    def _head(self) -> "_Item | None":
        """Smallest live item, pruning cancelled heads in passing."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0] if heap else None

    def peek_time(self) -> float | None:
        """Time of the next live event, or ``None`` when the queue is empty.

        Cancelled heads are pruned in passing — in :meth:`run` they would
        be popped and skipped without touching the clock or the processed
        count, so discarding them here changes nothing observable. The
        fast lane compares a step's end against this: strictly earlier
        means running it inline is exactly what the loop would do next.
        """
        item = self._head()
        return item[0] if item is not None else None

    def try_advance(self, time: float) -> bool:
        """Account one event processed inline at ``time`` (the fast lane).

        Returns False — and changes nothing — when the loop is not inside
        :meth:`run`, ``time`` lies beyond the active ``until`` horizon, or
        the ``max_events`` budget is spent; the caller must then fall back
        to scheduling a real event so the queue ends up in the same state
        the slow path would leave. On success the clock and the processed
        count move exactly as if the event had gone through the queue.
        """
        if time < self._now - 1e-12:
            raise ValueError(f"cannot advance to {time} before now={self._now}")
        if not self._running:
            return False
        if self._until is not None and time > self._until:
            return False
        if self._max_events is not None and self._processed >= self._max_events:
            return False
        self._now = max(self._now, time)
        self._processed += 1
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Process events in time order; returns the final clock.

        Stops when the queue is empty, the next event is beyond ``until``
        (left enqueued), or ``max_events`` have been processed.
        """
        self._until = until
        self._max_events = max_events
        self._running = True
        heap = self._heap
        try:
            while True:
                if max_events is not None and self._processed >= max_events:
                    break
                head = self._head()
                if head is None:
                    break
                time = head[0]
                if until is not None and time > until:
                    self._now = until
                    return self._now
                _, _, action, _ = heapq.heappop(heap)
                self._now = time
                action(time)
                self._processed += 1
            if until is not None:
                self._now = max(self._now, until)
            return self._now
        finally:
            self._until = None
            self._max_events = None
            self._running = False

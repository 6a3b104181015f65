"""Tests for the discrete-event loop."""

import pytest

from repro.cluster.events import EventLoop


class TestEventLoop:
    def test_time_ordering(self):
        loop = EventLoop()
        fired = []
        loop.schedule(3.0, lambda t: fired.append(("c", t)))
        loop.schedule(1.0, lambda t: fired.append(("a", t)))
        loop.schedule(2.0, lambda t: fired.append(("b", t)))
        loop.run()
        assert fired == [("a", 1.0), ("b", 2.0), ("c", 3.0)]

    def test_fifo_within_same_time(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda t: fired.append("first"))
        loop.schedule(1.0, lambda t: fired.append("second"))
        loop.run()
        assert fired == ["first", "second"]

    def test_actions_schedule_more_events(self):
        loop = EventLoop()
        fired = []

        def recurse(t):
            fired.append(t)
            if t < 3.0:
                loop.schedule(t + 1.0, recurse)

        loop.schedule(1.0, recurse)
        loop.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_until_leaves_future_events(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda t: fired.append(t))
        loop.schedule(10.0, lambda t: fired.append(t))
        end = loop.run(until=5.0)
        assert fired == [1.0]
        assert end == 5.0
        assert loop.pending == 1

    def test_resume_after_until(self):
        loop = EventLoop()
        fired = []
        loop.schedule(10.0, lambda t: fired.append(t))
        loop.run(until=5.0)
        loop.run()
        assert fired == [10.0]

    def test_cannot_schedule_in_past(self):
        loop = EventLoop()
        loop.schedule(5.0, lambda t: None)
        loop.run()
        with pytest.raises(ValueError):
            loop.schedule(1.0, lambda t: None)

    def test_schedule_after(self):
        loop = EventLoop()
        fired = []
        loop.schedule(2.0, lambda t: loop.schedule_after(3.0, lambda u: fired.append(u)))
        loop.run()
        assert fired == [5.0]

    def test_max_events(self):
        loop = EventLoop()
        fired = []
        for i in range(10):
            loop.schedule(float(i), lambda t: fired.append(t))
        loop.run(max_events=4)
        assert len(fired) == 4
        assert loop.processed == 4

    def test_reserved_band_pops_ahead_of_later_same_time_events(self):
        """Events scheduled into a reserved seq band pop in (time, seq)
        order ahead of same-time events scheduled after the reservation,
        even when they are scheduled later (from inside an action)."""
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda t: fired.append("before"))
        base = loop.reserve(3)
        loop.schedule(1.0, lambda t: fired.append("late-1.0"))
        loop.schedule(2.0, lambda t: fired.append("late-2.0"))

        def band_0(t):
            fired.append("band-0")
            # Fed lazily, like the simulator's arrival cursor.
            loop.schedule(2.0, lambda u: fired.append("band-2"), seq=base + 2)

        loop.schedule(1.0, lambda t: fired.append("band-1"), seq=base + 1)
        loop.schedule(1.0, band_0, seq=base)
        loop.run()
        assert fired == [
            "before", "band-0", "band-1", "late-1.0", "band-2", "late-2.0",
        ]

    def test_unreserved_seq_rejected(self):
        loop = EventLoop()
        base = loop.reserve(2)
        with pytest.raises(ValueError):
            loop.schedule(1.0, lambda t: None, seq=base + 2)

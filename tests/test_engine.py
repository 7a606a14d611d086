"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(30.0, fired.append, "c")
        sim.schedule(10.0, fired.append, "a")
        sim.schedule(20.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_schedule_order(self):
        sim = Simulator()
        fired = []
        for tag in "abc":
            sim.schedule(5.0, fired.append, tag)
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(7.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [7.5]
        assert sim.now == 7.5

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(5.0, lambda: fired.append(("inner", sim.now)))

        sim.schedule(10.0, outer)
        sim.run()
        assert fired == [("outer", 10.0), ("inner", 15.0)]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_at_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.at(5.0, lambda: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(10.0, fired.append, "x")
        ev.cancel()
        sim.run()
        assert fired == []

    def test_pending_ignores_cancelled(self):
        sim = Simulator()
        ev = sim.schedule(10.0, lambda: None)
        sim.schedule(20.0, lambda: None)
        ev.cancel()
        assert sim.pending == 1


class TestRunBounds:
    def test_run_until_stops_the_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, fired.append, "early")
        sim.schedule(100.0, fired.append, "late")
        sim.run(until=50.0)
        assert fired == ["early"]
        assert sim.now == 50.0
        sim.run()
        assert fired == ["early", "late"]

    def test_max_events_guard(self):
        sim = Simulator()

        def rearm():
            sim.schedule(1.0, rearm)

        sim.schedule(1.0, rearm)
        with pytest.raises(RuntimeError):
            sim.run(max_events=100)

    def test_events_fired_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_fired == 5

    def test_determinism_across_runs(self):
        def run_once():
            sim = Simulator()
            order = []
            sim.schedule(1.0, lambda: (order.append(1), sim.schedule(0.0, order.append, 2)))
            sim.schedule(1.0, order.append, 3)
            sim.run()
            return order

        assert run_once() == run_once() == [1, 3, 2]


class TestHeapEntries:
    def test_callback_exception_is_stamped_and_counted(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)

        def boom():
            raise KeyError("uncorrectable")

        sim.schedule(2.5, boom)
        sim.schedule(3.0, lambda: None)
        with pytest.raises(KeyError) as info:
            sim.run()
        assert "while firing event at sim time 2.5 ns" in info.value.__notes__
        assert sim.events_fired == 2
        assert sim.now == 2.5
        assert sim.pending == 1

    def test_ties_past_until_keep_schedule_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(10.0, fired.append, "early")
        for tag in "ab":
            sim.schedule(80.0, fired.append, tag)
        sim.run(until=50.0)
        assert fired == ["early"]
        assert sim.pending == 2
        sim.schedule(30.0, fired.append, "c")  # also at t=80, scheduled last
        sim.run()
        assert fired == ["early", "a", "b", "c"]
        assert sim.events_fired == 4

    def test_cancelled_head_neither_fires_nor_counts(self):
        sim = Simulator()
        fired = []
        head = sim.schedule(1.0, fired.append, "head")
        sim.schedule(2.0, fired.append, "next")
        head.cancel()
        assert not head.alive
        assert (head.time, head.seq) == (1.0, 1)
        sim.run()
        assert fired == ["next"]
        assert sim.events_fired == 1
        assert sim.now == 2.0

    def test_step_skips_cancelled_head(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "head").cancel()
        sim.schedule(2.0, fired.append, "next")
        assert sim.step()
        assert fired == ["next"]
        assert sim.events_fired == 1
        assert not sim.step()

"""Minimal deterministic discrete-event engine.

The full-system experiments replay memory traces through cores, a memory
controller and PCM banks; all of them communicate by scheduling callbacks
on this engine.  Design points:

* **Determinism** — ties in time are broken by a monotone sequence
  number, so two runs of the same trace produce identical schedules (the
  reproduction's experiments must be exactly repeatable).
* **No processes/coroutines** — callbacks keep the kernel tiny and fast;
  components hold their own state machines (as the paper's FSMs do).
* **Cancellation** — events carry a live flag; cancelling is O(1) and the
  heap lazily discards dead entries.
* **Hot-path layout** — the heap stores ``(time, seq, event)`` tuples, so
  sift comparisons are C-speed tuple compares on floats/ints (``seq`` is
  unique, so the event object itself is never compared), and ``Event``
  uses ``__slots__``; a full-system run allocates one event per FSM
  transition, which makes both measurable in ``bench_fig11_14_fullsystem``.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

__all__ = ["Event", "Simulator"]


class Event:
    """One scheduled callback; ``(time, seq)`` orders it in the heap."""

    __slots__ = ("time", "seq", "fn", "args", "alive")

    def __init__(
        self, time: float, seq: int, fn: Callable[..., Any], args: tuple = ()
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.alive = True

    def cancel(self) -> None:
        """Prevent the event from firing (lazy removal from the heap)."""
        self.alive = False

    def __repr__(self) -> str:  # debugging aid; never on the hot path
        state = "live" if self.alive else "cancelled"
        return f"Event(t={self.time}, seq={self.seq}, {state}, fn={self.fn!r})"


class Simulator:
    """Event loop with a nanosecond clock.

    Typical use::

        sim = Simulator()
        sim.schedule(10.0, handler, arg1)
        sim.run()                 # drain all events
        sim.run(until=1e6)        # or stop the clock at 1 ms
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        # Heap of (time, seq, Event); time/seq duplicated from the event
        # so ordering never falls back to comparing Python objects.
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self.events_fired = 0
        # Optional repro.obs.Tracer assigned by the system builder when
        # tracing is enabled; None keeps run() on the untraced fast path.
        # Must be set before run() — the check is hoisted out of the loop.
        self.tracer = None

    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable, *args) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` ns from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        # at() inlined: every FSM transition schedules, and now + delay
        # with delay >= 0 can never land in the past.
        time = self.now + delay
        self._seq += 1
        ev = Event(time, self._seq, fn, args)
        heapq.heappush(self._heap, (time, self._seq, ev))
        return ev

    def at(self, time: float, fn: Callable, *args) -> Event:
        """Schedule ``fn(*args)`` at an absolute time."""
        if time < self.now:
            raise ValueError(f"cannot schedule into the past ({time} < {self.now})")
        self._seq += 1
        ev = Event(time, self._seq, fn, args)
        heapq.heappush(self._heap, (time, self._seq, ev))
        return ev

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next live event.  Returns False when none remain."""
        heap = self._heap
        while heap:
            time, _seq, ev = heapq.heappop(heap)
            if not ev.alive:
                continue
            if time < self.now:  # defensive; cannot happen via the API
                raise RuntimeError("event time went backwards")
            self.now = time
            self.events_fired += 1
            if self.tracer is not None:
                self.tracer.instant(
                    getattr(ev.fn, "__qualname__", repr(ev.fn)),
                    ts_ns=time,
                    pid="sim",
                    tid="events",
                    cat="engine",
                )
            try:
                ev.fn(*ev.args)
            except Exception as exc:
                # Stamp the simulated time so a fault escaping a callback
                # (e.g. an uncorrectable write) is attributable in traces.
                exc.add_note(f"while firing event at sim time {time} ns")
                raise
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Drain the event heap, optionally bounded in time or events.

        ``until`` stops the clock *after* processing every event at or
        before that time; ``max_events`` is a safety valve for tests.

        The drain loop is inlined rather than delegating to :meth:`step`:
        the tracer check is hoisted to a single branch decision before
        the loop (``tracer`` must not be attached mid-run), and the
        monotone-time guard is unnecessary here because :meth:`at`
        already rejects past times.
        """
        heap = self._heap
        heappop = heapq.heappop
        traced = self.tracer is not None
        fired = 0
        while heap:
            entry = heap[0]
            ev = entry[2]
            if not ev.alive:
                heappop(heap)
                continue
            time = entry[0]
            if until is not None and time > until:
                self.now = until
                return
            heappop(heap)
            self.now = time
            self.events_fired += 1
            if traced:
                self.tracer.instant(
                    getattr(ev.fn, "__qualname__", repr(ev.fn)),
                    ts_ns=time,
                    pid="sim",
                    tid="events",
                    cat="engine",
                )
            try:
                ev.fn(*ev.args)
            except Exception as exc:
                exc.add_note(f"while firing event at sim time {time} ns")
                raise
            fired += 1
            if max_events is not None and fired >= max_events:
                raise RuntimeError(f"exceeded max_events={max_events}")
        if until is not None:
            self.now = max(self.now, until)

    def _peek_time(self) -> float | None:
        heap = self._heap
        while heap and not heap[0][2].alive:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    @property
    def pending(self) -> int:
        """Number of live events still queued."""
        return sum(1 for _, _, ev in self._heap if ev.alive)

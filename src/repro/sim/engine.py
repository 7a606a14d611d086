"""Minimal deterministic discrete-event engine.

The full-system experiments replay memory traces through cores, a memory
controller and PCM banks; all of them communicate by scheduling callbacks
on this engine.  Design points:

* **Determinism** — ties in time are broken by a monotone sequence
  number, so two runs of the same trace produce identical schedules (the
  reproduction's experiments must be exactly repeatable).
* **No processes/coroutines** — callbacks keep the kernel tiny and fast;
  components hold their own state machines (as the paper's FSMs do).
* **Cancellation** — cancelling clears the event's callback in place;
  it is O(1) and the drain loop discards cleared entries as it pops them.
* **Hot-path layout** — the heap entry *is* the event: an :class:`Event`
  is a ``list`` ``[time, seq, fn, args]``, so scheduling allocates one
  object, sift comparisons are C-speed list compares on the leading
  float/int (``seq`` is unique, so ``fn`` is never compared), and the
  drain loop unpacks the popped entry without attribute lookups.  A
  full-system run fires one event per FSM transition, so the per-event
  cost is what ``bench/`` reports as ``sim.events_per_s``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable

__all__ = ["Event", "Simulator"]


class Event(list):
    """One scheduled callback: the heap entry ``[time, seq, fn, args]``.

    Built as ``Event([time, seq, fn, args])``; ``(time, seq)`` orders it
    in the heap.  :meth:`cancel` clears ``fn`` to None, which the drain
    loop skips.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        return self[0]

    @property
    def seq(self) -> int:
        return self[1]

    @property
    def alive(self) -> bool:
        return self[2] is not None

    def cancel(self) -> None:
        """Prevent the event from firing (lazy removal from the heap)."""
        self[2] = None

    def __repr__(self) -> str:  # debugging aid; never on the hot path
        time, seq, fn, _args = self
        state = "live" if fn is not None else "cancelled"
        return f"Event(t={time}, seq={seq}, {state}, fn={fn!r})"


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
        self._heap: list[Event] = []
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
        self._seq = seq = self._seq + 1
        ev = Event([self.now + delay, seq, fn, args])
        heappush(self._heap, ev)
        return ev

    def at(self, time: float, fn: Callable, *args) -> Event:
        """Schedule ``fn(*args)`` at an absolute time."""
        if time < self.now:
            raise ValueError(f"cannot schedule into the past ({time} < {self.now})")
        self._seq = seq = self._seq + 1
        ev = Event([time, seq, fn, args])
        heappush(self._heap, ev)
        return ev

    # ------------------------------------------------------------------
    def _trace_event(self, fn: Callable, time: float) -> None:
        self.tracer.instant(
            getattr(fn, "__qualname__", repr(fn)),
            ts_ns=time,
            pid="sim",
            tid="events",
            cat="engine",
        )

    def step(self) -> bool:
        """Fire the next live event.  Returns False when none remain."""
        heap = self._heap
        while heap:
            time, _seq, fn, args = heappop(heap)
            if fn is None:
                continue
            if time < self.now:  # defensive; cannot happen via the API
                raise RuntimeError("event time went backwards")
            self.now = time
            self.events_fired += 1
            if self.tracer is not None:
                self._trace_event(fn, time)
            try:
                fn(*args)
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
        the loop (``tracer`` must not be attached mid-run), the
        monotone-time guard is unnecessary because :meth:`at` already
        rejects past times, and fired events are counted in a local that
        reaches ``events_fired`` when the loop ends, however it ends (a
        callback that raises is counted).  An event past ``until`` is
        pushed back unchanged, so its ``(time, seq)`` keeps its place.
        """
        heap = self._heap
        traced = self.tracer is not None
        fired = 0
        try:
            while heap:
                entry = heappop(heap)
                time, _seq, fn, args = entry
                if fn is None:
                    continue
                if until is not None and time > until:
                    heappush(heap, entry)
                    self.now = until
                    return
                self.now = time
                fired += 1
                if traced:
                    self._trace_event(fn, time)
                try:
                    fn(*args)
                except Exception as exc:
                    exc.add_note(f"while firing event at sim time {time} ns")
                    raise
                if max_events is not None and fired >= max_events:
                    raise RuntimeError(f"exceeded max_events={max_events}")
        finally:
            self.events_fired += fired
        if until is not None:
            self.now = max(self.now, until)

    @property
    def pending(self) -> int:
        """Number of live events still queued."""
        return sum(1 for ev in self._heap if ev[2] is not None)

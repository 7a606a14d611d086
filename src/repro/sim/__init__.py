"""Discrete-event simulation kernel (the GEM5-event-engine substrate)."""

from repro.sim.engine import Event, Simulator
from repro.sim.stats import Histogram, LatencyStat

__all__ = ["Event", "Histogram", "LatencyStat", "Simulator"]

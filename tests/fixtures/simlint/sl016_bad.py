"""SL016 bad fixture.

Linted as ``repro.fastpath.pricer``: every DES import below is a
violation — an analytic queueing model that calls the event loop,
controller or cores it is differentially rechecked against certifies
nothing.
"""

import repro.sim  # BAD: the event-driven simulator itself
import repro.memctrl.controller  # BAD: the DES memory controller
from repro.cpu.system import CMPSystem  # BAD: the DES cores
from repro.memctrl.frfcfs import FRFCFSPolicy  # BAD: DES scheduling policy
from repro.sim.engine import EventQueue  # BAD: DES engine internals


def model_with_the_simulator(trace, config, service):
    # A "fastpath" that answers by running the production system makes
    # the recheck compare the simulator against itself.
    system = CMPSystem(trace, config, service)
    return system, FRFCFSPolicy, EventQueue

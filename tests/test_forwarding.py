"""Read forwarding on hand-built traces, in both lanes.

A read whose line has a write waiting in the write queue is answered
from the queue: it costs the controller's forward latency, not an array
read.  Every read in these traces hits a pending write, so both lanes
must count every read as forwarded and report the forward latency as
the mean read latency.  The expected latency comes from the DES
controller, not from the analytic model's copy of it.

The traces cover each place the analytic model accounts a forward:
reads before a core's next write, reads after its last write, reads a
drain window finds already issued, and reads issued inside a window.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import MemCtrlConfig, default_config
from repro.cpu.system import CMPSystem
from repro.experiments.fullsystem import PrecomputedServiceModel
from repro.fastpath.pricer import price_cell
from repro.schemes.pricing import precompute_write_service
from repro.trace.record import OP_READ, OP_WRITE, RECORD_DTYPE, Trace

SCHEME = "tetris"
GAP = 40  # instructions before every request
W, R = OP_WRITE, OP_READ


def hand_trace(streams: list[list[tuple[int, int]]]) -> Trace:
    """One ``(op, line)`` stream per core, interleaved record by record."""
    longest = max(len(s) for s in streams)
    records = np.array(
        [
            (core, op, GAP, line)
            for i in range(longest)
            for core, s in enumerate(streams)
            if i < len(s)
            for op, line in [s[i]]
        ],
        dtype=RECORD_DTYPE,
    )
    n_writes = int((records["op"] == OP_WRITE).sum())
    counts = np.zeros((n_writes, 8, 2), dtype=np.uint8)
    counts[:, :, 0] = 3  # SET cells per unit
    counts[:, :, 1] = 2  # RESET cells per unit
    return Trace("hand", 0, records, counts)


def pairs(core: int, n: int) -> list[tuple[int, int]]:
    """``n`` write/read-back pairs on fresh lines."""
    lines = [1000 * (core + 1) + 7 * p for p in range(n)]
    return [rec for line in lines for rec in ((W, line), (R, line))]


#: The default watermarks (28/8) are never reached by these traces.
QUIET = {}
#: Watermarks 4/1 open a drain window at the fourth queued write.
DRAIN = {"drain_high_watermark": 4, "drain_low_watermark": 1}

CASES = {
    "one-core": ([[(W, 5), (R, 5)]], QUIET),
    "4-cores": ([pairs(0, 1), pairs(1, 2), pairs(2, 3), pairs(3, 2)], QUIET),
    "4-cores-uneven": (
        [pairs(0, 3), pairs(1, 3), pairs(2, 1), pairs(3, 1)], QUIET
    ),
    # Core 1's read of line 1 issues before core 0's third write opens
    # the window; core 0's read issues inside it, while line 24 still
    # waits behind lines 8 and 16 on bank 0.
    "drain-window": (
        [[(W, 8), (W, 16), (W, 24), (R, 24)], [(W, 1), (R, 1)]], DRAIN
    ),
}


@pytest.mark.parametrize("streams,memctrl", CASES.values(), ids=CASES)
def test_every_read_hitting_a_pending_write_is_forwarded(streams, memctrl):
    trace = hand_trace(streams)
    config = default_config().replace(memctrl=MemCtrlConfig(**memctrl))
    n_reads = trace.n_reads

    service = PrecomputedServiceModel(
        precompute_write_service(trace, SCHEME, config), config
    )
    system = CMPSystem(trace, config, service, scheme_name=SCHEME)
    fwd_ns = system.controller.forward_latency_ns
    des = system.run()
    assert des.controller.forwarded_reads == n_reads
    assert des.mean_read_latency_ns == pytest.approx(fwd_ns)

    row = price_cell(trace, "hand", SCHEME, config)
    assert row["forwarded_reads"] == n_reads
    assert row["read_latency_ns"] == pytest.approx(fwd_ns)

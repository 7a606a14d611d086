"""Tests for the trace-driven cores and the CMP system wrapper."""

import dataclasses

import numpy as np
import pytest

from repro.config import MemCtrlConfig, default_config
from repro.cpu.system import CMPSystem
from repro.experiments.fullsystem import PrecomputedServiceModel, precompute_write_service
from repro.trace.record import OP_READ, OP_WRITE, RECORD_DTYPE, Trace


def make_trace(rows, counts=None, units=8, workload="test"):
    """rows: list of (core, op, gap, line)."""
    records = np.array(rows, dtype=RECORD_DTYPE)
    n_writes = int((records["op"] == OP_WRITE).sum())
    if counts is None:
        counts = np.full((n_writes, units, 2), 2, dtype=np.uint8)
    return Trace(
        workload=workload, seed=1, records=records, write_counts=counts,
        units_per_line=units,
    )


def run_trace(trace, scheme="dcw", config=None):
    cfg = config if config is not None else default_config()
    table = precompute_write_service(trace, scheme, cfg)
    service = PrecomputedServiceModel(table, cfg)
    return CMPSystem(trace, cfg, service, scheme_name=scheme).run()


class TestSingleCore:
    def test_read_only_trace(self):
        trace = make_trace([(0, OP_READ, 1000, 0), (0, OP_READ, 1000, 1)])
        res = run_trace(trace)
        # 2 x (1000 cycles @ 0.5 ns + 50 ns read).
        assert res.runtime_ns == pytest.approx(2 * (500 + 50))
        assert res.total_instructions == 2000
        assert res.controller.read_latency.count == 2

    def test_ipc_definition(self):
        trace = make_trace([(0, OP_READ, 1000, 0)])
        res = run_trace(trace)
        # 1000 instructions over (500 + 50) ns at 2 GHz.
        assert res.ipc == pytest.approx(1000 / (550 / 0.5))

    def test_posted_write_does_not_block(self):
        trace = make_trace([(0, OP_WRITE, 1000, 0), (0, OP_READ, 1000, 1)])
        res = run_trace(trace)
        # The write is posted; core continues immediately; read on bank 1
        # is not behind the (undrained) write on bank 0.
        core_finish = res.cores[0].finish_ns
        assert core_finish == pytest.approx(500 + 500 + 50)
        # Runtime includes the end-of-run flush of the write queue.
        assert res.runtime_ns == pytest.approx(core_finish)

    def test_gap_delay_rounds_as_gap_times_cpi_times_cycle(self):
        # With CPI 1.1 at 3 GHz, 35 * 1.1 * (1/3) and 35 * (1.1 * (1/3))
        # differ in the last bit; the core must use the first.
        cfg = default_config()
        cfg = cfg.replace(cpu=dataclasses.replace(cfg.cpu, base_cpi=1.1, freq_ghz=3.0))
        trace = make_trace([(0, OP_READ, 35, 0)])
        res = run_trace(trace, config=cfg)
        finish_ns = res.cores[0].finish_ns
        assert finish_ns == 35 * 1.1 * (1 / 3.0) + 50.0  # simlint: disable=SL004
        assert finish_ns != 35 * (1.1 * (1 / 3.0)) + 50.0  # simlint: disable=SL004

    def test_empty_core_slices_finish(self):
        # Only core 0 has records; cores 1-3 must still "finish".
        trace = make_trace([(0, OP_READ, 10, 0)])
        res = run_trace(trace)
        assert all(c.finish_ns >= 0 for c in res.cores)


class TestBackpressure:
    def test_core_stalls_on_full_write_queue(self):
        cfg = default_config().replace(
            memctrl=MemCtrlConfig(
                write_queue_entries=2,
                drain_high_watermark=2,
                drain_low_watermark=0,
                opportunistic_drain=False,
            )
        )
        # Four rapid writes to the same bank: the first drains into the
        # (now busy) bank, the next two fill the 2-entry queue, and the
        # fourth must stall until the bank completes a service.
        rows = [(0, OP_WRITE, 10, 0), (0, OP_WRITE, 10, 8),
                (0, OP_WRITE, 10, 16), (0, OP_WRITE, 10, 24)]
        res = run_trace(make_trace(rows), config=cfg)
        assert res.cores[0].write_slot_stall_ns > 0

    def test_read_block_time_accounted(self):
        trace = make_trace([(0, OP_READ, 1000, 0)])
        res = run_trace(trace)
        assert res.cores[0].read_block_ns == pytest.approx(50.0)


class TestMultiCore:
    def test_cores_run_concurrently(self):
        rows = [(c, OP_READ, 1000, c) for c in range(4)]
        res = run_trace(make_trace(rows))
        # All four cores hit different banks: same finish time as one core.
        assert res.runtime_ns == pytest.approx(550.0)
        assert res.total_instructions == 4000

    def test_bank_contention_serializes(self):
        rows = [(c, OP_READ, 1000, 0) for c in range(4)]  # all bank 0
        res = run_trace(make_trace(rows))
        assert res.runtime_ns == pytest.approx(500 + 4 * 50)

    def test_per_core_ipc_reported(self):
        rows = [(c, OP_READ, 1000, c) for c in range(2)]
        res = run_trace(make_trace(rows))
        assert len(res.per_core_ipc) == 4


class TestSchemeImpact:
    def test_faster_scheme_shorter_runtime(self):
        rows = []
        for i in range(40):
            rows.append((0, OP_WRITE, 50, i % 8))
            rows.append((0, OP_READ, 50, 8 + i % 8))
        trace = make_trace(rows)
        slow = run_trace(trace, "dcw")
        fast = run_trace(trace, "tetris")
        assert fast.runtime_ns < slow.runtime_ns
        assert fast.mean_read_latency_ns <= slow.mean_read_latency_ns

    def test_all_requests_complete(self):
        rows = [(c, OP_WRITE if i % 3 else OP_READ, 20, (i * 7 + c) % 64)
                for c in range(4) for i in range(30)]
        trace = make_trace(rows)
        res = run_trace(trace, "tetris")
        total = (
            res.controller.read_latency.count
            + res.controller.write_latency.count
        )
        assert total == len(trace)

"""Tests for write pausing (the refs [23-24] controller extension)."""

import pytest

from repro.config import MemCtrlConfig, default_config
from repro.memctrl.controller import MemoryController
from repro.memctrl.request import MemRequest, ReqKind
from repro.sim.engine import Simulator


class FlatService:
    def __init__(self, read=50.0, write=3000.0):
        self.read, self.write = read, write

    def read_ns(self, req):
        return self.read

    def write_ns(self, req):
        return self.write


def make(sim, **mc):
    defaults = dict(
        opportunistic_drain=True,  # let the write start immediately
        write_pausing=True,
        pause_overhead_ns=10.0,
        pause_threshold_ns=100.0,
    )
    defaults.update(mc)
    cfg = default_config().replace(memctrl=MemCtrlConfig(**defaults))
    return MemoryController(sim, cfg, FlatService(), enable_forwarding=False)


def read_req(i, line, done=None):
    return MemRequest(req_id=i, kind=ReqKind.READ, core=0, line=line,
                      bank=line % 8, on_done=done)


def write_req(i, line):
    return MemRequest(req_id=i, kind=ReqKind.WRITE, core=0, line=line,
                      bank=line % 8, write_idx=0)


class TestPausing:
    def test_read_preempts_inflight_write(self):
        sim = Simulator()
        ctrl = make(sim)
        done = []
        ctrl.submit(write_req(1, 0))
        sim.run(until=500.0)          # write in flight (3000 ns long)
        ctrl.submit(read_req(2, 8, done.append))  # same bank 0
        sim.run()
        assert ctrl.stats.write_pauses == 1
        # The read finished long before the write would have (t=3000).
        assert done[0].finish_ns < 1000.0

    def test_write_resumes_and_completes(self):
        sim = Simulator()
        ctrl = make(sim)
        ctrl.submit(write_req(1, 0))
        sim.run(until=500.0)
        ctrl.submit(read_req(2, 8))
        sim.run()
        assert ctrl.idle
        assert ctrl.stats.write_latency.count == 1
        # Completion pushed out by the read + the re-ramp overhead.
        assert ctrl.stats.write_latency.max == pytest.approx(
            3000.0 + 50.0 + 10.0
        )

    def test_paused_write_busies_its_bank_once(self):
        """One bank, one write paused once: the bank is busy for the
        write's service, the re-ramp overhead and the read that cut in,
        and the write's unserved remainder is charged only on resume."""
        sim = Simulator()
        ctrl = make(sim)
        ctrl.submit(write_req(1, 0))
        sim.run(until=500.0)          # 2500 ns of the write remain
        ctrl.submit(read_req(2, 8))
        sim.run()
        assert ctrl.stats.write_pauses == 1
        busy = ctrl.stats.bank_busy_ns
        assert list(busy) == [0]
        assert busy[0] == pytest.approx(3000.0 + 10.0 + 50.0)

    def test_no_pause_below_threshold(self):
        sim = Simulator()
        ctrl = make(sim, pause_threshold_ns=100.0)
        done = []
        ctrl.submit(write_req(1, 0))
        sim.run(until=2950.0)         # only 50 ns of the write remain
        ctrl.submit(read_req(2, 8, done.append))
        sim.run()
        assert ctrl.stats.write_pauses == 0
        assert done[0].start_ns >= 3000.0  # read waited for the write

    def test_pausing_disabled_by_default(self):
        sim = Simulator()
        cfg = default_config().replace(
            memctrl=MemCtrlConfig(opportunistic_drain=True)
        )
        ctrl = MemoryController(sim, cfg, FlatService(), enable_forwarding=False)
        done = []
        ctrl.submit(write_req(1, 0))
        sim.run(until=500.0)
        ctrl.submit(read_req(2, 8, done.append))
        sim.run()
        assert ctrl.stats.write_pauses == 0
        assert done[0].start_ns == pytest.approx(3000.0)

    def test_multiple_reads_drain_before_resume(self):
        sim = Simulator()
        ctrl = make(sim)
        done = []
        ctrl.submit(write_req(1, 0))
        sim.run(until=200.0)
        for i in range(3):
            ctrl.submit(read_req(10 + i, 8 + 8 * 0, done.append))  # bank 0
        sim.run()
        # One pause, three reads served back-to-back, then the resume.
        assert ctrl.stats.write_pauses == 1
        assert len(done) == 3
        assert ctrl.stats.write_latency.count == 1

    def test_reads_on_other_banks_unaffected(self):
        sim = Simulator()
        ctrl = make(sim)
        done = []
        ctrl.submit(write_req(1, 0))
        sim.run(until=100.0)
        ctrl.submit(read_req(2, 1, done.append))  # different bank
        sim.run()
        assert ctrl.stats.write_pauses == 0
        assert done[0].latency_ns == pytest.approx(50.0)

    def test_config_validation(self):
        with pytest.raises(Exception):
            MemCtrlConfig(pause_overhead_ns=-1.0)


class TestPausingSystemLevel:
    def test_pausing_improves_dcw_read_latency(self):
        """Pausing rescues reads stuck behind the baseline's 3.4 us
        writes; the improvement shrinks for Tetris (short writes)."""
        from repro.experiments.fullsystem import run_fullsystem
        from repro.trace.synthetic import generate_trace

        trace = generate_trace("dedup", requests_per_core=600, seed=3)
        base_cfg = default_config()
        pause_cfg = base_cfg.replace(
            memctrl=MemCtrlConfig(write_pausing=True)
        )
        plain = run_fullsystem(trace, "dcw", base_cfg)
        paused = run_fullsystem(trace, "dcw", pause_cfg)
        assert paused.controller.write_pauses > 0
        assert paused.mean_read_latency_ns < plain.mean_read_latency_ns

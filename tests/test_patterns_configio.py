"""Tests for access-pattern generation, config serialization and the
trace-stats CLI command."""

from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.config import (
    CPUConfig,
    MemCtrlConfig,
    PCMOrganization,
    SystemConfig,
    default_config,
    mobile_config,
)
from repro.experiments.fullsystem import run_fullsystem
from repro.trace.io import save_trace
from repro.trace.synthetic import SyntheticTraceGenerator, generate_trace
from repro.trace.workloads import get_workload

FIXTURES = Path(__file__).parent / "fixtures"


class TestAccessPatterns:
    def test_streaming_walks_sequentially(self):
        t = generate_trace("dedup", 100, pattern="streaming")
        core0 = t.records[t.records["core"] == 0]["line"].astype(np.int64)
        assert (np.diff(core0) == 1).all()

    def test_strided_uses_stride(self):
        t = generate_trace("dedup", 100, pattern="strided", stride=8)
        core0 = t.records[t.records["core"] == 0]["line"].astype(np.int64)
        assert (np.diff(core0) == 8).all()

    def test_stride8_camps_on_one_bank(self):
        t = generate_trace("dedup", 100, pattern="strided", stride=8)
        core0 = t.records[t.records["core"] == 0]["line"]
        assert np.unique(core0 % 8).size == 1

    def test_rejects_unknown_pattern(self):
        with pytest.raises(ValueError):
            SyntheticTraceGenerator(get_workload("dedup"), pattern="zigzag")

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            SyntheticTraceGenerator(get_workload("dedup"), stride=0)

    def test_bank_camping_hurts_everyone_streaming_helps(self):
        """The pathological stride serializes all writes on one bank;
        streaming spreads them across all eight — the schemes' relative
        ranking is preserved in both regimes."""
        camped = generate_trace("vips", 400, pattern="strided", stride=8, seed=1)
        spread = generate_trace("vips", 400, pattern="streaming", seed=1)
        for scheme in ("dcw", "tetris"):
            r_camped = run_fullsystem(camped, scheme)
            r_spread = run_fullsystem(spread, scheme)
            assert r_camped.runtime_ns > r_spread.runtime_ns, scheme
        # Ranking preserved under pathology.
        assert (
            run_fullsystem(camped, "tetris").runtime_ns
            < run_fullsystem(camped, "dcw").runtime_ns
        )


class TestConfigSerialization:
    def test_roundtrip_default(self):
        cfg = default_config()
        again = SystemConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_roundtrip_modified(self):
        cfg = default_config().replace(
            memctrl=MemCtrlConfig(write_pausing=True, drain_order="sjf"),
            organization=PCMOrganization(num_banks=16, subarrays_per_bank=4),
            cpu=CPUConfig(max_outstanding_reads=4),
            seed=99,
        )
        again = SystemConfig.from_json(cfg.to_json())
        assert again == cfg
        assert again.memctrl.drain_order == "sjf"

    def test_roundtrip_mobile(self):
        cfg = mobile_config(4)
        again = SystemConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.units_per_line == 32

    def test_loads_a_config_saved_with_the_deleted_pump_settings(self):
        """The default config as saved while ``PCMPower`` still had
        ``gcp_enabled``, ``pump_voltage_v`` and ``pump_current_ma``."""
        text = (FIXTURES / "config_with_pump_settings.json").read_text()
        assert "pump_voltage_v" in text
        assert SystemConfig.from_json(text) == default_config()

    def test_json_is_sorted_and_readable(self):
        text = default_config().to_json()
        assert '"t_set_ns": 430.0' in text


class TestStatsCommand:
    def test_stats_on_npz(self, tmp_path, capsys):
        trace = generate_trace("ferret", 120, seed=3)
        path = tmp_path / "t.npz"
        save_trace(trace, path)
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ferret" in out
        assert "RPKI / WPKI" in out
        assert "Tetris write units" in out

"""Unit tests for repro.config — Table II constants and derived values."""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.config import (
    CacheConfig,
    ConfigError,
    MemCtrlConfig,
    PCMOrganization,
    PCMPower,
    PCMTimings,
    SystemConfig,
    default_config,
    mobile_config,
    theoretical_write_units,
)


class TestPCMTimings:
    def test_paper_values(self):
        t = PCMTimings()
        assert t.t_read_ns == pytest.approx(50.0)
        assert t.t_reset_ns == pytest.approx(53.0)
        assert t.t_set_ns == pytest.approx(430.0)

    def test_time_asymmetry_is_8(self):
        assert PCMTimings().time_asymmetry == 8

    def test_sub_write_unit_duration(self):
        t = PCMTimings()
        assert t.t_sub_ns == pytest.approx(430.0 / 8)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            PCMTimings(t_read_ns=0.0)

    def test_rejects_set_faster_than_reset(self):
        with pytest.raises(ConfigError):
            PCMTimings(t_set_ns=10.0, t_reset_ns=53.0)

    def test_asymmetry_floor_is_one(self):
        t = PCMTimings(t_set_ns=60.0, t_reset_ns=53.0)
        assert t.time_asymmetry == 1


class TestPCMPower:
    def test_paper_ratio(self):
        assert PCMPower().L == 2.0

    def test_rejects_bad_ratio(self):
        with pytest.raises(ConfigError):
            PCMPower(reset_set_current_ratio=0.0)

    def test_rejects_bad_budget(self):
        with pytest.raises(ConfigError):
            PCMPower(power_budget_per_chip=-1.0)


class TestPCMOrganization:
    def test_bank_write_unit_is_8_bytes(self):
        assert PCMOrganization().write_unit_bytes_per_bank == 8

    def test_bank_width(self):
        assert PCMOrganization().bank_data_width_bits == 64

    def test_rejects_write_unit_wider_than_io(self):
        with pytest.raises(ConfigError):
            PCMOrganization(chip_io_bits=8, write_unit_bits_per_chip=16)

    def test_rejects_odd_io_width(self):
        with pytest.raises(ConfigError):
            PCMOrganization(chip_io_bits=13)


class TestCacheConfig:
    def test_num_sets(self):
        c = CacheConfig("L2", 2 << 20, 8, 20)
        assert c.num_sets == (2 << 20) // (8 * 64)

    def test_rejects_non_divisible(self):
        with pytest.raises(ConfigError):
            CacheConfig("bad", 1000, 3, 1)


class TestMemCtrlConfig:
    def test_default_watermarks_valid(self):
        mc = MemCtrlConfig()
        assert mc.drain_low_watermark < mc.drain_high_watermark

    def test_rejects_inverted_watermarks(self):
        with pytest.raises(ConfigError):
            MemCtrlConfig(drain_high_watermark=5, drain_low_watermark=10)

    def test_rejects_equal_watermarks(self):
        # Equal watermarks leave no hysteresis band: the drain state
        # would toggle on every update.
        with pytest.raises(ConfigError, match="0 <= lo < hi <= capacity"):
            MemCtrlConfig(drain_high_watermark=8, drain_low_watermark=8)

    def test_rejects_watermark_above_capacity(self):
        with pytest.raises(ConfigError):
            MemCtrlConfig(write_queue_entries=16, drain_high_watermark=20)


class TestSystemConfig:
    def test_units_per_line_is_8(self, config):
        assert config.units_per_line == 8

    def test_data_units_per_line(self, config):
        assert config.data_units_per_line == 8

    def test_K_and_L(self, config):
        assert config.K == 8
        assert config.L == 2.0

    def test_bank_budget_gcp(self, config):
        # 4 chips x 32 SET units pooled by the GCP.
        assert config.bank_power_budget == 128.0

    def test_analysis_overhead_matches_paper(self, config):
        # 41 cycles at 400 MHz (§IV.D).
        assert config.analysis_overhead_ns == pytest.approx(102.5)

    def test_replace_returns_new_config(self, config):
        other = config.replace(seed=1)
        assert other.seed == 1
        assert config.seed != 1

    def test_frozen(self, config):
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.seed = 5

    def test_rejects_line_not_multiple_of_write_unit(self):
        with pytest.raises(ConfigError):
            SystemConfig(cache_line_bytes=60)

    def test_rejects_wide_data_unit(self):
        with pytest.raises(ConfigError):
            SystemConfig(data_unit_bits=128)

    def test_chip_slices_per_unit(self, config):
        assert config.chip_slices_per_unit == 4


class TestMobileConfig:
    @pytest.mark.parametrize("width,budget", [(2, 4.0), (4, 8.0), (8, 16.0)])
    def test_budget_scales_with_width(self, width, budget):
        cfg = mobile_config(width)
        assert cfg.power.power_budget_per_chip == budget
        assert cfg.organization.write_unit_bits_per_chip == width

    def test_units_per_line_grows(self):
        # 4-bit write units: bank write unit = 2 B -> 32 units per line.
        assert mobile_config(4).units_per_line == 32

    def test_rejects_desktop_width(self):
        with pytest.raises(ConfigError):
            mobile_config(16)


class TestTheoreticalWriteUnits:
    def test_paper_figure10_constants(self, config):
        t = theoretical_write_units(config)
        assert t["conventional"] == 8.0
        assert t["dcw"] == 8.0
        assert t["flip_n_write"] == 4.0
        assert t["two_stage"] == pytest.approx(3.0)
        assert t["three_stage"] == pytest.approx(2.5)

    def test_scales_with_line_size(self, config):
        # 128 B lines (IBM POWER7, §I) double every count.
        big = config.replace(cache_line_bytes=128)
        t = theoretical_write_units(big)
        assert t["conventional"] == 16.0
        assert t["three_stage"] == pytest.approx(5.0)


def _names_read(tree: ast.AST) -> set[str]:
    """Attribute names and ``getattr(obj, "name")`` literals in ``tree``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            names.add(node.args[1].value)
    return names


def test_every_config_field_is_read():
    """Every field of ``SystemConfig`` and its nested configs is read
    somewhere under ``src/repro`` outside ``config.py``, directly or
    through a ``config.py`` property or method that is itself read (a
    setting nothing reads still moves every cache key)."""
    src = Path(__file__).resolve().parent.parent / "src" / "repro"
    config_py = src / "config.py"
    read = set()
    for path in src.rglob("*.py"):
        if path != config_py:
            read |= _names_read(ast.parse(path.read_text(encoding="utf-8")))
    members = [
        (node.name, _names_read(node))
        for cls in ast.parse(config_py.read_text(encoding="utf-8")).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name != "__post_init__"
    ]
    grew = True
    while grew:
        grew = False
        for name, reads in members:
            if name in read and not reads <= read:
                read |= reads
                grew = True
    config = default_config()
    classes = {SystemConfig}
    for value in vars(config).values():
        for item in value if isinstance(value, tuple) else (value,):
            if dataclasses.is_dataclass(item):
                classes.add(type(item))
    unread = sorted(
        f"{cls.__name__}.{f.name}"
        for cls in classes for f in dataclasses.fields(cls) if f.name not in read
    )
    assert unread == []

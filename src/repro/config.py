"""Simulation parameter sets (paper Table II) and derived constants.

The paper evaluates Tetris Write on a 4-core CMP with a 3-level cache
hierarchy backed by 4 GB of SLC PCM built from 4 X16 chips per bank.  All
timing below is taken verbatim from Table II of the paper; the PCM numbers
originate from Samsung's 90 nm PRAM prototype (Lee et al., JSSC 2008).

Two kinds of objects live here:

* :class:`SystemConfig` — the full Table II configuration (CPU, caches,
  memory controller, PCM organization and timing) plus the knobs our
  reproduction adds (RNG seed, scheduling granularity, ...).
* Factory helpers — :func:`default_config` reproduces Table II exactly;
  :func:`mobile_config` models the reduced-current mobile scenario the
  introduction describes (write unit shrunk to 4 or 2 bits per chip).

Everything downstream (schemes, PCM device model, full-system simulator)
reads its parameters from a :class:`SystemConfig` so that ablation sweeps
only ever touch one object.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field


class ConfigError(ValueError):
    """Raised when a configuration is internally inconsistent."""


@dataclass(frozen=True)
class PCMTimings:
    """Raw device timing, in nanoseconds (paper Table II, "Memory Timing").

    ``t_set`` dominates: a SET (crystallize, write '1') takes about 8x as
    long as a RESET (amorphize, write '0'), which is the *time asymmetry*
    the schemes exploit.
    """

    t_read_ns: float = 50.0
    t_reset_ns: float = 53.0
    t_set_ns: float = 430.0

    def __post_init__(self) -> None:
        if min(self.t_read_ns, self.t_reset_ns, self.t_set_ns) <= 0:
            raise ConfigError("all PCM timings must be positive")
        if self.t_set_ns < self.t_reset_ns:
            raise ConfigError(
                "t_set must be >= t_reset (SET is the slow operation); got "
                f"t_set={self.t_set_ns} < t_reset={self.t_reset_ns}"
            )

    @property
    def time_asymmetry(self) -> int:
        """``K`` — how many RESET slots fit in one SET slot (floor, >= 1).

        The paper uses K = 8 for 430 ns / 53 ns.  A write unit lasting
        ``t_set`` is divided into K *sub-write-units* of ``t_set / K`` each;
        write-0 operations occupy exactly one sub-write-unit.
        """
        return max(1, int(self.t_set_ns // self.t_reset_ns))

    @property
    def t_sub_ns(self) -> float:
        """Duration of one sub-write-unit (``t_set / K``)."""
        return self.t_set_ns / self.time_asymmetry


@dataclass(frozen=True)
class PCMPower:
    """Current/power model of the charge pump (paper Table II + §IV.D).

    Currents are expressed in *SET units*: one concurrent SET costs 1.0,
    one concurrent RESET costs ``reset_set_current_ratio`` (the paper's
    ``L`` = 2).  ``power_budget`` is the maximum number of SET units the
    pump can supply at one instant — 32 per chip in the paper's worked
    example (so 32 SETs *or* 16 RESETs per chip at once), 128 per bank
    when the four chips pool their pumps through the Global Charge Pump.
    The pump's 125 mW draw (§IV.D) is ``AnalysisOverheadModel.pump_power_mw``.
    """

    reset_set_current_ratio: float = 2.0
    power_budget_per_chip: float = 32.0

    def __post_init__(self) -> None:
        if self.reset_set_current_ratio <= 0:
            raise ConfigError("reset/set current ratio must be positive")
        if self.power_budget_per_chip <= 0:
            raise ConfigError("power budget must be positive")

    @property
    def L(self) -> float:
        """The paper's power-asymmetry constant (Creset / Cset)."""
        return self.reset_set_current_ratio


@dataclass(frozen=True)
class PCMOrganization:
    """Physical organization (paper Table II, "PCM Organization").

    A memory bank is built from ``chips_per_bank`` chips of
    ``chip_io_bits`` I/O width.  The charge-pump constraint limits a chip
    to ``write_unit_bits_per_chip`` concurrently-programmed bits under the
    conventional scheme, so the bank-level write unit is
    ``chips_per_bank * write_unit_bits_per_chip / 8`` bytes (8 B in the
    paper) and a 64 B cache line needs 8 sequential write units.
    """

    capacity_bytes: int = 4 << 30
    num_ranks: int = 1
    num_banks: int = 8
    chips_per_bank: int = 4
    chip_io_bits: int = 16
    write_unit_bits_per_chip: int = 16
    row_size_bytes: int = 2048
    # Subarrays per bank (the paper's refs [13]/[15]): with > 1, a read
    # may proceed under an in-flight write when the two target different
    # subarrays.  1 disables intra-bank parallelism (the paper's model).
    subarrays_per_bank: int = 1

    def __post_init__(self) -> None:
        if self.chip_io_bits not in (2, 4, 8, 16, 32):
            raise ConfigError(f"unsupported chip I/O width: {self.chip_io_bits}")
        if self.write_unit_bits_per_chip > self.chip_io_bits:
            raise ConfigError("write unit cannot exceed chip I/O width")
        if self.num_banks < 1 or self.chips_per_bank < 1:
            raise ConfigError("need at least one bank and one chip")
        if self.subarrays_per_bank < 1:
            raise ConfigError("need at least one subarray per bank")

    @property
    def write_unit_bytes_per_bank(self) -> int:
        """Bank-level write unit in bytes (8 B in the default config)."""
        return self.chips_per_bank * self.write_unit_bits_per_chip // 8

    @property
    def bank_data_width_bits(self) -> int:
        return self.chips_per_bank * self.chip_io_bits


@dataclass(frozen=True)
class CacheConfig:
    """One cache level (paper Table II)."""

    name: str
    size_bytes: int
    assoc: int
    latency_cycles: int
    line_bytes: int = 64

    def __post_init__(self) -> None:
        if self.size_bytes % (self.assoc * self.line_bytes):
            raise ConfigError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"assoc*line ({self.assoc}*{self.line_bytes})"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.assoc * self.line_bytes)


@dataclass(frozen=True)
class CPUConfig:
    """Core count and clock (paper Table II: 4-core CMP at 2 GHz).

    ``max_outstanding_reads`` models the memory-level parallelism of an
    out-of-order core: with 1 the core blocks on every post-LLC read
    (our default substitute for GEM5's O3 cores, DESIGN.md §4); larger
    values let it keep executing with several misses in flight, blocking
    only at the limit.
    """

    num_cores: int = 4
    freq_ghz: float = 2.0
    base_cpi: float = 1.0
    max_outstanding_reads: int = 1

    def __post_init__(self) -> None:
        if self.max_outstanding_reads < 1:
            raise ConfigError("need at least one outstanding read")
        if self.freq_ghz <= 0 or self.base_cpi <= 0:
            raise ConfigError("frequency and CPI must be positive")

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.freq_ghz


@dataclass(frozen=True)
class FaultConfig:
    """Program-failure model (``repro.faults``; docs/FAULTS.md).

    Real PCM programs fail: transiently (cell variation, drift — the
    pulse lands but the resistance misses its band) and permanently
    (endurance-induced stuck-at cells).  When ``enabled``, every scheme's
    write path runs a bounded program-and-verify loop against a
    deterministic, seeded :class:`repro.faults.FaultModel`; writes that
    exhaust retries degrade gracefully through an ECP-style pointer
    table and, beyond that, line retirement to a spare pool.

    Off by default: the disabled path must stay bit-identical to a
    simulator without the fault subsystem.
    """

    enabled: bool = False
    # Per-bit probability that one program pulse fails transiently (per
    # attempt).  0 disables transient faults even when ``enabled``.
    transient_bit_error_rate: float = 0.0
    # Lognormal sigma of the per-region ProcessVariation factor scaling
    # the transient rate (slow regions fail more).  0 = uniform rate.
    variation_sigma: float = 0.0
    variation_region_lines: int = 1024
    # Per-cell program endurance: lognormal(mean, sigma); a cell whose
    # program count crosses its drawn endurance sticks at the last value
    # it successfully held.
    endurance_mean: float = 1e8
    endurance_sigma: float = 0.2
    # Program-and-verify bound: total program passes per write per line
    # (the first pass included) before degradation kicks in.
    max_write_attempts: int = 3
    # Error-Correcting Pointers per line (Schechter et al., ISCA 2010):
    # up to this many stuck-mismatched cells are absorbed per write.
    ecp_entries: int = 6
    # Retirement spare pool (per fault domain); 0 means the first
    # over-ECP line raises UncorrectableWriteError immediately.
    spare_lines: int = 64
    seed: int = 20160816

    def __post_init__(self) -> None:
        if not 0.0 <= self.transient_bit_error_rate < 1.0:
            raise ConfigError("transient_bit_error_rate must be in [0, 1)")
        if self.variation_sigma < 0 or self.endurance_sigma < 0:
            raise ConfigError("sigmas must be non-negative")
        if self.variation_region_lines < 1:
            raise ConfigError("variation_region_lines must be >= 1")
        if self.endurance_mean <= 0:
            raise ConfigError("endurance_mean must be positive")
        if self.max_write_attempts < 1:
            raise ConfigError("max_write_attempts must be >= 1")
        if self.ecp_entries < 0 or self.spare_lines < 0:
            raise ConfigError("ecp_entries/spare_lines must be non-negative")


@dataclass(frozen=True)
class TraceConfig:
    """Observability knobs (``repro.obs``; docs/OBSERVABILITY.md).

    When ``enabled``, instrumented components (engine, memory
    controller, schemes, chips, fault model) record spans / instants /
    counters into a shared ring-buffer tracer, exportable as
    Perfetto-loadable Chrome trace JSON and flamegraph collapsed
    stacks.  Off by default: a disabled run must stay bit-identical to
    a build without the observability subsystem (the disabled path is
    one attribute check per site; ``benchmarks/bench_obs_overhead.py``
    pins it below 2%).
    """

    enabled: bool = False
    # Ring capacity in events; older events are overwritten (and
    # counted as dropped) rather than growing memory without bound.
    buffer_events: int = 1 << 16
    # Clock domain: "sim" stamps events in simulated nanoseconds
    # (deterministic under a fixed seed); "wall" uses the host
    # process clock (profiling only, never a simulation result).
    clock: str = "sim"

    def __post_init__(self) -> None:
        if self.buffer_events < 1:
            raise ConfigError("trace buffer must hold at least one event")
        if self.clock not in ("sim", "wall"):
            raise ConfigError(f"unknown trace clock domain: {self.clock!r}")


@dataclass(frozen=True)
class MemCtrlConfig:
    """Memory controller (paper Table II: FR-FCFS, 32-entry R/W queues).

    Writes are serviced when the write queue fills beyond
    ``drain_high_watermark`` and draining continues until occupancy drops
    to ``drain_low_watermark`` — the paper's FR-FCFS variant "schedules
    the read request first and services the write requests only when the
    write queue is full", which is why read-dominant workloads
    (blackscholes, swaptions) see long write waits under every scheme.
    ``opportunistic_drain=True`` relaxes that: a bank with no read
    pending may service a write early (kept as an ablation knob).
    """

    read_queue_entries: int = 32
    write_queue_entries: int = 32
    drain_high_watermark: int = 28
    drain_low_watermark: int = 8
    opportunistic_drain: bool = False
    # Write pausing (Qureshi et al., HPCA 2010 — the paper's refs [23-24]):
    # an in-flight write may be suspended at sub-write-unit granularity to
    # serve a critical read, then resumed with a small re-ramp penalty.
    # Off by default: the paper's controller does not pause.
    write_pausing: bool = False
    pause_overhead_ns: float = 10.0
    pause_threshold_ns: float = 100.0
    # Write coalescing (NVMain-style): a write to a line that already has
    # a pending write absorbs into it — one bank service instead of two.
    # Off by default to match the paper's controller.
    write_coalescing: bool = False
    # Drain ordering: "fifo" (the paper's oldest-first) or "sjf" —
    # shortest-predicted-service first, possible because Tetris's analysis
    # stage knows each write's service time before it is issued.
    drain_order: str = "fifo"

    def __post_init__(self) -> None:
        # lo < hi strictly: with equal watermarks the drain state would
        # flip on every update instead of holding between them.
        if not 0 <= self.drain_low_watermark < self.drain_high_watermark <= self.write_queue_entries:
            raise ConfigError("watermarks must satisfy 0 <= lo < hi <= capacity")
        if self.pause_overhead_ns < 0 or self.pause_threshold_ns < 0:
            raise ConfigError("pause parameters must be non-negative")
        if self.drain_order not in ("fifo", "sjf"):
            raise ConfigError(f"unknown drain order: {self.drain_order!r}")


@dataclass(frozen=True)
class SystemConfig:
    """Bundle of every knob in the simulated system (paper Table II).

    ``data_unit_bits`` is the granularity at which the Tetris analysis
    stage counts and schedules changed bits: 64 bits (one bank-level
    write-unit slice of the cache line) as in the paper's Figure 3.
    ``analysis_overhead_ns`` charges the paper's measured worst-case
    analysis latency (41 cycles at 400 MHz, §IV.D).
    """

    timings: PCMTimings = field(default_factory=PCMTimings)
    power: PCMPower = field(default_factory=PCMPower)
    organization: PCMOrganization = field(default_factory=PCMOrganization)
    cpu: CPUConfig = field(default_factory=CPUConfig)
    memctrl: MemCtrlConfig = field(default_factory=MemCtrlConfig)
    caches: tuple[CacheConfig, ...] = (
        CacheConfig("L1I", 32 << 10, 2, 2),
        CacheConfig("L1D", 32 << 10, 2, 2),
        CacheConfig("L2", 2 << 20, 8, 20),
        CacheConfig("L3", 32 << 20, 16, 50),
    )
    cache_line_bytes: int = 64
    data_unit_bits: int = 64
    analysis_overhead_ns: float = 41.0 / 0.400  # 41 cycles @ 400 MHz = 102.5 ns
    count_flip_bit: bool = False
    seed: int = 20160816
    # Runtime invariant verification (repro.verify.invariants): schemes
    # check every schedule/outcome they produce.  Off by default — the
    # REPRO_VERIFY=1 environment variable also enables it globally.
    verify_invariants: bool = False
    # Endurance accounting on the scheme write path (repro.pcm.wear):
    # on by default so the fault model always has program counts to
    # consume; turn off to shave the last few ns per write in sweeps
    # that do not read wear.  Forced on while ``faults.enabled``.
    track_wear: bool = True
    # Program-failure model (repro.faults; docs/FAULTS.md).
    faults: FaultConfig = field(default_factory=FaultConfig)
    # Observability (repro.obs; docs/OBSERVABILITY.md).
    trace: TraceConfig = field(default_factory=TraceConfig)

    def __post_init__(self) -> None:
        if self.cache_line_bytes % self.organization.write_unit_bytes_per_bank:
            raise ConfigError(
                "cache line must be a whole number of bank write units"
            )
        if self.data_unit_bits % 8 or self.data_unit_bits > 64:
            raise ConfigError("data_unit_bits must be a byte multiple <= 64")

    # ------------------------------------------------------------------
    # Derived quantities used throughout the schemes.
    # ------------------------------------------------------------------
    @property
    def units_per_line(self) -> int:
        """Number of write units a cache line occupies under the
        conventional scheme (the paper's ``N/M`` = 8)."""
        return self.cache_line_bytes // self.organization.write_unit_bytes_per_bank

    @property
    def data_units_per_line(self) -> int:
        """Number of ``data_unit_bits``-wide slices in a cache line."""
        return self.cache_line_bytes * 8 // self.data_unit_bits

    @property
    def K(self) -> int:
        """Time asymmetry (Tset // Treset)."""
        return self.timings.time_asymmetry

    @property
    def L(self) -> float:
        """Power asymmetry (Creset / Cset)."""
        return self.power.L

    @property
    def bank_power_budget(self) -> float:
        """Total instantaneous current the bank may draw, in SET units.

        With the Global Charge Pump, chips pool their budgets so data
        skew across chips cannot stall one chip while others idle.
        """
        return self.power.power_budget_per_chip * self.organization.chips_per_bank

    @property
    def chip_slices_per_unit(self) -> int:
        """How many chips one data unit is striped across."""
        return self.data_unit_bits // self.organization.write_unit_bits_per_chip

    def replace(self, **kwargs) -> "SystemConfig":
        """Return a copy with the given top-level fields replaced."""
        return dataclasses.replace(self, **kwargs)

    # ------------------------------------------------------------------
    # Serialization: configs are experiment artifacts and must be
    # reproducible from disk (the report generator embeds them).
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-JSON-serializable representation (round-trips)."""
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "SystemConfig":
        """Rebuild a config from :meth:`to_dict` output, or from any part
        of it: a section or field that ``data`` leaves out keeps its
        default.  So configs saved before the fault and observability
        subsystems load fault-free and untraced (the behavior they were
        recorded under), and a service grid's config delta is a part.
        """
        data = dict(data)
        # Configs saved while the pump carried these settings (nothing
        # ever read them) load without them.
        power = dict(data.pop("power", {}))
        for stale in ("gcp_enabled", "pump_voltage_v", "pump_current_ma"):
            power.pop(stale, None)
        if "caches" in data:
            data["caches"] = tuple(CacheConfig(**c) for c in data["caches"])
        sections = {
            name: kind(**data.pop(name, {}))
            for name, kind in (
                ("timings", PCMTimings), ("organization", PCMOrganization),
                ("cpu", CPUConfig), ("memctrl", MemCtrlConfig),
                ("faults", FaultConfig), ("trace", TraceConfig),
            )
        }
        return SystemConfig(power=PCMPower(**power), **sections, **data)

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def canonical_json(self) -> str:
        """Minimal sorted-keys serialization for content addressing.

        The parallel result cache (``repro.parallel.resultcache``) keys
        cells on this string: identical configurations must serialize
        identically regardless of construction order, so keys are sorted
        and whitespace is fixed.
        """
        import json

        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    @staticmethod
    def from_json(text: str) -> "SystemConfig":
        import json

        return SystemConfig.from_dict(json.loads(text))


def default_config(**overrides) -> SystemConfig:
    """The paper's Table II configuration, with optional field overrides."""
    return SystemConfig(**overrides)


def mobile_config(write_unit_bits_per_chip: int = 4, **overrides) -> SystemConfig:
    """Reduced-current mobile configuration (paper §I).

    In a mobile system the supply current shrinks, so the number of cells
    a chip may program concurrently drops to 4 or even 2 bits.  The power
    budget scales proportionally: the default desktop budget of 32 SET
    units corresponds to a 16-bit write unit, so a 4-bit unit gets 8 and
    a 2-bit unit gets 4.
    """
    if write_unit_bits_per_chip not in (2, 4, 8):
        raise ConfigError("mobile write units are 2, 4 or 8 bits per chip")
    scale = write_unit_bits_per_chip / 16.0
    org = PCMOrganization(write_unit_bits_per_chip=write_unit_bits_per_chip)
    power = PCMPower(power_budget_per_chip=32.0 * scale)
    return SystemConfig(organization=org, power=power, **overrides)


def theoretical_write_units(config: SystemConfig) -> dict[str, float]:
    """Closed-form write-unit counts for the worst-case baselines.

    These are the horizontal reference lines of the paper's Figure 10:
    Conventional/DCW = N/M (8), Flip-N-Write = N/2M (4), 2-Stage-Write =
    (1/K + 1/2L)·N/M (3), Three-Stage-Write = (1/2K + 1/2L)·N/M (2.5).
    """
    nm = config.units_per_line
    K, L = config.K, config.L
    return {
        "conventional": float(nm),
        "dcw": float(nm),
        "flip_n_write": nm / 2.0,
        "two_stage": (1.0 / K + 1.0 / (2 * L)) * nm,
        "three_stage": (1.0 / (2 * K) + 1.0 / (2 * L)) * nm,
    }

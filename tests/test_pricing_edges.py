"""Packer and write-pricing edge cases.

The vectorized packers build only the slots some write can use: bins no
row has opened, sub-slots past the largest write-1 schedule, PreSET's
one constant row.  Those trims are exact only if they hold at their
edges — no SET demand anywhere (so no write unit opens at all), a
partition slice with no SET demand, no writes at all.  Each case here is
checked against the scalar schedulers or the untrimmed computation.
"""

import numpy as np
import pytest

from repro.config import default_config
from repro.core.analysis import TetrisScheduler
from repro.core.batch import _window_max, pack_batch, relaxed_subslots_batch
from repro.schemes import SCHEME_REGISTRY, get_scheme
from repro.schemes.pricing import PRESET_ZEROS_PER_UNIT, precompute_write_service
from repro.trace.record import OP_WRITE, RECORD_DTYPE, Trace
from repro.trace.synthetic import generate_trace

# (K, L, budget): the default point, and one where RESET bursts split.
OPERATING_POINTS = [(8, 2.0, 128.0), (4, 3.0, 40.0)]


def scalar_pack(n_set, n_reset, K, L, budget):
    sched = TetrisScheduler(K, L, budget, allow_split=True).schedule(
        np.asarray(n_set), np.asarray(n_reset)
    )
    return sched.result, sched.subresult


def write_only_trace(n_set: np.ndarray, n_reset: np.ndarray) -> Trace:
    """A one-core trace of back-to-back writes with the given counts."""
    n = len(n_set)
    records = np.zeros(n, dtype=RECORD_DTYPE)
    records["op"] = OP_WRITE
    records["gap"] = 10
    records["line"] = np.arange(n)
    counts = np.stack([n_set, n_reset], axis=-1).astype(np.uint8)
    return Trace(workload="edge", seed=0, records=records, write_counts=counts)


@pytest.mark.parametrize("K,L,budget", OPERATING_POINTS)
def test_pack_without_set_demand_matches_scalar(K, L, budget):
    # result == 0 on every row, so no write unit (and no sub-slot) opens;
    # every RESET burst goes to the extra sub-write-units.
    rng = np.random.default_rng(3)
    n_reset = rng.integers(0, 33, size=(24, 8))
    n_reset[0] = 32
    n_set = np.zeros_like(n_reset)
    packed = pack_batch(n_set, n_reset, K=K, L=L, power_budget=budget, allow_split=True)
    assert not packed.result.any()
    assert packed.subresult.any()
    for i in range(len(n_set)):
        assert (packed.result[i], packed.subresult[i]) == scalar_pack(
            n_set[i], n_reset[i], K, L, budget
        ), f"row {i}"


@pytest.mark.parametrize("span", range(1, 10))
@pytest.mark.parametrize("width", [0, 1, 5, 17])
def test_window_max_matches_the_direct_maximum(span, width):
    # The unaligned packer's span peaks; spans that are not a power of
    # two take the overlapping-window branch.
    a = np.random.default_rng(span).integers(0, 50, size=(4, width + span - 1))
    expected = np.array(
        [[row[i : i + span].max() for i in range(width)] for row in a]
    ).reshape(4, width)
    assert np.array_equal(_window_max(a.astype(np.float64), span), expected)


@pytest.mark.parametrize("allow_split", [False, True])
def test_pack_of_zero_writes_is_empty(allow_split):
    empty = np.zeros((0, 8), dtype=np.int64)
    packed = pack_batch(empty, empty, allow_split=allow_split)
    assert packed.result.shape == packed.subresult.shape == (0,)
    assert packed.service_units().shape == (0,)
    assert relaxed_subslots_batch(empty, empty).shape == (0,)


@pytest.mark.parametrize("set_free", [slice(0, 4), slice(4, 8), slice(0, 8)])
def test_palp_with_set_free_partitions_matches_its_scalar_plans(set_free):
    # No write has SET demand in the ``set_free`` units, so the packs of
    # those partition slices open no write unit in any row.
    cfg = default_config()
    scheme = get_scheme("palp", cfg)
    rng = np.random.default_rng(11)
    n_reset = rng.integers(0, 33, size=(16, 8))
    n_set = rng.integers(0, 33, size=(16, 8))
    n_set[:, set_free] = 0
    table = precompute_write_service(write_only_trace(n_set, n_reset), "palp", cfg)
    for i in range(len(n_set)):
        serial = scheme.serial_scheduler.schedule(n_set[i], n_reset[i]).service_units()
        parallel = scheme._partitioned_units(n_set[i], n_reset[i])
        assert table.units[i] == min(serial, parallel), f"row {i}"


@pytest.mark.parametrize("scheme", sorted(SCHEME_REGISTRY))
def test_every_scheme_prices_a_trace_without_writes(scheme):
    empty = np.zeros((0, 8), dtype=np.int64)
    table = precompute_write_service(write_only_trace(empty, empty), scheme)
    for column in (table.service_ns, table.units, table.energy):
        assert column.shape == (0,)
        assert column.dtype == np.float64


@pytest.mark.parametrize("n_writes", [0, 1, None])
def test_preset_single_row_equals_the_full_matrix_pack(n_writes):
    cfg = default_config()
    trace = generate_trace("vips", 300, num_cores=cfg.cpu.num_cores, seed=2)
    if n_writes is not None:
        n_set = trace.write_counts[:n_writes, :, 0]
        trace = write_only_trace(n_set, trace.write_counts[:n_writes, :, 1])
    n_zero = np.full((trace.n_writes, trace.units_per_line), PRESET_ZEROS_PER_UNIT)
    full = pack_batch(
        np.zeros_like(n_zero), n_zero, K=cfg.K, L=cfg.L,
        power_budget=cfg.bank_power_budget, allow_split=True,
    ).service_units()
    em = get_scheme("preset", cfg).energy_model
    energy = n_zero.sum(axis=1).astype(np.float64) * (em.e_reset + em.e_set)
    table = precompute_write_service(trace, "preset", cfg)
    assert table.units.dtype == full.dtype
    assert table.units.tolist() == full.tolist()
    assert table.energy.tolist() == energy.tolist()

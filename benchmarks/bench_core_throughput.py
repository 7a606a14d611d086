"""Micro-benchmarks of the hot kernels (classic pytest-benchmark usage).

These are the pieces a user extending the library will call in bulk:
the vectorized read stage, the batch Algorithm-2 packer, and a single
full-system DES run.  They track regressions rather than paper results.
"""

import numpy as np

from repro.core.batch import pack_batch
from repro.core.read_stage import read_stage
from repro.experiments.fullsystem import precompute_write_service, run_fullsystem
from repro.trace.synthetic import generate_trace


def test_read_stage_throughput(benchmark):
    rng = np.random.default_rng(0)
    n = 20000
    old = rng.integers(0, 1 << 63, size=(n, 8), dtype=np.uint64)
    flips = np.zeros((n, 8), dtype=bool)
    new = old ^ rng.integers(0, 1 << 16, size=(n, 8), dtype=np.uint64)
    result = benchmark(read_stage, old, flips, new)
    assert result.n_set.shape == (n, 8)


def test_pack_batch_throughput(benchmark):
    rng = np.random.default_rng(0)
    n_set = rng.poisson(6.7, size=(20000, 8))
    n_reset = rng.poisson(2.9, size=(20000, 8))
    packed = benchmark(pack_batch, n_set, n_reset)
    assert packed.result.shape == (20000,)


def test_precompute_tetris_throughput(benchmark):
    trace = generate_trace("vips", requests_per_core=2000, seed=1)
    table = benchmark(precompute_write_service, trace, "tetris")
    assert table.service_ns.size == trace.n_writes


def test_fullsystem_run_throughput(benchmark):
    trace = generate_trace("ferret", requests_per_core=1000, seed=1)
    result = benchmark.pedantic(
        lambda: run_fullsystem(trace, "tetris"), rounds=2, iterations=1
    )
    assert result.total_instructions > 0

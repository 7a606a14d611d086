"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

# Run the whole suite with the runtime invariant verifier armed (see
# repro.verify.invariants): every schedule and outcome a scheme produces
# during tests is contract-checked.  An explicit REPRO_VERIFY=0 in the
# environment still wins, and individual tests monkeypatch as needed.
os.environ.setdefault("REPRO_VERIFY", "1")

# Keep tests hermetic: never read or write the user's on-disk result
# cache (repro.parallel.resultcache).  Cache-behavior tests construct
# explicit ResultCache instances under tmp_path, which bypass this.
os.environ.setdefault("REPRO_NO_CACHE", "1")

from repro.config import default_config  # noqa: E402
from repro.parallel import close_cell_pool  # noqa: E402


@pytest.fixture(autouse=True)
def no_leaked_worker_processes():
    """Fail any test that leaves a worker process running.

    Supervised pools outlive a single run by design.  The sweep
    engine's warm pool lives for the process, so it is closed here
    first: each test starts without warm workers.  Every other owner
    (a ``WorkerSupervisor``, ``SweepService.shutdown``) must tear its
    pool down itself.  Leaked processes are killed before failing so
    one leak cannot cascade into the next test.
    """
    yield
    close_cell_pool()
    leaked = multiprocessing.active_children()
    for proc in leaked:
        proc.kill()
        proc.join()
    assert not leaked, f"test leaked worker processes: {leaked}"


@pytest.fixture
def config():
    """The paper's Table II configuration."""
    return default_config()

@pytest.fixture
def rng():
    """Deterministic RNG for content generation in tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def line8(rng):
    """A random 64 B line as 8 uint64 data units."""
    return rng.integers(0, np.iinfo(np.uint64).max, size=8, dtype=np.uint64)

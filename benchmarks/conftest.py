"""Session fixtures for the benches.

Every entry of the experiment table (``bench_experiments.py``) reads
one shared :class:`~repro.experiments.table.Context`: one trace per
workload at the default operating point, and the full-system grid
behind Figs 11-14, built once on first use.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# The report's entries keep their checks in the library module; rewrite
# its asserts so a failing shape check shows the values, as tests do.
pytest.register_assert_rewrite("repro.experiments.table")

from _bench_utils import REQUESTS_PER_CORE, SEED  # noqa: E402

from repro.experiments.table import Context  # noqa: E402
from repro.parallel import default_workers  # noqa: E402


@pytest.fixture(scope="session")
def ctx():
    """The traces, config and lazily built grid every entry shares."""
    return Context.build(REQUESTS_PER_CORE, SEED, workers=default_workers())

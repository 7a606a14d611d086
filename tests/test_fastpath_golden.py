"""Golden analytic rows: exact equality against a committed fixture.

The analytic lane is deterministic, so every field of a
:func:`~repro.fastpath.pricer.price_cell` row — latencies, IPC,
runtime, mean units and energy, forwarded reads — is a fingerprint of
the write pricing (Algorithm 2 packers) and the queueing model.  The
fixture pins those rows for all registered schemes on four PARSEC
mixes, two trace lengths and two controller configs: the default, and
drain watermarks 4/1 (the window-heavy regime).  An optimization of
either half must leave every value bit-for-bit unchanged; comparisons
are exact, floats included.

Regenerate (only when a row change is intended)::

    PYTHONPATH=src python tests/test_fastpath_golden.py --write
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.config import MemCtrlConfig, default_config
from repro.fastpath.pricer import price_cell
from repro.schemes import SCHEME_REGISTRY
from repro.trace.synthetic import generate_trace

FIXTURE = Path(__file__).parent / "fixtures" / "fastpath_golden.json"
WORKLOADS = ("vips", "blackscholes", "dedup", "canneal")
REQUESTS = (200, 2000)
SEED = 5

#: name -> MemCtrlConfig kwargs
CONFIGS: dict[str, dict] = {
    "default": {},
    "watermarks_4_1": {"drain_high_watermark": 4, "drain_low_watermark": 1},
}


@lru_cache(maxsize=None)
def _config(variant: str):
    return default_config().replace(memctrl=MemCtrlConfig(**CONFIGS[variant]))


@lru_cache(maxsize=2)
def _trace(workload: str, requests: int):
    return generate_trace(
        workload, requests, num_cores=default_config().cpu.num_cores, seed=SEED
    )


def rows(variant: str, workload: str, requests: int) -> dict[str, dict]:
    """Every registered scheme's row for one (config, mix, length)."""
    trace, config = _trace(workload, requests), _config(variant)
    return {
        scheme: price_cell(trace, workload, scheme, config)
        for scheme in sorted(SCHEME_REGISTRY)
    }


def _groups() -> list[tuple[str, str, int]]:
    return [
        (variant, workload, requests)
        for variant in CONFIGS
        for workload in WORKLOADS
        for requests in REQUESTS
    ]


def _key(variant: str, workload: str, requests: int) -> str:
    return f"{variant}/{workload}/{requests}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_group(golden):
    assert sorted(golden) == sorted(_key(*g) for g in _groups())
    for group in golden.values():
        assert sorted(group) == sorted(SCHEME_REGISTRY)


@pytest.mark.parametrize(
    "variant,workload,requests", _groups(), ids=[_key(*g) for g in _groups()]
)
def test_rows_match_golden(golden, variant, workload, requests):
    assert rows(variant, workload, requests) == golden[
        _key(variant, workload, requests)
    ]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_fastpath_golden.py --write")
    data = {_key(*g): rows(*g) for g in _groups()}
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} groups to {FIXTURE}")

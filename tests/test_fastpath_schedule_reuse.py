"""The analytic lane's per-trace schedule reuse must be invisible.

:func:`repro.fastpath.pricer.model_cell` keeps the per-core free-run
columns of the last trace it modelled and reuses them for the next cell
on the same trace and config inputs.  A row must never depend on which
cells a process priced before it: not across configs that change the
columns (``t_read_ns``) or do not (drain watermarks), not across equal
traces that are different objects, and not across traces of one
workload with different seeds.
"""

import dataclasses
import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np

from repro.config import MemCtrlConfig, default_config
from repro.fastpath import pricer
from repro.fastpath.pricer import price_cell
from repro.parallel import SweepEngine
from repro.trace.synthetic import generate_trace

SRC = Path(__file__).resolve().parents[1] / "src"
SCHEMES = ("dcw", "tetris", "palp")
REQUESTS = 200


def _configs() -> dict:
    base = default_config()
    return {
        "default": base,
        "slow_read": base.replace(
            timings=dataclasses.replace(base.timings, t_read_ns=75.0)
        ),
        "watermarks_4_1": base.replace(
            memctrl=MemCtrlConfig(drain_high_watermark=4, drain_low_watermark=1)
        ),
    }


def _trace(workload: str, seed: int):
    return generate_trace(
        workload, REQUESTS, num_cores=default_config().cpu.num_cores, seed=seed
    )


def test_interleaved_traces_and_configs_price_like_a_fresh_process(monkeypatch):
    traces = {
        "seed1": _trace("dedup", 1),
        "seed1_copy": _trace("dedup", 1),  # equal content, another object
        "seed2": _trace("dedup", 2),
    }
    configs = _configs()
    cells = [
        (t, c, s) for t in traces for c in configs for s in SCHEMES
    ]

    def fresh(t, c, s):
        monkeypatch.setattr(pricer, "_SCHEDULES", pricer._ScheduleMemo())
        return price_cell(traces[t], "dedup", s, configs[c])

    expected = {cell: fresh(*cell) for cell in cells}
    monkeypatch.setattr(pricer, "_SCHEDULES", pricer._ScheduleMemo())
    order = [cells[i] for i in np.random.default_rng(7).permutation(len(cells))]
    for t, c, s in order + order[::-1]:
        assert price_cell(traces[t], "dedup", s, configs[c]) == expected[t, c, s]


def test_the_memo_keeps_at_most_one_trace_alive():
    config = default_config()
    first = _trace("vips", 3)
    gone = weakref.ref(first)
    price_cell(first, "vips", "dcw", config)
    price_cell(_trace("vips", 4), "vips", "dcw", config)
    del first
    gc.collect()
    assert gone() is None


_FRESH_SWEEP = """
import dataclasses, json, sys
from repro.config import SystemConfig
from repro.parallel import SweepEngine
config = SystemConfig.from_json(sys.stdin.read())
res = SweepEngine(
    config=config, requests_per_core={requests}, cache=False,
    fastpath="force", recheck_fraction=0.0,
).run({schemes!r}, {workloads!r})
res.raise_errors()
print(json.dumps([dataclasses.asdict(r) for r in res.rows]))
"""


def _fresh_process_rows(config) -> list[dict]:
    """One variant's rows from a sweep in a new interpreter."""
    code = _FRESH_SWEEP.format(
        requests=REQUESTS, schemes=SCHEMES, workloads=("dedup",)
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        input=config.to_json(),
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    return json.loads(proc.stdout)


def test_variant_sweep_on_one_worker_gets_fresh_process_rows():
    # One workload, so every variant's cells model the same cached
    # ``Trace`` object back to back.
    configs = _configs()
    res = SweepEngine(
        variants=configs, requests_per_core=REQUESTS, cache=False,
        fastpath="force", recheck_fraction=0.0, workers=1,
    ).run(SCHEMES, ("dedup",))
    res.raise_errors()
    per_variant = len(SCHEMES)
    rows = [dataclasses.asdict(r) for r in res.rows]
    for i, config in enumerate(configs.values()):
        got = rows[i * per_variant : (i + 1) * per_variant]
        assert got == _fresh_process_rows(config)

"""Equal service vectors queue alike, and a sweep run queues each once.

Queueing — the DES run or the fastpath's analytic model — sees a scheme
only through its per-write service vector.  So within one
:meth:`SweepEngine.run` (one config) a cell whose vector equals one the
run already queued on the same trace takes that result instead of
queueing again.  These tests check the premise with every twin computed
from scratch, then the reuse: how many cells it skips, that rows do not
depend on it or on the worker count, and that runtime verification
catches a reused result that differs.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.config import MemCtrlConfig, default_config
from repro.experiments import fullsystem
from repro.fastpath import pricer
from repro.parallel import SweepEngine
from repro.parallel.engine import CellError, execute_cell_payload
from repro.schemes import SCHEME_REGISTRY
from repro.schemes.pricing import precompute_write_service
from repro.trace.synthetic import generate_trace

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = "dedup"
REQUESTS = 300
SEED = 3
ZOO = tuple(sorted(SCHEME_REGISTRY))
TWINS = (("flip_n_write", "wire"), ("tetris", "tetris_relaxed"))
LANES = ("off", "force")


def _configs() -> dict:
    base = default_config()
    return {
        "default": base,
        "watermarks_4_1": base.replace(
            memctrl=MemCtrlConfig(drain_high_watermark=4, drain_low_watermark=1)
        ),
    }


def _trace(config):
    return generate_trace(
        HEAVY, REQUESTS, num_cores=config.cpu.num_cores, seed=SEED
    )


def _des_timing(trace, scheme, config, table) -> tuple:
    res = fullsystem.run_fullsystem(trace, scheme, config, table=table)
    return (
        res.mean_read_latency_ns, res.mean_write_latency_ns, res.ipc,
        res.runtime_ns, res.controller.forwarded_reads, res.events,
    )


@pytest.mark.parametrize("config_name", sorted(_configs()))
def test_equal_service_vectors_give_equal_timing_in_both_lanes(
    config_name, monkeypatch
):
    config = _configs()[config_name]
    trace = _trace(config)
    des, fast = {}, {}
    for scheme in sum(TWINS, ()):
        table = precompute_write_service(trace, scheme, config)
        des[scheme] = _des_timing(trace, scheme, config, table)
        # From scratch: not even the per-trace schedule columns are kept.
        monkeypatch.setattr(pricer, "_SCHEDULES", pricer._ScheduleMemo())
        fast[scheme] = pricer.model_cell(trace, table.service_ns, config)
    for a, b in TWINS:
        assert np.array_equal(
            precompute_write_service(trace, a, config).service_ns,
            precompute_write_service(trace, b, config).service_ns,
        ), f"{a} and {b} no longer price {HEAVY} alike"
        assert des[a] == des[b]
        assert fast[a] == fast[b]
    # The fields tell the groups apart, so equality above is not vacuous.
    (a, _), (b, _) = TWINS
    assert des[a] != des[b] and fast[a] != fast[b]


def _distinct_vectors(config) -> int:
    trace = _trace(config)
    return len({
        hashlib.sha256(
            precompute_write_service(trace, s, config).service_ns.tobytes()
        ).digest()
        for s in ZOO
    })


def _engine(lane: str, workers: int = 1) -> SweepEngine:
    return SweepEngine(
        requests_per_core=REQUESTS, root_seed=SEED, cache=False,
        fastpath=lane, recheck_fraction=0.0, workers=workers,
    )


def _count_queueing(monkeypatch) -> list:
    """Count DES runs and model calls from here on (both lanes)."""
    calls = []

    def counted(real):
        def run(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        return run

    monkeypatch.setattr(
        fullsystem, "run_fullsystem", counted(fullsystem.run_fullsystem)
    )
    monkeypatch.setattr(pricer, "model_cell", counted(pricer.model_cell))
    return calls


@pytest.mark.parametrize("verify", [False, True])
@pytest.mark.parametrize("lane", LANES)
def test_one_run_queues_each_distinct_vector_once(lane, verify, monkeypatch):
    if not verify:
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
    distinct = _distinct_vectors(default_config())
    assert distinct < len(ZOO)
    calls = _count_queueing(monkeypatch)
    res = _engine(lane).run(ZOO, (HEAVY,))
    res.raise_errors()
    assert res.stats.executed == len(ZOO)
    assert res.stats.queueing_reused == len(ZOO) - distinct
    assert res.stats.to_dict()["queueing_reused"] == len(ZOO) - distinct
    # Verification queues every reused cell again to compare.
    assert len(calls) == (len(ZOO) if verify else distinct)


def test_a_new_run_queues_again(monkeypatch):
    monkeypatch.delenv("REPRO_VERIFY", raising=False)
    engine = _engine("force")
    engine.run(ZOO, (HEAVY,))
    calls = _count_queueing(monkeypatch)
    again = engine.run(ZOO, (HEAVY,))
    assert len(calls) == _distinct_vectors(default_config())
    assert again.stats.queueing_reused == len(ZOO) - len(calls)


_FRESH_CELLS = """
import dataclasses, json
from repro.parallel import SweepEngine
from repro.parallel.engine import execute_cell_payload
planned = SweepEngine(
    requests_per_core={requests}, root_seed={seed}, cache=False,
    fastpath={lane!r}, recheck_fraction=0.0,
).plan({schemes!r}, ({workload!r},))
print(json.dumps(
    [dataclasses.asdict(execute_cell_payload(pc.payload)[1]) for pc in planned]
))
"""


def _fresh_rows(lane: str) -> str:
    """The grid's rows from plain payloads in a new interpreter: no cell
    carries another's queueing."""
    code = _FRESH_CELLS.format(
        requests=REQUESTS, seed=SEED, lane=lane, schemes=ZOO, workload=HEAVY
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
    )
    return json.dumps(json.loads(proc.stdout))


@pytest.mark.parametrize("lane", LANES)
def test_rows_do_not_depend_on_reuse_or_worker_count(lane, monkeypatch):
    # Workers share a group's results through their payloads; three
    # workers on a two-core host race for the cells of one trace.
    monkeypatch.delenv("REPRO_VERIFY", raising=False)
    rows = set()
    for workers in (1, 2, 3):
        res = _engine(lane, workers).run(ZOO, (HEAVY,))
        res.raise_errors()
        rows.add(json.dumps([dataclasses.asdict(r) for r in res.rows]))
    assert rows == {_fresh_rows(lane)}


@pytest.mark.parametrize("lane", LANES)
def test_verification_rejects_a_reused_result_that_differs(lane, monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY", "1")
    [pc] = _engine(lane).plan(("wire",), (HEAVY,))
    _, row, (digest, queued) = execute_cell_payload(pc.payload + ({},))
    assert queued is not None
    perturbed = list(queued)
    perturbed[2] *= 1.0 + 1e-12                      # the ipc
    value = execute_cell_payload(pc.payload + ({digest: tuple(perturbed)},))
    assert isinstance(value[1], CellError), value[1]
    assert value[1].error_type == "InvariantViolation"
    assert "queueing_reuse" in value[1].message
    assert value[2] is None
    # The unperturbed result is reused, and gives the same row.
    assert execute_cell_payload(pc.payload + ({digest: queued},)) == (
        pc.index, row, (digest, None)
    )

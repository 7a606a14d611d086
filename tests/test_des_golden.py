"""Golden DES schedules: exact equality against a committed fixture.

Every full-system run below is deterministic, so the controller's
scheduling decisions leave a fingerprint — runtime, IPC, event count,
a SHA-256 over every completed request's timeline in completion order,
latency means, every :class:`ControllerStats` counter, per-bank busy
time, the latency histograms, the number of drain-mode entries, the
full read/write latency and queue-wait summaries, and every per-core
:class:`~repro.cpu.core.CoreStats` field.
The fixture pins that fingerprint for dcw and tetris on three PARSEC
mixes under every controller variant (pausing, coalescing, SJF drain,
opportunistic drain, tight watermarks, subarrays, a row buffer and the
functional service model).  A controller optimization must leave every
value bit-for-bit unchanged; comparisons are exact, floats included.

Regenerate (only when a schedule change is intended)::

    PYTHONPATH=src python tests/test_des_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.config import MemCtrlConfig, PCMOrganization, default_config
from repro.cpu.system import CMPSystem
from repro.experiments.fullsystem import (
    FunctionalServiceModel,
    PrecomputedServiceModel,
    precompute_write_service,
)
from repro.memctrl.frfcfs import RowBufferModel
from repro.trace.synthetic import generate_trace

FIXTURE = Path(__file__).parent / "fixtures" / "des_golden.json"
SCHEMES = ("dcw", "tetris")
WORKLOADS = ("vips", "blackscholes", "dedup", "freqmine")
REQUESTS_PER_CORE = 300
SEED = 5

# name -> (MemCtrlConfig kwargs, subarrays_per_bank, row buffer, functional)
VARIANTS: dict[str, tuple[dict, int, bool, bool]] = {
    "default": ({}, 1, False, False),
    "pausing": ({"write_pausing": True}, 1, False, False),
    "coalescing": ({"write_coalescing": True}, 1, False, False),
    "sjf": ({"drain_order": "sjf"}, 1, False, False),
    "opportunistic": ({"opportunistic_drain": True}, 1, False, False),
    "watermarks_4_1": (
        {"drain_high_watermark": 4, "drain_low_watermark": 1}, 1, False, False
    ),
    "subarrays2_pausing": ({"write_pausing": True}, 2, False, False),
    "row_buffer": ({}, 1, True, False),
    "functional": ({}, 1, False, True),
}

_COUNTERS = (
    "warmup_requests",
    "completed_reads",
    "completed_writes",
    "forwarded_reads",
    "read_stalls",
    "write_stalls",
    "write_pauses",
    "coalesced_writes",
    "subarray_reads",
)

_LATENCIES = ("read_latency", "write_latency", "read_wait", "write_wait")
_CORE_FIELDS = (
    "instructions",
    "reads",
    "writes",
    "read_block_ns",
    "read_slot_stall_ns",
    "write_slot_stall_ns",
    "finish_ns",
)


def _sparse(counts) -> dict[str, int]:
    return {str(i): int(c) for i, c in enumerate(counts) if c}


def _schedule_hasher(stats):
    """Wrap ``stats.record`` so every completion feeds a SHA-256 of its
    ``(req_id, kind, bank, enqueue_ns, start_ns, finish_ns, forwarded)``,
    in completion order; returns the hash object."""
    digest = hashlib.sha256()
    record = stats.record

    def hashing_record(req) -> None:
        digest.update(
            f"{req.req_id},{req.kind.value},{req.bank},{req.enqueue_ns!r},"
            f"{req.start_ns!r},{req.finish_ns!r},{int(req.forwarded)}\n".encode()
        )
        record(req)

    stats.record = hashing_record
    return digest


def fingerprint(scheme: str, workload: str, variant: str) -> dict:
    """Run one cell and return its exact schedule fingerprint."""
    mc_kwargs, subarrays, row_buffer, functional = VARIANTS[variant]
    config = default_config().replace(
        memctrl=MemCtrlConfig(**mc_kwargs),
        organization=PCMOrganization(subarrays_per_bank=subarrays),
    )
    trace = generate_trace(workload, requests_per_core=REQUESTS_PER_CORE, seed=SEED)
    if functional:
        service = FunctionalServiceModel(trace, scheme, config)
    else:
        service = PrecomputedServiceModel(
            precompute_write_service(trace, scheme, config), config
        )
    system = CMPSystem(
        trace,
        config,
        service,
        scheme_name=scheme,
        row_buffer=RowBufferModel() if row_buffer else None,
    )
    schedule = _schedule_hasher(system.controller.stats)
    result = system.run()
    stats = result.controller
    return {
        "schedule": schedule.hexdigest(),
        "runtime_ns": result.runtime_ns,
        "ipc": result.ipc,
        "events": result.events,
        "mean_read_latency_ns": result.mean_read_latency_ns,
        "mean_write_latency_ns": result.mean_write_latency_ns,
        "counters": {name: getattr(stats, name) for name in _COUNTERS},
        "bank_busy_ns": {
            str(bank): ns for bank, ns in sorted(stats.bank_busy_ns.items())
        },
        "read_hist": _sparse(stats.read_hist.counts),
        "write_hist": _sparse(stats.write_hist.counts),
        "drain_entries": system.controller.policy.drain_entries,
        "latency": {
            name: getattr(stats, name).summary() for name in _LATENCIES
        },
        "cores": [
            {name: getattr(core, name) for name in _CORE_FIELDS}
            for core in result.cores
        ],
    }


def _cells() -> list[tuple[str, str, str]]:
    return [
        (scheme, workload, variant)
        for variant in VARIANTS
        for scheme in SCHEMES
        for workload in WORKLOADS
    ]


def _key(scheme: str, workload: str, variant: str) -> str:
    return f"{variant}/{scheme}/{workload}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_cell(golden):
    assert sorted(golden) == sorted(_key(*cell) for cell in _cells())


@pytest.mark.parametrize(
    "scheme,workload,variant", _cells(), ids=[_key(*c) for c in _cells()]
)
def test_schedule_matches_golden(golden, scheme, workload, variant):
    assert fingerprint(scheme, workload, variant) == golden[
        _key(scheme, workload, variant)
    ]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_des_golden.py --write")
    data = {_key(*cell): fingerprint(*cell) for cell in _cells()}
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cells to {FIXTURE}")

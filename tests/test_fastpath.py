"""Fastpath lane: envelope boundaries, agreement, certificates, kernels.

The load-bearing guarantees (ISSUE 9):

* the envelope routes every unverified regime (faults, ablation knobs,
  supplied traces) to the DES, and ``force`` raises a structured error
  instead of silently pricing outside it;
* ``fastpath="off"`` keeps rows byte-identical to the pre-fastpath
  engine, and the vectorized bit kernels are bit-identical to their
  pure-Python references;
* every run emits a lane certificate, and a full differential recheck
  of a small grid shows zero divergences under the agreement bands.
"""

from __future__ import annotations

import dataclasses
import json
import time

import numpy as np
import pytest

from repro.config import default_config
from repro.core.read_stage import read_stage, read_stage_reference
from repro.fastpath import (
    CERTIFICATE_VERSION,
    FIELD_TOLERANCES,
    FastpathEnvelopeError,
    classify,
    select_recheck_indices,
)
from repro.parallel import ResultCache, SweepEngine
from repro.pcm.state import cell_diff
from repro.schemes import SCHEME_REGISTRY

SCHEMES = ("dcw", "tetris", "flip_n_write")
WORKLOADS = ("dedup", "vips")
REQUESTS = 250


def row_bytes(rows) -> list[str]:
    return [json.dumps(dataclasses.asdict(r), sort_keys=True) for r in rows]


def _cfg(**nested):
    """Default config with nested sub-config fields replaced.

    ``_cfg(memctrl={"write_pausing": True})`` replaces fields inside
    ``config.memctrl``; scalar kwargs replace top-level fields.
    """
    cfg = default_config()
    top = {}
    for name, value in nested.items():
        if isinstance(value, dict):
            top[name] = dataclasses.replace(getattr(cfg, name), **value)
        else:
            top[name] = value
    return cfg.replace(**top)


# ----------------------------------------------------------------------
# Envelope boundaries.
# ----------------------------------------------------------------------
def test_default_config_is_inside_for_every_priced_scheme():
    cfg = default_config()
    for scheme in sorted(SCHEME_REGISTRY):
        decision = classify(cfg, scheme)
        assert decision.inside and decision.reasons == ()


def test_priced_schemes_cover_the_registry_exactly():
    # Both lanes price from one write-service table, so every registered
    # scheme can be forced onto the analytic lane.
    eng = SweepEngine(requests_per_core=REQUESTS, cache=False, fastpath="force")
    planned = eng.plan(tuple(sorted(SCHEME_REGISTRY)), ("dedup",))
    assert {pc.cell.scheme for pc in planned} == set(SCHEME_REGISTRY)
    assert {pc.lane for pc in planned} == {"fastpath"}


@pytest.mark.parametrize(
    "nested, reason",
    [
        ({"faults": {"enabled": True}}, "faults-enabled"),
        ({"trace": {"enabled": True}}, "obs-tracing-enabled"),
        ({"memctrl": {"write_pausing": True}}, "write-pausing"),
        ({"memctrl": {"write_coalescing": True}}, "write-coalescing"),
        ({"memctrl": {"opportunistic_drain": True}}, "opportunistic-drain"),
        ({"memctrl": {"drain_order": "sjf"}}, "drain-order-not-fifo"),
        ({"organization": {"subarrays_per_bank": 2}}, "subarray-parallelism"),
        ({"cpu": {"max_outstanding_reads": 2}}, "memory-level-parallelism"),
        ({"cpu": {"num_cores": 64}}, "read-queue-pressure"),
        ({"power": {"power_budget_per_chip": 0.4}}, "budget-below-cell-cost"),
    ],
)
def test_each_unverified_regime_routes_to_des(nested, reason):
    decision = classify(_cfg(**nested), "tetris")
    assert not decision.inside
    assert reason in decision.reasons


def test_supplied_trace_routes_to_des():
    decision = classify(default_config(), "tetris", supplied_trace=True)
    assert decision.reasons == ("supplied-trace",)


def test_reasons_accumulate():
    cfg = _cfg(
        faults={"enabled": True},
        memctrl={"write_pausing": True, "drain_order": "sjf"},
    )
    decision = classify(cfg, "tetris")
    assert set(decision.reasons) >= {
        "faults-enabled", "write-pausing", "drain-order-not-fifo",
    }


def test_forced_fastpath_outside_envelope_is_a_structured_error():
    eng = SweepEngine(
        config=_cfg(faults={"enabled": True}),
        requests_per_core=REQUESTS,
        cache=False,
        fastpath="force",
    )
    with pytest.raises(FastpathEnvelopeError) as exc:
        eng.plan(("tetris",), ("dedup",))
    assert exc.value.scheme == "tetris"
    assert exc.value.workload == "dedup"
    assert "faults-enabled" in exc.value.reasons
    assert "--fastpath auto" in str(exc.value)


def test_engine_rejects_unknown_lane_policy():
    with pytest.raises(ValueError):
        SweepEngine(fastpath="sometimes")
    with pytest.raises(ValueError):
        SweepEngine(recheck_fraction=1.5)


# ----------------------------------------------------------------------
# Kill switches and byte-compatibility.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def legacy_rows():
    eng = SweepEngine(
        requests_per_core=REQUESTS, cache=False, fastpath="off"
    )
    res = eng.run(SCHEMES, WORKLOADS)
    res.raise_errors()
    return res


def test_fastpath_off_marks_every_cell_des(legacy_rows):
    assert legacy_rows.stats.fastpath_cells == 0
    assert legacy_rows.stats.des_cells == legacy_rows.stats.cells
    assert legacy_rows.certificate["mode"] == "off"
    assert all(
        c["lane"] == "des" and c["reasons"] == ["fastpath-off"]
        for c in legacy_rows.certificate["cells"]
    )


def test_fastpath_rows_match_des_within_bands(legacy_rows):
    eng = SweepEngine(
        requests_per_core=REQUESTS, cache=False, fastpath="force",
        recheck_fraction=1.0,
    )
    res = eng.run(SCHEMES, WORKLOADS)
    res.raise_errors()
    s = res.stats
    assert s.fastpath_cells == s.cells == len(SCHEMES) * len(WORKLOADS)
    assert s.des_cells == 0
    # The analytic lane marks its rows: no DES events were simulated.
    assert all(r.events == 0 for r in res.rows)
    # Full differential recheck: every cell re-ran on the DES and agreed
    # within the field tolerance bands.
    assert s.recheck_samples == s.cells
    assert s.recheck_divergences == 0
    # And the same bands hold against an independently computed DES run.
    fields = [t.field for t in FIELD_TOLERANCES]
    for fast, des in zip(res.rows, legacy_rows.rows):
        fast_d, des_d = dataclasses.asdict(fast), dataclasses.asdict(des)
        for tol in FIELD_TOLERANCES:
            assert tol.accepts(fast_d[tol.field], des_d[tol.field]), (
                f"{fast.workload}/{fast.scheme}: {tol.field} "
                f"fast={fast_d[tol.field]} des={des_d[tol.field]}"
            )
    assert "read_latency_ns" in fields and "ipc" in fields


# ----------------------------------------------------------------------
# Certificate.
# ----------------------------------------------------------------------
def test_certificate_schema_and_file(tmp_path):
    cert_path = tmp_path / "cert.json"
    eng = SweepEngine(
        requests_per_core=REQUESTS, cache=False, fastpath="auto",
        recheck_fraction=1.0, certificate_path=cert_path,
    )
    res = eng.run(("tetris", "dcw"), ("dedup",))
    res.raise_errors()
    cert = json.loads(cert_path.read_text())
    assert cert == res.certificate
    assert cert["version"] == CERTIFICATE_VERSION
    assert cert["mode"] == "auto"
    assert cert["recheck_fraction"] == 1.0
    assert cert["summary"] == {
        "cells": 2,
        "fastpath": 2,
        "des": 0,
        "recheck_samples": 2,
        "recheck_divergences": 0,
    }
    for cell in cert["cells"]:
        assert set(cell) == {
            "index", "workload", "scheme", "seed", "variant", "lane",
            "source", "reasons",
        }
        assert cell["lane"] in ("fastpath", "des")
        assert cell["source"] == "executed"
    for rec in cert["rechecks"]:
        assert rec["divergences"] == []
        assert {"index", "workload", "scheme", "seed", "variant"} <= set(rec)


def test_recheck_sampling_is_seeded_and_bounded():
    cells = list(range(100))
    a = select_recheck_indices(cells, 0.05, 7)
    b = select_recheck_indices(cells, 0.05, 7)
    assert a == b and len(a) == 5
    assert select_recheck_indices(cells, 0.05, 8) != a  # seed moves sample
    assert select_recheck_indices(cells, 0.0, 7) == []  # 0 disables
    assert len(select_recheck_indices([3], 0.001, 7)) == 1  # min 1 sample
    assert select_recheck_indices([], 1.0, 7) == []


# ----------------------------------------------------------------------
# Cache lane separation.
# ----------------------------------------------------------------------
def test_cache_keys_and_rows_are_lane_separated(tmp_path):
    cache = ResultCache(tmp_path / "store")
    assert cache.cell_key(
        config_json="{}", trace_key="t", scheme="tetris", lane="fastpath"
    ) != cache.cell_key(
        config_json="{}", trace_key="t", scheme="tetris", lane="des"
    )

    kwargs = dict(requests_per_core=REQUESTS, cache=cache)
    fast = SweepEngine(fastpath="force", recheck_fraction=0.0, **kwargs)
    fast.run(("tetris",), ("dedup",)).raise_errors()
    # A DES-lane run over the same grid must not be served analytic rows.
    des = SweepEngine(fastpath="off", **kwargs)
    res = des.run(("tetris",), ("dedup",))
    res.raise_errors()
    assert res.stats.cache_hits == 0
    assert res.stats.executed == 1
    assert res.rows[0].events > 0
    report = cache.report()
    assert report["by_lane"] == {"des": 1, "fastpath": 1}


# ----------------------------------------------------------------------
# Vectorized kernels vs scalar reference.
# ----------------------------------------------------------------------
def _kernel_cases():
    rng = np.random.default_rng(20160816)
    rand = rng.integers(0, 1 << 64, size=(6, 8), dtype=np.uint64)
    adversarial = np.array(
        [
            [0] * 8,                                  # all zeros
            [0xFFFF_FFFF_FFFF_FFFF] * 8,              # all ones
            [0xAAAA_AAAA_AAAA_AAAA] * 8,              # alternating
            [1, 0, 0, 0, 0, 0, 0, 1 << 63],           # single bits
        ],
        dtype=np.uint64,
    )
    return np.concatenate([rand, adversarial])


@pytest.mark.parametrize("unit_bits", [64, 32])
@pytest.mark.parametrize("count_flip_bit", [False, True])
def test_scalar_read_stage_is_bit_identical(unit_bits, count_flip_bit):
    cases = _kernel_cases()
    flips = np.tile([False, True], cases.shape[1] // 2)
    for old in cases:
        for new in cases:
            kw = dict(unit_bits=unit_bits, count_flip_bit=count_flip_bit)
            vec = read_stage(old, flips, new, **kw)
            ref = read_stage_reference(old, flips, new, **kw)
            for name in ("flip", "physical", "n_set", "n_reset"):
                assert np.array_equal(
                    getattr(vec, name), getattr(ref, name)
                ), f"{name} diverged (unit_bits={unit_bits})"


def _cell_diff_reference(before, after) -> tuple[int, int]:
    n_set = n_reset = 0
    for b, a in zip(map(int, before), map(int, after)):
        n_set += ((b ^ a) & a).bit_count()
        n_reset += ((b ^ a) & b).bit_count()
    return n_set, n_reset


def test_scalar_batch_and_diff_kernels_are_bit_identical():
    cases = _kernel_cases()
    flips = np.zeros(cases.shape, dtype=bool)
    flips[:, ::2] = True
    old, new = cases, cases[::-1].copy()

    matrix = read_stage(old, flips, new)
    for w in range(old.shape[0]):
        ref = read_stage_reference(old[w], flips[w], new[w])
        for name in ("flip", "physical", "n_set", "n_reset"):
            assert np.array_equal(getattr(matrix, name)[w], getattr(ref, name))
    for o, n in zip(old, new):
        assert cell_diff(o, n) == _cell_diff_reference(o, n)


def test_read_stage_kernel_is_bit_identical_and_3x_faster_at_trace_size():
    """A trace-sized payload matrix (a 4000-request workload writes
    ~4-8k lines of 8 data units): the vectorized kernel matches the
    pure-Python reference and beats it by at least 3x (best of 3)."""
    rng = np.random.default_rng(20160816)
    shape = (8192, 8)
    old = rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)
    new = rng.integers(0, 1 << 64, size=shape, dtype=np.uint64)
    flip = rng.integers(0, 2, size=shape).astype(bool)

    def best_of_3(fn, *args):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            out = fn(*args)
            times.append(time.perf_counter() - t0)
        return out, min(times)

    vec, vec_s = best_of_3(read_stage, old, flip, new)
    ref, ref_s = best_of_3(
        read_stage_reference, old.ravel(), flip.ravel(), new.ravel()
    )
    for name in ("flip", "physical", "n_set", "n_reset"):
        assert np.array_equal(getattr(vec, name).ravel(), getattr(ref, name)), (
            f"vectorized read stage diverged from the reference: {name}"
        )
    assert ref_s / vec_s >= 3.0, (
        f"vectorized read stage only {ref_s / vec_s:.1f}x the reference"
    )


# ----------------------------------------------------------------------
# Service surface.
# ----------------------------------------------------------------------
def test_grid_spec_validates_and_threads_fastpath():
    from repro.service.jobs import GridSpec
    from repro.service.protocol import ProtocolError

    spec = GridSpec.from_dict(
        {"schemes": ["tetris"], "workloads": ["dedup"], "fastpath": "auto"}
    )
    assert spec.fastpath == "auto"
    assert spec.to_dict()["fastpath"] == "auto"
    assert spec.engine(cache=False).fastpath == "auto"
    # Default stays the byte-compatible slow lane.
    default = GridSpec.from_dict(
        {"schemes": ["tetris"], "workloads": ["dedup"]}
    )
    assert default.fastpath == "off"
    assert all(pc.lane == "des" for pc in default.plan(cache=False))
    with pytest.raises(ProtocolError):
        GridSpec.from_dict(
            {"schemes": ["tetris"], "workloads": ["dedup"],
             "fastpath": "always"}
        )

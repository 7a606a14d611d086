"""Experiment harnesses: one module per paper figure/table family.

* :mod:`repro.experiments.table` — the experiment table: one spec per
  result table, rendered by ``tetris-write report [ID ...]`` and run,
  dumped and checked by ``benchmarks/bench_experiments.py``.
* :mod:`repro.experiments.fig03` — workload bit-change characterization.
* :mod:`repro.experiments.fig10` — write units per cache-line write.
* :mod:`repro.experiments.fullsystem` — the Fig 11-14 full-system runs
  (read/write latency, IPC, running time) and the service models.
* :mod:`repro.experiments.ablation` — sensitivity sweeps over K, L,
  power budget, write-unit width and scheduler variants.
* :mod:`repro.experiments.runner` — orchestration + result tables.
"""

from repro.experiments.fullsystem import (
    FunctionalServiceModel,
    PrecomputedServiceModel,
    precompute_write_service,
    run_fullsystem,
)
from repro.experiments.runner import ExperimentResult, run_schemes_on_workloads

__all__ = [
    "ExperimentResult",
    "FunctionalServiceModel",
    "PrecomputedServiceModel",
    "precompute_write_service",
    "run_fullsystem",
    "run_schemes_on_workloads",
]

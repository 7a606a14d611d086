"""Supervised parallelism SL014 endorses.

All fan-out goes through the sanctioned layer: WorkerSupervisor (or the
SweepEngine / run_cells wrappers built on it), which supplies
deadlines, death detection, retry, quarantine, and serial fallback.
"""

from repro.parallel.supervisor import RetryPolicy, WorkerSupervisor


def run_cell(payload):
    return payload * 2


def sweep_supervised(payloads):
    with WorkerSupervisor(
        run_cell, workers=2, policy=RetryPolicy(max_retries=1)
    ) as supervisor:
        reports = supervisor.run(enumerate(payloads))
        return sorted((r.task_id, r.value) for r in reports)


def sweep_without_retries(payloads):
    with WorkerSupervisor(
        task_fn=run_cell, workers=2, policy=RetryPolicy(max_retries=0)
    ) as supervisor:
        return [r.value for r in supervisor.run(enumerate(payloads))]

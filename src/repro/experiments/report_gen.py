"""One-shot report generator: the paper's evaluation in one Markdown file.

``tetris-write report --out REPORT.md`` runs every entry of
:data:`~repro.experiments.table.REPORT_EXPERIMENTS` — workload
characterization, the Fig 4 worked example, write units, the four
full-system figures, the ablation sweeps, power utilization, write
pausing and the fault experiments — at a configurable scale, and
renders each one's table (with the paper's reference numbers in its
notes) into a self-contained report.  ``tetris-write report ID ...``
prints single entries instead.
"""

from __future__ import annotations

from pathlib import Path

from repro.config import SystemConfig
from repro.experiments.table import REPORT_EXPERIMENTS, Context

__all__ = ["generate_report"]


def generate_report(
    out_path: str | Path,
    *,
    requests_per_core: int = 2000,
    seed: int = 20160816,
    config: SystemConfig | None = None,
) -> Path:
    """Run everything and write the Markdown report; returns the path."""
    ctx = Context.build(requests_per_core, seed, config)
    sections = [
        "# Tetris Write — reproduction report\n",
        f"Operating point: Table II defaults, {requests_per_core} "
        f"requests/core, seed {seed}.\n",
    ]
    for exp in REPORT_EXPERIMENTS:
        sections.append(f"## {exp.title}\n\nSource: {exp.source}.\n")
        sections.append(f"```\n{exp.render(exp.run(ctx))}\n```\n")
    sections.append(
        "Full extension results (MLC, subarrays, SJF drains, endurance,"
        " variation, line-size scaling, seed stability) live in"
        " `benchmarks/out/` after `make bench` (`pytest benchmarks/ -q`);"
        " see EXPERIMENTS.md for the curated summary.\n"
    )
    out = Path(out_path)
    out.write_text("\n".join(sections))
    return out

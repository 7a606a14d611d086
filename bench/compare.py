"""Compare two sets of benchmark runs, metric by metric and workload by workload.

Usage (from the repository root)::

    python3 bench/compare.py A.jsonl B.jsonl

Each line of ``A.jsonl`` and ``B.jsonl`` is one run record, as
``run.py --record`` appends it.  For every (end-to-end metric, workload)
pair measured on both sides it prints each side's median and quartiles
(``statistics.quantiles(values, n=4)``) and a verdict:

* ``improved``   -- every run of B reads better than every run of A;
* ``regressed``  -- B's median is worse than A's by more than the
  metric's bound (a share of A's median, from BENCHMARK.json);
* ``unresolved`` -- either side's spread (quartile distance over median)
  is wider than the bound, so the runs cannot show a change that small;
  ``setup_s`` is judged by its median alone, never unresolved;
* ``ok``         -- none of the above.

The exit code is 1 when any pair is regressed or unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict

from harness import load_spec


def load_runs(path) -> dict[tuple[str, str], list[float]]:
    """``{(metric, workload): [value per untraced run]}`` of one run set."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            run = json.loads(line)
            if run.get("trace"):
                continue
            for name, metric in run["metrics"].items():
                values[(name, run["workload"])].append(float(metric["value"]))
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def verdict(a: list[float], b: list[float], bound: float, better: str,
            judge_spread: bool = True) -> str:
    sign = 1.0 if better == "lower" else -1.0   # sign * value: lower is better
    if max(sign * v for v in b) < min(sign * v for v in a):
        return "improved"
    med_a, med_b = quartiles(a)[1], quartiles(b)[1]
    worse = sign * (med_b - med_a)
    if worse > 0 and (med_a == 0 or worse / abs(med_a) > bound):
        return "regressed"
    if judge_spread and (spread(a) > bound or spread(b) > bound):
        return "unresolved"
    return "ok"


def compare(a: dict, b: dict, spec: dict) -> list[dict]:
    rows = []
    for metric in spec["end_to_end"]:
        for workload in [w["name"] for w in spec["workloads"]]:
            key = (metric["name"], workload)
            if key not in a or key not in b:
                continue
            rows.append({
                "metric": metric["name"],
                "workload": workload,
                "a": quartiles(a[key]),
                "b": quartiles(b[key]),
                "runs": (len(a[key]), len(b[key])),
                "verdict": verdict(a[key], b[key], metric["bound"],
                                   metric["better"],
                                   judge_spread=metric["name"] != "setup_s"),
            })
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 bench/compare.py A.jsonl B.jsonl", file=sys.stderr)
        return 2
    rows = compare(load_runs(argv[0]), load_runs(argv[1]), load_spec())

    def side(q) -> str:
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

    print(f"{'metric':17s} {'workload':17s} {'A median [q1, q3]':30s} "
          f"{'B median [q1, q3]':30s} runs   verdict")
    for r in rows:
        runs = f"{r['runs'][0]}/{r['runs'][1]}"
        print(f"{r['metric']:17s} {r['workload']:17s} {side(r['a']):30s} "
              f"{side(r['b']):30s} {runs:6s} {r['verdict']}")
    bad = [r for r in rows if r["verdict"] in ("regressed", "unresolved")]
    print(f"{len(rows)} pairs, {len(bad)} regressed or unresolved")
    return 1 if bad or not rows else 0


if __name__ == "__main__":
    sys.exit(main())

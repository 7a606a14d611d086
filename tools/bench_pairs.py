#!/usr/bin/env python
"""Benchmark a base commit against the working tree in alternating pairs.

Usage (from the repository root)::

    python tools/bench_pairs.py BASE WORKLOAD PAIRS FIRST_SEED [--out DIR]

Checks ``BASE`` out into a temporary ``git worktree`` and runs
``bench/run.py --workload WORKLOAD --seed S --record FILE`` once in the
worktree and once in the working tree for each of ``PAIRS`` pairs, pair
``i`` (from 1) on seed ``FIRST_SEED + i - 1``.  Odd pairs run the base
first, even pairs the working tree first, so a drift of the host's
speed over the session lands on both sides.  The records are appended
to ``DIR/base.jsonl`` and ``DIR/head.jsonl`` (default
``.bench_out/pairs-WORKLOAD``), which are kept, and ``bench/compare.py``
then prints its table of base (A) against the working tree (B).  After
it comes one line per end-to-end metric and workload: the median of
the per-pair ratios B/A, over the pairs the two record files share a
seed in, and the number of those pairs B won (read better; ties count
for neither side).  The worktree is removed at the end.  The exit code
is ``compare.py``'s.

Each side runs its own ``bench/`` and its own ``src/``, so the tool only
reads ``bench/``.  Nothing is run in parallel: the two sides never
compete for the host.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def bench_run(checkout: Path, workload: str, seed: int, record: Path) -> None:
    """One ``bench/run.py`` run in ``checkout``; its record goes to ``record``."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--record", str(record)],
        cwd=checkout, capture_output=True, text=True,
    )
    status = "ok" if proc.returncode == 0 else f"exit {proc.returncode}"
    print(f"  {checkout.name:>12s} seed {seed}: {status}", flush=True)
    if proc.returncode:
        print(proc.stderr.strip()[-2000:], file=sys.stderr)


def load_pairs(path: Path) -> dict[tuple[str, int], list[dict]]:
    """``{(workload, seed): [metric values of each untraced run]}``."""
    runs: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        run = json.loads(line)
        if run.get("trace"):
            continue
        runs[(run["workload"], run["seed"])].append(
            {name: float(m["value"]) for name, m in run["metrics"].items()}
        )
    return runs


def pair_summary(base: Path, head: Path, end_to_end: list[dict]) -> list[dict]:
    """Per (end-to-end metric, workload): the median ratio head/base over
    the pairs matched by seed, and how many of them head won.

    Runs of one seed pair up in record order.  A pair whose base reads 0
    has no ratio but still counts for the win tally.
    """
    a, b = load_pairs(base), load_pairs(head)
    rows = []
    for metric in end_to_end:
        name, sign = metric["name"], (1 if metric["better"] == "lower" else -1)
        for workload in sorted({w for w, _ in a} | {w for w, _ in b}):
            pairs = [
                (ra[name], rb[name])
                for key in sorted(a.keys() & b.keys()) if key[0] == workload
                for ra, rb in zip(a[key], b[key])
                if name in ra and name in rb
            ]
            if not pairs:
                continue
            ratios = [vb / va for va, vb in pairs if va]
            rows.append({
                "metric": name,
                "workload": workload,
                "ratio": statistics.median(ratios) if ratios else None,
                "won": sum(sign * vb < sign * va for va, vb in pairs),
                "pairs": len(pairs),
            })
    return rows


def print_pair_summary(rows: list[dict]) -> None:
    print(f"{'metric':17s} {'workload':17s} {'median B/A':>10s}  pairs won by B")
    for r in rows:
        ratio = "n/a" if r["ratio"] is None else f"{r['ratio']:.4f}"
        print(f"{r['metric']:17s} {r['workload']:17s} {ratio:>10s}  "
              f"{r['won']} of {r['pairs']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", help="commit to compare against (A)")
    p.add_argument("workload", help="a workload name from BENCHMARK.json")
    p.add_argument("pairs", type=int, help="number of alternating pairs")
    p.add_argument("first_seed", type=int, help="--seed of the first pair")
    p.add_argument("--out", type=Path, default=None,
                   help="directory of base.jsonl and head.jsonl")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("pairs must be >= 1")
    out = (args.out or ROOT / ".bench_out" / f"pairs-{args.workload}").resolve()
    out.mkdir(parents=True, exist_ok=True)
    records = {"base": out / "base.jsonl", "head": out / "head.jsonl"}
    sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        base_tree = Path(tmp) / f"base-{sha[:10]}"
        git("worktree", "add", "--detach", str(base_tree), sha)
        try:
            for i in range(1, args.pairs + 1):
                seed = args.first_seed + i - 1
                order = ["base", "head"] if i % 2 else ["head", "base"]
                print(f"pair {i}/{args.pairs}", flush=True)
                for side in order:
                    checkout = base_tree if side == "base" else ROOT
                    bench_run(checkout, args.workload, seed, records[side])
        finally:
            git("worktree", "remove", "--force", str(base_tree))
    print(f"records: {records['base']} (A, {sha[:10]}), "
          f"{records['head']} (B, working tree)", flush=True)
    code = subprocess.run(
        [sys.executable, "bench/compare.py",
         str(records["base"]), str(records["head"])],
        cwd=ROOT,
    ).returncode
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print_pair_summary(
        pair_summary(records["base"], records["head"], spec["end_to_end"])
    )
    return code


if __name__ == "__main__":
    sys.exit(main())

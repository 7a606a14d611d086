"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 bench/run.py --workload des_grid --seed 3
    python3 bench/run.py --workload service_openloop --trace 1

``--trace 0`` (the default) measures every end-to-end metric of
``BENCHMARK.json`` with tracing off; ``--trace 1`` makes the separate
traced run that writes ``.bench_out/trace-<workload>.json`` and prints
the per-layer metrics.  The timed phase is sized from ``run_seconds``;
``--seconds`` is accepted only with that value, so every run does the
same work and any two runs compare.  The last line of standard output
is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it carries the run's context (host, code version, speed gauge,
counters).  The exit code is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from harness import (
    DEFAULT_SEED,
    OUT_DIR,
    ROOT,
    SRC,
    SpeedGauge,
    host_fingerprint,
    load_spec,
    scrub_environment,
)


def parse_args(argv, spec: dict) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                   help="must equal BENCHMARK.json's run_seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting the per-layer metrics")
    p.add_argument("--record", type=Path, default=None,
                   help="append the run's full record to this JSONL file")
    return p.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    spec = load_spec()
    args = parse_args(argv, spec)
    if not (SRC / "repro").is_dir():
        print(f"error: no source tree at {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    if args.seconds != spec["run_seconds"]:
        print(f"error: the timed phase is fixed at run_seconds = "
              f"{spec['run_seconds']}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    scrub_environment()

    import layers
    import workloads
    from repro.parallel import ResultCache, code_salt

    section = "per_layer" if args.trace else "end_to_end"
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        work = Path(tmp)
        if args.trace:
            out, values = layers.traced_run(
                args.workload, work, args.seed, args.seconds,
                OUT_DIR / f"trace-{args.workload}.json",
            )
        else:
            with SpeedGauge() as gauge:
                out = workloads.WORKLOADS[args.workload](
                    work, args.seed, args.seconds, gauge)
            out.context["gauge_ms_p50"] = 1e3 * median(gauge.readings)
            accuracy, problems = workloads.reference_accuracy(
                ResultCache(OUT_DIR / "reference"))
            out.check("accuracy reference", problems)
            values = workloads.end_to_end(out, accuracy) if not out.problems else {}

    for problem in out.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec[section] if m["name"] in values
    }
    missing = [m["name"] for m in spec[section] if m["name"] not in values]
    if missing and not out.problems:
        raise RuntimeError(f"benchmark produced no value for {missing}")
    result = {
        "correct": not out.problems,
        "attempted": out.attempted,
        "failed": len(out.problems),
        "metrics": metrics,
    }
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_fingerprint(),
        "code_version": code_salt()[:16],
        "run_s": time.perf_counter() - started,
        "jobs": len(out.job_done_ms),
        **out.context,
    }
    if args.record is not None:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**context, **result}, sort_keys=True) + "\n")
    print(json.dumps(context, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 1 if out.problems else 0


if __name__ == "__main__":
    sys.exit(main())

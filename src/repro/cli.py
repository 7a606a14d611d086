"""Command-line interface: regenerate any paper experiment from a shell.

Every experiment renders from the one experiment table
(:mod:`repro.experiments.table`); ``report`` prints entries by ID, or
writes all of them into a Markdown report.  The Figs 11-14 grid under
any controller or core configuration is a ``sweep``, run in process or,
given ``--endpoint`` or ``REPRO_SERVICE``, on a ``serve`` job server.

Examples::

    tetris-write report fig03_bit_profile fig04_timing_diagram
    tetris-write report fig10_write_units --requests 4000
    tetris-write report ablation_mobile
    tetris-write report --out REPORT.md
    tetris-write sweep --workloads dedup vips --schemes dcw tetris
    tetris-write sweep --fastpath off --certificate "" --pausing
    tetris-write sweep --endpoint unix:/run/tw.sock --pausing
    tetris-write report fault_sweep fault_wearout
    tetris-write trace --workload ferret --out ferret.npz
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis.report import format_table
from repro.schemes import COMPARED_SCHEMES
from repro.trace.workloads import WORKLOAD_NAMES

__all__ = ["main"]


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.trace.io import save_trace, save_trace_text
    from repro.trace.synthetic import generate_trace

    trace = generate_trace(args.workload, args.requests, seed=args.seed)
    rpki, wpki = trace.measured_rpki_wpki()
    mean_set, mean_reset = trace.mean_bit_profile()
    print(
        f"{trace.workload}: {len(trace)} requests "
        f"({trace.n_reads} reads / {trace.n_writes} writes), "
        f"RPKI={rpki:.2f} WPKI={wpki:.2f}, "
        f"profile {mean_set:.1f} SET + {mean_reset:.1f} RESET per unit"
    )
    if args.out:
        if args.out.endswith(".txt"):
            save_trace_text(trace, args.out)
        else:
            save_trace(trace, args.out)
        print(f"saved to {args.out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.experiments.fig10 import measure_write_units
    from repro.trace.io import load_trace, load_trace_text

    trace = (
        load_trace_text(args.trace_file)
        if args.trace_file.endswith(".txt")
        else load_trace(args.trace_file)
    )
    rpki, wpki = trace.measured_rpki_wpki()
    mean_set, mean_reset = trace.mean_bit_profile()
    lines = np.unique(trace.records["line"])
    units = measure_write_units(trace)
    print(
        format_table(
            ["stat", "value"],
            [
                ["workload", trace.workload],
                ["requests", len(trace)],
                ["reads / writes", f"{trace.n_reads} / {trace.n_writes}"],
                ["RPKI / WPKI", f"{rpki:.2f} / {wpki:.2f}"],
                ["distinct lines", int(lines.size)],
                ["SET per unit", mean_set],
                ["RESET per unit", mean_reset],
                ["Tetris write units", units.tetris],
            ],
            title=f"Trace characterization: {args.trace_file}",
        )
    )
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.experiments.obs_demo import (
        fsm_overlap_ns,
        run_traced_fullsystem,
        run_traced_writes,
    )
    from repro.obs import collapsed_stacks, validate_chrome_trace_file, write_chrome_trace

    if args.fullsystem:
        tracer, _ = run_traced_fullsystem(
            args.workload,
            scheme_name=args.scheme,
            requests_per_core=args.requests,
            seed=args.seed,
        )
    else:
        tracer, _ = run_traced_writes(
            args.scheme, n_writes=args.writes, seed=args.seed
        )
    write_chrome_trace(tracer, args.out)
    validate_chrome_trace_file(args.out)
    overlap = fsm_overlap_ns(tracer)
    chip_overlap = {p: ns for p, ns in overlap.items() if ".chip" in p and ns > 0}
    print(
        f"wrote {args.out}: {len(tracer)} events "
        f"({tracer.dropped} dropped), load it at https://ui.perfetto.dev"
    )
    if overlap:
        best = max(overlap, key=overlap.get)
        print(
            f"FSM1/FSM0 overlap on {len(chip_overlap)} chip lanes; "
            f"peak {overlap[best]:.0f} ns on {best}"
        )
    if args.flamegraph:
        with open(args.flamegraph, "w", encoding="utf-8") as fh:
            fh.write(collapsed_stacks(tracer))
        print(f"wrote {args.flamegraph} (collapsed stacks)")
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as fh:
            fh.write(tracer.metrics.to_json(nested=True))
        print(f"wrote {args.metrics} (metric registry)")
    return 0


def _print_cache_report(report: dict) -> None:
    print(
        format_table(
            ["stat", "value"],
            [
                ["store", report["root"]],
                ["entries", report["entries"]],
                ["bytes", report["bytes"]],
                ["current code version", report["current_code_version"]],
                ["quarantined", report["quarantined"]],
                *[
                    [f"entries[{scheme}]", n]
                    for scheme, n in report["by_scheme"].items()
                ],
                *[
                    [f"lane[{lane}]", n]
                    for lane, n in report.get("by_lane", {}).items()
                ],
            ],
            title="Result cache report",
        )
    )


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.parallel import ResultCache, default_cache_dir

    cache = ResultCache(args.cache_dir or default_cache_dir())
    if args.action == "verify":
        rep = cache.verify()
        print(
            format_table(
                ["stat", "value"],
                [
                    ["store", rep["root"]],
                    ["checked", rep["checked"]],
                    ["ok", rep["ok"]],
                    ["corrupt (quarantined this pass)", rep["corrupt"]],
                    ["stale code version", rep["stale_salt"]],
                    ["quarantine dir total", rep["quarantined"]],
                ],
                title="Result cache integrity audit",
            )
        )
        return 1 if rep["corrupt"] else 0
    if args.action == "gc":
        rep = cache.gc()
        print(
            f"gc {rep['root']}: removed {rep['removed_stale']} stale-salt "
            f"entries, {rep['removed_quarantined']} quarantined files"
        )
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cache entries from {cache.root}")
        return 0
    _print_cache_report(cache.report())
    return 0


def _grid_spec(args: argparse.Namespace):
    """The one grid request ``sweep`` runs in process or submits: the
    DCW baseline first (rows are normalized to it), and in ``config``
    only the config flags set away from their defaults."""
    from repro.config import default_config
    from repro.experiments.runner import BASELINE_SCHEME
    from repro.service import GridSpec

    defaults = default_config().to_dict()
    config: dict = {}
    for section, name, value in (
        ("memctrl", "write_pausing", args.pausing),
        ("memctrl", "write_coalescing", args.coalescing),
        ("memctrl", "drain_order", "sjf" if args.sjf else "fifo"),
        ("memctrl", "opportunistic_drain", args.opportunistic),
        ("organization", "subarrays_per_bank", args.subarrays),
        ("cpu", "max_outstanding_reads", args.mlp),
    ):
        if value != defaults[section][name]:
            config.setdefault(section, {})[name] = value
    return GridSpec.from_dict({
        "schemes": list(dict.fromkeys([BASELINE_SCHEME, *args.schemes])),
        "workloads": list(args.workloads),
        "requests_per_core": args.requests,
        "seed": args.seed,
        "fastpath": args.fastpath,
        "config": config,
    })


def _print_sweep_table(spec, rows: list, errors: list, labels: dict) -> None:
    """Rows and errors in grid order, normalized to each workload's DCW
    row; ``labels`` names how each ``(workload, scheme)`` cell ran."""
    from repro.experiments.runner import BASELINE_SCHEME, ExperimentResult

    done = {(r["workload"], r["scheme"]): ExperimentResult(**r) for r in rows}
    failed = {(e["workload"], e["scheme"]): e["error_type"] for e in errors}
    table = []
    for w in spec.workloads:
        # A workload whose DCW cell failed has nothing to normalize to.
        base = done.get((w, BASELINE_SCHEME))
        for s in spec.schemes:
            r = done.get((w, s))
            if (w, s) in failed:
                table.append([w, s, "ERROR", failed[w, s], "", "", ""])
            elif r is not None:  # else a cancelled job's unfinished cell
                ratios = r.normalized(base).values() if base else ["n/a"] * 4
                table.append([w, s, *ratios, labels.get((w, s), "served")])
    print(
        format_table(
            ["workload", "scheme", "read-lat", "write-lat", "IPC-x", "runtime", "cell"],
            table,
            title="Sweep results normalized to the DCW baseline",
        )
    )


def _run_sweep(spec, args: argparse.Namespace) -> tuple[int, dict]:
    """Run ``spec`` in this process; ``(exit code, --json payload)``."""
    import dataclasses

    from repro.parallel import RetryPolicy

    execution = {
        "workers": args.workers,
        "cache": False if args.no_cache else None,
        "cache_dir": args.cache_dir or None,
        "retry": (None if args.max_retries is None
                  else RetryPolicy(max_retries=args.max_retries)),
        "cell_deadline_s": args.cell_deadline,
        "recheck_fraction": args.recheck,
        "certificate_path": args.certificate or None,
    }
    sweep = spec.engine(
        **{k: v for k, v in execution.items() if v is not None}
    ).run(spec.schemes, spec.workloads)
    rows = [dataclasses.asdict(r) for r in sweep.rows]
    errors = [dataclasses.asdict(e) for e in sweep.errors]
    _print_sweep_table(spec, rows, errors, {
        (o.cell.workload, o.cell.scheme): "hit" if o.cached else "ran"
        for o in sweep.outcomes
    })
    s = sweep.stats
    hit_pct = 100.0 * s.cache_hits / s.cells if s.cells else 0.0
    print(
        f"{s.cells} cells: {s.executed} executed, {s.queueing_reused} "
        f"reused queueing, {s.cache_hits} cached "
        f"({hit_pct:.0f}% hits), {s.errors} errors, "
        f"{s.workers} workers, {s.wall_s:.2f}s"
    )
    print(
        f"lanes: {s.fastpath_cells} fastpath, {s.des_cells} DES, "
        f"{s.recheck_samples} recheck samples, "
        f"{s.recheck_divergences} divergences"
    )
    if s.retries or s.timeouts or s.worker_deaths or s.serial_cells:
        print(
            f"supervisor: {s.retries} retries, {s.timeouts} timeouts, "
            f"{s.worker_deaths} worker deaths, {s.replacements} "
            f"replacements, {s.serial_cells} serial-fallback cells"
        )
    if args.certificate:
        print(f"wrote lane certificate to {args.certificate}")
    return (1 if errors else 0), {"stats": s.to_dict(), "rows": rows,
                                  "errors": errors, "certificate": sweep.certificate}


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.service import ProtocolError

    try:
        spec = _grid_spec(args)
    except ProtocolError as exc:
        print(f"invalid sweep [{exc.code}]: {exc.message}")
        return 2

    def served(client) -> tuple[int, dict | None]:
        # These flags pick where and how cells run, never the rows; a
        # served sweep runs on the server's settings.
        flags = [flag for flag, is_set in (
            ("--workers", args.workers != 1),
            ("--no-cache", args.no_cache),
            ("--cache-dir", bool(args.cache_dir)),
            ("--max-retries", args.max_retries is not None),
            ("--cell-deadline", args.cell_deadline is not None),
            ("--recheck", args.recheck is not None),
            ("--certificate", args.certificate != DEFAULT_CERTIFICATE),
        ) if is_set]
        if flags:
            print(f"{' '.join(flags)}: in-process only (drop the endpoint)")
            return 2, None
        job = client.submit(spec)["job"]
        try:
            for event in client.watch(job):
                _print_job_reply(event)
        except KeyboardInterrupt:
            print(f"detached; job {job} keeps running on the server "
                  f"(tetris-write watch {job})")
            return 130, None
        reply = client.status(job)
        _print_sweep_table(spec, reply["rows"], reply["errors"], {})
        return (0 if reply["state"] == "done" and not reply["failed"] else 1), reply

    return _service_call(args, served, lambda: _run_sweep(spec, args))


def _print_job_reply(reply: dict) -> None:
    print(
        f"job {reply.get('job')} [{reply.get('tenant', '-')}]: "
        f"{reply.get('state')} — {reply.get('done', 0)}/{reply.get('total', 0)} "
        f"done, {reply.get('failed', 0)} failed, "
        f"{reply.get('cached', 0)} cached, "
        f"{reply.get('deduped', 0)} deduped"
        + (
            f", eta {reply['eta_s']:g}s"
            if reply.get("eta_s") and reply.get("state") == "running"
            else ""
        )
    )


def _maybe_json(args: argparse.Namespace, payload: dict) -> None:
    if getattr(args, "json", ""):
        import json

        with open(args.json, "w", encoding="utf-8") as fh:
            # Sorted keys, as on the wire: a served and an in-process
            # sweep write byte-identical rows.
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")


def _service_call(args: argparse.Namespace, call, offline=None) -> int:
    """Run ``call(client)`` against the configured service endpoint.

    ``call`` (and ``offline``) return ``(exit code, reply)``; the reply
    is what ``--json`` writes.  One place owns the service verbs' exit
    codes: with no endpoint, ``offline()`` runs if given, else 2; a
    structured service error is 1; an unreachable endpoint is 2.
    """
    from repro.service import ProtocolError, ServiceClient, endpoint_from_env

    endpoint = getattr(args, "endpoint", "") or endpoint_from_env()
    if endpoint:
        client = ServiceClient(endpoint, tenant=getattr(args, "tenant", "default"))
        try:
            code, reply = call(client)
        except ProtocolError as exc:
            retry = exc.retry_after_s
            print(f"service error [{exc.code}]: {exc.message}"
                  + (f" (retry after {retry:g}s)" if retry is not None else ""))
            return 1
        except OSError as exc:
            print(f"cannot reach service at {client.endpoint}: {exc}")
            return 2
    elif offline is not None:
        code, reply = offline()
    else:
        print("no endpoint: pass --endpoint or set REPRO_SERVICE")
        return 2
    if reply is not None:
        _maybe_json(args, reply)
    return code


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    if args.drain:
        def drain(client) -> tuple[int, dict]:
            reply = client.drain()
            print(
                f"draining: {reply.get('jobs_pending', 0)} job(s), "
                f"{reply.get('cells_pending', 0)} cell(s) still in flight; "
                "new submits now get a structured retry-after rejection"
            )
            return 0, reply

        return _service_call(args, drain)
    return asyncio.run(_serve_async(args))


async def _serve_async(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.parallel import ResultCache
    from repro.service import SweepService, parse_endpoint

    socket_path, host, port = args.socket, args.host, args.port
    if args.endpoint and not socket_path:
        try:
            kind, addr = parse_endpoint(args.endpoint)
        except ValueError as exc:
            print(exc)
            return 2
        if kind == "unix":
            socket_path = addr
        else:
            host, port = addr
    service = SweepService(
        state_dir=args.state_dir,
        cache=(
            ResultCache(args.cache_dir, fsync=not args.no_fsync)
            if args.cache_dir
            else None
        ),
        workers=args.workers,
        max_queued_cells=args.max_queued,
        quantum=args.quantum,
        fsync=not args.no_fsync,
    )
    if socket_path:
        server = await service.serve_unix(socket_path)
        where = f"unix:{socket_path}"
    else:
        server = await service.serve_tcp(host, port)
        where = f"tcp:{host}:{port}"
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, stop.set)
    print(
        f"tetris-write service on {where} "
        f"(state {service.state_dir}, {service.scheduler.workers} workers, "
        f"{len(service.jobs)} job(s) recovered)"
    )
    drained = asyncio.ensure_future(service.drained.wait())
    stopped = asyncio.ensure_future(stop.wait())
    try:
        await asyncio.wait(
            {drained, stopped}, return_when=asyncio.FIRST_COMPLETED
        )
    finally:
        for fut in (drained, stopped):
            fut.cancel()
        server.close()
        await server.wait_closed()
        await service.shutdown()
    print("service stopped" + (" (drained)" if service.drained.is_set() else ""))
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    def status(client) -> tuple[int, dict]:
        reply = client.status(args.job or None)
        if args.job:
            _print_job_reply(reply)
        else:
            print(
                f"service: draining={reply.get('draining')} "
                f"workers={reply.get('workers')} "
                f"counters={reply.get('counters')}"
            )
            for job_id, snap in sorted(reply.get("jobs", {}).items()):
                _print_job_reply(snap)
        return 0, reply

    return _service_call(args, status)


def _cmd_watch(args: argparse.Namespace) -> int:
    def watch(client) -> tuple[int, dict | None]:
        last = None
        for event in client.watch(args.job):
            _print_job_reply(event)
            last = event
        return 0, last

    return _service_call(args, watch)


def _cmd_cancel(args: argparse.Namespace) -> int:
    def cancel(client) -> tuple[int, dict]:
        reply = client.cancel(args.job)
        _print_job_reply(reply)
        return 0, reply

    return _service_call(args, cancel)


def _split_schemes(tokens: list[str]) -> list[str]:
    """Flatten scheme arguments: both ``a b c`` and ``a,b,c`` spellings."""
    return [name for tok in tokens for name in tok.split(",") if name]


def _cmd_schemes(args: argparse.Namespace) -> int:
    from repro.config import default_config
    from repro.schemes import SCHEME_REGISTRY, get_scheme

    config = default_config()
    rows = []
    for name in sorted(SCHEME_REGISTRY):
        scheme = get_scheme(name, config)
        rows.append({
            "scheme": name,
            "requires_read": scheme.requires_read,
            "worst_case_units": scheme.worst_case_units(),
        })
    width = max(len(r["scheme"]) for r in rows)
    print(f"{'scheme':<{width}}  read  wc_units")
    for r in rows:
        print(
            f"{r['scheme']:<{width}}  "
            f"{'yes ' if r['requires_read'] else 'no  '}  "
            f"{r['worst_case_units']:>8g}"
        )
    _maybe_json(args, {"schemes": rows})
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    from repro.oracle.differential import run_differential
    from repro.oracle.metamorphic import run_metamorphic

    schemes = _split_schemes(args.schemes)
    report = run_differential(
        tuple(schemes) if schemes else None,
        cases=args.cases,
        seed=args.seed,
    )
    meta = run_metamorphic(trials=max(args.cases // 4, 50), seed=args.seed)

    lane_summary = ", ".join(
        f"{lane}: {n}" for lane, n in sorted(report.lane_cases.items())
    )
    print(
        f"differential: {report.cases} cases ({lane_summary}), "
        f"{len(report.divergences)} divergences"
    )
    for d in report.divergences[:20]:
        print(
            f"  DIVERGENCE {d.scheme}/{d.lane} [{d.kind}] "
            f"n_set={list(d.n_set)} n_reset={list(d.n_reset)} "
            f"analytic={d.analytic} reported={d.reported} "
            f"executed={d.executed} first_bad_unit={d.first_bad_unit}"
        )
    if len(report.divergences) > 20:
        print(f"  ... and {len(report.divergences) - 20} more")
    n_meta = sum(len(v) for v in meta["violations"].values())
    print(
        f"metamorphic: {meta['trials']} trials per relation over "
        f"{len(meta['violations'])} relations, {n_meta} violations"
    )
    for name, violations in sorted(meta["violations"].items()):
        for v in violations[:5]:
            print(f"  VIOLATION {name}: {v}")

    _maybe_json(
        args, {"differential": report.to_dict(), "metamorphic": meta}
    )
    ok = report.ok and meta["ok"]
    print("oracle: OK" if ok else "oracle: FAILED")
    return 0 if ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    if not args.ids:
        from repro.experiments.report_gen import generate_report

        path = generate_report(
            args.out, requests_per_core=args.requests, seed=args.seed
        )
        print(f"wrote {path}")
        return 0
    from repro.experiments.table import REPORT_EXPERIMENTS, Context

    by_id = {exp.id: exp for exp in REPORT_EXPERIMENTS}
    unknown = [i for i in args.ids if i not in by_id]
    if unknown:
        print(f"unknown experiment ID(s): {' '.join(unknown)}")
        print(f"known IDs: {' '.join(by_id)}")
        return 2
    ctx = Context.build(args.requests, args.seed)
    print("\n\n".join(by_id[i].render(by_id[i].run(ctx)) for i in args.ids))
    return 0


def _bounded(kind, what: str, low: float, high: float = float("inf")):
    """argparse type: a ``kind`` number in ``[low, high]``, or exit 2."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    return parse


_positive_int = _bounded(int, "a positive integer", 1)
#: ``sweep --certificate`` default (an in-process run writes it here).
DEFAULT_CERTIFICATE = "sweep-certificate.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetris-write",
        description="Reproduce the experiments of Tetris Write (ICPP 2016).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, workloads: bool = True) -> None:
        p.add_argument("--seed", type=int, default=20160816)
        p.add_argument("--requests", type=_positive_int, default=2000,
                       help="memory requests per core")
        if workloads:
            p.add_argument(
                "--workloads", nargs="+", default=list(WORKLOAD_NAMES),
                choices=list(WORKLOAD_NAMES),
            )

    def service_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--endpoint", default="",
                       help="service endpoint, e.g. unix:/run/tw.sock or "
                            "tcp:127.0.0.1:7733 (default: REPRO_SERVICE)")
        p.add_argument("--tenant", default="default",
                       help="tenant name for admission + fair queueing")
        p.add_argument("--json", default="",
                       help="also write the final reply as JSON here")

    p = sub.add_parser(
        "sweep",
        help="scheme x workload grid normalized to DCW (Figs 11-14): "
             "parallel, cached, resumable, in process or served "
             "(docs/PERFORMANCE.md, docs/SERVICE.md)",
    )
    common(p)
    p.add_argument("--schemes", nargs="+", default=list(COMPARED_SCHEMES))
    p.add_argument("--pausing", action="store_true",
                   help="enable write pausing (refs [23-24])")
    p.add_argument("--coalescing", action="store_true",
                   help="enable write-queue coalescing")
    p.add_argument("--sjf", action="store_true",
                   help="drain writes shortest-predicted-service first")
    p.add_argument("--opportunistic", action="store_true",
                   help="serve writes opportunistically on idle banks")
    p.add_argument("--subarrays", type=int, default=1,
                   help="subarrays per bank (read-under-write bypass)")
    p.add_argument("--mlp", type=int, default=1,
                   help="outstanding reads per core (O3-like window)")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="process-pool size (results identical to serial)")
    p.add_argument("--no-cache", action="store_true",
                   help="skip the on-disk result cache (or set REPRO_NO_CACHE)")
    p.add_argument("--cache-dir", default="",
                   help="result-cache root (default: REPRO_CACHE_DIR or "
                        "~/.cache/tetris-write/results)")
    p.add_argument("--max-retries", type=_bounded(int, "a non-negative integer", 0),
                   help="per-cell retry budget beyond the first attempt")
    p.add_argument("--cell-deadline", type=_bounded(float, "a non-negative number", 0),
                   help="per-cell wall-clock deadline in seconds "
                        "(0 disables; default scales with --requests)")
    p.add_argument("--fastpath", default="auto", choices=["auto", "off", "force"],
                   help="analytic execution lane: auto routes envelope cells "
                        "through the oracle-certified pricer, off is DES "
                        "everywhere, force errors on out-of-envelope cells "
                        "(docs/PERFORMANCE.md)")
    p.add_argument("--recheck", type=_bounded(float, "in [0, 1]", 0, 1),
                   metavar="FRACTION",
                   help="fraction of fastpath cells differentially re-run "
                        "through the DES (default 0.02, min 1 sample; "
                        "docs/ORACLE.md)")
    p.add_argument("--certificate", default=DEFAULT_CERTIFICATE,
                   help="write the per-run lane certificate here "
                        "('' disables; docs/ORACLE.md)")
    service_common(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser(
        "serve", help="run the sweep job server (docs/SERVICE.md)"
    )
    p.add_argument("--socket", default="",
                   help="serve on this unix socket path")
    p.add_argument("--host", default="127.0.0.1",
                   help="TCP bind host (when no --socket)")
    p.add_argument("--port", type=int, default=7733,
                   help="TCP bind port (when no --socket)")
    p.add_argument("--state-dir", default=".tetris-service",
                   help="job journal and default cache location")
    p.add_argument("--cache-dir", default="",
                   help="shared result-cache root (default: <state-dir>/cache)")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="supervised worker processes for cell execution")
    p.add_argument("--max-queued", type=int, default=512,
                   help="admission limit: queued cells per tenant")
    p.add_argument("--quantum", type=float, default=1.0,
                   help="deficit-round-robin quantum (cells per round)")
    p.add_argument("--no-fsync", action="store_true",
                   help="skip fsync of job markers and cache puts "
                        "(tests only)")
    p.add_argument("--drain", action="store_true",
                   help="tell the running server (at --endpoint / "
                        "REPRO_SERVICE) to finish in-flight cells and "
                        "reject new submits with retry-after")
    p.add_argument("--endpoint", default="",
                   help="bind address (unix:PATH or tcp:HOST:PORT); "
                        "with --drain, the endpoint to drain")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("status", help="service / job status (docs/SERVICE.md)")
    p.add_argument("job", nargs="?", default="",
                   help="job ID (omit for a whole-server summary)")
    service_common(p)
    p.set_defaults(fn=_cmd_status)

    p = sub.add_parser("watch", help="stream job progress (docs/SERVICE.md)")
    p.add_argument("job", help="job ID to watch")
    service_common(p)
    p.set_defaults(fn=_cmd_watch)

    p = sub.add_parser("cancel", help="cancel a queued job (docs/SERVICE.md)")
    p.add_argument("job", help="job ID to cancel")
    service_common(p)
    p.set_defaults(fn=_cmd_cancel)

    p = sub.add_parser(
        "cache", help="result-cache maintenance (docs/RESILIENCE.md)"
    )
    p.add_argument("action", choices=["stats", "verify", "gc", "clear"],
                   help="stats: store report; verify: integrity audit "
                        "(quarantines corrupt entries); gc: drop stale + "
                        "quarantined entries; clear: delete everything")
    p.add_argument("--cache-dir", default="",
                   help="result-cache root (default: REPRO_CACHE_DIR or "
                        "~/.cache/tetris-write/results)")
    p.set_defaults(fn=_cmd_cache)

    p = sub.add_parser("trace", help="generate and save a workload trace")
    common(p, workloads=False)
    p.add_argument("--workload", default="dedup", choices=list(WORKLOAD_NAMES))
    p.add_argument("--out", default="")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("stats", help="characterize a saved trace file")
    p.add_argument("trace_file")
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser(
        "oracle",
        help="differential + metamorphic oracle run (docs/ORACLE.md)",
    )
    p.add_argument("--seed", type=int, default=20160816)
    p.add_argument("--cases", type=int, default=500,
                   help="random demand-vector volume (grids/corners always run)")
    p.add_argument("--schemes", nargs="+", default=[],
                   help="restrict the write and table lanes (space- or "
                        "comma-separated; default: every registered scheme)")
    p.add_argument("--json", default="",
                   help="write the full divergence report as JSON here")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser(
        "schemes",
        help="list registered write schemes (read stage, worst-case units)",
    )
    p.add_argument("--json", default="",
                   help="also write the table as JSON here")
    p.set_defaults(fn=_cmd_schemes)

    p = sub.add_parser(
        "report",
        help="print experiment-table entries by ID, or run all of them "
             "into a Markdown report",
    )
    common(p, workloads=False)
    p.add_argument("ids", nargs="*", metavar="ID",
                   help="entries to print, e.g. fig10_write_units "
                        "(default: write the whole report to --out)")
    p.add_argument("--out", default="REPORT.md",
                   help="Markdown report path (with no IDs)")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser(
        "obs", help="record a Perfetto-loadable trace (docs/OBSERVABILITY.md)"
    )
    common(p, workloads=False)
    p.add_argument("--scheme", default="tetris", choices=list(COMPARED_SCHEMES))
    p.add_argument("--writes", type=int, default=32,
                   help="writes in the standalone bank loop")
    p.add_argument("--fullsystem", action="store_true",
                   help="trace a short functional full-system slice instead")
    p.add_argument("--workload", default="dedup", choices=list(WORKLOAD_NAMES))
    p.add_argument("--out", default="trace.json",
                   help="Chrome trace-event JSON output path")
    p.add_argument("--flamegraph", default="",
                   help="also write flamegraph collapsed stacks here")
    p.add_argument("--metrics", default="",
                   help="also write the nested metric registry JSON here")
    p.set_defaults(fn=_cmd_obs)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

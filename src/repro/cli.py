"""Command-line interface: regenerate any paper experiment from a shell.

Examples::

    tetris-write fig3
    tetris-write fig10 --requests 4000
    tetris-write fullsystem --workloads dedup vips --schemes dcw tetris
    tetris-write faults --rates 0 1e-3 --schemes dcw tetris
    tetris-write faults --wearout --endurance 60
    tetris-write diagram --seed 7
    tetris-write trace --workload ferret --out ferret.npz
    tetris-write ablation --sweep budget
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.analysis.metrics import arithmetic_mean
from repro.analysis.report import format_table
from repro.analysis.timing_diagram import render_timing_diagram
from repro.config import default_config
from repro.schemes import COMPARED_SCHEMES
from repro.trace.workloads import WORKLOAD_NAMES

__all__ = ["main"]


def _cmd_fig3(args: argparse.Namespace) -> int:
    from repro.experiments.fig03 import run_fig03

    rows = run_fig03(
        tuple(args.workloads), requests_per_core=args.requests, seed=args.seed
    )
    print(
        format_table(
            ["workload", "SET/unit", "RESET/unit", "total"],
            [[r.workload, r.mean_set, r.mean_reset, r.total] for r in rows],
            title="Figure 3 — bit-writes per 64-bit data unit (post-inversion)",
        )
    )
    print(
        f"average: {arithmetic_mean([r.mean_set for r in rows]):.2f} SET + "
        f"{arithmetic_mean([r.mean_reset for r in rows]):.2f} RESET "
        f"(paper: 6.7 SET + 2.9 RESET)"
    )
    return 0


def _cmd_fig10(args: argparse.Namespace) -> int:
    from repro.experiments.fig10 import run_fig10

    rows = run_fig10(
        tuple(args.workloads), requests_per_core=args.requests, seed=args.seed
    )
    print(
        format_table(
            ["workload", "DCW", "FNW", "2SW", "3SW", "Tetris"],
            [
                [r.workload, r.dcw, r.flip_n_write, r.two_stage, r.three_stage, r.tetris]
                for r in rows
            ],
            title="Figure 10 — average write units per cache-line write",
        )
    )
    return 0


def _cmd_fullsystem(args: argparse.Namespace) -> int:
    from repro.config import CPUConfig, MemCtrlConfig, PCMOrganization
    from repro.experiments.runner import BASELINE_SCHEME, run_schemes_on_workloads

    cfg = default_config().replace(
        memctrl=MemCtrlConfig(
            write_pausing=args.pausing,
            write_coalescing=args.coalescing,
            drain_order="sjf" if args.sjf else "fifo",
            opportunistic_drain=args.opportunistic,
        ),
        organization=PCMOrganization(subarrays_per_bank=args.subarrays),
        cpu=CPUConfig(max_outstanding_reads=args.mlp),
    )
    schemes = tuple(dict.fromkeys([BASELINE_SCHEME, *args.schemes]))
    results = run_schemes_on_workloads(
        schemes,
        tuple(args.workloads),
        config=cfg,
        requests_per_core=args.requests,
        seed=args.seed,
        workers=args.workers,
        cache=False if args.no_cache else None,
    )
    base = {r.workload: r for r in results if r.scheme == BASELINE_SCHEME}
    rows = []
    for r in results:
        norm = r.normalized(base[r.workload])
        rows.append(
            [
                r.workload,
                r.scheme,
                norm["read_latency"],
                norm["write_latency"],
                norm["ipc_improvement"],
                norm["running_time"],
                r.mean_write_units,
            ]
        )
    print(
        format_table(
            ["workload", "scheme", "read-lat", "write-lat", "IPC-x", "runtime", "units"],
            rows,
            title="Full-system results normalized to the DCW baseline (Figs 11-14)",
        )
    )
    return 0


def _cmd_diagram(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    if args.fig4:
        # The worked example of the paper's Figure 4: per-chip write-1 /
        # write-0 counts scheduled against the per-chip budget of 32.
        n_set = np.array([8, 7, 7, 6, 6, 6, 5, 3])
        n_reset = np.array([1, 1, 1, 2, 3, 2, 2, 5])
        print(render_timing_diagram(n_set, n_reset, power_budget=32.0))
    else:
        n_set = rng.poisson(6.7, size=8)
        n_reset = rng.poisson(2.9, size=8)
        print(render_timing_diagram(n_set, n_reset))
    return 0


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


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.experiments import ablation
    from repro.trace.synthetic import generate_trace

    trace = generate_trace(args.workload, args.requests, seed=args.seed)
    sweeps = {
        "budget": ablation.sweep_power_budget,
        "K": ablation.sweep_time_asymmetry,
        "L": ablation.sweep_power_asymmetry,
        "width": ablation.sweep_write_unit_width,
        "flip": ablation.sweep_no_flip,
    }
    points = sweeps[args.sweep](trace)
    print(
        format_table(
            ["parameter", "value", "mean units", "result", "subresult"],
            [
                [p.parameter, p.value, p.mean_units, p.mean_result, p.mean_subresult]
                for p in points
            ],
            title=f"Tetris ablation: {args.sweep} sweep on {args.workload}",
        )
    )
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.experiments.faults import retirement_curve, run_fault_sweep

    if args.wearout:
        points = retirement_curve(
            scheme_name=args.schemes[0],
            endurance_mean=args.endurance,
            seed=args.seed,
        )
        print(
            format_table(
                ["writes", "stuck cells", "ECP lines", "retired", "attempts", "lost"],
                [
                    [
                        p.writes_issued,
                        p.stuck_cells,
                        p.ecp_lines,
                        p.retired_lines,
                        p.mean_attempts,
                        p.uncorrectable,
                    ]
                    for p in points
                ],
                title=(
                    f"Wear-out cascade: {args.schemes[0]} hammering with "
                    f"endurance_mean={args.endurance:g}"
                ),
            )
        )
        return 0
    rows = run_fault_sweep(
        tuple(args.rates),
        tuple(args.schemes),
        workload=args.workload,
        requests_per_core=args.requests,
        seed=args.seed,
    )
    print(
        format_table(
            [
                "scheme", "rate", "writes", "attempts", "retry%",
                "mean ns", "P50 ns", "P99 ns", "energy", "degr", "lost",
            ],
            [
                [
                    r.scheme,
                    f"{r.rate:g}",
                    r.writes,
                    r.mean_attempts,
                    100.0 * r.retry_rate,
                    r.mean_service_ns,
                    r.p50_service_ns,
                    r.p99_service_ns,
                    r.mean_energy,
                    r.degraded_writes,
                    r.uncorrectable,
                ]
                for r in rows
            ],
            title=(
                "Fault sweep — transient bit-error rate vs write service "
                f"({args.workload})"
            ),
        )
    )
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


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.experiments.runner import BASELINE_SCHEME
    from repro.parallel import RetryPolicy, SweepEngine, default_cache_dir

    journal_path = None
    if args.journal:
        journal_path = Path(args.journal)
    elif args.resume:
        journal_path = (
            Path(args.cache_dir or default_cache_dir()) / "sweep-journal.jsonl"
        )
    retry = RetryPolicy()
    if args.max_retries is not None:
        retry = RetryPolicy(max_retries=max(0, args.max_retries))

    schemes = tuple(dict.fromkeys([BASELINE_SCHEME, *args.schemes]))
    fastpath_kwargs = {}
    if args.recheck is not None:
        fastpath_kwargs["recheck_fraction"] = args.recheck
    engine = SweepEngine(
        requests_per_core=args.requests,
        root_seed=args.seed,
        workers=args.workers,
        cache=False if args.no_cache else None,
        cache_dir=args.cache_dir or None,
        journal=journal_path,
        retry=retry,
        cell_deadline_s=args.cell_deadline,
        fastpath=args.fastpath,
        certificate_path=args.certificate or None,
        **fastpath_kwargs,
    )
    sweep = engine.run(schemes, tuple(args.workloads), resume=args.resume)
    base = {
        o.cell.workload: o.row
        for o in sweep.outcomes
        if o.cell.scheme == BASELINE_SCHEME and o.row is not None
    }
    rows = []
    for o in sweep.outcomes:
        if o.error is not None:
            rows.append([o.cell.workload, o.cell.scheme, "ERROR",
                         o.error.error_type, "", "", ""])
            continue
        r = o.row
        # A workload whose DCW cell failed has nothing to normalize to.
        if r.workload in base:
            norm = r.normalized(base[r.workload])
            ratios = [norm["read_latency"], norm["write_latency"],
                      norm["ipc_improvement"], norm["running_time"]]
        else:
            ratios = ["n/a"] * 4
        rows.append(
            [
                r.workload, r.scheme, *ratios,
                "hit" if o.cached else ("resumed" if o.resumed else "ran"),
            ]
        )
    print(
        format_table(
            ["workload", "scheme", "read-lat", "write-lat", "IPC-x", "runtime", "cell"],
            rows,
            title="Sweep results normalized to the DCW baseline",
        )
    )
    s = sweep.stats
    hit_pct = 100.0 * s.cache_hits / s.cells if s.cells else 0.0
    print(
        f"{s.cells} cells: {s.executed} executed, {s.cache_hits} cached "
        f"({hit_pct:.0f}% hits), {s.resumed} resumed, {s.errors} errors, "
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
    if args.json:
        import dataclasses

        payload = {
            "stats": s.to_dict(),
            "rows": [dataclasses.asdict(r) for r in sweep.rows],
            "errors": [dataclasses.asdict(e) for e in sweep.errors],
            "certificate": sweep.certificate,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}")
    return 1 if sweep.errors else 0


def _cmd_journal(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.parallel import SweepJournal, default_cache_dir
    from repro.parallel.resultcache import code_salt

    path = Path(args.journal) if args.journal else (
        Path(args.cache_dir or default_cache_dir()) / "sweep-journal.jsonl"
    )
    journal = SweepJournal(path)
    if args.action == "compact":
        keep = {code_salt()} if args.prune_stale else None
        dropped = journal.compact(keep_salts=keep)
        print(
            f"compacted {path}: dropped {dropped} line(s) "
            f"({len(journal)} records kept"
            + (", stale-salt records pruned)" if args.prune_stale else ")")
        )
        return 0
    st = journal.stats()
    current = code_salt()
    salt_rows = [
        [f"salt[{i}]", s + (" (current code)" if s == current else " (STALE)")]
        for i, s in enumerate(st["salts"])
    ]
    print(
        format_table(
            ["stat", "value"],
            [
                ["journal", st["path"]],
                ["records", st["records"]],
                ["lines", st["lines"]],
                ["corrupt lines", st["corrupt_lines"]],
                ["duplicate lines", st["duplicate_lines"]],
                ["bytes", st["bytes"]],
                *salt_rows,
            ],
            title="Sweep journal report",
        )
    )
    if st["corrupt_lines"] or st["duplicate_lines"]:
        print(
            f"hint: `tetris-write journal compact` drops the "
            f"{st['corrupt_lines']} corrupt + {st['duplicate_lines']} "
            f"duplicate line(s) atomically"
        )
    if any(s != current for s in st["salts"]):
        print(
            "hint: journal holds records from other code versions; "
            "`tetris-write journal compact --prune-stale` removes them"
        )
    return 0


def _grid_from_args(args: argparse.Namespace) -> dict:
    return {
        "schemes": list(args.schemes),
        "workloads": list(args.workloads),
        "requests_per_core": args.requests,
        "seed": args.seed,
    }


def _print_service_error(exc) -> None:
    retry = (
        f" (retry after {exc.retry_after_s:g}s)"
        if exc.retry_after_s is not None
        else ""
    )
    print(f"service error [{exc.code}]: {exc.message}{retry}")


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
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}")


def _service_client(args: argparse.Namespace):
    """Connected client, or ``None`` when no endpoint is configured."""
    from repro.service import ServiceClient, endpoint_from_env

    endpoint = getattr(args, "endpoint", "") or endpoint_from_env()
    if not endpoint:
        return None
    return ServiceClient(endpoint, tenant=getattr(args, "tenant", "default"))


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import ProtocolError

    if args.drain:
        client = _service_client(args)
        if client is None:
            print("no endpoint: pass --endpoint or set REPRO_SERVICE")
            return 2
        try:
            reply = client.drain()
        except ProtocolError as exc:
            _print_service_error(exc)
            return 1
        except OSError as exc:
            print(f"cannot reach service at {client.endpoint}: {exc}")
            return 2
        print(
            f"draining: {reply.get('jobs_pending', 0)} job(s), "
            f"{reply.get('cells_pending', 0)} cell(s) still in flight; "
            "new submits now get a structured retry-after rejection"
        )
        return 0
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


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import ProtocolError, run_inprocess

    grid = _grid_from_args(args)
    client = _service_client(args)
    if client is None:
        reply = run_inprocess(
            grid,
            tenant=args.tenant,
            cache_dir=args.cache_dir or None,
            workers=args.workers,
        )
        print("no service endpoint: executed in process (degraded mode)")
        _print_job_reply(reply)
        _maybe_json(args, reply)
        return 1 if reply.get("failed") else 0
    try:
        reply = client.submit(grid)
        _print_job_reply(reply)
        if args.watch and reply.get("state") not in ("done", "cancelled"):
            for event in client.watch(reply["job"]):
                if event.get("event") == "progress":
                    _print_job_reply(event)
            reply = client.status(reply["job"])
            _print_job_reply(reply)
        _maybe_json(args, reply)
        return 1 if reply.get("failed") else 0
    except ProtocolError as exc:
        _print_service_error(exc)
        return 1
    except OSError as exc:
        print(f"cannot reach service at {client.endpoint}: {exc}")
        return 2


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service import ProtocolError

    client = _service_client(args)
    if client is None:
        print("no endpoint: pass --endpoint or set REPRO_SERVICE")
        return 2
    try:
        reply = client.status(args.job or None)
    except ProtocolError as exc:
        _print_service_error(exc)
        return 1
    except OSError as exc:
        print(f"cannot reach service at {client.endpoint}: {exc}")
        return 2
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
    _maybe_json(args, reply)
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.service import ProtocolError

    client = _service_client(args)
    if client is None:
        print("no endpoint: pass --endpoint or set REPRO_SERVICE")
        return 2
    try:
        last = None
        for event in client.watch(args.job):
            _print_job_reply(event)
            last = event
    except ProtocolError as exc:
        _print_service_error(exc)
        return 1
    except OSError as exc:
        print(f"cannot reach service at {client.endpoint}: {exc}")
        return 2
    if last is not None:
        _maybe_json(args, last)
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    from repro.service import ProtocolError

    client = _service_client(args)
    if client is None:
        print("no endpoint: pass --endpoint or set REPRO_SERVICE")
        return 2
    try:
        reply = client.cancel(args.job)
    except ProtocolError as exc:
        _print_service_error(exc)
        return 1
    except OSError as exc:
        print(f"cannot reach service at {client.endpoint}: {exc}")
        return 2
    _print_job_reply(reply)
    _maybe_json(args, reply)
    return 0


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
    import json

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

    if args.json:
        payload = {"differential": report.to_dict(), "metamorphic": meta}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}")
    ok = report.ok and meta["ok"]
    print("oracle: OK" if ok else "oracle: FAILED")
    return 0 if ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report_gen import generate_report

    path = generate_report(
        args.out, requests_per_core=args.requests, seed=args.seed
    )
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetris-write",
        description="Reproduce the experiments of Tetris Write (ICPP 2016).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, workloads: bool = True) -> None:
        p.add_argument("--seed", type=int, default=20160816)
        p.add_argument("--requests", type=int, default=2000,
                       help="memory requests per core")
        if workloads:
            p.add_argument(
                "--workloads", nargs="+", default=list(WORKLOAD_NAMES),
                choices=list(WORKLOAD_NAMES),
            )

    p = sub.add_parser("fig3", help="bit-change characterization (Fig 3)")
    common(p)
    p.set_defaults(fn=_cmd_fig3)

    p = sub.add_parser("fig10", help="write units per write (Fig 10)")
    common(p)
    p.set_defaults(fn=_cmd_fig10)

    p = sub.add_parser("fullsystem", help="latency/IPC/runtime (Figs 11-14)")
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
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool size (results identical to serial)")
    p.add_argument("--no-cache", action="store_true",
                   help="skip the on-disk result cache (or set REPRO_NO_CACHE)")
    p.set_defaults(fn=_cmd_fullsystem)

    p = sub.add_parser(
        "sweep", help="parallel cached scheme x workload sweep (docs/PERFORMANCE.md)"
    )
    common(p)
    p.add_argument("--schemes", nargs="+", default=list(COMPARED_SCHEMES))
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool size (results identical to serial)")
    p.add_argument("--no-cache", action="store_true",
                   help="skip the on-disk result cache (or set REPRO_NO_CACHE)")
    p.add_argument("--cache-dir", default="",
                   help="result-cache root (default: REPRO_CACHE_DIR or "
                        "~/.cache/tetris-write/results)")
    p.add_argument("--json", default="",
                   help="also write rows + stats as JSON here")
    p.add_argument("--journal", default="",
                   help="checkpoint completed cells to this JSONL journal "
                        "(default with --resume: <cache-root>/sweep-journal.jsonl)")
    p.add_argument("--resume", action="store_true",
                   help="replay journaled cells instead of re-executing them "
                        "(docs/RESILIENCE.md)")
    p.add_argument("--max-retries", type=int, default=None,
                   help="per-cell retry budget beyond the first attempt")
    p.add_argument("--cell-deadline", type=float, default=None,
                   help="per-cell wall-clock deadline in seconds "
                        "(0 disables; default scales with --requests)")
    p.add_argument("--fastpath", default="auto", choices=["auto", "off", "force"],
                   help="analytic execution lane: auto routes envelope cells "
                        "through the oracle-certified pricer, off is DES "
                        "everywhere, force errors on out-of-envelope cells "
                        "(docs/PERFORMANCE.md)")
    p.add_argument("--recheck", type=float, default=None, metavar="FRACTION",
                   help="fraction of fastpath cells differentially re-run "
                        "through the DES (default 0.02, min 1 sample; "
                        "docs/ORACLE.md)")
    p.add_argument("--certificate", default="sweep-certificate.json",
                   help="write the per-run lane certificate here "
                        "('' disables; docs/ORACLE.md)")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser(
        "journal", help="sweep-journal maintenance (docs/RESILIENCE.md)"
    )
    p.add_argument("action", choices=["stats", "compact"],
                   help="stats: rows / torn lines / code salts; compact: "
                        "atomically drop corrupt + duplicate lines")
    p.add_argument("--journal", default="",
                   help="journal path (default: <cache-root>/sweep-journal.jsonl)")
    p.add_argument("--cache-dir", default="",
                   help="cache root used for the default journal path")
    p.add_argument("--prune-stale", action="store_true",
                   help="with compact: also drop records journaled under "
                        "other code versions (StaleJournalError remedy)")
    p.set_defaults(fn=_cmd_journal)

    def service_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--endpoint", default="",
                       help="service endpoint, e.g. unix:/run/tw.sock or "
                            "tcp:127.0.0.1:7733 (default: REPRO_SERVICE)")
        p.add_argument("--tenant", default="default",
                       help="tenant name for admission + fair queueing")
        p.add_argument("--json", default="",
                       help="also write the final reply as JSON here")

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
    p.add_argument("--workers", type=int, default=1,
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

    p = sub.add_parser(
        "submit", help="submit a grid to the service (docs/SERVICE.md)"
    )
    common(p)
    p.add_argument("--schemes", nargs="+", default=list(COMPARED_SCHEMES))
    p.add_argument("--watch", action="store_true",
                   help="stream progress until the job finishes")
    p.add_argument("--workers", type=int, default=1,
                   help="workers for degraded in-process execution")
    p.add_argument("--cache-dir", default="",
                   help="cache root for degraded in-process execution")
    service_common(p)
    p.set_defaults(fn=_cmd_submit)

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

    p = sub.add_parser("diagram", help="chip-level timing diagram (Fig 4)")
    p.add_argument("--seed", type=int, default=20160816)
    p.add_argument("--fig4", action="store_true",
                   help="use the paper's worked example numbers")
    p.set_defaults(fn=_cmd_diagram)

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

    p = sub.add_parser("report", help="run everything into a Markdown report")
    common(p, workloads=False)
    p.add_argument("--out", default="REPORT.md")
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser("faults", help="fault-injection sweep / wear-out curve")
    common(p, workloads=False)
    p.add_argument("--workload", default="dedup", choices=list(WORKLOAD_NAMES))
    p.add_argument("--schemes", nargs="+", default=["dcw", "tetris"])
    p.add_argument("--rates", nargs="+", type=float,
                   default=[0.0, 1e-4, 1e-3, 1e-2],
                   help="transient per-bit program-failure rates to sweep")
    p.add_argument("--wearout", action="store_true",
                   help="hammer lines to chart the ECP/retirement cascade")
    p.add_argument("--endurance", type=float, default=60.0,
                   help="mean cell endurance for the --wearout hammer")
    p.set_defaults(fn=_cmd_faults)

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

    p = sub.add_parser("ablation", help="parameter sensitivity sweeps")
    common(p, workloads=False)
    p.add_argument("--workload", default="dedup", choices=list(WORKLOAD_NAMES))
    p.add_argument("--sweep", default="budget",
                   choices=["budget", "K", "L", "width", "flip"])
    p.set_defaults(fn=_cmd_ablation)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

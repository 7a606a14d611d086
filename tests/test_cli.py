"""Smoke tests for the command-line interface."""

import dataclasses
import json
import os
import runpy
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
#: Experiment-table entries cheap enough to run at the default scale.
CHEAP_REPORT_IDS = (
    "fig03_bit_profile", "fig04_timing_diagram", "fig10_write_units",
    "ablation_budget", "ablation_K", "ablation_L", "ablation_mobile",
    "ablation_flip", "power_utilization", "fault_wearout",
)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--workloads", "quake"])

    @pytest.mark.parametrize("argv", [
        ["sweep", "--requests", "0", "--workloads", "dedup", "--schemes", "dcw", "tetris"],
        ["report", "fig03_bit_profile", "--requests", "0"],
        ["report", "fig03_bit_profile", "--requests", "-5"],
        ["trace", "--requests", "-1"],
        ["obs", "--requests", "0", "--fullsystem"],
    ], ids=lambda argv: f"{argv[0]}{argv[argv.index('--requests') + 1]}")
    def test_rejects_nonpositive_requests(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--requests: must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--workers", "0"],
        ["serve", "--workers", "0"],
        ["sweep", "--workers", "-2"],
    ], ids=["sweep", "serve", "sweep-negative"])
    def test_rejects_nonpositive_workers(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--workers: must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--subarrays", "0"], "need at least one subarray per bank"),
        (["--mlp", "0"], "need at least one outstanding read"),
        (["--recheck", "2"], "--recheck: must be in [0, 1]"),
        (["--max-retries", "-5"], "--max-retries: must be a non-negative"),
        (["--cell-deadline", "-1"], "--cell-deadline: must be a non-negative"),
    ], ids=["subarrays", "mlp", "recheck", "max-retries", "cell-deadline"])
    def test_rejects_bad_sweep_values(self, flags, message, capsys):
        """A config value the grid validation refuses, or a budget out
        of range, exits 2 before any cell runs: no traceback, no clamp."""
        argv = ["sweep", "--workloads", "vips", "--schemes", "tetris",
                "--no-cache", *flags]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        out, err = capsys.readouterr()
        assert message in out + err
        assert "Traceback" not in out + err

    def test_settable_value_count_does_not_grow(self):
        """Every concept has one front end: the CLI's settable values
        (argparse actions other than help) stay at 69 over 12 verbs."""
        import argparse

        [verbs] = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
        values = sum(
            not isinstance(a, argparse._HelpAction)
            for p in verbs.choices.values() for a in p._actions
        )
        assert len(verbs.choices) <= 12
        assert values <= 69, f"{values} settable CLI values (limit 69)"

    @pytest.mark.parametrize("argv", [
        ["journal", "stats"],
        ["sweep", "--resume"],
        ["sweep", "--journal", "sweep.jsonl"],
    ], ids=["journal-verb", "resume", "journal-flag"])
    def test_removed_journal_invocations_are_usage_errors(self, argv, capsys):
        """A re-run on the same cache is the one resume path."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_parser_leaves_the_experiment_table_unimported(self):
        """``serve`` start-up pays for the CLI import and parser, never
        for the experiment table ``report`` loads on demand."""
        code = (
            "import sys, repro.cli; repro.cli.build_parser(); "
            "sys.exit('repro.experiments.table' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestCommands:
    def test_fig3(self, capsys):
        assert main(["report", "fig03_bit_profile", "--requests", "200"]) == 0
        out = capsys.readouterr().out
        assert "blackscholes" in out
        assert "SET" in out

    def test_fig10(self, capsys):
        assert main(["report", "fig10_write_units", "--requests", "200"]) == 0
        out = capsys.readouterr().out
        assert "Tetris" in out

    def test_fullsystem(self, capsys):
        code = main([
            "sweep", "--fastpath", "off", "--certificate", "",
            "--workloads", "swaptions", "--schemes", "tetris",
            "--requests", "200",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "tetris" in out and "dcw" in out  # baseline auto-included

    def test_schemes_lists_the_registry(self, capsys, tmp_path):
        from repro.schemes import SCHEME_REGISTRY

        out_file = tmp_path / "schemes.json"
        assert main(["schemes", "--json", str(out_file)]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert header.split() == ["scheme", "read", "wc_units"]
        assert len(lines) == len(SCHEME_REGISTRY) + 1  # + "wrote ..."
        rows = json.loads(out_file.read_text())["schemes"]
        assert [r["scheme"] for r in rows] == sorted(SCHEME_REGISTRY)
        for r in rows:
            assert set(r) == {"scheme", "requires_read", "worst_case_units"}
        by = {r["scheme"]: r for r in rows}
        assert by["palp"]["requires_read"] and not by["preset"]["requires_read"]

    def test_oracle_reports_the_table_lane(self, capsys):
        assert main(["oracle", "--schemes", "palp", "--cases", "8"]) == 0
        out = capsys.readouterr().out
        assert "table: " in out and "0 divergences" in out

    def test_diagram_fig4(self, capsys):
        assert main(["report", "fig04_timing_diagram"]) == 0
        out = capsys.readouterr().out
        assert "tetris" in out
        assert "result=" in out

    def test_diagram_random(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["timing_diagram.py", "--random", "3"])
        runpy.run_path(str(ROOT / "examples" / "timing_diagram.py"))
        assert "Tset" in capsys.readouterr().out

    def test_trace_save(self, capsys, tmp_path):
        out_file = tmp_path / "t.npz"
        assert main([
            "trace", "--workload", "ferret", "--requests", "100",
            "--out", str(out_file),
        ]) == 0
        assert out_file.exists()
        assert "RPKI" in capsys.readouterr().out

    def test_trace_text_save(self, tmp_path):
        out_file = tmp_path / "t.txt"
        assert main([
            "trace", "--workload", "ferret", "--requests", "50",
            "--out", str(out_file),
        ]) == 0
        assert out_file.read_text().startswith("# workload=ferret")

    @pytest.mark.parametrize("sweep", ["budget", "K", "L", "width", "flip"])
    def test_ablation_sweeps(self, sweep, capsys):
        exp_id = {"width": "ablation_mobile"}.get(sweep, f"ablation_{sweep}")
        assert main(["report", exp_id, "--requests", "150"]) == 0
        assert "mean units" in capsys.readouterr().out


class TestReportCommand:
    """``report ID`` prints exactly the entry's committed text dump."""

    @pytest.mark.parametrize("exp_id", CHEAP_REPORT_IDS)
    def test_prints_the_committed_dump(self, exp_id, capsys):
        assert main(["report", exp_id]) == 0
        dump = ROOT / "benchmarks" / "out" / f"{exp_id}.txt"
        assert capsys.readouterr().out == dump.read_text()

    def test_unknown_id_lists_the_known_ones(self, capsys):
        assert main(["report", "fig10_write_units", "fig99"]) == 2
        out = capsys.readouterr().out
        assert "fig99" in out
        for exp_id in CHEAP_REPORT_IDS:
            assert exp_id in out


class FakeClient:
    """A service client whose every job is already finished, with no rows."""

    REPLY = {"job": "j0", "state": "done", "done": 0, "total": 0, "failed": 0,
             "rows": [], "errors": []}

    def __init__(self, endpoint, tenant):
        self.endpoint = endpoint

    def submit(self, grid):
        return self.REPLY

    def watch(self, job):
        yield self.REPLY

    def status(self, job):
        return self.REPLY


class TestServiceCommands:
    """The service verbs need a server; ``sweep`` runs here without one."""

    def test_sweep_without_an_endpoint_runs_in_process(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_SERVICE", raising=False)
        code = main([
            "sweep", "--schemes", "dcw", "--workloads", "swaptions",
            "--requests", "100", "--no-cache",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 cells: 1 executed" in out
        assert "job " not in out

    def test_sweep_json_artifact(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_SERVICE", raising=False)
        artifact = tmp_path / "job.json"
        code = main([
            "sweep", "--schemes", "dcw", "--workloads", "swaptions",
            "--requests", "100", "--no-cache", "--json", str(artifact),
        ])
        assert code == 0
        reply = json.loads(artifact.read_text())
        assert reply["stats"]["cells"] == 1
        assert len(reply["rows"]) == 1
        assert reply["rows"][0]["scheme"] == "dcw"
        assert list(reply["rows"][0]) == sorted(reply["rows"][0])

    @pytest.mark.parametrize("flags", [
        ["--workers", "2"], ["--no-cache"], ["--cache-dir", "c"],
        ["--max-retries", "1"], ["--cell-deadline", "5"],
        ["--recheck", "0.5"], ["--certificate", ""],
    ], ids=lambda flags: flags[0])
    def test_served_sweep_refuses_in_process_flags(
        self, flags, capsys, monkeypatch
    ):
        """Flags that pick where and how cells run have no meaning on a
        server: the sweep exits 2 naming the flag, and submits nothing."""
        class Client(FakeClient):
            def submit(self, grid):
                pytest.fail("a sweep with in-process flags was submitted")

        monkeypatch.setattr("repro.service.ServiceClient", Client)
        code = main(["sweep", "--endpoint", "unix:/nowhere.sock", *flags])
        assert code == 2
        assert flags[0] in capsys.readouterr().out

    def test_ctrl_c_detaches_from_a_served_sweep(self, capsys, monkeypatch):
        """Ctrl-C stops the watch, not the job: the sweep says how to
        pick the job up again."""

        class Client(FakeClient):
            def watch(self, job):
                raise KeyboardInterrupt
                yield

        monkeypatch.setattr("repro.service.ServiceClient", Client)
        code = main(["sweep", "--endpoint", "unix:/nowhere.sock",
                     "--workloads", "vips", "--schemes", "dcw"])
        assert code == 130
        assert "tetris-write watch j0" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["status"], ["watch", "j0"], ["cancel", "j0"]])
    def test_query_verbs_require_an_endpoint(self, argv, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE", raising=False)
        assert main(argv) == 2
        assert "no endpoint" in capsys.readouterr().out

    def test_unreachable_endpoint_is_a_clean_failure(self, capsys, tmp_path):
        code = main([
            "status", "--endpoint", f"unix:{tmp_path}/nope.sock",
        ])
        assert code == 2
        assert "cannot reach service" in capsys.readouterr().out

    def test_json_write_failure_is_not_an_unreachable_service(
        self, monkeypatch, tmp_path
    ):
        """Regression: a served ``--json`` into a missing directory was
        reported as "cannot reach service" and exited 2."""
        monkeypatch.setattr("repro.service.ServiceClient", FakeClient)
        with pytest.raises(FileNotFoundError):
            main(["sweep", "--endpoint", "unix:/nowhere.sock",
                  "--json", str(tmp_path / "missing" / "job.json")])

    def test_drain_requires_an_endpoint(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE", raising=False)
        assert main(["serve", "--drain"]) == 2
        assert "no endpoint" in capsys.readouterr().out

    def test_serve_binds_the_endpoint_flag(self, tmp_path):
        """``serve --endpoint unix:PATH`` binds that socket (regression:
        the flag was drain-only and serving fell back to the TCP default),
        and a drain-triggered exit is clean — rc 0, no tracebacks."""
        import json as _json
        import socket
        import time

        sock = tmp_path / "tw.sock"
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--endpoint", f"unix:{sock}",
             "--state-dir", str(tmp_path / "state"), "--no-fsync"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            deadline = time.monotonic() + 30
            while not sock.exists():
                assert proc.poll() is None, proc.stdout.read()
                assert time.monotonic() < deadline, "server never bound"
                time.sleep(0.05)
            with socket.socket(socket.AF_UNIX) as s:
                s.connect(str(sock))
                s.sendall(b'{"v": 1, "verb": "drain"}\n')
                reply = _json.loads(s.makefile().readline())
            assert reply["ok"] is True
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert f"unix:{sock}" in out
        assert "Traceback" not in out


    def test_served_and_in_process_sweeps_give_byte_identical_rows(
        self, tmp_path, monkeypatch
    ):
        """One grid request: the same flags give the same ``--json`` rows
        from a ``serve`` process as in process, and an in-process run on
        the server's cache finds every cell (the same cache keys)."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_SERVICE", raising=False)
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)

        def sweep(argv, name):
            out = tmp_path / f"{name}.json"
            assert main(["sweep", *argv, "--json", str(out)]) == 0
            return json.loads(out.read_text())

        grid = ["--workloads", "vips", "--schemes", "tetris", "--requests", "200"]
        sock = tmp_path / "tw.sock"
        state = tmp_path / "state"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--endpoint",
             f"unix:{sock}", "--state-dir", str(state), "--no-fsync"],
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            deadline = time.monotonic() + 30
            while not sock.exists():
                assert proc.poll() is None, proc.stdout.read()
                assert time.monotonic() < deadline, "server never bound"
                time.sleep(0.05)
            for i, flags in enumerate([["--pausing", "--fastpath", "auto"], []]):
                served = sweep([*grid, *flags, "--endpoint", f"unix:{sock}"],
                               f"served{i}")
                local = sweep([*grid, *flags, "--no-cache"], f"local{i}")
                warm = sweep([*grid, *flags, "--cache-dir", str(state / "cache")],
                             f"warm{i}")
                assert len(served["rows"]) == 2 and not served["errors"]
                assert json.dumps(served["rows"]) == json.dumps(local["rows"])
                assert warm["stats"]["executed"] == 0
                assert warm["stats"]["cache_hits"] == 2
            assert main(["serve", "--drain", "--endpoint", f"unix:{sock}"]) == 0
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out


class TestSweepCommand:
    """``sweep`` end to end: warm re-run, forced fastpath, resume from
    the cache, and a failed baseline cell.

    Each test checks the ``--json`` documents the CLI writes.  The
    working directory is ``tmp_path``, so the default certificate
    (``sweep-certificate.json``) lands there.
    """

    @staticmethod
    def _sweep(argv, out):
        code = main(["sweep", *argv, "--json", str(out)])
        return code, json.loads(out.read_text())

    def test_cache_warm_rerun_replays_every_cell(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / ".sweep-cache"))
        argv = ["--schemes", "tetris", "three_stage",
                "--workloads", "dedup", "vips", "--requests", "400",
                "--workers", "2"]
        code_cold, cold = self._sweep(argv, tmp_path / "cold.json")
        code_warm, warm = self._sweep(argv, tmp_path / "warm.json")
        assert code_cold == code_warm == 0
        assert not cold["errors"] and not warm["errors"]
        stats = warm["stats"]
        assert stats["cache_hits"] / stats["cells"] >= 0.90
        assert stats["executed"] == 0, "warm re-run invoked the DES"
        assert warm["rows"] == cold["rows"]

    def test_forced_fastpath_full_recheck_agrees_with_des(
        self, tmp_path, monkeypatch
    ):
        from repro.fastpath.agreement import compare_rows

        monkeypatch.chdir(tmp_path)
        grid = ["--schemes", "dcw", "tetris", "three_stage", "palp",
                "tetris_relaxed", "--workloads", "dedup", "vips",
                "--requests", "800", "--no-cache"]
        cert_path = tmp_path / "cert.json"
        code_fast, fast = self._sweep(
            [*grid, "--fastpath", "force", "--recheck", "1.0",
             "--certificate", str(cert_path)],
            tmp_path / "fast.json",
        )
        code_des, des = self._sweep(
            [*grid, "--fastpath", "off", "--certificate", ""],
            tmp_path / "des.json",
        )
        assert code_fast == code_des == 0
        assert not fast["errors"] and not des["errors"]
        s = json.loads(cert_path.read_text())["summary"]
        assert s["fastpath"] == s["cells"]
        assert s["recheck_samples"] == s["cells"]
        assert s["recheck_divergences"] == 0
        for f_row, d_row in zip(fast["rows"], des["rows"], strict=True):
            assert f_row["events"] == 0, "fastpath row claims DES events"
            assert not compare_rows(f_row, d_row)

    def test_rerun_on_the_same_cache_executes_only_unfinished_cells(
        self, tmp_path, monkeypatch, capsys
    ):
        """A sweep that stopped after dedup, re-run for dedup and vips,
        executes only the vips cells and reproduces an uninterrupted
        uncached run byte for byte."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        grid = ["--schemes", "tetris", "dcw", "--requests", "400",
                "--cache-dir", str(tmp_path / "cache")]
        code_first, _ = self._sweep(
            [*grid, "--workloads", "dedup"], tmp_path / "first.json"
        )
        capsys.readouterr()
        code_rerun, rerun = self._sweep(
            [*grid, "--workloads", "dedup", "vips"], tmp_path / "rerun.json"
        )
        labels = {
            tuple(line.split()[:2]): line.split()[-1]
            for line in capsys.readouterr().out.splitlines()
            if line.split()[:1] in (["dedup"], ["vips"])
        }
        code_clean, clean = self._sweep(
            [*grid, "--workloads", "dedup", "vips", "--no-cache"],
            tmp_path / "clean.json",
        )
        assert code_first == code_rerun == code_clean == 0
        assert not rerun["errors"] and not clean["errors"]
        assert labels == {
            ("dedup", "dcw"): "hit", ("dedup", "tetris"): "hit",
            ("vips", "dcw"): "ran", ("vips", "tetris"): "ran",
        }
        assert rerun["stats"]["executed"] == 2, "re-run executed finished cells"
        assert rerun["stats"]["cache_hits"] == 2
        assert json.dumps(rerun["rows"]) == json.dumps(clean["rows"])

    def test_config_flags_reach_every_cell(self, tmp_path):
        """``--pausing`` runs the grid under the paused controller: rows
        equal the runner's under that config, and differ from default."""
        from repro.config import MemCtrlConfig, default_config
        from repro.experiments.runner import run_schemes_on_workloads

        grid = ["--schemes", "tetris", "--workloads", "dedup",
                "--requests", "200", "--fastpath", "off", "--certificate", ""]
        code, doc = self._sweep([*grid, "--pausing"], tmp_path / "paused.json")
        assert code == 0
        paused = default_config().replace(memctrl=MemCtrlConfig(write_pausing=True))
        expected = [
            dataclasses.asdict(r) for r in run_schemes_on_workloads(
                ("dcw", "tetris"), ("dedup",), config=paused,
                requests_per_core=200, seed=20160816)
        ]
        assert doc["rows"] == expected
        _, plain = self._sweep(grid, tmp_path / "plain.json")
        assert plain["rows"] != expected

    def test_failed_baseline_cell_reports_instead_of_crashing(
        self, tmp_path, monkeypatch, capsys
    ):
        """Regression: a workload whose DCW cell failed raised KeyError
        while normalizing, before the table or ``--json`` was written."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_CHAOS_HANG", "dedup:dcw:30")
        code, doc = self._sweep(
            ["--schemes", "tetris", "--workloads", "dedup", "vips",
             "--requests", "100", "--workers", "2", "--no-cache",
             "--fastpath", "off", "--certificate", "",
             "--cell-deadline", "0.5", "--max-retries", "0"],
            tmp_path / "out.json",
        )
        assert code == 1  # cell errors fail the sweep, as always
        assert [(e["workload"], e["scheme"], e["error_type"])
                for e in doc["errors"]] == [("dedup", "dcw", "CellTimeout")]
        assert len(doc["rows"]) == 3
        table = {
            tuple(line.split()[:2]): line.split()[2:]
            for line in capsys.readouterr().out.splitlines()
            if line.split()[:1] in (["dedup"], ["vips"])
        }
        assert table[("dedup", "dcw")][:2] == ["ERROR", "CellTimeout"]
        assert table[("dedup", "tetris")] == ["n/a"] * 4 + ["ran"]
        assert table[("vips", "dcw")] == ["1.000"] * 4 + ["ran"]

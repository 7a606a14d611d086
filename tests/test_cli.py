"""Smoke tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig3", "--workloads", "quake"])


class TestCommands:
    def test_fig3(self, capsys):
        assert main(["fig3", "--workloads", "blackscholes", "--requests", "200"]) == 0
        out = capsys.readouterr().out
        assert "blackscholes" in out
        assert "SET" in out

    def test_fig10(self, capsys):
        assert main(["fig10", "--workloads", "swaptions", "--requests", "200"]) == 0
        out = capsys.readouterr().out
        assert "Tetris" in out

    def test_fullsystem(self, capsys):
        code = main([
            "fullsystem", "--workloads", "swaptions",
            "--schemes", "tetris", "--requests", "200",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "tetris" in out and "dcw" in out  # baseline auto-included

    def test_schemes_lists_the_registry(self, capsys, tmp_path):
        import json

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
        assert main(["diagram", "--fig4"]) == 0
        out = capsys.readouterr().out
        assert "tetris" in out
        assert "result=" in out

    def test_diagram_random(self, capsys):
        assert main(["diagram", "--seed", "3"]) == 0
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
        assert main([
            "ablation", "--sweep", sweep, "--requests", "150",
            "--workload", "dedup",
        ]) == 0
        assert "mean units" in capsys.readouterr().out


class TestServiceCommands:
    """The service verbs degrade gracefully without a server."""

    def test_submit_degrades_to_in_process(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE", raising=False)
        code = main([
            "submit", "--schemes", "dcw", "--workloads", "swaptions",
            "--requests", "100",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "degraded mode" in out
        assert "1/1 done" in out

    def test_submit_json_artifact(self, capsys, monkeypatch, tmp_path):
        import json

        monkeypatch.delenv("REPRO_SERVICE", raising=False)
        artifact = tmp_path / "job.json"
        code = main([
            "submit", "--schemes", "dcw", "--workloads", "swaptions",
            "--requests", "100", "--json", str(artifact),
        ])
        assert code == 0
        reply = json.loads(artifact.read_text())
        assert reply["state"] == "done"
        assert len(reply["rows"]) == 1
        assert reply["rows"][0]["scheme"] == "dcw"

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

    def test_drain_requires_an_endpoint(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE", raising=False)
        assert main(["serve", "--drain"]) == 2
        assert "no endpoint" in capsys.readouterr().out

    def test_serve_binds_the_endpoint_flag(self, tmp_path):
        """``serve --endpoint unix:PATH`` binds that socket (regression:
        the flag was drain-only and serving fell back to the TCP default),
        and a drain-triggered exit is clean — rc 0, no tracebacks."""
        import json as _json
        import os
        import socket
        import subprocess
        import sys
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

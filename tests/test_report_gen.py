"""Tests for the Markdown report generator and its CLI command."""

from repro.cli import main
from repro.experiments.report_gen import generate_report


class TestGenerateReport:
    def test_report_contains_all_sections(self, tmp_path):
        out = generate_report(tmp_path / "r.md", requests_per_core=200)
        text = out.read_text()
        for heading in (
            "# Tetris Write — reproduction report",
            "## Figure 3",
            "## Figure 4",
            "## Figure 10",
            "## Figure 11",
            "## Figure 12",
            "## Figure 13",
            "## Figure 14",
            "## Ablation — bank power budget",
            "## Ablation — §I mobile division modes",
            "## Fault sweep",
            "## Wear-out cascade",
        ):
            assert heading in text, heading

    def test_report_has_all_workloads(self, tmp_path):
        out = generate_report(tmp_path / "r.md", requests_per_core=200)
        text = out.read_text()
        for wl in ("blackscholes", "vips", "ferret", "dedup"):
            assert wl in text

    def test_cli_report_command(self, tmp_path, capsys):
        target = tmp_path / "REPORT.md"
        assert main(["report", "--requests", "200", "--out", str(target)]) == 0
        assert target.exists()
        assert "wrote" in capsys.readouterr().out

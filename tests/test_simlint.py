"""simlint: rule behavior on fixtures, CLI contract, and a clean tree.

The clean-tree test is the tier-1 guardrail the linter exists for: the
whole repository must lint clean, so any PR that introduces an unseeded
RNG, a wall-clock read in the simulator, or an unregistered scheme
fails here before it can corrupt experiment results.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "fixtures" / "simlint"

if str(REPO) not in sys.path:  # the root shim makes `import simlint` work
    sys.path.insert(0, str(REPO))

import simlint  # noqa: E402
from simlint import DEFAULT_EXCLUDES, lint_paths, lint_source  # noqa: E402


def lint_fixture(name: str, module: str) -> list:
    """Lint a fixture file's text under an explicit module scope."""
    path = FIXTURES / name
    return lint_source(path.read_text(), path=str(path), module=module)


def rules_fired(findings) -> set[str]:
    return {f.rule for f in findings}


# ----------------------------------------------------------------------
# Every rule fires on its bad fixture and stays quiet on its good one.
# ----------------------------------------------------------------------
FIXTURE_MATRIX = [
    # (rule, module scope to lint under, expected finding count in bad)
    ("SL001", "repro.trace.fixture", 5),
    ("SL002", "repro.core.fixture", 4),
    ("SL003", "repro.schemes.fixture", 5),
    ("SL004", "tests.fixture", 4),
    ("SL005", "tests.fixture", 4),
    ("SL006", "repro.core.fixture", 3),
    ("SL007", "repro.pcm.fixture", 3),
    ("SL008", "repro.experiments.fixture", 3),
    ("SL009", "repro.parallel.fixture", 6),
    ("SL010", "repro.oracle.analytic", 5),
    ("SL011", "repro.core.fixture", 8),
    ("SL014", "repro.experiments.fixture", 5),
    ("SL015", "repro.service.fixture", 6),
    ("SL016", "repro.fastpath.pricer", 5),
]

# Project-level rules lint a directory mini-project (with its own
# simlint.toml) instead of a single file.
DIR_FIXTURE_MATRIX = [
    # (rule, expected findings on bad tree, of which warn-severity)
    ("SL012", 4, 1),
    ("SL013", 3, 0),
]


@pytest.mark.parametrize("rule,expected,warns", DIR_FIXTURE_MATRIX)
def test_project_rule_fires_on_bad_tree(rule, expected, warns):
    findings = lint_paths([FIXTURES / f"{rule.lower()}_bad"], excludes=())
    hits = [f for f in findings if f.rule == rule]
    assert len(hits) == expected, [f.format() for f in findings]
    assert sum(f.severity == "warn" for f in hits) == warns
    assert {f.rule for f in findings} == {rule}


@pytest.mark.parametrize("rule,_e,_w", DIR_FIXTURE_MATRIX)
def test_project_rule_quiet_on_good_tree(rule, _e, _w):
    findings = lint_paths([FIXTURES / f"{rule.lower()}_good"], excludes=())
    assert [f.format() for f in findings] == []


@pytest.mark.parametrize("rule,module,expected", FIXTURE_MATRIX)
def test_rule_fires_on_bad_fixture(rule, module, expected):
    findings = lint_fixture(f"{rule.lower()}_bad.py", module)
    hits = [f for f in findings if f.rule == rule]
    assert len(hits) == expected, [f.format() for f in findings]
    assert all(f.line > 0 for f in hits)


@pytest.mark.parametrize("rule,module,_", FIXTURE_MATRIX)
def test_rule_quiet_on_good_fixture(rule, module, _):
    findings = lint_fixture(f"{rule.lower()}_good.py", module)
    assert [f.format() for f in findings] == []


# ----------------------------------------------------------------------
# Scoping: path decides which rules even run.
# ----------------------------------------------------------------------
def test_sl001_does_not_apply_outside_repro():
    src = (FIXTURES / "sl001_bad.py").read_text()
    findings = lint_source(src, path="tests/helpers.py", module="tests.helpers")
    assert "SL001" not in rules_fired(findings)


def test_sl002_applies_only_to_simulated_time_packages():
    src = (FIXTURES / "sl002_bad.py").read_text()
    for module, applies in [
        ("repro.sim.engine", True),
        ("repro.pcm.chip", True),
        ("repro.experiments.runner", False),
        ("benchmarks.bench_overhead", False),
    ]:
        fired = rules_fired(lint_source(src, module=module))
        assert ("SL002" in fired) is applies, module


def test_sl016_reverse_direction_and_exemptions():
    consume = "from repro.fastpath import price_cell\n"
    # Simulator packages must not derive timing from the analytic lane...
    assert "SL016" in rules_fired(lint_source(consume, module="repro.schemes.x"))
    assert "SL016" in rules_fired(lint_source(consume, module="repro.pcm.bank"))
    assert "SL016" in rules_fired(lint_source(consume, module="repro.sim.engine"))
    # ...but the sweep engine and the CLI are sanctioned consumers.
    fired = rules_fired(lint_source(consume, module="repro.parallel.engine"))
    assert "SL016" not in fired
    assert "SL016" not in rules_fired(lint_source(consume, module="repro.cli"))
    # The recheck module is the one fastpath module allowed to cross.
    cross = "from repro.sim import engine\n"
    assert "SL016" not in rules_fired(
        lint_source(cross, module="repro.fastpath.recheck")
    )
    assert "SL016" in rules_fired(
        lint_source(cross, module="repro.fastpath.envelope")
    )


def test_sl016_fastpath_shares_the_pricing_table_not_the_des():
    # The write-service table is shared by both lanes on purpose...
    table = "from repro.schemes.pricing import precompute_write_service\n"
    assert "SL016" not in rules_fired(
        lint_source(table, module="repro.fastpath.pricer")
    )
    # ...but the controller and cores the recheck runs stay off limits,
    for des in ("repro.memctrl.controller", "repro.cpu.system"):
        src = f"import {des}\n"
        assert "SL016" in rules_fired(
            lint_source(src, module="repro.fastpath.pricer")
        ), des
    # and neither may consume the analytic lane.
    consume = "from repro.fastpath import price_cell\n"
    for module in ("repro.memctrl.controller", "repro.cpu.system"):
        assert "SL016" in rules_fired(lint_source(consume, module=module))


def test_sl006_scoped_to_core_and_schemes():
    src = (FIXTURES / "sl006_bad.py").read_text()
    assert "SL006" in rules_fired(lint_source(src, module="repro.schemes.x"))
    assert "SL006" not in rules_fired(lint_source(src, module="repro.trace.x"))


def test_sl007_scoped_to_repro():
    src = (FIXTURES / "sl007_bad.py").read_text()
    assert "SL007" in rules_fired(lint_source(src, module="repro.faults.x"))
    assert "SL007" not in rules_fired(lint_source(src, module="tests.helpers"))


def test_sl008_exempts_the_cli_and_non_library_code():
    src = (FIXTURES / "sl008_bad.py").read_text()
    assert "SL008" in rules_fired(lint_source(src, module="repro.memctrl.x"))
    assert "SL008" not in rules_fired(lint_source(src, module="repro.cli"))
    assert "SL008" not in rules_fired(lint_source(src, module="benchmarks.bench_x"))


def test_sl009_scoped_to_repro():
    src = (FIXTURES / "sl009_bad.py").read_text()
    assert "SL009" in rules_fired(lint_source(src, module="repro.parallel.x"))
    assert "SL009" not in rules_fired(lint_source(src, module="benchmarks.bench_x"))


def test_sl010_flags_both_import_directions():
    src = (FIXTURES / "sl010_bad.py").read_text()
    # As the analytic oracle: the five simulator imports are violations.
    oracle_hits = [
        f for f in lint_source(src, module="repro.oracle.analytic")
        if f.rule == "SL010"
    ]
    assert len(oracle_hits) == 5
    # As production scheme code: the two oracle imports are violations.
    scheme_hits = [
        f for f in lint_source(src, module="repro.schemes.fixture")
        if f.rule == "SL010"
    ]
    assert len(scheme_hits) == 2
    # The differential harness is the sanctioned bridge: under its module
    # scope the simulator imports are fine (it must drive production
    # code) and so are the oracle-internal ones.
    assert "SL010" not in rules_fired(
        lint_source(src, module="repro.oracle.differential")
    )
    # The CLI may report oracle results.
    assert "SL010" not in rules_fired(lint_source(src, module="repro.cli"))


def test_sl014_exempts_cli_and_the_supervisor_module():
    src = (FIXTURES / "sl014_bad.py").read_text()
    assert "SL014" in rules_fired(lint_source(src, module="repro.parallel.engine"))
    assert "SL014" not in rules_fired(lint_source(src, module="repro.cli"))
    assert "SL014" not in rules_fired(
        lint_source(src, module="repro.parallel.supervisor")
    )
    assert "SL014" not in rules_fired(lint_source(src, module="tests.helpers"))
    assert "SL014" not in rules_fired(lint_source(src, module="benchmarks.bench_x"))


def test_sl015_scoped_to_the_service_package():
    src = (FIXTURES / "sl015_bad.py").read_text()
    assert "SL015" in rules_fired(lint_source(src, module="repro.service.server"))
    # Blocking calls in sync code elsewhere are other rules' business.
    assert "SL015" not in rules_fired(lint_source(src, module="repro.parallel.engine"))
    assert "SL015" not in rules_fired(lint_source(src, module="repro.cli"))
    assert "SL015" not in rules_fired(lint_source(src, module="tests.helpers"))


def test_sl015_ignores_nested_defs_and_sync_functions():
    src = (
        "import time\n"
        "def sync_helper():\n"
        "    time.sleep(1)\n"  # sync function: out of scope
        "async def dispatch():\n"
        "    def backoff():\n"
        "        time.sleep(1)\n"  # nested def: runs off-loop
        "    return backoff\n"
    )
    assert "SL015" not in rules_fired(lint_source(src, module="repro.service.x"))
    src_bad = "import time\nasync def dispatch():\n    time.sleep(1)\n"
    assert "SL015" in rules_fired(lint_source(src_bad, module="repro.service.x"))


def test_sl009_quiet_without_pool_submissions():
    # Module-level mutable state alone is not a finding — only when a
    # pool worker consumes it.
    src = "STATE = {}\n\ndef not_a_worker(x):\n    STATE[x] = x\n    return x\n"
    assert "SL009" not in rules_fired(lint_source(src, module="repro.parallel.x"))


# ----------------------------------------------------------------------
# Suppression comments.
# ----------------------------------------------------------------------
def test_line_suppression_silences_only_that_rule_and_line():
    src = (
        "def f(xs=[]):  # simlint: disable=SL005\n"
        "    return xs\n"
        "def g(ys=[]):\n"
        "    return ys\n"
    )
    findings = lint_source(src, module="tests.x")
    assert [f.line for f in findings if f.rule == "SL005"] == [3]


def test_file_suppression_silences_whole_module():
    src = (
        "# simlint: disable-file=SL005\n"
        "def f(xs=[]):\n"
        "    return xs\n"
    )
    assert lint_source(src, module="tests.x") == []


def test_directive_inside_string_is_inert():
    src = (
        'NOTE = "# simlint: disable-file=SL005"\n'
        "def f(xs=[]):\n"
        "    return xs\n"
    )
    assert "SL005" in rules_fired(lint_source(src, module="tests.x"))


def test_syntax_error_reported_as_sl000():
    findings = lint_source("def broken(:\n", module="tests.x")
    assert rules_fired(findings) == {"SL000"}


# ----------------------------------------------------------------------
# The tree itself must be clean (tier-1 guardrail).
# ----------------------------------------------------------------------
def test_tree_is_simlint_clean():
    paths = [REPO / "src", REPO / "tests", REPO / "benchmarks"]
    findings = lint_paths(paths)
    assert [f.format() for f in findings] == []


def test_examples_and_tools_are_simlint_clean():
    findings = lint_paths([REPO / "examples", REPO / "tools"])
    assert [f.format() for f in findings] == []


def test_default_excludes_skip_the_bad_fixtures():
    findings = lint_paths([FIXTURES])
    assert findings == []
    assert "fixtures/simlint" in DEFAULT_EXCLUDES


# ----------------------------------------------------------------------
# CLI contract: python -m simlint from the repo root, text and JSON.
# ----------------------------------------------------------------------
def run_cli(*args, cwd=REPO):
    return subprocess.run(
        [sys.executable, "-m", "simlint", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_cli_clean_run_exits_zero():
    proc = run_cli("src/repro/util", "src/repro/verify")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == ""


def test_cli_json_reports_findings_and_exits_one(tmp_path):
    bad = tmp_path / "bad_module.py"
    bad.write_text("def f(xs=[]):\n    return xs\n")
    proc = run_cli(str(bad), "--json")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["count"] == 1
    (finding,) = doc["findings"]
    assert finding["rule"] == "SL005"
    assert finding["line"] == 1
    assert finding["path"] == str(bad)


def test_cli_select_restricts_rules(tmp_path):
    bad = tmp_path / "bad_module.py"
    bad.write_text("def f(xs=[]):\n    return xs\n")
    proc = run_cli(str(bad), "--select", "SL004", "--json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["count"] == 0


def test_cli_rejects_unknown_rule_and_missing_path(tmp_path):
    assert run_cli("--select", "SL999", str(tmp_path)).returncode == 2
    assert run_cli(str(tmp_path / "nope")).returncode == 2


def test_cli_list_rules_names_all_sixteen():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    listed = {line.split()[0] for line in proc.stdout.splitlines() if line}
    assert listed == {
        "SL001", "SL002", "SL003", "SL004", "SL005", "SL006", "SL007",
        "SL008", "SL009", "SL010", "SL011", "SL012", "SL013", "SL014",
        "SL015", "SL016",
    }


def test_cli_explain_renders_catalogue_entry():
    proc = run_cli("--explain", "SL011")
    assert proc.returncode == 0
    assert "SL011" in proc.stdout
    assert "mixed physical units" in proc.stdout
    assert "X_PER_Y" in proc.stdout  # the docstring's escape hatch
    assert run_cli("--explain", "SL999").returncode == 2


def test_cli_json_reports_suppressed_counts(tmp_path):
    bad = tmp_path / "bad_module.py"
    bad.write_text(
        "def f(xs=[]):  # simlint: disable=SL005\n"
        "    return xs\n"
        "def g(ys=[]):\n"
        "    return ys\n"
    )
    proc = run_cli(str(bad), "--json")
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["count"] == 1
    assert doc["suppressed"] == {"SL005": 1}
    assert doc["errors"] == 1
    assert doc["warnings"] == 0


def test_cli_warn_severity_does_not_fail_the_run(tmp_path):
    # An orphan module is the one built-in warn-severity finding.
    proj = tmp_path / "proj"
    (proj / "app").mkdir(parents=True)
    (proj / "simlint.toml").write_text(
        '[project]\nroot = "app"\n\n[layers]\norder = [["app"]]\n'
    )
    (proj / "app" / "__init__.py").write_text('"""pkg."""\n')
    (proj / "app" / "lonely.py").write_text('"""orphan."""\nX = 1\n')
    proc = run_cli(str(proj), "--json", "--no-cache")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["warnings"] == 1 and doc["errors"] == 0
    (finding,) = doc["findings"]
    assert finding["rule"] == "SL012" and finding["severity"] == "warn"


# ----------------------------------------------------------------------
# Registry coherence: SL003's premise matches the live registry.
# ----------------------------------------------------------------------
def test_live_scheme_registry_matches_sl003_expectations():
    import repro.schemes  # noqa: F401 — triggers registration imports
    from repro.schemes.base import SCHEME_REGISTRY

    assert {"tetris", "conventional", "dcw", "flip_n_write"} <= set(SCHEME_REGISTRY)
    for name, cls in SCHEME_REGISTRY.items():
        assert isinstance(name, str) and name
        assert callable(getattr(cls, "write"))
        assert callable(getattr(cls, "worst_case_units"))

"""CLI-level tests for ``repro lint``: formats, exit codes, and the
clean-tree snapshot the CI job relies on."""

from __future__ import annotations

import json
from pathlib import Path

from repro.lint.cli import main

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def _bad_tree(tmp_path: Path) -> Path:
    path = tmp_path / "repro" / "analysis" / "jitter.py"
    path.parent.mkdir(parents=True)
    path.write_text("import random\nx = random.random()\n")
    return tmp_path


def test_repo_src_is_clean_json_snapshot(capsys):
    """`repro lint src --format json` on the real tree: zero findings.

    This is the same invocation CI runs; if a rule regresses or a
    violation lands in src/, this snapshot is the local tripwire.
    """
    code = main([str(REPO_SRC), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["version"] == 1
    assert payload["findings"] == []
    assert payload["files_checked"] > 50
    assert payload["suppressed"] >= 3  # the documented exact-float noqas


def test_violation_yields_exit_1_and_json_finding(tmp_path, capsys):
    code = main([str(_bad_tree(tmp_path)), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    [finding] = payload["findings"]
    assert finding["code"] == "REP101"
    assert finding["line"] == 2
    assert finding["severity"] == "error"
    assert finding["path"].endswith("jitter.py")


def test_human_format_mentions_code_and_location(tmp_path, capsys):
    code = main([str(_bad_tree(tmp_path))])
    out = capsys.readouterr().out
    assert code == 1
    assert "REP101" in out
    assert "jitter.py:2" in out


def test_github_format_emits_workflow_commands(tmp_path, capsys):
    code = main([str(_bad_tree(tmp_path)), "--format", "github"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("::error ")
    assert "file=" in out and "line=2" in out and "title=REP101" in out


def test_select_ignore_and_unknown_code(tmp_path, capsys):
    tree = _bad_tree(tmp_path)
    assert main([str(tree), "--select", "REP501"]) == 0
    capsys.readouterr()
    assert main([str(tree), "--ignore", "REP101,REP501"]) == 0
    capsys.readouterr()
    code = main([str(tree), "--select", "NOPE1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown rule code" in err


def test_missing_path_is_a_usage_error(tmp_path, capsys):
    code = main([str(tmp_path / "nowhere")])
    assert code == 2
    assert "repro lint:" in capsys.readouterr().err


def test_list_rules_prints_catalogue(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for expected in ("REP101", "REP202", "REP301", "REP501"):
        assert expected in out


def test_top_level_cli_routes_lint(capsys):
    from repro.cli import main as repro_main

    code = repro_main(["lint", str(REPO_SRC / "repro" / "lint")])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 findings" in out


def test_repo_src_is_clean_under_full_profile(capsys):
    """The acceptance gate: `repro lint --profile full` exits 0 on src."""
    code = main([str(REPO_SRC), "--profile", "full"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 findings" in out


def test_profile_fast_skips_dataflow_rules(tmp_path, capsys):
    # A REP701 violation is invisible to the fast profile.
    path = tmp_path / "repro" / "backends" / "worker.py"
    path.parent.mkdir(parents=True)
    path.write_text(
        "import numpy as np\n"
        "from multiprocessing import shared_memory\n\n"
        "def worker(name, steps, rows, lo, hi):\n"
        "    shm = shared_memory.SharedMemory(name=name)\n"
        "    full = np.ndarray((steps, rows), dtype=np.float64,\n"
        "                      buffer=shm.buf)\n"
        "    full[:, lo - 1:hi] = 1.0\n"
        "    shm.close()\n"
    )
    assert main([str(tmp_path), "--profile", "fast"]) == 0
    capsys.readouterr()
    assert main([str(tmp_path), "--profile", "full"]) == 1
    assert "REP701" in capsys.readouterr().out


def test_stats_prints_per_rule_table_to_stderr(tmp_path, capsys):
    code = main([str(_bad_tree(tmp_path)), "--stats", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    json.loads(captured.out)  # stdout stays machine-parseable
    assert "REP101" in captured.err
    assert "total" in captured.err


def test_write_baseline_then_baseline_gates_only_new_findings(tmp_path, capsys):
    tree = _bad_tree(tmp_path)
    baseline = tmp_path / "lint-baseline.json"
    assert main([str(tree), "--write-baseline", str(baseline)]) == 0
    err = capsys.readouterr().err
    assert "recorded 1 baseline entry" in err

    # Recorded finding: gated out, exit 0.
    assert main([str(tree), "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out

    # A new violation still fails.
    extra = tmp_path / "repro" / "experiments" / "driver.py"
    extra.parent.mkdir(parents=True)
    extra.write_text("def run(grid=[]):\n    return grid\n")
    assert main([str(tree), "--baseline", str(baseline)]) == 1
    assert "REP402" in capsys.readouterr().out


def test_stale_baseline_entries_warn_on_stderr(tmp_path, capsys):
    tree = _bad_tree(tmp_path)
    baseline = tmp_path / "lint-baseline.json"
    assert main([str(tree), "--write-baseline", str(baseline)]) == 0
    capsys.readouterr()
    (tree / "repro" / "analysis" / "jitter.py").write_text(
        "import numpy as np\nrng = np.random.default_rng(3)\n"
    )
    assert main([str(tree), "--baseline", str(baseline)]) == 0
    assert "stale baseline entry" in capsys.readouterr().err


def test_missing_baseline_is_a_usage_error(tmp_path, capsys):
    code = main([str(_bad_tree(tmp_path)), "--baseline",
                 str(tmp_path / "nope.json")])
    assert code == 2
    assert "repro lint:" in capsys.readouterr().err


def test_baseline_flags_are_mutually_exclusive(tmp_path, capsys):
    code = main([str(tmp_path), "--baseline", "a", "--write-baseline", "b"])
    assert code == 2
    assert "mutually exclusive" in capsys.readouterr().err

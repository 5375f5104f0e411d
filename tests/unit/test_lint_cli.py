"""CLI-level tests for ``repro lint``: formats, exit codes, and the
clean-tree snapshot the CI job relies on."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.lint.cli import add_lint_arguments, main

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
    assert payload["version"] == 2
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
    for expected in ("REP101", "REP202", "REP404", "REP501"):
        assert expected in out


def test_top_level_cli_routes_lint(capsys):
    from repro.cli import main as repro_main

    code = repro_main(["lint", str(REPO_SRC / "repro" / "lint")])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 findings" in out


def test_stats_prints_per_rule_table_to_stderr(tmp_path, capsys):
    code = main([str(_bad_tree(tmp_path)), "--stats", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    json.loads(captured.out)  # stdout stays machine-parseable
    assert "REP101" in captured.err
    assert "total" in captured.err


def test_options_are_exactly_the_documented_set():
    parser = argparse.ArgumentParser()
    add_lint_arguments(parser)
    options = {opt for action in parser._actions for opt in action.option_strings}
    assert options == {
        "-h", "--help", "--select", "--ignore", "--format", "--stats",
        "--list-rules",
    }

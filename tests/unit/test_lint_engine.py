"""Engine edge cases: crash isolation, noqa spans, per-rule stats."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import REGISTRY, run_lint
from repro.lint.engine import _noqa_map
from repro.lint.findings import Severity
from repro.lint.rules import Rule

#: Every registered rule.
_CODES = {
    "REP101", "REP102", "REP103", "REP201", "REP202", "REP401", "REP402",
    "REP404", "REP501",
}


def _write(root: Path, rel: str, source: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return root


# ----------------------------------------------------------------------
# Degenerate files
# ----------------------------------------------------------------------
def test_empty_file_is_clean(tmp_path):
    root = _write(tmp_path, "repro/empty.py", "")
    result = run_lint([root])
    assert result.ok
    assert result.files_checked == 1


def test_comments_only_file_is_clean(tmp_path):
    root = _write(
        tmp_path, "repro/notes.py", "# just a comment\n# and another\n"
    )
    assert run_lint([root]).ok


def test_invalid_file_yields_rep000_and_others_still_lint(tmp_path):
    root = _write(tmp_path, "repro/broken.py", "def oops(:\n")
    _write(tmp_path, "repro/analysis/dicey.py",
           "import random\nx = random.random()\n")
    result = run_lint([root])
    codes = [f.code for f in result.all_findings()]
    assert "REP000" in codes
    assert "REP101" in codes
    assert result.files_checked == 2


# ----------------------------------------------------------------------
# Rule crash isolation (REP999)
# ----------------------------------------------------------------------
def _install_crashing_rule(code: str, project: bool) -> None:
    def crash(*args):
        raise RuntimeError("kaboom")
        yield  # pragma: no cover - makes the checker a generator

    REGISTRY[code] = Rule(
        code=code,
        name="crash-fixture",
        severity=Severity.ERROR,
        description="test fixture",
        checker=crash,
        project=project,
    )


@pytest.mark.parametrize("project", [False, True], ids=["file", "project"])
def test_crashing_rule_becomes_rep999_not_abort(tmp_path, project):
    code = "REP998"
    _install_crashing_rule(code, project)
    try:
        root = _write(tmp_path, "repro/analysis/dicey.py",
                      "import random\nx = random.random()\n")
        result = run_lint([root])
    finally:
        del REGISTRY[code]
    codes = [f.code for f in result.findings]
    # The crash surfaces as REP999 and the healthy rules still report.
    assert "REP999" in codes
    assert "REP101" in codes
    crash_findings = [f for f in result.findings if f.code == "REP999"]
    assert "REP998" in crash_findings[0].message
    assert "kaboom" in crash_findings[0].message


def test_rep999_is_not_a_selectable_rule(tmp_path):
    root = _write(tmp_path, "repro/fine.py", "x = 1\n")
    with pytest.raises(ValueError, match="unknown rule code"):
        run_lint([root], select=["REP999"])


def test_rep999_is_not_noqa_suppressible(tmp_path):
    code = "REP997"
    _install_crashing_rule(code, project=False)
    try:
        root = _write(tmp_path, "repro/fine.py", "x = 1  # repro: noqa\n")
        result = run_lint([root])
    finally:
        del REGISTRY[code]
    assert [f.code for f in result.findings] == ["REP999"]


# ----------------------------------------------------------------------
# noqa decorator spans
# ----------------------------------------------------------------------
def test_noqa_on_def_line_covers_decorator_lines():
    source = (
        "@decorate\n"
        "@again\n"
        "def f():  # repro: noqa[REP101]\n"
        "    return 1\n"
    )
    import ast

    spans = _noqa_map(source, ast.parse(source))
    assert spans[1] == frozenset({"REP101"})
    assert spans[2] == frozenset({"REP101"})
    assert spans[3] == frozenset({"REP101"})


def test_noqa_spans_merge_and_all_rules_dominates():
    source = (
        "@decorate  # repro: noqa[REP102]\n"
        "def f():  # repro: noqa\n"
        "    return 1\n"
    )
    import ast

    spans = _noqa_map(source, ast.parse(source))
    assert spans[1] is None and spans[2] is None


def test_noqa_without_tree_stays_per_line():
    source = "@decorate\ndef f():  # repro: noqa\n    return 1\n"
    spans = _noqa_map(source)
    assert 1 not in spans
    assert spans[2] is None


def test_decorated_function_finding_suppressed_from_def_line(tmp_path):
    # REP402 anchors at the function definition; a bad fixture whose def
    # carries the noqa must stay suppressed even with decorators above.
    root = _write(
        tmp_path, "repro/experiments/driver.py",
        "import functools\n\n"
        "@functools.lru_cache\n"
        "def run(grid=[]):  # repro: noqa[REP402]\n"
        "    return grid\n",
    )
    result = run_lint([root])
    assert result.findings == []
    assert result.suppressed == 1


def _dirty_tree(tmp_path: Path) -> Path:
    return _write(tmp_path, "repro/analysis/dicey.py",
                  "import random\nx = random.random()\n")


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------
def test_rule_stats_cover_every_active_rule(tmp_path):
    root = _dirty_tree(tmp_path)
    result = run_lint([root])
    assert set(result.rule_stats) == _CODES
    assert result.rule_stats["REP101"].findings == 1
    assert all(s.seconds >= 0.0 for s in result.rule_stats.values())


def test_rule_timings_mirror_into_the_perf_registry(tmp_path):
    from repro.perf.timing import REGISTRY as TIMING

    TIMING.reset()
    try:
        run_lint([_dirty_tree(tmp_path)])
        assert TIMING.total("lint.REP101") > 0.0
    finally:
        TIMING.reset()

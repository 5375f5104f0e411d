"""Render lint results as human text, JSON, or GitHub annotations."""

from __future__ import annotations

import json

from repro.lint.engine import LintResult
from repro.lint.findings import Finding, Severity
from repro.lint.rules import REGISTRY

FORMATS = ("human", "json", "github")


def render(result: LintResult, fmt: str = "human") -> str:
    if fmt == "human":
        return render_human(result)
    if fmt == "json":
        return render_json(result)
    if fmt == "github":
        return render_github(result)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def render_human(result: LintResult) -> str:
    lines = [finding.render() for finding in result.all_findings()]
    count = len(lines)
    noun = "finding" if count == 1 else "findings"
    lines.append(
        f"{count} {noun} in {result.files_checked} file(s)"
        + (f" ({result.suppressed} suppressed)" if result.suppressed else "")
    )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    payload = {
        "version": 2,
        "files_checked": result.files_checked,
        "suppressed": result.suppressed,
        "findings": [finding.as_dict() for finding in result.all_findings()],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _github_line(finding: Finding) -> str:
    level = "error" if finding.severity is Severity.ERROR else "warning"
    # The message field of a workflow command must stay on one line.
    message = finding.message.replace("%", "%25").replace("\n", "%0A")
    return (
        f"::{level} file={finding.path},line={finding.line},"
        f"col={finding.col},title={finding.code}::{message}"
    )


def render_github(result: LintResult) -> str:
    """GitHub Actions workflow commands — findings annotate the PR diff."""
    lines = [_github_line(finding) for finding in result.all_findings()]
    lines.append(
        f"{len(result.all_findings())} finding(s) in "
        f"{result.files_checked} file(s)"
    )
    return "\n".join(lines)


def render_stats(result: LintResult) -> str:
    """Per-rule timing and finding counts (``repro lint --stats``).

    Sorted by cost, most expensive rule first, so the costliest rule is
    at the top of CI logs.
    """
    rows = [("rule", "findings", "time")]
    ordered = sorted(
        result.rule_stats.values(), key=lambda s: (-s.seconds, s.code)
    )
    total = 0.0
    for stat in ordered:
        rows.append((stat.code, str(stat.findings), f"{stat.seconds * 1e3:.1f}ms"))
        total += stat.seconds
    rows.append(("total", str(sum(s.findings for s in ordered)),
                 f"{total * 1e3:.1f}ms"))
    widths = [max(len(row[i]) for row in rows) for i in range(3)]
    lines = [
        "  ".join(
            cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
            for i, cell in enumerate(row)
        )
        for row in rows
    ]
    return "\n".join(lines)


def render_rule_catalogue() -> str:
    """The registered rules, one per line (``repro lint --list-rules``)."""
    lines = []
    for code in sorted(REGISTRY):
        rule = REGISTRY[code]
        scope = ", ".join(rule.scope) if rule.scope else "all files"
        lines.append(f"{code} {rule.name} [{rule.severity.value}] ({scope})")
        lines.append(f"    {rule.description}")
    return "\n".join(lines)

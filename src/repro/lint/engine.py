"""The lint engine: file discovery, AST parsing, rule dispatch, noqa.

The engine is deliberately dependency-free (stdlib ``ast`` only) so it
can run anywhere the simulators run. It makes two passes:

1. every *file rule* runs on each parsed file independently;
2. every *project rule* runs once over the whole parsed file set, for
   cross-file contracts (cache-key exclusion staleness).

Suppressions are trailing comments of the form ``# repro: noqa`` (all
rules) or ``# repro: noqa[REP101,REP501]`` (listed rules), attached to
the physical line a finding points at. For decorated functions and
classes the whole decorator-to-``def`` line span counts as one
statement: a ``noqa`` anywhere in the span suppresses findings anchored
to any line of the span.

A rule that crashes does not abort the run: the exception is converted
into a synthetic ``REP999`` internal-error finding (always an error,
never suppressible) so CI fails loudly while every other rule still
reports.
"""

from __future__ import annotations

import ast
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.findings import Finding, Severity
from repro.lint.rules import REGISTRY, FileContext, Rule

#: ``# repro: noqa`` with an optional bracketed, comma-separated code list.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Z0-9,\s]+)\])?", re.IGNORECASE
)


def _merge_suppressions(
    existing: frozenset[str] | None | object, new: frozenset[str] | None
) -> frozenset[str] | None:
    """Combine two suppression entries; ``None`` (all rules) dominates."""
    if existing is ...:
        return new
    if existing is None or new is None:
        return None
    assert isinstance(existing, frozenset)
    return existing | new


def _noqa_map(
    source: str, tree: ast.Module | None = None
) -> dict[int, frozenset[str] | None]:
    """Per-line suppressions: line -> codes, or ``None`` for "all rules".

    When ``tree`` is given, suppressions on any line of a decorated
    function/class header span (first decorator line through the ``def``/
    ``class`` line) are normalized to cover the entire span, so a
    ``noqa`` on the ``def`` line also suppresses findings that rules
    anchor to a decorator's line.
    """
    suppressions: dict[int, frozenset[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            suppressions[lineno] = None
        else:
            suppressions[lineno] = frozenset(
                code.strip().upper() for code in codes.split(",") if code.strip()
            )
    if tree is None:
        return suppressions
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if not node.decorator_list:
            continue
        start = min(deco.lineno for deco in node.decorator_list)
        span = range(start, node.lineno + 1)
        merged: frozenset[str] | None | object = ...
        hit = False
        for lineno in span:
            if lineno in suppressions:
                hit = True
                merged = _merge_suppressions(merged, suppressions[lineno])
        if hit:
            assert merged is not ...
            for lineno in span:
                suppressions[lineno] = merged  # type: ignore[assignment]
    return suppressions


@dataclass
class RuleStat:
    """Per-rule cost and yield accounting for one lint run."""

    code: str
    findings: int = 0
    seconds: float = 0.0

    def as_dict(self) -> dict[str, object]:
        return {
            "code": self.code,
            "findings": self.findings,
            "seconds": round(self.seconds, 6),
        }


@dataclass
class LintResult:
    """Outcome of one :func:`run_lint` invocation."""

    findings: list[Finding]
    files_checked: int
    suppressed: int = 0
    parse_errors: list[Finding] = field(default_factory=list)
    #: Per-rule timing and finding counts, keyed by rule code.
    rule_stats: dict[str, RuleStat] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.parse_errors

    def all_findings(self) -> list[Finding]:
        """Findings plus parse errors, in deterministic order."""
        return sorted(self.findings + self.parse_errors, key=Finding.sort_key)


def discover_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    seen: dict[Path, None] = {}
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                seen.setdefault(candidate, None)
        elif path.suffix == ".py":
            seen.setdefault(path, None)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(seen)


def module_path(path: Path) -> str:
    """The path relative to the package root, e.g. ``repro/packetsim/engine.py``.

    Rule scopes are expressed against this form so they keep matching
    whether the tree is linted as ``src``, ``src/repro`` or a single file.
    Files outside a ``repro`` package root keep their path as given.
    """
    parts = path.parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index:])
    return path.as_posix()


def select_rules(
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> list[Rule]:
    """The active rule list after ``--select``/``--ignore``."""
    chosen = list(REGISTRY.values())
    if select is not None:
        wanted = {code.upper() for code in select}
        unknown = wanted - set(REGISTRY)
        if unknown:
            raise ValueError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
        chosen = [rule for rule in chosen if rule.code in wanted]
    if ignore is not None:
        dropped = {code.upper() for code in ignore}
        unknown = dropped - set(REGISTRY)
        if unknown:
            raise ValueError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
        chosen = [rule for rule in chosen if rule.code not in dropped]
    return chosen


def _internal_error(rule_: Rule, path: str, exc: Exception) -> Finding:
    """The synthetic REP999 finding for a rule that raised."""
    return Finding(
        code="REP999",
        message=(
            f"rule {rule_.code} ({rule_.name}) crashed: "
            f"{exc.__class__.__name__}: {exc}"
        ),
        path=path,
        line=1,
        col=1,
        severity=Severity.ERROR,
    )


def run_lint(
    paths: Sequence[str | Path],
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> LintResult:
    """Lint ``paths`` with the (filtered) rule registry.

    Returns every unsuppressed finding in deterministic order. Files that
    fail to parse yield a synthetic ``REP000`` parse-error finding, and a
    rule that raises yields a synthetic ``REP999`` internal-error
    finding, rather than aborting the run. Per-rule wall time is
    accumulated into :data:`repro.perf.timing.REGISTRY` under
    ``lint.<code>`` and returned in :attr:`LintResult.rule_stats`.
    """
    from repro.perf.timing import REGISTRY as TIMING

    rules = select_rules(select, ignore)
    file_rules = [rule for rule in rules if not rule.project]
    project_rules = [rule for rule in rules if rule.project]
    stats: dict[str, RuleStat] = {
        rule.code: RuleStat(code=rule.code) for rule in rules
    }

    contexts: list[FileContext] = []
    parse_errors: list[Finding] = []
    for path in discover_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (SyntaxError, UnicodeDecodeError) as exc:
            lineno = getattr(exc, "lineno", 1) or 1
            offset = getattr(exc, "offset", 1) or 1
            parse_errors.append(
                Finding(
                    code="REP000",
                    message=f"could not parse file: {exc.__class__.__name__}: {exc}",
                    path=str(path),
                    line=int(lineno),
                    col=int(offset),
                    severity=Severity.ERROR,
                )
            )
            continue
        contexts.append(
            FileContext(
                path=str(path),
                module=module_path(path),
                tree=tree,
                source=source,
                noqa=_noqa_map(source, tree),
            )
        )

    raw: list[Finding] = []
    internal: list[Finding] = []
    for ctx in contexts:
        for rule in file_rules:
            if not rule.applies_to(ctx.module):
                continue
            start = time.perf_counter()
            try:
                produced = list(rule.check(ctx))
            except Exception as exc:  # crash isolation: REP999, keep going
                internal.append(_internal_error(rule, ctx.path, exc))
                produced = []
            stat = stats[rule.code]
            stat.seconds += time.perf_counter() - start
            stat.findings += len(produced)
            raw.extend(produced)
    by_module = {ctx.module: ctx for ctx in contexts}
    project_anchor = contexts[0].path if contexts else "<project>"
    for rule in project_rules:
        start = time.perf_counter()
        try:
            produced = list(rule.check_project(by_module))
        except Exception as exc:
            internal.append(_internal_error(rule, project_anchor, exc))
            produced = []
        stat = stats[rule.code]
        stat.seconds += time.perf_counter() - start
        stat.findings += len(produced)
        raw.extend(produced)

    for code, stat in stats.items():
        if stat.seconds > 0.0:
            TIMING.add(f"lint.{code}", stat.seconds)

    findings: list[Finding] = []
    suppressed = 0
    noqa_by_path = {ctx.path: ctx.noqa for ctx in contexts}
    for finding in raw:
        codes = noqa_by_path.get(finding.path, {}).get(finding.line, ...)
        if codes is None or (codes is not ... and finding.code in codes):
            suppressed += 1
            continue
        findings.append(finding)
    findings.extend(internal)  # never suppressible: they are engine bugs
    findings.sort(key=Finding.sort_key)
    return LintResult(
        findings=findings,
        files_checked=len(contexts) + len(parse_errors),
        suppressed=suppressed,
        parse_errors=parse_errors,
        rule_stats=stats,
    )

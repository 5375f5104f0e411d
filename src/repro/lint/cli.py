"""The ``repro lint`` subcommand.

Usage::

    repro lint [paths ...] [--select REP101,REP501] [--ignore REP402]
               [--format human|json|github] [--stats] [--list-rules]

Exit status: 0 when clean, 1 when any finding (or parse error) survives
suppression, 2 on usage errors (unknown rule codes, missing paths).
``--stats`` prints per-rule wall time and finding counts to stderr,
keeping stdout parseable.
"""

from __future__ import annotations

import argparse
import sys

from repro.lint.engine import run_lint
from repro.lint.reports import (
    FORMATS,
    render,
    render_rule_catalogue,
    render_stats,
)


def _split_codes(values: list[str] | None) -> list[str] | None:
    """Flatten repeated/comma-separated ``--select``/``--ignore`` values."""
    if not values:
        return None
    codes: list[str] = []
    for value in values:
        codes.extend(code.strip() for code in value.split(",") if code.strip())
    return codes


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to a parser (shared with ``repro``'s CLI)."""
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--select", action="append", default=None,
                        metavar="CODES",
                        help="comma-separated rule codes to run exclusively")
    parser.add_argument("--ignore", action="append", default=None,
                        metavar="CODES",
                        help="comma-separated rule codes to skip")
    parser.add_argument("--format", choices=FORMATS, default="human",
                        help="output format (default: human)")
    parser.add_argument("--stats", action="store_true",
                        help="print per-rule timing and finding counts "
                             "to stderr")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")


def run(args: argparse.Namespace) -> int:
    """Execute ``repro lint`` for parsed arguments; returns the exit code."""
    if args.list_rules:
        print(render_rule_catalogue())
        return 0
    try:
        result = run_lint(
            args.paths,
            select=_split_codes(args.select),
            ignore=_split_codes(args.ignore),
        )
    except (ValueError, FileNotFoundError) as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    print(render(result, args.format))
    if args.stats:
        print(render_stats(result), file=sys.stderr)
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    """Standalone entry point (``python -m repro.lint.cli``)."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based determinism & contract checks for this repo",
    )
    add_lint_arguments(parser)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())

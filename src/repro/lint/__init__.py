"""``repro lint`` — AST-based determinism & contract checking.

The simulators' reproducibility guarantees (bit-identical traces, the
content-addressed cache, batched==serial lanes) rest on implicit
contracts: no hidden randomness or wall-clock reads in simulator code, no
iteration-order nondeterminism, cache keys that cover every input field,
and hot-path records and kernels that stay allocation- and loop-lean.
This package turns those contracts into machine-checked rules.

Every rule is a cheap pattern rule over the AST. Contracts that the test
suites already hold at run time (bit-identity of a protocol's scalar,
batched and mean-field renderings; protocol and backend registration)
have no rule here: the audit matrix in ``docs/static-analysis.md`` names
the test that catches each.

Public surface:

- :func:`repro.lint.engine.run_lint` — lint a set of paths, return findings.
- :data:`repro.lint.rules.REGISTRY` — the rule registry (code -> Rule).
- :func:`repro.lint.cli.main` — the ``repro lint`` subcommand.

Suppression syntax (checked by the engine, mirrored from the rule docs in
``docs/static-analysis.md``)::

    x = foo()  # repro: noqa[REP501] exact by construction
    y = bar()  # repro: noqa          (suppresses every rule on the line)
"""

from __future__ import annotations

from repro.lint.engine import LintResult, run_lint
from repro.lint.findings import Finding, Severity
from repro.lint.rules import REGISTRY, Rule

__all__ = [
    "Finding",
    "LintResult",
    "REGISTRY",
    "Rule",
    "Severity",
    "run_lint",
]

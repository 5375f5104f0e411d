"""``repro lint`` — AST-based determinism & contract checking.

The simulators' reproducibility guarantees (bit-identical traces, the
content-addressed cache, serial==parallel sweeps) rest on implicit
contracts: no hidden randomness or wall-clock reads in simulator code, no
iteration-order nondeterminism, cache keys that cover every input field,
protocol classes that honor the :class:`~repro.protocols.base.Protocol`
interface, and hot-path records that stay allocation-lean. This package
turns those contracts into machine-checked rules.

On top of the single-node pattern rules sits a dataflow/symbolic layer
(:mod:`repro.lint.dataflow`): the REP6xx family
(:mod:`repro.lint.equivalence`) proves the parallel renderings of each
protocol update rule — scalar, batched, mean-field trigger — encode
identical arithmetic, and the REP7xx family (:mod:`repro.lint.shm`)
proves shared-memory pool workers stay inside their assigned row chunks. These run under ``--profile full``
(the default); ``--profile fast`` keeps only the cheap pattern rules.

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

# Importing these modules registers the dataflow-backed rule families
# (they have no other import-time side effects).
import repro.lint.equivalence  # noqa: F401  (registers REP6xx)
import repro.lint.shm  # noqa: F401  (registers REP7xx)

__all__ = [
    "Finding",
    "LintResult",
    "REGISTRY",
    "Rule",
    "Severity",
    "run_lint",
]

"""Mean-field simulation of the fluid dynamics — O(1) in the flow count.

McDonald-Reynier's mean-field theorem (see PAPERS.md) says that as the
number of TCP flows sharing a buffer grows, the per-flow window processes
decouple and the *distribution* of window sizes evolves deterministically.
This package simulates that limit directly: instead of one state per flow,
it evolves a probability mass vector over a fixed window grid
(:mod:`repro.meanfield.grid`), advected by the protocols' growth rules and
hit by multiplicative-decrease jump terms driven by the link's loss/mark
probability (:mod:`repro.meanfield.kernel`,
:mod:`repro.meanfield.dynamics`). Per-step cost depends on the grid size
only, so ten flows and ten million flows cost the same — the ROADMAP's
"millions of users" scale.

Use it through the unified backend runtime:
``run_spec(spec, backend="meanfield")`` or
``repro run --backend meanfield`` (its row in :mod:`repro.backends.base`).
"""

from repro.meanfield.dynamics import (
    MeanFieldGroup,
    MeanFieldResult,
    MeanFieldScenario,
    MeanFieldSimulator,
)
from repro.meanfield.grid import WindowGrid, default_grid

__all__ = [
    "MeanFieldGroup",
    "MeanFieldResult",
    "MeanFieldScenario",
    "MeanFieldSimulator",
    "WindowGrid",
    "default_grid",
]

"""The mean-field density-evolution engine as a registered backend.

O(1) in the number of flows: combine with
:attr:`~repro.backends.spec.ScenarioSpec.flow_multiplicity` to describe
millions of flows without materializing per-flow state. See
:mod:`repro.meanfield` for the model and ``docs/backends.md`` for what
lowers and what raises :class:`~repro.backends.spec.LoweringError`.
"""

from __future__ import annotations

from repro.backends.base import Backend, register_backend
from repro.backends.spec import ScenarioSpec
from repro.backends.trace import UnifiedTrace, from_meanfield_result


class MeanFieldBackend(Backend):
    """Deterministic window-density evolution (:mod:`repro.meanfield`).

    Aggregate trace rows are density moments, so the eight Section-3
    metric estimators, the unified store and ``run_spec(s)`` work
    unchanged; per-flow columns are population-weighted group aggregates
    (one column per flow class).
    """

    name = "meanfield"

    def run(self, spec: ScenarioSpec) -> UnifiedTrace:
        from repro.meanfield.dynamics import MeanFieldSimulator

        scenario = spec.lower_meanfield()
        result = MeanFieldSimulator(scenario).run()
        return from_meanfield_result(result, backend=self.name)


register_backend(MeanFieldBackend())

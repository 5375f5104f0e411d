"""The Section-2 single-bottleneck fluid model as a registered backend."""

from __future__ import annotations

from repro.backends.base import Backend, register_backend
from repro.backends.spec import ScenarioSpec
from repro.backends.trace import UnifiedTrace, from_fluid_trace


class FluidBackend(Backend):
    """RTT-stepped fluid dynamics (:class:`~repro.model.dynamics.FluidSimulator`).

    Lowering rebuilds the exact :class:`~repro.model.dynamics.SimulationConfig`
    a hand-written driver would pass, so traces are bit-identical to the
    pre-backend call sites.
    """

    name = "fluid"

    def run(self, spec: ScenarioSpec) -> UnifiedTrace:
        from repro.model.dynamics import FluidSimulator

        link, protocols, config, steps = spec.lower_fluid()
        trace = FluidSimulator(link, protocols, config).run(steps)
        return from_fluid_trace(trace, backend=self.name)


register_backend(FluidBackend())

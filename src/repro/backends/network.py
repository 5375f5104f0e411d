"""The multi-link fluid extension as a registered backend."""

from __future__ import annotations

from repro.backends.base import Backend, register_backend
from repro.backends.spec import ScenarioSpec
from repro.backends.trace import UnifiedTrace, from_network_trace


class NetworkBackend(Backend):
    """Multi-link fluid dynamics (:class:`~repro.netmodel.dynamics.NetworkFluidSimulator`).

    With no explicit topology the spec lowers to a single-link topology
    built from ``spec.link``, which reduces exactly to the paper's base
    model.
    """

    name = "network"

    def run(self, spec: ScenarioSpec) -> UnifiedTrace:
        from repro.netmodel.dynamics import NetworkFluidSimulator

        topology, protocols, kwargs, steps = spec.lower_network()
        trace = NetworkFluidSimulator(topology, protocols, **kwargs).run(steps)
        return from_network_trace(trace, spec.link, backend=self.name)


register_backend(NetworkBackend())

"""The event-driven packet engine as a registered backend."""

from __future__ import annotations

from repro.backends.base import Backend, register_backend
from repro.backends.spec import ScenarioSpec
from repro.backends.trace import UnifiedTrace, from_packet_result


class PacketBackend(Backend):
    """ACK-clocked packet simulation (:mod:`repro.packetsim`).

    Lowering builds a field-identical
    :class:`~repro.packetsim.scenario.PacketScenario`, so the event stream
    is unchanged by the indirection; the event-level result is then
    resampled onto a base-RTT grid
    (:func:`~repro.backends.trace.from_packet_result`).
    """

    name = "packet"

    def run(self, spec: ScenarioSpec) -> UnifiedTrace:
        from repro.packetsim.scenario import run_scenario

        result = run_scenario(spec.lower_packet())
        return from_packet_result(result, backend=self.name)


register_backend(PacketBackend())

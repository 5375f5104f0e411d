"""One scenario spec, one trace contract, one cache — across all simulators.

The unified backend runtime: describe an experiment once as a
:class:`~repro.backends.spec.ScenarioSpec`, run it on any of the four
backends (``fluid``, ``network``, ``packet``, ``meanfield``; see
:func:`~repro.backends.base.backend_names`), and get a
:class:`~repro.backends.trace.UnifiedTrace` every Section-3 metric
estimator accepts::

    from repro.backends import ScenarioSpec, run_spec
    from repro.protocols import presets

    spec = ScenarioSpec.from_mbps(20, 42, 100, [presets.aimd()] * 2)
    trace = run_spec(spec, backend="packet")
"""

from repro.backends.base import backend_names, run_on, run_spec
from repro.backends.spec import LoweringError, ScenarioSpec
from repro.backends.trace import (
    UnifiedTrace,
    from_fluid_trace,
    from_meanfield_result,
    from_network_trace,
    from_packet_result,
)
from repro.backends.batch import plan_batches, run_batched
from repro.backends.jobs import run_spec_groups, run_specs

__all__ = [
    "LoweringError",
    "ScenarioSpec",
    "UnifiedTrace",
    "backend_names",
    "from_fluid_trace",
    "from_meanfield_result",
    "from_network_trace",
    "from_packet_result",
    "plan_batches",
    "run_batched",
    "run_on",
    "run_spec",
    "run_spec_groups",
    "run_specs",
]

"""One scenario spec, one trace contract, one cache — across all simulators.

The unified backend runtime: describe an experiment once as a
:class:`~repro.backends.spec.ScenarioSpec`, run it on any registered
backend, and get a :class:`~repro.backends.trace.UnifiedTrace` every
Section-3 metric estimator accepts::

    from repro.backends import ScenarioSpec, run_spec
    from repro.protocols import presets

    spec = ScenarioSpec.from_mbps(20, 42, 100, [presets.aimd()] * 2)
    trace = run_spec(spec, backend="packet")

Backends register at import time; importing this package registers the
four built-ins (``fluid``, ``network``, ``packet``, ``meanfield``).
"""

from repro.backends.base import (
    Backend,
    backend_names,
    get_backend,
    register_backend,
    run_spec,
)
from repro.backends.spec import LoweringError, ScenarioSpec
from repro.backends.trace import (
    UnifiedTrace,
    from_fluid_trace,
    from_meanfield_result,
    from_network_trace,
    from_packet_result,
)

# Importing the implementation modules registers the built-in backends.
from repro.backends import fluid as _fluid  # noqa: E402,F401
from repro.backends import meanfield as _meanfield  # noqa: E402,F401
from repro.backends import network as _network  # noqa: E402,F401
from repro.backends import packet as _packet  # noqa: E402,F401
from repro.backends.batch import plan_batches, run_batched
from repro.backends.jobs import run_specs, spec_job

__all__ = [
    "Backend",
    "LoweringError",
    "ScenarioSpec",
    "UnifiedTrace",
    "backend_names",
    "from_fluid_trace",
    "from_meanfield_result",
    "from_network_trace",
    "from_packet_result",
    "get_backend",
    "plan_batches",
    "register_backend",
    "run_batched",
    "run_spec",
    "run_specs",
    "spec_job",
]

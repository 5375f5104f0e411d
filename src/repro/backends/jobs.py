"""Backend-agnostic spec batches over the unified execution core.

A job is ``(backend name, ScenarioSpec)``; :func:`run_specs` hands the
batch to the process-wide :class:`~repro.exec.executor.Executor`, which
plans it as :class:`~repro.exec.jobs.SpecJob` rows: specs whose unified
key is already in the content-addressed store are served from it,
duplicates within the batch share one computation, and the rest route to
the cheapest engine — returning
:class:`~repro.backends.trace.UnifiedTrace` objects in submission order.

Every backend has a batched engine. Packet specs always take theirs,
the executor's scenario lane: lowered there, they run through
the merged-scheduler replication runner (:mod:`repro.packetsim.batch`)
with the submission's native packet scenarios, scenarios sharing a link
and duration run inside one event loop, and a single spec is a merge
group of one.
With ``batch=True`` the fluid, network and mean-field specs route
through the batch planner (:mod:`repro.backends.batch`): compatible
specs are stacked and advanced through one vectorized kernel pass per
step — bit-identical to the serial path, typically several times faster
on sweep grids — with per-spec serial fallback for anything the kernels
cannot express. Without ``batch`` the executor's per-job lane runs
those specs in a serial loop. Every job runs in the calling process.
"""

from __future__ import annotations

from typing import Sequence

from repro.backends.spec import ScenarioSpec

__all__ = ["run_spec_groups", "run_specs"]


def run_specs(
    specs: Sequence[ScenarioSpec],
    backend: str = "fluid",
    batch: bool = False,
    use_cache: bool = True,
    skip_errors: bool = False,
) -> list:
    """Run every spec on ``backend``, optionally batched.

    Results come back in spec order regardless of completion order,
    identical to a serial loop (the executor's guarantee).

    ``"packet"`` specs always run through the merged-scheduler
    replication runner (:mod:`repro.packetsim.batch`), whatever
    ``batch`` says. ``batch=True`` enables the stacked kernels on the
    ``"fluid"``, ``"network"`` and ``"meanfield"`` backends.
    ``use_cache`` and ``skip_errors`` are honored on every path:
    cached specs skip the engines entirely, and with ``skip_errors`` a
    failing spec yields ``None`` without disturbing the rest of the
    batch.
    """
    from repro.exec import SpecJob, default_executor

    specs = list(specs)
    if not specs:
        return []
    return default_executor().run(
        [SpecJob(spec=spec, backend=backend) for spec in specs],
        batch=batch,
        use_cache=use_cache,
        skip_errors=skip_errors,
    )


def run_spec_groups(
    groups: Sequence[Sequence[ScenarioSpec]],
    backend: str = "fluid",
    **options,
) -> list[list]:
    """Run several spec lists as one :func:`run_specs` submission.

    The traces come back split the same way, one list per group, so a
    driver can plan many independent measurements, submit them together
    and score each from its own traces. ``options`` are those of
    :func:`run_specs`.
    """
    traces = iter(run_specs([spec for group in groups for spec in group], backend, **options))
    return [[next(traces) for _ in group] for group in groups]

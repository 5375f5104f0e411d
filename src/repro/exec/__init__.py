"""The unified execution core: one scheduler behind every run path.

``repro.exec`` owns the decisions the execution layer used to scatter
across ``run_specs``, the batch planners and each experiment driver:
what to compute, what to serve from the content-addressed store, which
duplicates share one computation, which engine runs the rest, and what
to archive. It is the only code that reads or writes the store. Callers build
:mod:`~repro.exec.jobs` jobs and hand them to an
:class:`~repro.exec.executor.Executor`; the serve layer
(:mod:`repro.exec.serve`) exposes the same scheduler over HTTP.
"""

from repro.exec.executor import (
    Executor,
    ExecutorStats,
    JobOutcome,
    default_executor,
    reset_default_executor,
)
from repro.exec.jobs import Job, PacketScenarioJob, SpecJob, WorkloadJob

__all__ = [
    "Executor",
    "ExecutorStats",
    "Job",
    "JobOutcome",
    "PacketScenarioJob",
    "SpecJob",
    "WorkloadJob",
    "default_executor",
    "reset_default_executor",
]

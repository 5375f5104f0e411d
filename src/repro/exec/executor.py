"""The one scheduler behind every execution path.

:class:`Executor` replaces the hand-dispatch that used to live in
``run_specs`` and in each experiment driver: callers submit a list of
:mod:`~repro.exec.jobs` jobs and get results back in submission order,
while the executor decides how little work that actually requires:

1. **Plan** — every job is content-keyed, once, where its kind allows;
   the key travels on to whichever engine runs the job.
2. **Dedup** — two tiers: keyed jobs whose result is already in the
   content-addressed store are served from it (each distinct key is read
   once), and duplicate keys inside one submission collapse to a single
   computation.
3. **Route** — the jobs that remain are grouped per kind and sent to the
   cheapest engine that preserves bit-identity. Packet jobs always take
   a merged packet runner, whose merge group of one is the serial run:
   the scenario lane takes native scenarios and packet-backend specs
   (lowered there), the workload lane finite-flow workloads.
   ``batch=True`` chooses the stacked fluid, network or mean-field
   kernel for specs on those backends; otherwise they take the per-job
   lane, a serial loop in the submitting process.
4. **Fall back** — anything a stacked kernel cannot express runs per-job
   through exactly the code path a hand-written driver would have used,
   and so does every member of a merged packet call that raised: one by
   one, in submission order, so the error names the job that raised.
5. **Archive** — every computed result is written to the store under the
   key from step 1.

A job that raises fails alone: every other job still runs and is
archived. Without ``skip_errors`` the submission then raises the
original exception of the earliest-submitted failing job, whichever lane
ran it.

The executor is the only code that reads or writes the store: engines,
batch lanes and jobs only compute, all in the submitting process.

Results are bit-identical to the pre-executor paths for every routing
decision: the engines themselves already guarantee batched == serial,
and dedup only ever reuses results of *identical* content keys produced
by deterministic backends.

The executor is single-threaded: a submission plans, computes and
archives on the calling thread, and only the store and the lifetime
counters outlive it. The serve layer computes every request on one
worker thread, so its requests run one after another and, with a store
active, a spec an earlier request computed is a store hit.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Sequence

from repro.exec.jobs import PacketScenarioJob, SpecJob, WorkloadJob

__all__ = [
    "ExecutorStats",
    "Executor",
    "JobOutcome",
    "default_executor",
    "reset_default_executor",
]


@dataclass
class JobOutcome:
    """One job's result plus how the executor obtained it.

    ``source`` is one of ``"computed"`` (an engine ran the job),
    ``"cache"`` (served from the content-addressed store) or ``"dedup"``
    (identical to an earlier job in the same submission). ``error``
    carries the failure message when ``ok`` is false; ``value`` is then
    ``None``.
    """

    value: Any = None
    ok: bool = True
    source: str = "computed"
    error: str | None = None


@dataclass
class ExecutorStats:
    """Lifetime counters, summed over every submission."""

    submissions: int = 0
    jobs: int = 0
    computed: int = 0
    cache_hits: int = 0
    deduped: int = 0
    errors: int = 0

    def snapshot(self) -> dict[str, int]:
        return asdict(self)


@dataclass
class _Run:
    """One submission as the engines see it.

    Its jobs, and what the lanes fill in by submission index: every
    job's outcome, and the exception of every job that raised.
    """

    jobs: list
    outcomes: dict[int, JobOutcome] = field(default_factory=dict)
    errors: dict[int, Exception] = field(default_factory=dict)


@dataclass
class _Plan:
    """Where each job of one submission gets its value."""

    compute: list[int] = field(default_factory=list)
    followers: dict[int, int] = field(default_factory=dict)
    cached: dict[int, Any] = field(default_factory=dict)


class Executor:
    """Plans, dedups and routes jobs; see the module docstring."""

    def __init__(self) -> None:
        self.stats = ExecutorStats()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[Any], **options: Any) -> list[Any]:
        """Results in submission order; raises on the first failing job.

        The value-only face of :meth:`submit` (same keyword options): with
        ``skip_errors`` a failing job yields ``None`` without disturbing
        the rest, without it the original exception of the
        earliest-submitted failing job propagates.
        """
        return [outcome.value for outcome in self.submit(jobs, **options)]

    def submit(
        self,
        jobs: Sequence[Any],
        *,
        batch: bool = False,
        use_cache: bool = True,
        skip_errors: bool = False,
    ) -> list[JobOutcome]:
        """Run every job, returning one :class:`JobOutcome` per job.

        Outcomes come back in submission order regardless of which path
        — store, dedup, batched engine, serial loop — produced each value.
        A failing job fails alone; what the others computed is archived.
        Without ``skip_errors`` the original exception of the
        earliest-submitted failing job is then raised.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        from repro.perf.cache import active_cache

        keys = [job.key() for job in jobs]
        cache = active_cache() if use_cache else None
        plan = self._plan(jobs, keys, cache)
        run = _Run(jobs)
        try:
            self._compute(run, plan.compute, batch)
        finally:
            if cache is not None:
                self._archive(run, keys, cache)
        outcomes = run.outcomes
        for index, value in plan.cached.items():
            outcomes[index] = JobOutcome(value=value, source="cache")
        for index, leader in plan.followers.items():
            lead = outcomes[leader]
            outcomes[index] = JobOutcome(
                value=lead.value, ok=lead.ok, source="dedup", error=lead.error
            )
        self.stats.errors += sum(1 for outcome in outcomes.values() if not outcome.ok)
        if run.errors and not skip_errors:
            raise run.errors[min(run.errors)]
        return [outcomes[index] for index in range(len(jobs))]

    def snapshot(self) -> dict[str, int]:
        """A copy of the lifetime counters."""
        return self.stats.snapshot()

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _plan(self, jobs: list, keys: list[str | None], cache) -> _Plan:
        """Partition a submission into store hits, followers and computations.

        Each distinct key is read from the store once, and jobs repeating
        it within the submission share that read. A key that missed is
        computed by its first job; the jobs repeating it follow.
        """
        plan = _Plan()
        reads: dict[str, Any] = {}
        leaders: dict[str, int] = {}
        for index, (job, key) in enumerate(zip(jobs, keys)):
            if key is None:
                plan.compute.append(index)
                continue
            full_key = f"{job.kind}:{key}"
            if full_key not in reads:
                reads[full_key] = None if cache is None else job.probe(cache, key)
            if reads[full_key] is not None:
                plan.cached[index] = reads[full_key]
            elif full_key in leaders:
                plan.followers[index] = leaders[full_key]
            else:
                leaders[full_key] = index
                plan.compute.append(index)
        self.stats.submissions += 1
        self.stats.jobs += len(jobs)
        self.stats.cache_hits += len(plan.cached)
        self.stats.deduped += len(plan.followers)
        self.stats.computed += len(plan.compute)
        return plan

    @staticmethod
    def _archive(run: _Run, keys: list[str | None], cache) -> None:
        """Store every computed value under its key.

        Runs even when an engine raised part-way, so whatever was
        computed is kept.
        """
        for index, outcome in run.outcomes.items():
            key = keys[index]
            if outcome.ok and key is not None:
                run.jobs[index].store(cache, key, outcome.value)

    # ------------------------------------------------------------------
    # Routing and engines
    # ------------------------------------------------------------------
    def _compute(self, run: _Run, indices: list[int], batch: bool) -> None:
        """Run the planned jobs, grouped per batched engine.

        The scenario lane merges packet scenarios and packet-backend
        specs, and the workload lane workloads, whatever ``batch`` says.
        With ``batch``, fluid, network and mean-field specs take their
        stacked kernel behind :func:`repro.backends.batch.run_batched`.
        Every other job takes the per-job lane.
        """
        lanes: dict[str, list[int]] = {}
        leftover: list[int] = []
        for index in indices:
            lane = _batch_lane(run.jobs[index], batch)
            if lane is None:
                leftover.append(index)
            else:
                lanes.setdefault(lane, []).append(index)
        engines = {"scenario": self._run_scenarios, "workload": self._run_workloads}
        for lane, members in sorted(lanes.items()):
            engines.get(lane, self._run_specs)(run, members)
        if leftover:
            _run_per_job(run, leftover)

    def _run_specs(self, run: _Run, members: list[int]) -> None:
        """One spec backend's batch lane.

        On a name without a stacked kernel ``run_batched`` raises, and the
        jobs fail one by one in the per-job lane, as they would unbatched.
        """
        from repro.backends.batch import run_batched

        traces = self._run_merged(
            run, members, run_batched,
            [run.jobs[i].spec for i in members],
            run.jobs[members[0]].backend,
            skip_errors=True,
        )
        self._fill(run, members, traces)

    def _run_scenarios(self, run: _Run, members: list[int]) -> None:
        """The scenario lane: native packet scenarios and packet specs.

        A spec lowers here, and one whose lowering raises fails alone
        with that error, as its serial run would. Every scenario then
        runs in one merged call, and a spec's result is resampled into
        its trace.
        """
        from repro.backends.trace import from_packet_result
        from repro.packetsim import batch

        lowered: list[int] = []
        scenarios = []
        for index in members:
            job = run.jobs[index]
            try:
                scenario = (
                    job.spec.lower_packet() if isinstance(job, SpecJob) else job.scenario
                )
            except Exception as exc:
                _fail(run, index, exc)
                continue
            lowered.append(index)
            scenarios.append(scenario)
        results = self._run_merged(run, lowered, batch.run_scenarios_batched, scenarios)
        for index, result in zip(lowered, results):
            if isinstance(run.jobs[index], SpecJob):
                result = from_packet_result(result, backend="packet")
            run.outcomes[index] = JobOutcome(value=result)

    def _run_workloads(self, run: _Run, members: list[int]) -> None:
        from repro.packetsim import batch

        groups: dict[tuple, list[int]] = {}
        for index in members:
            groups.setdefault(run.jobs[index].merge_key(), []).append(index)
        for group in groups.values():
            first = run.jobs[group[0]]
            results = self._run_merged(
                run, group, batch.run_workloads_batched,
                first.link,
                [(list(run.jobs[i].specs), list(run.jobs[i].background))
                 for i in group],
                first.duration,
                slow_start=first.slow_start,
                initial_window=first.initial_window,
            )
            self._fill(run, group, results)

    @staticmethod
    def _run_merged(run: _Run, members: list[int], engine, *args, **kwargs) -> list:
        """``members``' results from one merged or stacked engine call, in order.

        A call that raises re-runs its members one by one through the
        per-job lane, in submission order, as
        :func:`~repro.backends.batch.run_batched` does for a failed
        kernel row: only the member that raises fails, with its own
        error. That lane fills the members, so the result is then empty.
        """
        try:
            return engine(*args, **kwargs)
        except Exception:
            _run_per_job(run, members)
            return []

    @staticmethod
    def _fill(run: _Run, members: list[int], values: Sequence[Any]) -> None:
        """Map an engine's ordered results back onto submission indices.

        An exception in a slot is the error the engine's serial run of
        that job raised (``run_batched`` with ``skip_errors``); the job
        fails with it, as in the per-job lane.
        """
        for index, value in zip(members, values):
            if isinstance(value, Exception):
                _fail(run, index, value)
            else:
                run.outcomes[index] = JobOutcome(value=value)


# ----------------------------------------------------------------------
# The per-job lane
# ----------------------------------------------------------------------
def _run_per_job(run: _Run, members: list[int]) -> None:
    """The per-job lane: a serial loop over ``members``, in submission order.

    A job that raises gets a failed outcome, and its exception is kept on
    ``run`` for :meth:`Executor.submit`; the loop goes on.
    """
    from repro.perf import timing

    with timing.measure("exec.serial"):
        for index in members:
            try:
                value = run.jobs[index].run()
            except Exception as exc:
                _fail(run, index, exc)
            else:
                run.outcomes[index] = JobOutcome(value=value)


def _fail(run: _Run, index: int, exc: Exception) -> None:
    """Record that job ``index`` raised ``exc``."""
    run.outcomes[index] = JobOutcome(ok=False, error=f"{type(exc).__name__}: {exc}")
    run.errors[index] = exc


def _batch_lane(job: Any, batch: bool) -> str | None:
    """The batched engine ``job`` routes to, if any.

    Packet jobs always merge; ``batch`` chooses the kernel lanes of the
    other spec backends.
    """
    if isinstance(job, PacketScenarioJob) or (
        isinstance(job, SpecJob) and job.backend == "packet"
    ):
        return "scenario"
    if isinstance(job, SpecJob) and batch:
        return f"spec-{job.backend}"
    if isinstance(job, WorkloadJob):
        return "workload"
    return None


# ----------------------------------------------------------------------
# The process-wide default executor
# ----------------------------------------------------------------------
_default: Executor | None = None


def default_executor() -> Executor:
    """The process-wide executor ``run_specs`` and the serve layer share.

    Sharing it shares the lifetime counters, so ``/stats`` and other
    readers of :meth:`Executor.snapshot` see every submission in the
    process. Reuse across submissions is the store's.
    """
    global _default
    if _default is None:
        _default = Executor()
    return _default


def reset_default_executor() -> None:
    """Drop the shared executor (tests use this to isolate counters)."""
    global _default
    _default = None

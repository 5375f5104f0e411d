"""Finite-flow workloads and flow-completion-time (FCT) experiments.

The paper's intro motivates congestion control with "the increasingly
diverse range of application loads ... small vs. large traffic demands".
This module makes that concrete at packet level: flows of finite size
arrive over time (deterministically or by a seeded Poisson process),
transfer their payload with a congestion control protocol — losses are
retransmitted — and report flow completion times.

Typical use::

    specs = poisson_workload(rate_per_s=2.0, mean_size=80, duration=20.0,
                             protocol=presets.reno(), seed=1)
    result = run_workload(Link.from_mbps(20, 42, 100), specs, duration=40.0)
    print(result.mean_fct(), result.percentile_fct(0.99))
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.model.link import Link
from repro.packetsim.host import FlowStats
from repro.protocols.base import Protocol


@dataclass(frozen=True)
class FlowSpec:
    """One finite transfer: when it starts, how much it carries, and how."""

    start_time: float
    size: int
    protocol: Protocol

    def __post_init__(self) -> None:
        if self.start_time < 0:
            raise ValueError(f"start_time must be non-negative, got {self.start_time}")
        if self.size <= 0:
            raise ValueError(f"size must be positive, got {self.size}")


def poisson_workload(
    rate_per_s: float,
    mean_size: int,
    duration: float,
    protocol: Protocol,
    seed: int = 1,
    min_size: int = 2,
) -> list[FlowSpec]:
    """Poisson arrivals with geometric sizes — the classic open-loop load.

    Arrival times are exponential with rate ``rate_per_s``; sizes are
    geometric with the given mean (floored at ``min_size``). Seeded, so
    the workload is a deterministic function of its parameters.
    """
    if not 0 < rate_per_s < math.inf:
        raise ValueError(f"rate_per_s must be finite and positive, got {rate_per_s}")
    if mean_size < min_size:
        raise ValueError(f"mean_size must be at least {min_size}, got {mean_size}")
    if not 0 < duration < math.inf:
        raise ValueError(f"duration must be finite and positive, got {duration}")
    rng = np.random.default_rng(seed)
    specs: list[FlowSpec] = []
    clock = 0.0
    while True:
        clock += float(rng.exponential(1.0 / rate_per_s))
        if clock >= duration:
            break
        size = max(min_size, int(rng.geometric(1.0 / mean_size)))
        specs.append(FlowSpec(start_time=clock, size=size,
                              protocol=protocol.clone()))
    return specs


@dataclass
class WorkloadResult:
    """Per-flow outcomes of a finite-flow run."""

    specs: list[FlowSpec]
    flows: list[FlowStats]
    duration: float

    def completion_times(self) -> list[float]:
        """FCT of every completed flow (seconds)."""
        out = []
        for spec, stats in zip(self.specs, self.flows):
            if stats.completed_at is not None:
                out.append(stats.completed_at - spec.start_time)
        return out

    @property
    def completed(self) -> int:
        return sum(1 for f in self.flows if f.completed_at is not None)

    @property
    def incomplete(self) -> int:
        return len(self.flows) - self.completed

    def mean_fct(self) -> float:
        fcts = self.completion_times()
        return float(np.mean(fcts)) if fcts else math.nan

    def percentile_fct(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        fcts = self.completion_times()
        return float(np.quantile(fcts, q)) if fcts else math.nan

    def fct_by_size(self, boundary: int) -> tuple[float, float]:
        """(mean FCT of flows <= boundary, mean FCT of larger flows)."""
        small, large = [], []
        for spec, stats in zip(self.specs, self.flows):
            if stats.completed_at is None:
                continue
            fct = stats.completed_at - spec.start_time
            (small if spec.size <= boundary else large).append(fct)
        return (
            float(np.mean(small)) if small else math.nan,
            float(np.mean(large)) if large else math.nan,
        )

    def total_retransmissions(self) -> int:
        return sum(f.retransmissions for f in self.flows)


def run_workload(
    link: Link,
    specs: list[FlowSpec],
    duration: float,
    background: list[Protocol] | None = None,
    slow_start: bool = True,
    initial_window: float = 1.0,
) -> WorkloadResult:
    """Run finite flows (plus optional long-lived background flows).

    Background flows occupy the final indices and run for the whole
    duration; their stats are excluded from the returned result (their
    role is to load the link).

    A one-job call of the merged runner,
    :func:`repro.packetsim.batch.run_workloads_batched`, which also
    checks the arguments. Like
    :func:`repro.packetsim.scenario.run_scenario`, this is pure
    simulation: a stored result comes only through a
    :class:`~repro.exec.jobs.WorkloadJob` submitted to the executor.
    """
    from repro.packetsim import batch

    return batch.run_workloads_batched(
        link,
        [(specs, background)],
        duration,
        slow_start=slow_start,
        initial_window=initial_window,
    )[0]

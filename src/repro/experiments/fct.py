"""Experiment: flow-completion times under different background protocols.

Connects the axioms to user-visible performance: a Poisson stream of
short TCP transfers shares the link with one long-lived background flow,
and the background protocol's TCP-friendliness (Metric VII) should
predict how badly the short flows suffer. The measured FCT ordering —
no background < Reno < Cubic < Robust-AIMD < PCC-like — mirrors the
friendliness ordering exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.exec import WorkloadJob, default_executor
from repro.experiments.report import Table
from repro.model.link import Link
from repro.packetsim.workload import poisson_workload
from repro.protocols import presets
from repro.protocols.base import Protocol


def _kernel_cubic() -> Protocol:
    """Kernel-time-scaled Cubic at the study's 42 ms RTT."""
    from repro.experiments.emulab import kernel_cubic_c_per_round
    from repro.protocols.cubic import CUBIC

    return CUBIC(kernel_cubic_c_per_round(42.0), 0.8)


def default_backgrounds() -> dict[str, Callable[[], Protocol] | None]:
    """Background protocols ordered by decreasing TCP-friendliness."""
    return {
        "none": None,
        "reno": presets.reno,
        "cubic": _kernel_cubic,
        "robust-aimd": presets.robust_aimd_paper,
        "pcc-like": presets.pcc_like,
    }


@dataclass(frozen=True)
class FctRow:
    """Outcome for one background protocol."""

    background: str
    completed: int
    offered: int
    mean_fct: float
    median_fct: float
    p99_fct: float
    retransmissions: int


@dataclass
class FctResult:
    """The full study."""

    rows: list[FctRow] = field(default_factory=list)

    def ordering(self) -> list[str]:
        """Background names sorted by mean FCT (least harmful first)."""
        return [r.background for r in sorted(self.rows, key=lambda r: r.mean_fct)]

    def row(self, background: str) -> FctRow:
        for row in self.rows:
            if row.background == background:
                return row
        raise KeyError(f"no row for background {background!r}")

    def to_jsonable(self) -> dict:
        return {
            "rows": [
                {
                    "background": r.background,
                    "completed": r.completed,
                    "offered": r.offered,
                    "mean_fct": r.mean_fct,
                    "median_fct": r.median_fct,
                    "p99_fct": r.p99_fct,
                    "retransmissions": r.retransmissions,
                }
                for r in self.rows
            ]
        }


def run_fct_study(
    link: Link | None = None,
    backgrounds: dict[str, Callable[[], Protocol] | None] | None = None,
    rate_per_s: float = 1.5,
    mean_size: int = 60,
    arrival_window: float = 30.0,
    duration: float = 40.0,
    seed: int = 42,
    replications: int = 1,
    # No effect: packet jobs always merge. perfbench/worker.py passes it; ROADMAP item 8 deletes it.
    batch: bool = False,
) -> FctResult:
    """Run the study for each background protocol over the same workload.

    ``replications > 1`` repeats every background with seeds ``seed``,
    ``seed + 1``, ... and pools the completion times (one row per
    background either way). The (background, replication) grid is one
    executor submission, which runs it inside one merged event loop
    (:func:`repro.packetsim.batch.run_workloads_batched` — every run
    shares the link and duration, so all of them merge); each run is
    bit-identical to its solo run. A replication whose seeded workload
    has no arrival in ``arrival_window`` raises ``ValueError`` before
    anything runs.
    """
    if replications < 1:
        raise ValueError(f"replications must be at least 1, got {replications}")
    link = link or Link.from_mbps(20, 42, 100)
    backgrounds = backgrounds or default_backgrounds()
    pooled: dict[str, list[dict]] = {name: [] for name in backgrounds}
    grid = [(name, rep) for name in backgrounds
            for rep in range(replications)]
    jobs = []
    for name, rep in grid:
        factory = backgrounds[name]
        specs = poisson_workload(
            rate_per_s=rate_per_s, mean_size=mean_size,
            duration=arrival_window, protocol=presets.reno(),
            seed=seed + rep,
        )
        if not specs:
            raise ValueError(
                f"no flow arrives within the {arrival_window:g} s arrival "
                f"window at {rate_per_s:g} flows/s with seed {seed + rep}; "
                "lengthen the window or raise the rate"
            )
        jobs.append(
            WorkloadJob(
                link=link,
                specs=specs,
                duration=duration,
                background=[factory()] if factory is not None else [],
            )
        )
    outcomes = default_executor().run(jobs)
    for (name, _), outcome in zip(grid, outcomes):
        pooled[name].append(
            {
                "offered": len(outcome.specs),
                "completed": outcome.completed,
                "fcts": outcome.completion_times(),
                "retransmissions": outcome.total_retransmissions(),
            }
        )
    return _pool_rows(pooled)


def _pool_rows(pooled: dict[str, list[dict]]) -> FctResult:
    """Collapse per-replication outcomes into one row per background."""
    result = FctResult()
    for name, outcomes in pooled.items():
        fcts = [fct for outcome in outcomes for fct in outcome["fcts"]]
        result.rows.append(
            FctRow(
                background=name,
                completed=sum(o["completed"] for o in outcomes),
                offered=sum(o["offered"] for o in outcomes),
                mean_fct=float(np.mean(fcts)) if fcts else float("nan"),
                median_fct=float(np.quantile(fcts, 0.5)) if fcts else float("nan"),
                p99_fct=float(np.quantile(fcts, 0.99)) if fcts else float("nan"),
                retransmissions=sum(o["retransmissions"] for o in outcomes),
            )
        )
    return result


def render_fct(result: FctResult, markdown: bool = False) -> str:
    table = Table(
        title="Short-flow completion times vs background protocol "
        "(Poisson Reno transfers)",
        headers=["background", "completed", "mean FCT (s)", "median (s)",
                 "p99 (s)", "retransmits"],
    )
    for row in result.rows:
        table.add_row(
            row.background,
            f"{row.completed}/{row.offered}",
            row.mean_fct,
            row.median_fct,
            row.p99_fct,
            row.retransmissions,
        )
    rendered = table.to_markdown() if markdown else table.to_text()
    return f"{rendered}\nleast harmful -> most harmful: {result.ordering()}"

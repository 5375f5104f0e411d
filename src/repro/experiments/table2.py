"""Experiment: regenerate Table 2 (TCP-friendliness of Robust-AIMD vs PCC).

The paper's Table 2 reports, for every combination of sender count
``n in {2, 3, 4}`` and bandwidth ``BW in {20, 30, 60, 100}`` Mbps (RTT
42 ms, buffer 100 MSS), the *improvement factor* of
``Robust-AIMD(1, 0.8, 0.01)`` over PCC in TCP-friendliness — how much
larger a share a legacy TCP (Reno) connection retains against Robust-AIMD
than against PCC. The paper finds Robust-AIMD consistently >1.5x
friendlier, 1.92x on average.

Scenario per cell: ``n`` senders total — one Reno sender plus ``n - 1``
senders of the protocol under test (this is also the shape under which the
paper notes Robust-AIMD's friendliness is monotone in the number of
Robust-AIMD connections). Friendliness is the tail-average window of the
Reno sender over the worst-off protocol sender.

PCC stand-ins (see DESIGN.md): ``PccLike`` (utility-gradient, Allegro
loss utility) by default, with the paper's aggressiveness lower bound
``MIMD(1.01, 0.99)`` available for the ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backends import ScenarioSpec, run_spec, run_specs
from repro.core.metrics.friendliness import friendliness_from_trace
from repro.exec import PacketScenarioJob, default_executor
from repro.experiments.report import Table
from repro.model.link import Link
from repro.protocols import presets
from repro.protocols.base import Protocol

PAPER_SENDERS = (2, 3, 4)
PAPER_BANDWIDTHS_MBPS = (20, 30, 60, 100)
PAPER_RTT_MS = 42.0
PAPER_BUFFER_MSS = 100

#: Average improvement the paper reports for Table 2.
PAPER_MEAN_IMPROVEMENT = 1.92
#: The paper's headline threshold ("consistently attains >1.5x").
PAPER_MIN_IMPROVEMENT = 1.5


def friendliness_spec(
    protocol: Protocol,
    n_senders: int,
    bandwidth_mbps: float,
    steps: int = 4000,
    rtt_ms: float = PAPER_RTT_MS,
    buffer_mss: int = PAPER_BUFFER_MSS,
) -> ScenarioSpec:
    """The scenario of one Table 2 cell for one protocol under test.

    Factored out of :func:`measure_friendliness` so the batched driver
    stacks the identical specs (identical cache keys, identical traces).
    """
    if n_senders < 2:
        raise ValueError(f"need at least 2 senders, got {n_senders}")
    link = Link.from_mbps(bandwidth_mbps, rtt_ms, buffer_mss)
    protocols: list[Protocol] = [protocol] * (n_senders - 1) + [presets.reno()]
    return ScenarioSpec(
        protocols=protocols,
        link=link,
        steps=steps,
        initial_windows=[1.0] * n_senders,
    )


def measure_friendliness(
    protocol: Protocol,
    n_senders: int,
    bandwidth_mbps: float,
    steps: int = 4000,
    tail_fraction: float = 0.5,
    rtt_ms: float = PAPER_RTT_MS,
    buffer_mss: int = PAPER_BUFFER_MSS,
) -> float:
    """TCP-friendliness of ``protocol`` in one Table 2 cell.

    One Reno sender shares the link with ``n_senders - 1`` protocol
    senders; the result is the Reno sender's tail-average window over the
    worst protocol sender's.
    """
    spec = friendliness_spec(
        protocol, n_senders, bandwidth_mbps, steps, rtt_ms, buffer_mss
    )
    return _reno_share(run_spec(spec, "fluid"), tail_fraction)


def _reno_share(trace, tail_fraction: float = 0.5) -> float:
    """A Table 2 cell's score: the last (Reno) sender toward the others."""
    n = trace.n_senders
    return friendliness_from_trace(
        trace,
        p_senders=list(range(n - 1)),
        q_senders=[n - 1],
        tail_fraction=tail_fraction,
    )


@dataclass(frozen=True)
class Table2Cell:
    """One (n, BW) cell of Table 2."""

    n_senders: int
    bandwidth_mbps: float
    friendliness_robust_aimd: float
    friendliness_pcc: float

    @property
    def improvement(self) -> float:
        """Robust-AIMD's friendliness over PCC's (the paper's table entry)."""
        if self.friendliness_pcc <= 0:
            return float("inf")
        return self.friendliness_robust_aimd / self.friendliness_pcc


@dataclass
class Table2Result:
    """The regenerated Table 2."""

    cells: list[Table2Cell] = field(default_factory=list)
    pcc_standin: str = ""

    @property
    def mean_improvement(self) -> float:
        finite = [c.improvement for c in self.cells if np.isfinite(c.improvement)]
        if not finite:
            return float("inf")
        return float(np.mean(finite))

    @property
    def min_improvement(self) -> float:
        return min(c.improvement for c in self.cells)

    @property
    def all_friendlier(self) -> bool:
        """Does Robust-AIMD beat PCC's friendliness in every cell?"""
        return all(c.improvement > 1.0 for c in self.cells)

    def to_jsonable(self) -> dict:
        return {
            "pcc_standin": self.pcc_standin,
            "mean_improvement": self.mean_improvement,
            "min_improvement": self.min_improvement,
            "paper_mean_improvement": PAPER_MEAN_IMPROVEMENT,
            "cells": [
                {
                    "n": c.n_senders,
                    "bw_mbps": c.bandwidth_mbps,
                    "robust_aimd": c.friendliness_robust_aimd,
                    "pcc": c.friendliness_pcc,
                    "improvement": c.improvement,
                }
                for c in self.cells
            ],
        }


def run_table2(
    senders: tuple[int, ...] = PAPER_SENDERS,
    bandwidths_mbps: tuple[float, ...] = PAPER_BANDWIDTHS_MBPS,
    pcc: Protocol | None = None,
    robust_aimd: Protocol | None = None,
    steps: int = 4000,
    batch: bool = False,
) -> Table2Result:
    """Measure every Table 2 cell as one executor submission.

    The specs are the ones :func:`measure_friendliness` runs. With
    ``batch`` they go through the batched fluid kernel: all
    batch-compatible cells advance in one NumPy pass per step, and the
    rest (e.g. the stateful PCC stand-in) fall back serially.
    """
    pcc = pcc or presets.pcc_like()
    robust_aimd = robust_aimd or presets.robust_aimd_paper()
    cells = [(n, bw) for n in senders for bw in bandwidths_mbps]
    traces = run_specs(
        [
            friendliness_spec(protocol, n, bw, steps)
            for n, bw in cells
            for protocol in (robust_aimd, pcc)
        ],
        batch=batch,
    )
    scores = [_reno_share(trace) for trace in traces]
    return _table2_result(pcc.name, cells, scores)


def _table2_result(
    pcc_standin: str, cells: list[tuple[int, float]], scores: list[float]
) -> Table2Result:
    """Cells from their (Robust-AIMD, PCC) score pairs, in cell order."""
    result = Table2Result(pcc_standin=pcc_standin)
    for at, (n, bw) in enumerate(cells):
        result.cells.append(
            Table2Cell(
                n_senders=n,
                bandwidth_mbps=bw,
                friendliness_robust_aimd=scores[2 * at],
                friendliness_pcc=scores[2 * at + 1],
            )
        )
    return result


def friendliness_packet_scenario(
    protocol: Protocol,
    n_senders: int,
    bandwidth_mbps: float,
    duration: float = 30.0,
    rtt_ms: float = PAPER_RTT_MS,
    buffer_mss: int = PAPER_BUFFER_MSS,
):
    """The packet scenario of one Table 2 cell for one protocol under test.

    Flows get a slow-start ramp (as the kernel stacks in the paper's
    testbed do). Friendliness is a goodput ratio of the raw event
    statistics, so this is the native scenario the packet backend lowers
    the cell's spec to.
    """
    if n_senders < 2:
        raise ValueError(f"need at least 2 senders, got {n_senders}")
    flows: list[Protocol] = [protocol] * (n_senders - 1) + [presets.reno()]
    spec = ScenarioSpec.from_mbps(
        bandwidth_mbps, rtt_ms, buffer_mss, flows,
        duration=duration, slow_start=True, seed=1,
    )
    return spec.lower_packet()


def _packet_reno_share(result) -> float:
    """Reno's tail goodput over the best protocol flow's."""
    rates = result.throughputs()
    worst_protocol_rate = max(rates[:-1])
    if worst_protocol_rate <= 0:
        return float("inf")
    return rates[-1] / worst_protocol_rate


def measure_friendliness_packet(
    protocol: Protocol,
    n_senders: int,
    bandwidth_mbps: float,
    duration: float = 30.0,
    rtt_ms: float = PAPER_RTT_MS,
    buffer_mss: int = PAPER_BUFFER_MSS,
) -> float:
    """Packet-level analogue of :func:`measure_friendliness`.

    Friendliness is measured on tail goodput, which is what the Emulab
    experiments report.
    """
    scenario = friendliness_packet_scenario(
        protocol, n_senders, bandwidth_mbps, duration, rtt_ms, buffer_mss
    )
    return _packet_reno_share(default_executor().run([PacketScenarioJob(scenario)])[0])


def run_table2_packet(
    senders: tuple[int, ...] = (2, 3),
    bandwidths_mbps: tuple[float, ...] = (20, 60),
    pcc: Protocol | None = None,
    robust_aimd: Protocol | None = None,
    duration: float = 30.0,
) -> Table2Result:
    """Packet-level Table 2 over a (reduced, configurable) grid.

    Every cell's two native scenarios are one executor submission, with
    results in submission order (identical to the serial nested loops).
    """
    pcc = pcc or presets.pcc_like()
    robust_aimd = robust_aimd or presets.robust_aimd_paper()
    cells = [(n, bw) for n in senders for bw in bandwidths_mbps]
    results = default_executor().run(
        [
            PacketScenarioJob(friendliness_packet_scenario(protocol, n, bw, duration))
            for n, bw in cells
            for protocol in (robust_aimd, pcc)
        ]
    )
    scores = [_packet_reno_share(result) for result in results]
    return _table2_result(f"{pcc.name} [packet-level]", cells, scores)


def render_table2(result: Table2Result, markdown: bool = False) -> str:
    """Paper-style rendering: one improvement entry per (n, BW)."""
    table = Table(
        title=f"Table 2: TCP-friendliness improvement of Robust-AIMD(1,0.8,0.01) "
        f"over {result.pcc_standin}",
        headers=["(n, BW)", "R-AIMD friendliness", "PCC friendliness", "improvement"],
    )
    for cell in result.cells:
        table.add_row(
            f"({cell.n_senders},{cell.bandwidth_mbps:g})",
            cell.friendliness_robust_aimd,
            cell.friendliness_pcc,
            f"{cell.improvement:.2f}x",
        )
    summary = (
        f"mean improvement {result.mean_improvement:.2f}x "
        f"(paper: {PAPER_MEAN_IMPROVEMENT:.2f}x); "
        f"min {result.min_improvement:.2f}x "
        f"(paper threshold: >{PAPER_MIN_IMPROVEMENT}x); "
        f"Robust-AIMD friendlier in all cells: {result.all_friendlier}"
    )
    rendered = table.to_markdown() if markdown else table.to_text()
    return f"{rendered}\n{summary}"

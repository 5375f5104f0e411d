"""Survey: characterize the whole protocol zoo across link regimes.

Beyond the paper's Table 1 (five families on one link), this driver maps
*every* protocol the library ships — including the ones the paper only
gestures at (PCC-like, Vegas-like, HighSpeed, LEDBAT) — across several
link regimes, and reports each as a point in the axiom space plus the
extension metrics. This is the "classify existing and proposed solutions
according to the properties they satisfy" program of the paper's
introduction, executed wholesale.

Every (regime, protocol) pair's scenarios go to the executor as one
submission; each pair's robustness is then located by its own bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.backends import run_spec_groups
from repro.core.metrics import (
    EstimatorConfig,
    MetricVector,
    estimate_robustness,
    metric_specs,
    metrics_from_traces,
)
from repro.core.metrics.extensions import (
    churn_resilience_from_trace,
    churn_resilience_spec,
    responsiveness_from_trace,
    responsiveness_spec,
)
from repro.core.metrics.vector import METRIC_ORDER
from repro.experiments.report import Table
from repro.model.link import Link
from repro.protocols import presets
from repro.protocols.base import Protocol
from repro.protocols.highspeed import HighSpeedTcp
from repro.protocols.ledbat import Ledbat


def default_roster() -> dict[str, Callable[[], Protocol]]:
    """The full zoo: the paper's five families plus the extended cast."""
    return {
        "reno": presets.reno,
        "scalable": presets.scalable_mimd,
        "iiad": presets.iiad,
        "sqrt": presets.sqrt_binomial,
        "cubic": presets.cubic,
        "robust-aimd": presets.robust_aimd_paper,
        "pcc-like": presets.pcc_like,
        "vegas-like": presets.vegas,
        "hstcp": HighSpeedTcp,
        "ledbat": Ledbat,
    }


def default_regimes() -> dict[str, Link]:
    """Representative link regimes (name -> link)."""
    return {
        "wan-20M": Link.from_mbps(20, 42, 100),
        "wan-100M": Link.from_mbps(100, 42, 100),
        "shallow-buffer": Link.from_mbps(20, 42, 10),
        "long-fat": Link.from_mbps(100, 150, 400),
    }


@dataclass
class SurveyEntry:
    """One (protocol, regime) characterization."""

    protocol: str
    regime: str
    vector: MetricVector
    responsiveness: float
    churn_resilience: float


@dataclass
class SurveyResult:
    """All entries plus lookup helpers."""

    entries: list[SurveyEntry] = field(default_factory=list)

    def for_regime(self, regime: str) -> list[SurveyEntry]:
        found = [e for e in self.entries if e.regime == regime]
        if not found:
            raise KeyError(f"no entries for regime {regime!r}")
        return found

    def for_protocol(self, protocol: str) -> list[SurveyEntry]:
        found = [e for e in self.entries if e.protocol == protocol]
        if not found:
            raise KeyError(f"no entries for protocol {protocol!r}")
        return found

    def best_in(self, regime: str, metric: str) -> str:
        """The regime's best protocol on one metric (orientation-aware)."""
        from repro.core.metrics.vector import LOWER_IS_BETTER

        entries = self.for_regime(regime)
        key = lambda e: float(getattr(e.vector, metric))  # noqa: E731
        chosen = min(entries, key=key) if metric in LOWER_IS_BETTER else max(
            entries, key=key
        )
        return chosen.protocol

    def to_jsonable(self) -> dict:
        return {
            "entries": [
                {
                    "protocol": e.protocol,
                    "regime": e.regime,
                    "metrics": e.vector.as_dict(),
                    "responsiveness": e.responsiveness,
                    "churn_resilience": e.churn_resilience,
                }
                for e in self.entries
            ]
        }


def run_survey(
    roster: dict[str, Callable[[], Protocol]] | None = None,
    regimes: dict[str, Link] | None = None,
    config: EstimatorConfig | None = None,
    include_extensions: bool = True,
    include_robustness: bool = True,
) -> SurveyResult:
    """Characterize every (protocol, regime) pair.

    All pairs' scenarios are one executor submission.
    """
    roster = roster or default_roster()
    regimes = regimes or default_regimes()
    config = config or EstimatorConfig(steps=3000, n_senders=2)
    warmup = config.steps // 3
    pairs = [(regime, protocol) for regime in regimes for protocol in roster]
    groups = []
    for regime, protocol in pairs:
        factory, link = roster[protocol], regimes[regime]
        group = metric_specs(factory(), link, config)
        if include_extensions:
            group += [
                responsiveness_spec(factory(), link, warmup_steps=warmup,
                                    measure_steps=config.steps),
                churn_resilience_spec(factory(), link, warmup_steps=warmup,
                                      measure_steps=config.steps),
            ]
        groups.append(group)
    result = SurveyResult()
    for (regime, protocol), traces in zip(
        pairs, run_spec_groups(groups)
    ):
        link = regimes[regime]
        responsiveness = churn = math.nan
        if include_extensions:
            churn = churn_resilience_from_trace(traces.pop(), link, warmup).score
            responsiveness = responsiveness_from_trace(traces.pop(), link, warmup).score
        robustness = (
            estimate_robustness(roster[protocol]()).score
            if include_robustness else math.nan
        )
        result.entries.append(
            SurveyEntry(
                protocol=protocol,
                regime=regime,
                vector=metrics_from_traces(traces, config, robustness),
                responsiveness=responsiveness,
                churn_resilience=churn,
            )
        )
    return result


def render_survey(result: SurveyResult, markdown: bool = False) -> str:
    """One table per regime, protocols as rows."""
    regimes = sorted({e.regime for e in result.entries})
    blocks = []
    headers = (
        ["protocol"]
        + [m.replace("_", "-") for m in METRIC_ORDER]
        + ["responsiveness", "churn"]
    )
    for regime in regimes:
        table = Table(title=f"Protocol survey [{regime}]", headers=headers)
        for entry in result.for_regime(regime):
            scores = entry.vector.as_dict()
            table.add_row(
                entry.protocol,
                *[scores[m] for m in METRIC_ORDER],
                entry.responsiveness,
                entry.churn_resilience,
            )
        blocks.append(table.to_markdown() if markdown else table.to_text())
    return "\n\n".join(blocks)

"""repro — a reproduction of *An Axiomatic Approach to Congestion Control*.

This package implements, from scratch, the full system described in the
HotNets-XVI 2017 paper by Zarchy, Schapira, Mittal and Shenker:

- :mod:`repro.model` — the discrete-time fluid-flow model of window-based
  congestion control protocols sharing a single FIFO (droptail) bottleneck
  link (the paper's Section 2, including the RTT function of Eq. 1 and the
  droptail loss-rate function).
- :mod:`repro.protocols` — the protocol families the paper formalizes
  (AIMD, MIMD, binomial, CUBIC, Robust-AIMD) plus the comparators its
  evaluation needs (a PCC-like utility-gradient protocol and a Vegas-style
  latency-avoiding protocol).
- :mod:`repro.core` — the paper's primary contribution: the eight
  parameterized axioms ("metrics", Section 3) as empirical estimators, the
  closed-form characterization of Table 1, the theorems of Section 4, and
  the Pareto-frontier machinery of Section 5.
- :mod:`repro.packetsim` — a packet-level, event-driven single-bottleneck
  simulator standing in for the paper's Emulab testbed validation.
- :mod:`repro.experiments` — drivers that regenerate every table and figure
  (Table 1, Table 2, Figure 1, Claim 1 and Theorems 1-5 demonstrations, and
  the Section 5.1 hierarchy validation).

Quickstart::

    from repro import FluidSimulator, Link, AIMD

    link = Link.from_mbps(bandwidth_mbps=20, rtt_ms=42, buffer_mss=100)
    sim = FluidSimulator(link, [AIMD(1, 0.5), AIMD(1, 0.5)])
    trace = sim.run(steps=2000)
    print(trace.utilization().mean())
"""

from repro.model.link import Link
from repro.model.dynamics import FluidSimulator, SimulationConfig
from repro.model.trace import SimulationTrace
from repro.protocols import (
    AIMD,
    BIN,
    CUBIC,
    MIMD,
    PccLike,
    Protocol,
    RobustAIMD,
    VegasLike,
    make_protocol,
)

#: The analysis-layer names of ``__all__`` and the modules that hold them.
#: They resolve on first use (:func:`__getattr__`), so importing the
#: package loads no metric, theory or driver module: ``repro serve`` and
#: the engines never use one.
_LAZY = {
    "MetricVector": "repro.core.metrics",
    "estimate_all_metrics": "repro.core.metrics",
    "characterize": "repro.core.characterization",
    "pareto": "repro.core.theory",
    "table1": "repro.core.theory",
    "theorems": "repro.core.theory",
}

__all__ = [
    "AIMD",
    "BIN",
    "CUBIC",
    "FluidSimulator",
    "Link",
    "MIMD",
    "MetricVector",
    "PccLike",
    "Protocol",
    "RobustAIMD",
    "SimulationConfig",
    "SimulationTrace",
    "VegasLike",
    "characterize",
    "estimate_all_metrics",
    "make_protocol",
    "pareto",
    "table1",
    "theorems",
]

__version__ = "1.0.0"


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(_LAZY[name]), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

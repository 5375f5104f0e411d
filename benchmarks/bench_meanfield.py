"""Benchmark: mean-field per-step cost is flat in the number of flows.

The tentpole claim of the mean-field backend: evolving the window
*density* makes per-step cost a function of the grid, not the
population. This module measures the per-step wall cost of the
meanfield backend from N = 10^4 to N = 10^7 flows (via
``flow_multiplicity``; the link scales with N so the per-flow share is
constant) and asserts it stays flat within 2x, while the fluid
engine's row path (one NumPy update over all N windows per step)
grows linearly over a much smaller range. The consolidated summary records the grid size, the per-step
costs and the largest N exercised.
"""

from __future__ import annotations

import time

from _support import record_summary
from repro.backends import ScenarioSpec, run_spec
from repro.protocols.aimd import AIMD

STEPS = 400
MEANFIELD_NS = [10_000, 100_000, 1_000_000, 10_000_000]
FLUID_NS = [2_000, 20_000]


def _spec(n: int, steps: int) -> ScenarioSpec:
    """One AIMD class of N flows on a link scaled to the population."""
    return ScenarioSpec.from_mbps(
        2e-3 * n * 1000,
        42,
        10 * n,
        [AIMD(1, 0.5)],
        steps=steps,
        flow_multiplicity=n,
    )


def _per_step_cost(backend: str, n: int, steps: int) -> float:
    spec = _spec(n, steps)
    t0 = time.perf_counter()
    trace = run_spec(spec, backend, use_cache=False)
    wall = time.perf_counter() - t0
    assert trace.steps == steps
    return wall / steps


def test_meanfield_per_step_cost_is_flat_in_flows(monkeypatch):
    monkeypatch.delenv("REPRO_SIM_CACHE", raising=False)  # time real runs
    _per_step_cost("meanfield", MEANFIELD_NS[0], 50)  # warm imports/JIT

    mf_costs = {n: _per_step_cost("meanfield", n, STEPS) for n in MEANFIELD_NS}
    flat_ratio = max(mf_costs.values()) / min(mf_costs.values())

    fluid_costs = {n: _per_step_cost("fluid", n, 200) for n in FLUID_NS}
    fluid_growth = fluid_costs[FLUID_NS[-1]] / fluid_costs[FLUID_NS[0]]

    grid_cells = _spec(MEANFIELD_NS[0], STEPS).lower_meanfield().resolved_grid().cells
    record_summary(
        "meanfield_scaling",
        grid_cells=grid_cells,
        steps=STEPS,
        per_step_us={
            f"n={n:.0e}": round(cost * 1e6, 2) for n, cost in mf_costs.items()
        },
        fluid_per_step_us={
            f"n={n:.0e}": round(cost * 1e6, 2)
            for n, cost in fluid_costs.items()
        },
        flat_ratio=round(flat_ratio, 3),
        fluid_growth_10x_flows=round(fluid_growth, 3),
        max_n=max(MEANFIELD_NS),
    )
    costs_str = ", ".join(
        f"N={n:.0e}: {cost * 1e6:.1f}us" for n, cost in mf_costs.items()
    )
    print(f"\nmeanfield per-step cost ({grid_cells}-cell grid): {costs_str} "
          f"(flat ratio {flat_ratio:.2f}); fluid grows "
          f"{fluid_growth:.1f}x over 10x flows")

    assert flat_ratio <= 2.0, (
        f"per-step cost varied {flat_ratio:.2f}x across N "
        f"{MEANFIELD_NS[0]:.0e}..{MEANFIELD_NS[-1]:.0e}: {mf_costs}"
    )
    # The per-flow engine pays ~linearly for the same 10x population jump.
    assert fluid_growth >= 3.0, (
        f"expected near-linear fluid growth, got {fluid_growth:.2f}x: "
        f"{fluid_costs}"
    )

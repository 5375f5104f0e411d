"""Analytic oracles: closed forms that check the engines from outside.

The identity suites hold every rendering of the fluid dynamics to the
general loop, so they can only show that the engine agrees with itself.
The checks here come from the model's mathematics instead.

**Synchronized AIMD gap contraction** (Avrachenkov, Ayesta and
Piunovskiy, "Convergence of trajectories and optimal buffer sizing for
AIMD congestion control", arXiv cs/0703063). Under synchronized loss
every AIMD(a, b) flow sees the same feedback each step, so away from the
window clamps the pairwise gap ``x_i - x_j`` is multiplied by exactly
``b`` on a loss step (``b x_i - b x_j``) and left unchanged on a
loss-free step (``(x_i + a) - (x_j + a)``). The check runs at every step
of the trajectory, on the general loop, the serial row path and the
batch kernel alike, until the gaps fall below ``_GAP_FLOOR``, where the
ratio of two tiny differences is rounding noise.
"""

import numpy as np
import pytest

from repro.backends import ScenarioSpec
from repro.backends.batch import plan_batches, run_batched
from repro.model.dynamics import FluidSimulator, SimulationConfig
from repro.model.link import Link
from repro.protocols.aimd import AIMD

_B = 0.7
_STEPS = 3000
_INITIAL = [1.0, 9.0, 30.0, 55.0]
_GAP_FLOOR = 1e-6

#: Spread of the gap ratios, measured over five links (10/20/60/100 Mbps
#: at 42 ms and 20 Mbps at 20 ms; 50-200 MSS buffers) times four sets of
#: initial windows (1/9/30/55, 2/5/40/70, 10/20/35/60, 1/3/7/90), all
#: three paths agreeing exactly: max |ratio - b| on loss steps ranged
#: 3.3e-10 to 6.6e-9, and max |ratio - 1| on loss-free steps 7.8e-16 to
#: 6.6e-9. This configuration reads 7.97e-10 over 45 loss steps and
#: 2.85e-9 over 590 loss-free steps. The tolerance sits a decade above
#: the largest of these; a drifted decrease factor or increase would
#: show as an error of the size of that drift, orders larger.
_TOLERANCE = 1e-7


def _general(link, protocols, config):
    return FluidSimulator(link, protocols, config)._run_general(_STEPS)


def _row(link, protocols, config):
    return FluidSimulator(link, protocols, config)._run_vectorized(_STEPS)


def _kernel(link, protocols, config):
    spec = ScenarioSpec.from_fluid(link, protocols, _STEPS, config)
    assert not plan_batches([spec]).fallback
    return run_batched([spec])[0]


@pytest.mark.parametrize(
    "run", [_general, _row, _kernel], ids=["general", "row", "kernel"]
)
def test_synchronized_aimd_gaps_contract_by_b_per_loss_step(run):
    link = Link.from_mbps(20, 42, 100)
    config = SimulationConfig(initial_windows=_INITIAL)
    trace = run(link, [AIMD(1.0, _B)] * len(_INITIAL), config)
    windows = np.asarray(trace.windows)
    lossy = np.asarray(trace.congestion_loss)[:-1] > 0.0

    pairs = np.triu_indices(windows.shape[1], 1)
    gaps = (windows[:, :, None] - windows[:, None, :])[:, pairs[0], pairs[1]]
    with np.errstate(divide="ignore", invalid="ignore"):  # collapsed gaps
        ratios = gaps[1:] / gaps[:-1]
    # Away from the clamp: every window strictly inside it at t and t + 1.
    inside = (windows > config.min_window) & (windows < config.max_window)
    unclamped = inside[:-1].all(axis=1) & inside[1:].all(axis=1)
    # Until the gaps become rounding noise (and then for good).
    resolved = np.logical_and.accumulate(np.abs(gaps[:-1]).min(axis=1) >= _GAP_FLOOR)
    checked = unclamped & resolved

    loss_steps = ratios[checked & lossy]
    free_steps = ratios[checked & ~lossy]
    assert (len(loss_steps), len(free_steps)) == (45, 590)
    assert np.abs(loss_steps - _B).max() <= _TOLERANCE
    assert np.abs(free_steps - 1.0).max() <= _TOLERANCE

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

**The square-root law** (Ott, Kemperman and Mathis 1996; Mathis et al.
1997). One AIMD(1, 1/2) flow that loses each packet independently with
probability p, on a link it cannot congest, holds a mean window E[W]
with E[W]·sqrt(p) -> 1.31 as p -> 0. The packet engine runs this check.
The fluid engine cannot: its ``LossProcess`` is a per-step loss rate,
not an independent drop per packet.

**The binomial exponents** (Bansal and Balakrishnan 2001; Ott and
Swanson, arXiv math/0608476, study the p -> 0 limit of this class). A
BIN(a, b, k, l) flow grows by a / W^k per round and drops b W^l per loss.
Balancing the two over the 1/p packets between independent losses gives
E[W] ∝ p^(-1/(1+k+l)): slope -1/2 on a log-log plot for AIMD (k = 0,
l = 1), IIAD (k = 1, l = 0) and SQRT (k = l = 1/2), and slope -1 for
MIMD(a, b), which is k = -1, l = 1 in this notation. The check reads the
slope between two loss rates on the packet engine, in the square-root
test's setup; the fluid engine cannot run it, for the same reason.
"""

import math

import numpy as np
import pytest

from repro.backends import ScenarioSpec
from repro.backends.batch import plan_batches, run_batched
from repro.model.dynamics import FluidSimulator, SimulationConfig
from repro.model.link import Link
from repro.packetsim.scenario import PacketScenario, run_scenario
from repro.protocols.aimd import AIMD
from repro.protocols.binomial import iiad
from repro.protocols.mimd import MIMD

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


#: The Ott-Kemperman-Mathis limit of E[W]·sqrt(p) as p -> 0.
_SQRT_LAW = 1.31
_P = 1e-2
_SQRT_LAW_SEEDS = (1, 2, 3, 4)
_SQRT_LAW_SECONDS = 200.0

#: E[W]·sqrt(p) read over seeds 1-20 (one 200 s run each, E[W] the mean
#: per-round window after the first 10% of the run): mean 1.271, sd
#: 0.029, range 1.211-1.337; the five means of four consecutive seeds
#: span 1.251-1.285. The mean sits under the p -> 0 limit by the
#: finite-p gap a per-RTT Markov chain of the same model predicts at
#: p = 1e-2 (1.269, so 0.041). The tolerance is that gap plus three
#: standard deviations of a four-seed mean (3 x 0.029 / 2 = 0.044). On
#: these four seeds AIMD(1, 0.6) reads 1.453, AIMD(1, 0.4) 1.160 and
#: AIMD(0.8, 0.5) 1.154, all at least 0.14 away; AIMD(1.2, 0.5) reads
#: 1.396, just outside.
_SQRT_LAW_TOLERANCE = 0.085


def _mean_window(protocol, p, seconds, seed):
    """E[W]: the mean per-round window after the first 10% of the run."""
    scenario = PacketScenario.from_mbps(
        200, 42, 1000, [protocol],
        duration=seconds, random_loss_rate=p, seed=seed,
    )
    flow = run_scenario(scenario).flows[0]
    # The link carries ~700 MSS per RTT and E[W] stays under ~80 in the
    # checks below: never congested.
    assert flow.packets_lost > 0 and flow.loss_rate < 2 * p
    times, windows = np.array(flow.window_samples).T
    return windows[times >= 0.1 * seconds].mean()


def test_square_root_law_on_the_packet_engine():
    readings = [
        _mean_window(AIMD(1.0, 0.5), _P, _SQRT_LAW_SECONDS, seed) * math.sqrt(_P)
        for seed in _SQRT_LAW_SEEDS
    ]
    assert abs(np.mean(readings) - _SQRT_LAW) <= _SQRT_LAW_TOLERANCE


_BINOMIAL_P = (1e-2, 1e-3)
_BINOMIAL_SECONDS = 200.0

#: Log-log slopes of E[W] between p = 1e-2 and 1e-3, read over seeds 1-20
#: (one 200 s run per seed and loss rate, E[W] as in the square-root
#: test): IIAD mean -0.488, sd 0.016, range -0.525 to -0.466; MIMD(1.01,
#: 0.875) mean -0.989, sd 0.037, range -1.043 to -0.917. Each tolerance
#: is that protocol's finite-p offset from the exponent (0.012 and 0.011)
#: plus three standard deviations of one seed's slope. The two bands are
#: far apart, so an exponent read as the other protocol's fails. The
#: test runs seed 1 only: 0.8 s for IIAD and 1.5 s for MIMD under pytest
#: on a 2-vCPU host.
_BINOMIAL_CASES = [
    pytest.param(iiad(), -0.5, 0.06, id="IIAD"),
    pytest.param(MIMD(1.01, 0.875), -1.0, 0.12, id="MIMD"),
]


@pytest.mark.parametrize("protocol,exponent,tolerance", _BINOMIAL_CASES)
def test_binomial_window_exponent_on_the_packet_engine(protocol, exponent, tolerance):
    high, low = (_mean_window(protocol, p, _BINOMIAL_SECONDS, seed=1) for p in _BINOMIAL_P)
    slope = math.log(low / high) / math.log(_BINOMIAL_P[1] / _BINOMIAL_P[0])
    assert abs(slope - exponent) <= tolerance

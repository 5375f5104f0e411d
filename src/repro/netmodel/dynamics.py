"""The multi-link fluid simulation engine.

Per step, for each link ``l`` with load ``X_l`` (the sum of the windows of
flows crossing it):

- droptail loss ``L_l = max(0, 1 - (C_l + tau_l) / X_l)``,
- queueing delay ``q_l = min(max(0, X_l - C_l), tau_l) / B_l``.

A flow's observed loss combines its links' losses independently
(``1 - prod(1 - L_l)``); its RTT sums propagation and queueing along the
path, replaced by a timeout cap when any link on the path dropped. These
rules reduce exactly to the paper's Eq. (1) and loss function on a
single-link topology, which the test suite pins.
"""

from __future__ import annotations

import copy
import math
from typing import Sequence

import numpy as np

from repro.model import formulas
from repro.model.dynamics import DEFAULT_MAX_WINDOW, check_random_loss_rate, check_window_clamp
from repro.model.random_loss import combine_loss
from repro.model.sender import Observation
from repro.netmodel.topology import Topology
from repro.netmodel.trace import NetworkTrace
from repro.protocols.base import Protocol


class NetworkFluidSimulator:
    """Runs window-based protocols over a multi-link topology."""

    def __init__(
        self,
        topology: Topology,
        protocols: Sequence[Protocol],
        initial_windows: Sequence[float] | None = None,
        min_window: float = 1.0,
        max_window: float = DEFAULT_MAX_WINDOW,
        random_loss_rate: float = 0.0,
        enforce_loss_based: bool = True,
    ) -> None:
        topology.validate()
        if len(protocols) != topology.n_flows:
            raise ValueError(
                f"{topology.n_flows} flows declared but {len(protocols)} "
                "protocols supplied"
            )
        self.topology = topology
        self.protocols = [copy.deepcopy(p) for p in protocols]
        if initial_windows is None:
            initial_windows = [1.0] * topology.n_flows
        if len(initial_windows) != topology.n_flows:
            raise ValueError("one initial window per flow required")
        check_window_clamp(min_window, max_window)
        check_random_loss_rate(random_loss_rate)
        self._initial = [float(w) for w in initial_windows]
        self.min_window = min_window
        self.max_window = max_window
        self.random_loss_rate = random_loss_rate
        self.enforce_loss_based = enforce_loss_based
        self._link_names = list(topology.links)
        self._link_index = {name: i for i, name in enumerate(self._link_names)}
        # Precompute flow -> link-column indices for the hot loop.
        self._path_columns = [
            [self._link_index[name] for name in path] for path in topology.paths
        ]

    # ------------------------------------------------------------------
    def run(self, steps: int) -> NetworkTrace:
        """Simulate ``steps`` synchronized RTT-scale decision rounds."""
        if steps <= 0:
            raise ValueError(f"steps must be positive, got {steps}")
        topo = self.topology
        n_flows = topo.n_flows
        n_links = len(self._link_names)
        links = [topo.links[name] for name in self._link_names]
        random_loss = self.random_loss_rate
        for protocol in self.protocols:
            protocol.reset()

        windows = np.array([self._clamp(w) for w in self._initial])
        out_windows = np.zeros((steps, n_flows))
        out_flow_loss = np.zeros((steps, n_flows))
        out_flow_rtts = np.zeros((steps, n_flows))
        out_link_load = np.zeros((steps, n_links))
        out_link_loss = np.zeros((steps, n_links))
        min_rtts = np.full(n_flows, math.inf)
        base_rtts = np.array([topo.base_rtt_of(i) for i in range(n_flows)])
        timeout_caps = [
            2 * sum(links[col].full_buffer_rtt() for col in cols)
            for cols in self._path_columns
        ]

        for t in range(steps):
            load = np.zeros(n_links)
            for flow, cols in enumerate(self._path_columns):
                for col in cols:
                    load[col] += windows[flow]
            link_loss = np.array([
                link.loss_rate(load[i]) for i, link in enumerate(links)
            ])
            queue_delay = np.array([
                formulas.queueing_delay(
                    load[i], link.capacity, link.buffer_size, link.bandwidth
                )
                for i, link in enumerate(links)
            ])

            out_link_load[t] = load
            out_link_loss[t] = link_loss
            out_windows[t] = windows

            for flow, cols in enumerate(self._path_columns):
                loss = formulas.path_loss([link_loss[col] for col in cols])
                loss = combine_loss(loss, random_loss)
                if any(link_loss[col] > 0.0 for col in cols):
                    rtt = timeout_caps[flow]
                else:
                    rtt = base_rtts[flow] + sum(queue_delay[col] for col in cols)
                out_flow_loss[t, flow] = loss
                out_flow_rtts[t, flow] = rtt
                if rtt < min_rtts[flow]:
                    min_rtts[flow] = rtt

                protocol = self.protocols[flow]
                if self.enforce_loss_based and protocol.loss_based:
                    obs = Observation(step=t, window=windows[flow],
                                      loss_rate=loss, rtt=1.0, min_rtt=1.0)
                else:
                    obs = Observation(step=t, window=windows[flow],
                                      loss_rate=loss, rtt=rtt,
                                      min_rtt=float(min_rtts[flow]))
                windows[flow] = self._clamp(protocol.next_window(obs))

        return NetworkTrace(
            windows=out_windows,
            flow_loss=out_flow_loss,
            flow_rtts=out_flow_rtts,
            link_load=out_link_load,
            link_loss=out_link_loss,
            link_names=self._link_names,
            base_rtts=base_rtts,
        )

    # ------------------------------------------------------------------
    def _clamp(self, window: float) -> float:
        if not math.isfinite(window):
            raise ValueError(f"protocol produced a non-finite window: {window}")
        return min(max(window, self.min_window), self.max_window)

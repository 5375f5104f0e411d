"""The single bottleneck link of the paper's fluid model.

A link is characterized by a bandwidth ``B`` (MSS/s), a one-way propagation
delay ``Theta`` (s) and a buffer of ``tau`` MSS, drained FIFO with droptail.
The derived quantity ``C = B * 2 * Theta`` is the minimum bandwidth-delay
product — the paper's "capacity", measured in MSS.

Two functions of the aggregate in-flight traffic ``X`` define the model:

* the RTT experienced during a step (the paper's Eq. (1))::

      RTT(X) = max(2*Theta, (X - C)/B + 2*Theta)   if X < C + tau
               Delta                               otherwise

  where ``Delta`` is a timeout-triggered cap applied when loss occurs, and

* the droptail loss rate::

      L(X) = 1 - (C + tau)/X   if X > C + tau
             0                 otherwise

The paper treats ``B``, ``Theta`` and ``tau`` as unknown to senders; the
:class:`Link` object therefore lives in the simulator, never inside a
protocol implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.model import formulas, units


@dataclass(frozen=True)
class Link:
    """An immutable description of the bottleneck link.

    Parameters
    ----------
    bandwidth:
        ``B`` in MSS per second. ``math.inf`` is allowed and models the
        infinite-capacity link used by the robustness axiom (Metric VI).
    theta:
        One-way propagation delay in seconds (the paper's ``Theta``).
    buffer_size:
        ``tau``, the droptail buffer size in MSS.
    timeout_rtt:
        ``Delta``, the RTT value reported when the step ends in loss
        (Eq. (1) second case). Must be at least ``2 * theta``.
    ecn_threshold:
        Optional ECN marking threshold ``K`` in MSS (an extension to the
        paper's model): traffic queued beyond the ``K``-th buffer slot is
        marked rather than dropped, and senders observe the marked
        fraction. ``None`` (default) disables marking.
    red_min_threshold / red_max_threshold:
        Optional RED marking ramp in MSS of queue occupancy: nothing is
        marked below ``min_th``, the per-slot marking probability rises
        linearly to ``red_max_mark`` at ``max_th``, and queue beyond
        ``max_th`` is marked outright (or along the gentle ramp, see
        ``red_gentle``). Setting ``min_th == max_th`` degenerates to the
        step policy and is bit-identical to ``ecn_threshold=min_th``.
        Mutually exclusive with ``ecn_threshold``.
    red_max_mark:
        RED's ``max_p``: the marking probability reached at
        ``red_max_threshold``. Default 1.0.
    red_gentle:
        RFC 3168 gentle mode: above ``max_th`` the marking probability
        ramps from ``red_max_mark`` to 1 over one further ``max_th`` of
        queue instead of jumping straight to 1.
    """

    bandwidth: float
    theta: float
    buffer_size: float
    timeout_rtt: float | None = None
    ecn_threshold: float | None = None
    red_min_threshold: float | None = None
    red_max_threshold: float | None = None
    red_max_mark: float = 1.0
    red_gentle: bool = False

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it.
        if not self.bandwidth > 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if not self.theta > 0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        if not self.buffer_size >= 0:
            raise ValueError(f"buffer_size must be non-negative, got {self.buffer_size}")
        if self.ecn_threshold is not None and not (
            0.0 <= self.ecn_threshold <= self.buffer_size
        ):
            raise ValueError(
                f"ecn_threshold must lie within the buffer [0, "
                f"{self.buffer_size}], got {self.ecn_threshold}"
            )
        if (self.red_min_threshold is None) != (self.red_max_threshold is None):
            raise ValueError(
                "set both red_min_threshold and red_max_threshold, or neither"
            )
        if self.red_min_threshold is not None:
            if self.ecn_threshold is not None:
                raise ValueError(
                    "RED marking and the step ecn_threshold are mutually "
                    "exclusive (min_th == max_th reproduces the step policy)"
                )
            if not (
                0.0
                <= self.red_min_threshold
                <= self.red_max_threshold
                <= self.buffer_size
            ):
                raise ValueError(
                    "RED thresholds must satisfy 0 <= min_th <= max_th <= "
                    f"buffer ({self.buffer_size}), got "
                    f"[{self.red_min_threshold}, {self.red_max_threshold}]"
                )
        if not 0.0 < self.red_max_mark <= 1.0:
            raise ValueError(
                f"red_max_mark must be in (0, 1], got {self.red_max_mark}"
            )
        if self.timeout_rtt is None:
            # Default Delta: the worst queuing delay plus one base RTT, i.e.
            # the RTT of a full buffer, doubled as a crude timeout penalty.
            object.__setattr__(self, "timeout_rtt", 2 * self.full_buffer_rtt())
        elif not self.timeout_rtt >= 2 * self.theta:
            raise ValueError(
                f"timeout_rtt must be at least the base RTT {2 * self.theta}, "
                f"got {self.timeout_rtt}"
            )

    @classmethod
    def from_mbps(
        cls,
        bandwidth_mbps: float,
        rtt_ms: float,
        buffer_mss: float,
        mss_bytes: int = units.DEFAULT_MSS_BYTES,
        timeout_rtt: float | None = None,
    ) -> "Link":
        """Build a link from the real-world parameters the paper quotes.

        ``rtt_ms`` is the round-trip propagation time (``2 * Theta``).

        >>> link = Link.from_mbps(20, 42, 100)
        >>> round(link.capacity, 1)
        70.0
        """
        return cls(
            bandwidth=units.mbps_to_mss_per_second(bandwidth_mbps, mss_bytes),
            theta=units.rtt_ms_to_theta_seconds(rtt_ms),
            buffer_size=buffer_mss,
            timeout_rtt=timeout_rtt,
        )

    @classmethod
    def infinite(cls, theta: float = 0.021, buffer_size: float = 100.0) -> "Link":
        """An effectively infinite-capacity link for robustness (Metric VI).

        A genuinely infinite float bandwidth would make ``C`` infinite and
        loss identically zero; we use a very large finite capacity so the
        arithmetic stays well defined while no realistic window can
        congest it.
        """
        return cls(bandwidth=1e15, theta=theta, buffer_size=buffer_size)

    @property
    def base_rtt(self) -> float:
        """The minimum possible RTT, ``2 * Theta``."""
        return 2 * self.theta

    @property
    def capacity(self) -> float:
        """``C = B * 2 * Theta``, the minimum bandwidth-delay product in MSS."""
        return self.bandwidth * self.base_rtt

    @property
    def pipe_limit(self) -> float:
        """``C + tau``: the most traffic a step can carry without loss."""
        return self.capacity + self.buffer_size

    def full_buffer_rtt(self) -> float:
        """The RTT when the buffer is exactly full (``X = C + tau``)."""
        return self.buffer_size / self.bandwidth + self.base_rtt

    def rtt(self, total_window: float) -> float:
        """The paper's Eq. (1): the step duration given aggregate traffic.

        For ``X < C + tau`` the RTT is the base RTT plus queueing delay; at
        or beyond the pipe limit the step ends with loss and the RTT is the
        timeout cap ``Delta``.
        """
        if total_window < 0:
            raise ValueError(f"total window must be non-negative, got {total_window}")
        assert self.timeout_rtt is not None
        return formulas.eq1_rtt(
            total_window,
            self.capacity,
            self.bandwidth,
            self.base_rtt,
            self.pipe_limit,
            self.timeout_rtt,
        )

    def loss_rate(self, total_window: float) -> float:
        """The droptail loss rate ``L(X)`` experienced by every sender.

        Zero while the aggregate fits in pipe plus buffer; otherwise the
        excess fraction ``1 - (C + tau)/X``.
        """
        if total_window < 0:
            raise ValueError(f"total window must be non-negative, got {total_window}")
        return formulas.droptail_loss_rate(total_window, self.pipe_limit)

    @property
    def marking_enabled(self) -> bool:
        """Whether any AQM marking (step ECN or RED ramp) is configured."""
        return self.ecn_threshold is not None or self.red_min_threshold is not None

    def mark_fraction(self, total_window: float) -> float:
        """Fraction of the step's traffic carrying an ECN mark.

        With a step threshold ``K`` (``ecn_threshold``), the traffic
        occupying queue slots beyond the ``K``-th — i.e.
        ``min(X, C + tau) - (C + K)`` of the ``X`` sent — is marked. With
        a RED ramp (``red_min_threshold`` / ``red_max_threshold``), each
        occupied slot is marked with the ramp probability and the marked
        fraction is the ramp's integral over the queue
        (:func:`~repro.model.formulas.red_mark_fraction`); a degenerate
        ramp (``min_th == max_th``) is bit-identical to the step policy.
        Zero when marking is disabled or the queue stays below the
        threshold.
        """
        if total_window < 0:
            raise ValueError(f"total window must be non-negative, got {total_window}")
        if self.red_min_threshold is not None:
            assert self.red_max_threshold is not None
            return formulas.red_mark_fraction(
                total_window,
                self.capacity,
                self.pipe_limit,
                self.red_min_threshold,
                self.red_max_threshold,
                self.red_max_mark,
                self.red_gentle,
            )
        if self.ecn_threshold is None or total_window <= 0:
            return 0.0
        return formulas.step_mark_fraction(
            total_window, self.capacity, self.pipe_limit, self.ecn_threshold
        )

    def queue_occupancy(self, total_window: float) -> float:
        """Standing queue (MSS) implied by aggregate traffic ``X``, clamped to the buffer."""
        if total_window < 0:
            raise ValueError(f"total window must be non-negative, got {total_window}")
        return formulas.queue_occupancy(total_window, self.capacity, self.buffer_size)

    def with_bandwidth(self, bandwidth: float) -> "Link":
        """A copy of this link with a different bandwidth (for mid-run link changes)."""
        return replace(self, bandwidth=bandwidth, timeout_rtt=None)

    def describe(self) -> str:
        """Human-readable one-line summary."""
        mbps = units.mss_per_second_to_mbps(self.bandwidth)
        if math.isfinite(mbps) and mbps < 1e6:
            bw = f"{mbps:.1f} Mbps"
        else:
            bw = "~infinite"
        return (
            f"Link({bw}, base RTT {self.base_rtt * 1e3:.1f} ms, "
            f"buffer {self.buffer_size:.0f} MSS, C={self.capacity:.1f} MSS)"
        )

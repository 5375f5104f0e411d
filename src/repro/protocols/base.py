"""The protocol interface of the paper's model.

A congestion control protocol deterministically maps the history of a
sender's own congestion windows, RTTs and loss rates to the sender's next
window (Section 2). We realize the history dependence with stateful
objects: a protocol instance carries whatever summary of its history it
needs (e.g. CUBIC's window-at-last-loss), and :meth:`Protocol.reset`
returns it to the initial state so the same instance can be reused across
runs.

A protocol is *loss-based* if its window choices are invariant to the RTT
values it observes. The :attr:`Protocol.loss_based` flag declares this, and
the simulator can enforce it by feeding loss-based protocols a constant
placeholder RTT.

Stateless protocols — those whose next window is a pure function of the
current (window, loss rate, RTT) observation — may additionally opt into
the array paths by setting :attr:`Protocol.supports_batched`, declaring
:attr:`Protocol.batch_param_names`, and implementing the static
:meth:`Protocol.batched_next`. It steps many windows at once: the
batched fluid kernel (:mod:`repro.model.batch`) passes every scenario of
a batch, with the protocol parameters stacked along the batch axis (an
``AIMD(alpha, beta)`` grid is one kernel call), and the serial engine's
row path passes every flow of one run, with per-flow parameters. The
contract is strict: each element must be bit-identical to
``next_window`` for that element's parameters (same float64 operations
in the same order), the map must be *branch-free* over the arrays —
selection via ``numpy.where`` on the conditions ``next_window`` branches
on, never Python ``if`` — and it must not read internal state,
observation history, ``min_rtt`` or ECN feedback. The raw-uint64
identity suites (``tests/property/test_prop_batch.py``,
``test_prop_vectorized.py``) hold AIMD, MIMD and Robust-AIMD to this
contract; the trigger boundary test in ``tests/unit/test_meanfield.py``
holds every class that declares a :attr:`Protocol.meanfield_trigger`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.model.sender import Observation


class Protocol(ABC):
    """Base class for congestion control protocols in the fluid model."""

    #: Whether the protocol ignores RTT (the paper's "loss-based" property).
    loss_based: bool = True

    #: Whether :meth:`batched_next` is implemented (see module docstring).
    supports_batched: bool = False

    #: Constructor-parameter attribute names :meth:`batched_next` consumes,
    #: in the order the batch planner stacks them into per-scenario arrays.
    batch_param_names: tuple[str, ...] = ()

    #: Mean-field decrease trigger: how much observed loss makes the
    #: protocol take its multiplicative-decrease branch instead of the
    #: growth branch. A pair ``(op, threshold)`` where ``op`` is ``"gt"``
    #: or ``"ge"`` and ``threshold`` is a float or the name of an instance
    #: attribute (e.g. Robust AIMD's ``"epsilon"``). ``None`` means the
    #: window update is not a two-branch growth/decrease function of the
    #: loss signal, so the protocol cannot lower to the mean-field
    #: backend. Only meaningful alongside :attr:`supports_batched` — the
    #: mean-field kernel derives both branch maps from
    #: :meth:`batched_next`.
    meanfield_trigger: tuple[str, float | str] | None = None

    @abstractmethod
    def next_window(self, obs: Observation) -> float:
        """The window to use next step, given this step's observation.

        Implementations may update internal state; they must be
        deterministic functions of the observation history since the last
        :meth:`reset`.
        """

    @staticmethod
    def batched_next(
        windows: np.ndarray,
        loss_rate: np.ndarray,
        rtt: np.ndarray,
        params: dict[str, np.ndarray],
    ) -> np.ndarray:
        """Next windows for an array of windows (see module docstring).

        ``windows`` holds the current windows, ``loss_rate``/``rtt`` the
        synchronized feedback (one element per window, or one scalar for
        all), and ``params`` the constructor parameters named by
        :attr:`batch_param_names`, one element per window.
        Implementations are static (no instance state to leak), pure, and
        branch-free over the arrays; element ``i`` must equal
        ``next_window`` of element ``i``'s protocol, bit for bit.
        """
        raise NotImplementedError("this protocol does not implement the batched path")

    def reset(self) -> None:
        """Return to the initial state. Default: stateless, nothing to do."""
        return None

    def clone(self):
        """A fresh, reset copy of this protocol (parameters preserved)."""
        import copy

        fresh = copy.deepcopy(self)
        fresh.reset()
        return fresh

    # ------------------------------------------------------------------
    # Display helpers shared by the concrete families
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Short display name, e.g. ``AIMD(1,0.5)``. Defaults to the class name."""
        return type(self).__name__

    def __repr__(self) -> str:
        return self.name


def validate_in_range(name: str, value: float, low: float, high: float,
                      low_open: bool = False, high_open: bool = False) -> float:
    """Raise ``ValueError`` unless ``value`` lies in the given interval.

    Shared parameter validation for the protocol families; returns the
    value so constructors can assign directly.
    """
    below = value <= low if low_open else value < low
    above = value >= high if high_open else value > high
    if below or above:
        lo = "(" if low_open else "["
        hi = ")" if high_open else "]"
        raise ValueError(f"{name} must be in {lo}{low}, {high}{hi}, got {value}")
    return value


def format_params(*values: float) -> str:
    """Render protocol parameters compactly: ``1`` not ``1.0``, ``0.5`` as is."""
    parts = []
    for v in values:
        if float(v).is_integer():
            parts.append(str(int(v)))
        else:
            parts.append(f"{v:g}")
    return ",".join(parts)

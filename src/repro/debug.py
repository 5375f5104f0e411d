"""Runtime sanitizer mode: cheap invariant assertions, off by default.

The simulators' correctness rests on invariants the type system cannot
express — the event clock never runs backwards, queue occupancy and
windows stay non-negative, every packet that enters the bottleneck is
accounted for, traces never contain NaN/Inf where the analyses assume
finite values. This module is the switch that compiles those checks in:

- ``REPRO_DEBUG_CHECKS=1`` in the environment enables them at import;
- ``repro --debug-checks <command>`` enables them for one CLI run;
- :func:`enable` / :func:`disable` / :func:`checks` toggle them from code
  (the test suite turns them on for every test via a conftest fixture).

Checks are *observers*: they never mutate simulator state, so a run with
checks on is bit-identical to a run with checks off (property-tested in
``tests/property/test_prop_sanitizer.py``). When off, the hot paths pay
one boolean test per event — the packet engine's handlers read the
module attribute :data:`active` directly, at call time, instead of
calling :func:`enabled` — see ``docs/performance.md`` for why they are
compiled out by default.

A failed check raises :class:`DebugCheckError` (an ``AssertionError``
subclass, so ``pytest.raises(AssertionError)`` also catches it) with the
violated invariant spelled out.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "DebugCheckError",
    "active",
    "checks",
    "disable",
    "enable",
    "enabled",
    "fail",
]

ENV_VAR = "REPRO_DEBUG_CHECKS"


class DebugCheckError(AssertionError):
    """A runtime invariant of the simulators was violated."""


def _from_env() -> bool:
    return os.environ.get(ENV_VAR, "").strip().lower() not in ("", "0", "false", "off")


#: Whether sanitizer checks are on. Toggle it through :func:`enable`,
#: :func:`disable` or :func:`checks`; hot paths read it as
#: ``debug.active`` (an attribute load, not a call).
active: bool = _from_env()


def enabled() -> bool:
    """Whether sanitizer checks are currently active."""
    return active


def enable() -> None:
    """Turn sanitizer checks on for this process."""
    global active
    active = True


def disable() -> None:
    """Turn sanitizer checks off for this process."""
    global active
    active = False


@contextmanager
def checks(on: bool = True) -> Iterator[None]:
    """Scoped enable/disable, restoring the prior state on exit."""
    global active
    previous = active
    active = on
    try:
        yield
    finally:
        active = previous


def fail(invariant: str, detail: str) -> None:
    """Raise :class:`DebugCheckError` for a violated ``invariant``."""
    raise DebugCheckError(f"debug check failed [{invariant}]: {detail}")

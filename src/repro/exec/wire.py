"""The serve layer's JSON/NDJSON wire formats.

Specs travel as plain JSON objects (protocols as the spec strings
:func:`repro.protocols.make_protocol` parses, links in the paper's
real-world units), so any HTTP client can submit work without pickling
Python objects. Traces travel back as base64-encoded array bundles
(:mod:`repro.perf.codec`) in exactly the array layout and byte format the
content-addressed store archives (:func:`repro.perf.store.trace_to_arrays`,
format 2: each value once, window and RTT series as word deltas), so a
decoded trace is bit-identical to the one the server computed — the
same guarantee a local ``run_spec`` gives. A payload that is not valid
base64, fails the bundle's checksum or lacks a trace field raises
:class:`ValueError`.
"""

from __future__ import annotations

import base64
from typing import Any

from repro.perf.codec import pack_arrays, unpack_arrays

__all__ = [
    "decode_trace",
    "encode_trace",
    "spec_from_wire",
    "spec_to_wire",
]


def _number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _list_of(value: Any, check) -> bool:
    return isinstance(value, (list, tuple)) and all(map(check, value))


#: What each JSON kind accepts.
_KINDS = {
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a boolean": lambda v: isinstance(v, bool),
    "a number": _number,
    "a number or null": lambda v: v is None or _number(v),
    "a list of numbers or null": lambda v: v is None or _list_of(v, _number),
    "a list of strings": lambda v: _list_of(v, lambda item: isinstance(item, str)),
}

_REQUIRED = ("protocols", "bandwidth_mbps", "rtt_ms", "buffer_mss")

#: Every wire spec key and the JSON kind of its value. The keys beyond
#: :data:`_REQUIRED` pass through to the ScenarioSpec field of their name.
_SPEC_KEYS = {
    "protocols": "a list of strings",
    "bandwidth_mbps": "a number",
    "rtt_ms": "a number",
    "buffer_mss": "a number",
    "steps": "an integer",
    "seed": "an integer",
    "flow_multiplicity": "an integer",
    "slow_start": "a boolean",
    "integer_windows": "a boolean",
    "enforce_loss_based": "a boolean",
    "unsynchronized_loss": "a boolean",
    "random_loss_rate": "a number",
    "min_window": "a number",
    "max_window": "a number",
    "duration": "a number or null",
    "initial_windows": "a list of numbers or null",
    "start_times": "a list of numbers or null",
}


def _check_keys(spec: dict) -> None:
    """Refuse an unknown key, or a value not of its key's JSON kind,
    with a ``ValueError`` naming the key."""
    unknown = set(spec) - set(_SPEC_KEYS)
    if unknown:
        raise ValueError(f"unknown wire spec key(s): {sorted(unknown)}")
    for key, value in spec.items():
        kind = _SPEC_KEYS[key]
        if not _KINDS[kind](value):
            raise ValueError(f"{key!r} must be {kind}; got {value!r}")


def spec_from_wire(payload: dict) -> Any:
    """Build a :class:`~repro.backends.spec.ScenarioSpec` from wire JSON.

    Required keys: ``protocols`` (a list of protocol spec strings such as
    ``"AIMD(1,0.5)"`` or preset names like ``"reno"``), ``bandwidth_mbps``,
    ``rtt_ms`` and ``buffer_mss``. Every other recognized key passes
    through to the spec. An unknown key, or a value of the wrong JSON
    kind (``10.5`` or ``true`` for ``steps``, ``"no"`` for
    ``slow_start``), raises a ``ValueError`` naming the key, so client
    typos fail loudly instead of silently running a different scenario.
    """
    from repro.backends.spec import ScenarioSpec
    from repro.protocols import make_protocol

    if not isinstance(payload, dict):
        raise ValueError(f"wire spec must be an object, got {type(payload).__name__}")
    for key in _REQUIRED:
        if key not in payload:
            raise ValueError(f"wire spec is missing required key {key!r}")
    _check_keys(payload)
    data = dict(payload)
    protocols = [make_protocol(name) for name in data.pop("protocols")]
    bandwidth = float(data.pop("bandwidth_mbps"))
    rtt = float(data.pop("rtt_ms"))
    buffer_mss = float(data.pop("buffer_mss"))
    return ScenarioSpec.from_mbps(bandwidth, rtt, buffer_mss, protocols, **data)


def spec_to_wire(
    protocols: list[str],
    bandwidth_mbps: float,
    rtt_ms: float,
    buffer_mss: float,
    **kwargs: Any,
) -> dict:
    """A wire spec dict (the client-side convenience constructor).

    Checks the keys and their kinds as the server does, so a bad request
    fails before it leaves the client.
    """
    spec = {
        "protocols": protocols,
        "bandwidth_mbps": bandwidth_mbps,
        "rtt_ms": rtt_ms,
        "buffer_mss": buffer_mss,
        **kwargs,
    }
    _check_keys(spec)
    return spec


def encode_trace(trace: Any) -> str:
    """A UnifiedTrace as a base64-encoded array bundle (exact round-trip)."""
    from repro.perf.store import trace_to_arrays

    return base64.b64encode(pack_arrays(trace_to_arrays(trace))).decode("ascii")


def decode_trace(blob: str) -> Any:
    """Rebuild the UnifiedTrace :func:`encode_trace` serialized."""
    from repro.perf.store import trace_from_arrays

    try:
        trace = trace_from_arrays(unpack_arrays(base64.b64decode(blob, validate=True)))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed wire trace: {exc!r}") from exc
    if trace is None:
        raise ValueError("wire trace has an unknown format version")
    return trace

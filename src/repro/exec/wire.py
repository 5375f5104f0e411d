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

#: ScenarioSpec fields a wire spec may set directly (JSON scalars/lists).
_SPEC_PASSTHROUGH = (
    "steps",
    "duration",
    "initial_windows",
    "start_times",
    "random_loss_rate",
    "slow_start",
    "seed",
    "min_window",
    "max_window",
    "integer_windows",
    "enforce_loss_based",
    "unsynchronized_loss",
    "flow_multiplicity",
)


def spec_from_wire(payload: dict) -> Any:
    """Build a :class:`~repro.backends.spec.ScenarioSpec` from wire JSON.

    Required keys: ``protocols`` (a list of protocol spec strings such as
    ``"AIMD(1,0.5)"`` or preset names like ``"reno"``), ``bandwidth_mbps``,
    ``rtt_ms`` and ``buffer_mss``. Every other recognized key passes
    through to the spec; an unknown key raises, so client typos fail
    loudly instead of silently running a different scenario.
    """
    from repro.backends.spec import ScenarioSpec
    from repro.protocols import make_protocol

    if not isinstance(payload, dict):
        raise ValueError(f"wire spec must be an object, got {type(payload).__name__}")
    data = dict(payload)
    try:
        protocols = [make_protocol(str(name)) for name in data.pop("protocols")]
        bandwidth = float(data.pop("bandwidth_mbps"))
        rtt = float(data.pop("rtt_ms"))
        buffer_mss = float(data.pop("buffer_mss"))
    except KeyError as exc:
        raise ValueError(f"wire spec is missing required key {exc}") from exc
    unknown = set(data) - set(_SPEC_PASSTHROUGH)
    if unknown:
        raise ValueError(f"unknown wire spec key(s): {sorted(unknown)}")
    return ScenarioSpec.from_mbps(bandwidth, rtt, buffer_mss, protocols, **data)


def spec_to_wire(
    protocols: list[str],
    bandwidth_mbps: float,
    rtt_ms: float,
    buffer_mss: float,
    **kwargs: Any,
) -> dict:
    """A wire spec dict (the client-side convenience constructor).

    Validates the keyword names against the same whitelist the server
    enforces, so a bad request fails before it leaves the client.
    """
    unknown = set(kwargs) - set(_SPEC_PASSTHROUGH)
    if unknown:
        raise ValueError(f"unknown wire spec key(s): {sorted(unknown)}")
    return {
        "protocols": list(protocols),
        "bandwidth_mbps": float(bandwidth_mbps),
        "rtt_ms": float(rtt_ms),
        "buffer_mss": float(buffer_mss),
        **kwargs,
    }


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

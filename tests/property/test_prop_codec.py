"""The array-bundle codec (repro.perf.codec): exact round trips, rejection.

One codec carries every store entry and every serve trace, so the same
defects are checked at both ends: in the store a bad entry is a miss, is
unlinked and is rewritten by the next put; on the wire it raises
``ValueError``.
"""

from __future__ import annotations

import base64
import io
import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.backends import ScenarioSpec, run_spec
from repro.exec.wire import decode_trace, encode_trace
from repro.model.link import Link
from repro.perf.cache import TraceCache
from repro.perf.codec import ALIGN, MAGIC, pack_arrays, unpack_arrays
from repro.perf.store import trace_to_arrays
from repro.protocols.aimd import AIMD

KEY = "ab" * 32

# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
_SPECIAL_FLOATS = st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0])
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)

_BASE_ARRAYS = st.one_of(
    hnp.arrays(np.float64, _SHAPES, elements=_SPECIAL_FLOATS | st.floats()),
    hnp.arrays(np.int64, _SHAPES),
    hnp.arrays(np.bool_, _SHAPES),
    hnp.arrays(hnp.unicode_string_dtypes(max_len=6), _SHAPES),
)


def _relayout(array: np.ndarray, layout: str) -> np.ndarray:
    """The same values in a different memory layout (or byte order)."""
    if layout == "fortran":
        return np.asfortranarray(array)
    if layout == "strided" and array.ndim:
        return np.repeat(array, 2, axis=0)[::2]
    if layout == "reversed" and array.ndim:
        return array[::-1]
    if layout == "big-endian" and array.dtype.kind in "if":
        return array.astype(array.dtype.newbyteorder(">"))
    return array


_ARRAYS = st.builds(
    _relayout,
    _BASE_ARRAYS,
    st.sampled_from(["c", "fortran", "strided", "reversed", "big-endian"]),
)


@settings(deadline=None, max_examples=150)
@given(members=st.dictionaries(st.text(max_size=8), _ARRAYS, max_size=6))
def test_round_trip_keeps_bytes_dtype_shape_and_writeability(members):
    decoded = unpack_arrays(pack_arrays(members))
    assert list(decoded) == list(members)
    for name, array in members.items():
        got = decoded[name]
        assert got.dtype.str == array.dtype.str
        assert got.shape == array.shape
        assert got.tobytes() == array.tobytes()
        assert got.flags.writeable
        assert got.ctypes.data % ALIGN == 0 or got.size == 0


def test_scalars_stay_zero_dimensional():
    decoded = unpack_arrays(pack_arrays({
        "tag": np.int64(3), "name": np.array("fluid"), "x": np.float64(-0.0),
    }))
    assert [decoded[name].shape for name in ("tag", "name", "x")] == [(), (), ()]
    assert int(decoded["tag"]) == 3 and str(decoded["name"]) == "fluid"
    assert np.signbit(decoded["x"])


def test_members_are_independent_writable_buffers():
    decoded = unpack_arrays(pack_arrays({"a": np.zeros(3), "b": np.ones(3)}))
    decoded["a"][:] = 7.0
    assert decoded["b"].tolist() == [1.0, 1.0, 1.0]


@pytest.mark.parametrize("array", [
    np.array([object()], dtype=object),
    np.zeros(2, dtype=[("a", "f8"), ("b", "i4")]),
])
def test_pack_refuses_object_and_structured_dtypes(array):
    with pytest.raises(ValueError):
        pack_arrays({"bad": array})


# ----------------------------------------------------------------------
# Rejected input: corrupt bytes and crafted headers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def trace():
    spec = ScenarioSpec(
        protocols=[AIMD(1, 0.5)] * 2, link=Link.from_mbps(20, 42, 100), steps=64
    )
    return run_spec(spec, "fluid", use_cache=False)


def _keep_checksum(blob: bytes, mutate) -> bytes:
    """``blob`` whose decoded bytes ``mutate`` edits, under the old checksum.

    Recompresses the edited bytes but keeps the original zlib header and
    Adler-32 trailer: the bytes a faithful stream would carry after one
    bit of the entry flipped.
    """
    stream = blob[len(MAGIC):]
    raw = bytearray(zlib.decompress(stream))
    mutate(raw)
    deflater = zlib.compressobj(wbits=-15)
    body = deflater.compress(bytes(raw)) + deflater.flush()
    return MAGIC + stream[:2] + body + stream[-4:]


def _flip_header_bit(raw: bytearray) -> None:
    raw[6] ^= 0x04  # inside the header JSON, which starts at byte 4


def _flip_payload_bit(raw: bytearray) -> None:
    end = 4 + int.from_bytes(raw[:4], "little")
    raw[end + (-end % ALIGN) + 3] ^= 0x01  # a byte of the first array


def _legacy_npz(arrays: dict) -> bytes:
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return buffer.getvalue()


DEFECTS = {
    "truncated": lambda blob, arrays: blob[:-7],
    "header-bit": lambda blob, arrays: _keep_checksum(blob, _flip_header_bit),
    "payload-bit": lambda blob, arrays: _keep_checksum(blob, _flip_payload_bit),
    "legacy-zip": lambda blob, arrays: _legacy_npz(arrays),
}


def test_checksum_helper_alone_changes_nothing(trace):
    blob = pack_arrays(trace_to_arrays(trace))
    assert unpack_arrays(_keep_checksum(blob, lambda raw: None)).keys() == \
        trace_to_arrays(trace).keys()


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_codec_rejects(trace, defect):
    arrays = trace_to_arrays(trace)
    # A flipped bit is caught by the checksum, before the header is parsed.
    match = "corrupt" if defect.endswith("-bit") else None
    with pytest.raises(ValueError, match=match):
        unpack_arrays(DEFECTS[defect](pack_arrays(arrays), arrays))


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_wire_rejects(trace, defect):
    arrays = trace_to_arrays(trace)
    bad = DEFECTS[defect](pack_arrays(arrays), arrays)
    with pytest.raises(ValueError):
        decode_trace(base64.b64encode(bad).decode("ascii"))


@pytest.mark.parametrize("blob", ["not base64!", 17, ""])
def test_wire_rejects_non_bundles(blob):
    with pytest.raises(ValueError):
        decode_trace(blob)


def test_wire_rejects_a_bundle_without_trace_fields():
    with pytest.raises(ValueError):
        decode_trace(base64.b64encode(pack_arrays({"x": np.zeros(2)})).decode())


def test_wire_round_trip_is_exact(trace):
    expected = trace_to_arrays(trace)
    got = trace_to_arrays(decode_trace(encode_trace(trace)))
    assert list(got) == list(expected)
    for name, array in expected.items():
        assert np.asarray(got[name]).tobytes() == np.asarray(array).tobytes()


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_store_drops_and_rewrites(tmp_path, trace, defect):
    cache = TraceCache(tmp_path)
    arrays = trace_to_arrays(trace)
    path = cache.put_arrays(KEY, arrays)
    path.write_bytes(DEFECTS[defect](path.read_bytes(), arrays))
    assert cache.get_arrays(KEY) is None
    assert (cache.hits, cache.misses) == (0, 1)
    assert not path.exists()
    cache.put_arrays(KEY, arrays)
    again = cache.get_arrays(KEY)
    assert again is not None and again["windows"].tobytes() == arrays["windows"].tobytes()
    assert (cache.hits, cache.misses) == (1, 1)


def _bundle(header, payload: bytes = b"") -> bytes:
    """A bundle with a valid checksum around an arbitrary header."""
    head = json.dumps(header).encode("utf-8")
    prefix = len(head).to_bytes(4, "little") + head
    return MAGIC + zlib.compress(prefix + bytes(-len(prefix) % ALIGN) + payload)


@pytest.mark.parametrize("header", [
    {"not": "a list"},
    [["x", "|O", [1], 0, 8]],               # object dtype
    [["x", "|V8", [1], 0, 8]],              # structured/void dtype
    [["x", "<f8,<i4", [1], 0, 12]],         # structured dtype
    [["x", "no-such-dtype", [1], 0, 8]],
    [["x", "<f8", [3], 0, 16]],             # shape x itemsize != size
    [["x", "<f8", [2], 8, 16]],             # runs past the payload
    [["x", "<f8", [-1], 0, -8]],
    [["x", "<f8", [2], 0, 16], ["x", "<f8", [2], 0, 16]],  # repeated name
    [["x", "<f8", 2, 0, 16]],
    [["x", "<f8", [2], 0]],
])
def test_crafted_headers_are_rejected(header):
    with pytest.raises(ValueError):
        unpack_arrays(_bundle(header, bytes(16)))


def test_crafted_header_of_valid_records_decodes():
    decoded = unpack_arrays(_bundle([["x", "<f8", [2], 0, 16]], bytes(16)))
    assert decoded["x"].tolist() == [0.0, 0.0]


def test_trailing_bytes_are_rejected():
    with pytest.raises(ValueError):
        unpack_arrays(pack_arrays({"x": np.arange(3)}) + b"\0")

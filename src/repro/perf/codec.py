"""The one byte format for store entries and serve traces: array bundles.

A bundle packs a dict of NumPy arrays into one ``bytes`` object::

    MAGIC | zlib( u32 header length | header JSON | pad | array bytes ... )

The header lists every array as ``[name, dtype, shape, offset, nbytes]``,
with ``offset`` counted from the first array byte and aligned to
:data:`ALIGN`. The header sits *inside* the zlib stream, so zlib's
Adler-32 checksum covers every byte after the magic and a corrupt entry
cannot decode silently. Reading a bundle is one decompress plus one view
per array into a single writable buffer; writing streams each array
through one ``zlib.compressobj`` without joining their bytes first.

Every array round-trips with the same dtype, shape and bytes (0-d arrays
stay 0-d; Fortran-order and strided inputs come back C-contiguous).
Object and structured dtypes are refused: a bundle holds plain data only.
Header fields come from disk or the network, so :func:`unpack_arrays`
validates them and raises :class:`ValueError` on anything malformed.
"""

from __future__ import annotations

import functools
import json
import math
import zlib
from typing import Mapping

import numpy as np

__all__ = ["ALIGN", "MAGIC", "pack_arrays", "unpack_arrays"]

#: The first bytes of every bundle (a zip/npz file starts with ``PK``).
MAGIC = b"RPRBNDL1"

#: Byte alignment of every array's offset inside the decoded buffer.
ALIGN = 16

#: Dtype kinds a bundle may hold: bool, integers, floats, complex,
#: datetimes/timedeltas, bytes and unicode strings.
_KINDS = frozenset("biufcmMSU")

_LENGTH_BYTES = 4

#: zlib level. Writing the 206 entries of a filled artifact store on a
#: 2-vCPU Xeon VM, level 4 ran 1.5x faster than the default level 6 and
#: wrote 0.9% more bytes.
_LEVEL = 4


def _pad(size: int) -> int:
    return -size % ALIGN


def _plain_dtype(dtype: np.dtype) -> np.dtype:
    if dtype.kind not in _KINDS:
        raise ValueError(f"array bundles cannot hold dtype {dtype.str!r}")
    return dtype


@functools.lru_cache(maxsize=64)
def _parse_dtype(text: object) -> np.dtype:
    """A header's dtype string as a plain dtype (``ValueError`` otherwise)."""
    if type(text) is not str:
        raise ValueError(f"malformed dtype {text!r} in array bundle")
    try:
        dtype = np.dtype(text)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"unknown dtype {text!r} in array bundle") from exc
    return _plain_dtype(dtype)


def pack_arrays(arrays: Mapping[str, np.ndarray]) -> bytes:
    """Encode ``arrays`` as one bundle (see the module docstring)."""
    members = [np.asarray(value) for value in arrays.values()]
    header = []
    offset = 0
    for name, array in zip(arrays, members):
        _plain_dtype(array.dtype)
        header.append([str(name), array.dtype.str, list(array.shape), offset, array.nbytes])
        offset += array.nbytes + _pad(array.nbytes)
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    prefix = len(head).to_bytes(_LENGTH_BYTES, "little") + head
    compressor = zlib.compressobj(_LEVEL)
    chunks = [MAGIC, compressor.compress(prefix + bytes(_pad(len(prefix))))]
    for array in members:
        # One array at a time: a strided or Fortran-order input is copied
        # to C order here only. (ascontiguousarray makes 0-d input 1-d;
        # the header already holds the shape.)
        flat = np.ascontiguousarray(array).reshape(-1).view(np.uint8)
        chunks.append(compressor.compress(flat))
        chunks.append(compressor.compress(bytes(_pad(array.nbytes))))
    chunks.append(compressor.flush())
    return b"".join(chunks)


def unpack_arrays(blob: bytes) -> dict[str, np.ndarray]:
    """Decode a bundle into writable arrays viewing one buffer.

    Raises :class:`ValueError` when ``blob`` is not a bundle, is
    truncated, fails its checksum or has an inconsistent header.
    """
    view = memoryview(blob)
    if bytes(view[: len(MAGIC)]) != MAGIC:
        raise ValueError("not an array bundle (bad magic)")
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(view[len(MAGIC):])
    except zlib.error as exc:
        raise ValueError(f"corrupt array bundle: {exc}") from exc
    if not inflater.eof or inflater.unused_data:
        raise ValueError("truncated array bundle or trailing bytes")
    # Copied once into a bytearray so the views are writable, as np.load's are.
    buffer = bytearray(raw)
    size = int.from_bytes(buffer[:_LENGTH_BYTES], "little")
    end = _LENGTH_BYTES + size
    if len(buffer) < end:
        raise ValueError("array bundle header overruns its buffer")
    try:
        header = json.loads(buffer[_LENGTH_BYTES:end])
    except ValueError as exc:
        raise ValueError(f"unreadable array bundle header: {exc}") from exc
    start = end + _pad(end)
    if not isinstance(header, list):
        raise ValueError("array bundle header is not a list")
    arrays: dict[str, np.ndarray] = {}
    for entry in header:
        name, dtype, shape, offset = _checked_entry(entry, len(buffer) - start)
        if name in arrays:
            raise ValueError(f"array bundle repeats member {name!r}")
        arrays[name] = np.ndarray(shape, dtype, buffer=buffer, offset=start + offset)
    return arrays


def _checked_entry(entry, payload: int) -> tuple[str, np.dtype, tuple, int]:
    """Validate one header record against a payload of ``payload`` bytes."""
    if not (type(entry) is list and len(entry) == 5):
        raise ValueError(f"malformed array bundle record {entry!r}")
    name, dtype_str, shape, offset, nbytes = entry
    if not (
        type(name) is str
        and type(shape) is list
        and all(type(value) is int for value in (offset, nbytes, *shape))
        and min(offset, nbytes, *shape) >= 0
    ):
        raise ValueError(f"malformed array bundle record {entry!r}")
    dtype = _parse_dtype(dtype_str)
    if math.prod(shape) * dtype.itemsize != nbytes:
        raise ValueError(f"array bundle member {name!r}: shape does not match size")
    if offset + nbytes > payload:
        raise ValueError(f"array bundle member {name!r} lies outside the payload")
    return name, dtype, tuple(shape), offset

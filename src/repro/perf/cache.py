"""The content-addressed on-disk store and its keying rules.

Every engine in this reproduction is deterministic — the paper's own
framing: a protocol-plus-initial-windows choice *deterministically*
induces the dynamics. That makes results content-addressable: we
canonicalize a run's inputs into a stable structure, hash it, and
archive the result's arrays as one array bundle (:mod:`repro.perf.codec`)
under the hash. Repeated estimator calls across Table 1, Figure 1 and the
claims checks then reload bit-identical arrays instead of re-simulating.
Every entry kind (unified traces in :mod:`repro.perf.store`, packet
statistics in :mod:`repro.perf.packet_cache`) goes through the same
codec, read and written by one private reader and one private writer on
:class:`TraceCache` — and only :meth:`repro.exec.Executor.submit` calls
them, through each job kind's ``probe`` and ``store``.

Keying rules (:func:`_canonical`, shared by every key scheme):

- floats are keyed by their exact bit pattern (``float.hex``), so "close"
  parameters never collide;
- protocols are keyed by class plus the attribute dict of a fresh
  :meth:`~repro.protocols.base.Protocol.clone` (initial state, not
  whatever mid-run state the instance carries); a class that keeps the
  base ``reset`` and ``clone`` is keyed by its own attribute dict, which
  its clone's equals, without the deep copy;
- anything that cannot be canonicalized (a protocol holding a NumPy
  generator, say) makes the run *uncacheable* (its key is ``None``)
  rather than wrongly cacheable.

Every key is the SHA-256 of the canonical form's JSON, computed by
:func:`sha256_hex`.

Activation is explicit: nothing is cached until :func:`configure_cache`
(or the :func:`cache_enabled` context manager) installs a cache, or the
``REPRO_SIM_CACHE`` environment variable names a directory — the latter
is how child processes (a ``repro serve`` launched from a shell, say)
join the same store.
"""

from __future__ import annotations

import enum
import functools
import json
import os
import shutil
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.model.link import Link
from repro.perf import timing
from repro.perf.codec import pack_arrays, unpack_arrays
from repro.protocols.base import Protocol
from repro.storage import trace_from_arrays, trace_to_arrays

#: Environment variable naming the cache directory; setting it activates
#: the cache in this process and every child it starts.
CACHE_ENV = "REPRO_SIM_CACHE"

#: The per-store index file: one NDJSON record per stored entry, written
#: at put time, so ``repro cache stats`` never opens the entry payloads.
INDEX_NAME = "index.ndjson"

#: Name prefix of an entry write in progress (renamed into place when done).
TEMP_PREFIX = ".tmp-"

#: Bump when the canonicalization or the trace format changes.
_KEY_VERSION = 1

#: Turns an entry's arrays into the caller's object; ``None`` rejects it.
_Decoder = Callable[[dict[str, np.ndarray]], Any]


class CacheKeyError(TypeError):
    """Raised internally when an input cannot be canonically keyed."""


# ----------------------------------------------------------------------
# Canonicalization
# ----------------------------------------------------------------------
@functools.cache
def _sha256() -> Callable[[bytes], Any]:
    """CPython's builtin SHA-256 constructor, else :mod:`hashlib`'s.

    ``hashlib`` maps OpenSSL's libcrypto into the process (several MB of
    a server's RSS) to compute the same digest. The builtin is ``_sha2``
    from Python 3.12 and ``_sha256`` before. The imports sit in this body
    because REP801 checks module-level imports against
    ``sys.stdlib_module_names``, which lacks ``_sha2`` before 3.12.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256


def sha256_hex(data: bytes) -> str:
    """The SHA-256 hex digest of ``data``, equal to ``hashlib.sha256``'s."""
    return _sha256()(data).hexdigest()


def _canonical(value: Any) -> Any:
    """A JSON-serializable canonical form of one keying input."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, enum.Enum):
        return ["enum", type(value).__qualname__, value.name]
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, int):
        return value
    if isinstance(value, np.floating):
        return float(value).hex()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return [
            "ndarray",
            str(value.dtype),
            list(value.shape),
            sha256_hex(np.ascontiguousarray(value).tobytes()),
        ]
    if isinstance(value, Protocol):
        cls = type(value)
        # With the base reset (a no-op) and clone, a clone's attribute dict
        # is a deep copy of the instance's and keys the same: skip the copy.
        if cls.reset is Protocol.reset and cls.clone is Protocol.clone:
            return ["protocol", cls.__qualname__, _attrs_of(value)]
        return ["protocol", cls.__qualname__, _attrs_of(value.clone())]
    if is_dataclass(value) and not isinstance(value, type):
        return [
            type(value).__qualname__,
            {f.name: _canonical(getattr(value, f.name)) for f in fields(value)},
        ]
    if isinstance(value, dict):
        return {
            "__dict__": sorted(
                (str(key), _canonical(item)) for key, item in value.items()
            )
        }
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    raise CacheKeyError(f"cannot canonically key a {type(value).__qualname__}")


def _attrs_of(obj: Any) -> Any:
    """Canonicalized instance attributes."""
    try:
        attrs = vars(obj)
    except TypeError as exc:  # __slots__ or builtins
        raise CacheKeyError(f"object {obj!r} has no attribute dict") from exc
    return {"__dict__": sorted((name, _canonical(item)) for name, item in attrs.items())}


# No caller in src/: perfbench/tracing.py binds simulation_key; delete both together.
#: SimulationConfig fields excluded from the key: ``initial_windows`` is
#: keyed in resolved form separately.
_EXCLUDED_CONFIG_FIELDS = frozenset({"initial_windows"})


def simulation_key(
    link: Link,
    protocols: Sequence[Protocol],
    config: Any,
    initial_windows: Sequence[float],
    steps: int,
) -> str | None:
    """A stable content hash of one simulation, or ``None`` if uncacheable.

    ``config`` is a :class:`~repro.model.dynamics.SimulationConfig` (typed
    loosely to avoid an import cycle with the engine); ``initial_windows``
    are the *resolved* per-sender starting windows.
    """
    try:
        payload = {
            "version": _KEY_VERSION,
            "steps": int(steps),
            "link": _canonical(link),
            "protocols": [_canonical(p) for p in protocols],
            "initial_windows": [_canonical(float(w)) for w in initial_windows],
            "config": {
                f.name: _canonical(getattr(config, f.name))
                for f in fields(config)
                if f.name not in _EXCLUDED_CONFIG_FIELDS
            },
        }
    except CacheKeyError:
        return None
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256_hex(blob.encode("utf-8"))


# ----------------------------------------------------------------------
# Entry kinds
# ----------------------------------------------------------------------
def kind_from_members(
    names: Sequence[str] | set[str], unified_backend: str | None = None
) -> str:
    """The entry kind an entry's member-name set encodes.

    Kinds: ``fluid`` (native fluid traces), ``packet`` (native packet
    statistics), ``unified:<backend>`` (unified-store traces, when the
    caller supplies the one-string backend member), and ``unknown`` for
    anything unrecognized. Shared by the put-time index writers here and
    the read-time fallback classifier in :mod:`repro.perf.store`, so the
    two can never drift.
    """
    if "unified_backend" in names:
        if unified_backend is not None:
            return f"unified:{unified_backend}"
        return "unknown"
    if "format_version" in names and "windows" in names:
        return "fluid"
    if "format" in names and "meta" in names:
        return "packet"
    return "unknown"


# ----------------------------------------------------------------------
# The cache proper
# ----------------------------------------------------------------------
def default_cache_dir() -> Path:
    """The directory ``$REPRO_SIM_CACHE`` names, else ``~/.cache/repro/sim``."""
    return Path(os.environ.get(CACHE_ENV) or "~/.cache/repro/sim").expanduser()


class TraceCache:
    """Content-addressed archive of array bundles, one entry per key.

    Entries are array bundles (:mod:`repro.perf.codec`), sharded as
    ``<dir>/<key[:2]>/<key>.npz`` so thousands of concurrent clients
    never contend on one directory. The ``.npz`` suffix is historical:
    entries were npz archives before the codec existed, and an entry
    still in that form fails the codec's magic check, is dropped as
    corrupt on first touch and is rewritten by the next put. Writes are
    atomic (a ``.tmp-*`` file in the shard, then a rename), so concurrent
    writers may race on the same key without corrupting entries; scans
    skip temp names, and :func:`repro.perf.store.prune_cache` reclaims
    the ones a killed writer left behind. Every put also appends one
    NDJSON record (key, kind, bytes) to ``index.ndjson``, which is what lets
    ``repro cache stats`` break the store down per kind without opening
    a single payload. Only :meth:`repro.exec.Executor.submit` reads and
    writes entries.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = Path(directory).expanduser() if directory else default_cache_dir()
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.npz"

    # ------------------------------------------------------------------
    # The entry-kind index
    # ------------------------------------------------------------------
    @property
    def index_path(self) -> Path:
        return self.directory / INDEX_NAME

    def index_append(self, key: str, kind: str, nbytes: int) -> None:
        """Record one stored entry's kind (best-effort, O_APPEND-atomic).

        A writer killed mid-append leaves a last line with no newline.
        Appending straight after it would glue this record onto the torn
        one and lose both, so a torn tail is terminated first; the record
        then stands on its own line (an empty line, from two appenders
        terminating the same tail, is skipped by readers).
        """
        record = {"bytes": int(nbytes), "key": key, "kind": kind}
        line = json.dumps(record, sort_keys=True) + "\n"
        try:
            fd = os.open(
                self.index_path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644
            )
            try:
                size = os.fstat(fd).st_size
                if size:
                    # O_APPEND writes at the end whatever the offset is.
                    os.lseek(fd, size - 1, os.SEEK_SET)
                    if os.read(fd, 1) != b"\n":
                        line = "\n" + line
                os.write(fd, line.encode("utf-8"))
            finally:
                os.close(fd)
        except OSError:
            pass

    def read_index(self) -> dict[str, str]:
        """Key-to-kind mapping from the index file (last record wins).

        Best-effort like every index operation: a missing file means an
        empty mapping, and a torn or foreign line is skipped — readers
        fall back to classifying the entry itself and re-append it.
        """
        kinds: dict[str, str] = {}
        try:
            with open(self.index_path, "r", encoding="utf-8") as handle:
                for raw in handle:
                    raw = raw.strip()
                    if not raw:
                        continue
                    try:
                        record = json.loads(raw)
                    except ValueError:
                        continue
                    key = record.get("key") if isinstance(record, dict) else None
                    kind = record.get("kind") if isinstance(record, dict) else None
                    if isinstance(key, str) and isinstance(kind, str):
                        kinds[key] = kind
        except OSError:
            return {}
        return kinds

    def compact_index(self) -> None:
        """Atomically rewrite the index keeping only live entries.

        Pruning deletes entry files but cannot atomically delete their
        index lines; this drops records whose entry no longer exists and
        collapses duplicates, bounding the file's growth.
        """
        kinds = self.read_index()
        lines = []
        for key in sorted(kinds):
            path = self._path(key)
            try:
                nbytes = path.stat().st_size
            except OSError:
                continue
            record = {"bytes": int(nbytes), "key": key, "kind": kinds[key]}
            lines.append(json.dumps(record, sort_keys=True))
        tmp = self.directory / f".tmp-index-{os.getpid()}.ndjson"
        try:
            tmp.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            os.replace(tmp, self.index_path)
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass

    def _read(self, key: str, decode: _Decoder | None) -> Any:
        """``key``'s arrays (through ``decode``), or ``None`` (counts hit/miss).

        An entry that cannot be read, fails the codec's checks, or that
        ``decode`` rejects (returns ``None`` or raises — a stale format
        tag, say) is dropped and counted as a miss, so the next put
        rewrites it.
        """
        path = self._path(key)
        with timing.measure("cache.get"):
            if path.exists():
                try:
                    value = unpack_arrays(path.read_bytes())
                    if decode is not None:
                        value = decode(value)
                except (OSError, ValueError, KeyError, TypeError):
                    value = None
                if value is not None:
                    self.hits += 1
                    return value
                path.unlink(missing_ok=True)
            self.misses += 1
            return None

    def _write(self, key: str, arrays: dict[str, np.ndarray], kind: str) -> Path | None:
        """Archive ``arrays`` under ``key`` unless present (best-effort, atomic).

        An unwritable or bogus cache directory returns ``None`` instead of
        killing the simulation that just produced the arrays.
        """
        path = self._path(key)
        with timing.measure("cache.put"):
            if not path.exists():
                tmp = path.with_name(f"{TEMP_PREFIX}{os.getpid()}-{key[:16]}.npz")
                try:
                    blob = pack_arrays(arrays)
                    path.parent.mkdir(parents=True, exist_ok=True)
                    tmp.write_bytes(blob)
                    os.replace(tmp, path)
                except OSError:
                    try:
                        tmp.unlink(missing_ok=True)
                    except OSError:
                        pass
                    return None
                self.index_append(key, kind, len(blob))
        return path

    # No caller in src/: perfbench/tracing.py binds this method; delete both together.
    def get(self, key: str):
        """The cached fluid trace for ``key``, or ``None`` (counts hit/miss)."""
        return self._read(key, trace_from_arrays)

    # No caller in src/: perfbench/tracing.py binds this method; delete both together.
    def put(self, key: str, trace) -> Path | None:
        """Archive a fluid ``trace`` under ``key`` (no-op if already present)."""
        return self._write(key, trace_to_arrays(trace), "fluid")

    def get_arrays(self, key: str, decode: _Decoder | None = None) -> Any:
        """The raw array dict archived under ``key``, or ``None``.

        Packet-level entries (see :mod:`repro.perf.packet_cache`) and
        unified traces (:mod:`repro.perf.store`) are free-form array dicts
        rather than fluid traces; they share the directory, the addressing
        scheme and the hit/miss counters. With ``decode``, the result is
        ``decode(arrays)`` instead, and an entry it rejects is a miss.
        """
        return self._read(key, decode)

    def put_arrays(self, key: str, arrays: dict[str, np.ndarray]) -> Path | None:
        """Archive a raw array dict under ``key`` (best-effort, atomic)."""
        backend = arrays.get("unified_backend")
        kind = kind_from_members(set(arrays), None if backend is None else str(backend))
        return self._write(key, arrays, kind)

    def entries(self) -> list[Path]:
        """All archived entry files, sorted for determinism.

        In-progress (or abandoned) ``.tmp-*`` writes are not entries.
        """
        if not self.directory.exists():
            return []
        return sorted(
            path for path in self.directory.glob("*/*.npz")
            if not path.name.startswith(TEMP_PREFIX)
        )

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = len(self.entries())
        if self.directory.is_dir():
            shutil.rmtree(self.directory)
        return removed

    def stats(self) -> dict[str, Any]:
        """Entry count, on-disk bytes and this process's hit/miss counters.

        Entries another process evicts mid-iteration are skipped rather
        than crashing the scan.
        """
        count = 0
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                continue
            count += 1
        return {
            "directory": str(self.directory),
            "entries": count,
            "bytes": total,
            "hits": self.hits,
            "misses": self.misses,
        }


# ----------------------------------------------------------------------
# Process-wide activation
# ----------------------------------------------------------------------
_active: TraceCache | None = None


def configure_cache(directory: str | Path | None = None,
                    export_env: bool = True) -> TraceCache:
    """Install a :class:`TraceCache` as this process's active cache.

    With ``export_env`` (default) the directory is also exported via
    ``REPRO_SIM_CACHE`` so child processes use the same store.
    """
    global _active
    _active = TraceCache(directory)
    if export_env:
        os.environ[CACHE_ENV] = str(_active.directory)
    return _active


def deactivate_cache() -> None:
    """Remove the active cache (and the environment export, if any)."""
    global _active
    _active = None
    os.environ.pop(CACHE_ENV, None)


def active_cache() -> TraceCache | None:
    """The active cache: the configured one, else one named by the env."""
    if _active is not None:
        return _active
    env = os.environ.get(CACHE_ENV)
    if env:
        return configure_cache(env, export_env=False)
    return None


@contextmanager
def cache_enabled(directory: str | Path | None = None) -> Iterator[TraceCache]:
    """Scoped activation: install a cache, restore the prior state on exit."""
    global _active
    previous = _active
    previous_env = os.environ.get(CACHE_ENV)
    cache = configure_cache(directory)
    try:
        yield cache
    finally:
        _active = previous
        if previous_env is None:
            os.environ.pop(CACHE_ENV, None)
        else:
            os.environ[CACHE_ENV] = previous_env

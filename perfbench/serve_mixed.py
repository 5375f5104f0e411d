"""serve-mixed: two closed-loop clients against the real ``repro serve``.

Every pass starts a fresh server (``python -m repro serve``, or the traced
launcher) on a fresh store and replays the seeded request stream from
:func:`inputs.serve_stream`: one thread per client, each sending its
requests through the program's own client
(:meth:`repro.exec.client.ServeClient.run_specs`, one connection per
request) and the next only after the previous call returned. Shared
requests wait at a barrier so both clients send them together.

Traces are checked twice: every copy of a spec's trace must equal the
first one received (raw uint64 bits), and after the timed phase that first
trace must equal an in-process ``run_spec(..., use_cache=False)``.
"""

from __future__ import annotations

import http.client
import json
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import tracing
from worker import directory_mb

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "serve_launcher.py"
HOST = "127.0.0.1"
REQUEST_TIMEOUT_S = 120.0
BANNER_RE = re.compile(r"http://([\d.]+):(\d+)")
SERVE_COMMAND = [sys.executable, "-u", "-m", "repro", "serve", "--port", "0"]


def traces_identical(a, b) -> bool:
    """Every UnifiedTrace field equal, arrays compared as raw 64-bit words."""
    import numpy as np

    if type(a) is not type(b):
        return False
    for item in fields(a):
        x, y = getattr(a, item.name), getattr(b, item.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if not (isinstance(x, np.ndarray) and isinstance(y, np.ndarray)):
                return False
            if x.dtype != y.dtype or x.shape != y.shape:
                return False
            x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
            if x.dtype.itemsize == 8:
                x, y = x.view(np.uint64), y.view(np.uint64)
            if not np.array_equal(x, y):
                return False
        elif x != y:
            return False
    return True


@dataclass
class Tally:
    """Outcome bookkeeping shared by both client threads (lock-guarded)."""

    lock: threading.Lock = field(default_factory=threading.Lock)
    attempted: int = 0
    failed: int = 0
    ok: int = 0
    errors: list[str] = field(default_factory=list)
    first_seen: dict = field(default_factory=dict)
    copies: dict = field(default_factory=dict)

    def fail(self, count: int, message: str) -> None:
        with self.lock:
            self.failed += count
            if len(self.errors) < 20:
                self.errors.append(message)


def _record(tally: Tally, request: dict, traces: list) -> None:
    """Count error lines (``None`` slots); check each trace against its first copy."""
    backend = request["backend"]
    for index, (spec, trace) in enumerate(zip(request["specs"], traces)):
        if trace is None:
            tally.fail(1, f"{backend} spec {index}: answered with an error line")
            continue
        key = (backend, json.dumps(spec, sort_keys=True))
        with tally.lock:
            first = tally.first_seen.setdefault(key, trace)
        if first is not trace and not traces_identical(trace, first):
            tally.fail(1, f"{backend} spec {key[1]}: trace differs between copies")
            continue
        with tally.lock:
            tally.ok += 1
            tally.copies[key] = tally.copies.get(key, 0) + 1


def verify_against_local(tally: Tally) -> int:
    """Recompute each unique spec in-process; count copies of mismatches."""
    from repro.backends import run_spec
    from repro.exec.wire import spec_from_wire

    for (backend, spec_json), first in tally.first_seen.items():
        try:
            local = run_spec(spec_from_wire(json.loads(spec_json)), backend, use_cache=False)
        except Exception as exc:
            local, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = "trace differs from a local run_spec"
        if local is None or not traces_identical(first, local):
            copies = tally.copies.get((backend, spec_json), 0)
            tally.ok -= copies
            tally.fail(copies, f"{backend} spec {spec_json}: {error}")
    return len(tally.first_seen)


def _client(port: int, requests: list[dict], barrier: threading.Barrier,
            tally: Tally, out: dict) -> None:
    from repro.exec.client import ServeClient, ServeError

    client = ServeClient(HOST, port, timeout=REQUEST_TIMEOUT_S)
    latencies = []
    try:
        for request in requests:
            if request["shared"]:
                barrier.wait(timeout=REQUEST_TIMEOUT_S)
            with tally.lock:
                tally.attempted += len(request["specs"])
            start = time.perf_counter()
            try:
                traces = client.run_specs(request["specs"], request["backend"],
                                          batch=True, skip_errors=True)
            except (ServeError, OSError, http.client.HTTPException) as exc:
                tally.fail(len(request["specs"]), f"request failed: {exc!r}")
                continue
            except (ValueError, KeyError, IndexError, TypeError) as exc:  # a malformed stream
                tally.fail(len(request["specs"]), f"unreadable response: {exc!r}")
                continue
            latencies.append(time.perf_counter() - start)
            _record(tally, request, traces)
    except threading.BrokenBarrierError:
        tally.fail(1, "the other client stopped early")
    finally:
        barrier.abort()
        out.update(latencies=latencies)


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc status")


def _stop(process: subprocess.Popen) -> None:
    # SIGTERM, not SIGINT: a process started in the background inherits
    # SIGINT ignored, and Python then installs no KeyboardInterrupt for it.
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=30)


def _launch(command: list[str], env: dict) -> tuple[subprocess.Popen, float, int]:
    """Start a server; the process, seconds to its listening banner, its port."""
    start = time.perf_counter()
    server = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env)
    try:
        banner = server.stdout.readline()
        setup_s = time.perf_counter() - start
        match = BANNER_RE.search(banner)
        if match is None:
            raise RuntimeError(f"no listening banner from the server: {banner!r}")
    except BaseException:
        _stop(server)
        raise
    return server, setup_s, int(match.group(2))


def probe_setup(env: dict) -> float:
    """Seconds from launching ``python -m repro serve`` to its banner."""
    server, setup_s, _port = _launch(SERVE_COMMAND, env)
    _stop(server)
    return setup_s


def _drive(port: int, stream: list[list[dict]], tally: Tally, tracer,
           pass_dir: Path) -> tuple[list[dict], float]:
    """Both clients through the stream; returns their records and the wall time."""
    barrier = threading.Barrier(len(stream))
    outs: list[dict] = [{} for _ in stream]
    threads = [
        threading.Thread(target=_client, args=(port, requests, barrier, tally, out))
        for requests, out in zip(stream, outs)
    ]
    if tracer is not None:
        tracer.install()
    try:
        began = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - began
    finally:
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(str(pass_dir / "client-trace.json"))
    return outs, wall_s


def run_pass(stream: list[list[dict]], pass_dir: Path, env: dict, tally: Tally,
             tracer=None) -> dict:
    """One fresh server, one replay of the stream by both clients."""
    store = pass_dir / "store"
    trace_out = pass_dir / "server-trace.json"
    command = SERVE_COMMAND if tracer is None else [
        sys.executable, "-u", str(LAUNCHER), "--port", "0", "--trace-out", str(trace_out)
    ]
    server, setup_s, port = _launch(command, dict(env, REPRO_SIM_CACHE=str(store)))
    try:
        answered = tally.ok
        outs, wall_s = _drive(port, stream, tally, tracer, pass_dir)
        answered = tally.ok - answered
        peak_rss_mb = _peak_rss_mb(server.pid)
    finally:
        _stop(server)
    record = {
        "traced": tracer is not None,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "answered": answered,
        "latencies": [lat for out in outs for lat in out["latencies"]],
        "peak_rss_mb": peak_rss_mb,
        "store_mb": directory_mb(store),
    }
    if tracer is not None:
        record["dumps"] = [
            json.loads(path.read_text(encoding="utf-8"))
            for path in (trace_out, pass_dir / "client-trace.json")
        ]
    return record


def run(stream: list[list[dict]], seconds: float, traced: bool, work: Path,
        env: dict) -> dict:
    """Passes until ``seconds`` elapse (alternating traced ones), then verify."""
    tracer = tracing.Tracer(clock=time.thread_time) if traced else None
    tally = Tally()
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        index = len(passes)
        pass_dir = work / f"serve-pass-{index}"
        pass_dir.mkdir(parents=True)
        passes.append(run_pass(stream, pass_dir, env, tally, tracer if index % 2 else None))
        enough = time.perf_counter() - start >= seconds
        if enough and (not traced or len(passes) >= 2):
            break
    started = time.perf_counter()
    unique = verify_against_local(tally)
    return {
        "passes": passes,
        "tally": tally,
        "unique_specs": unique,
        "verify_s": time.perf_counter() - started,
    }


def summary(result: dict) -> dict:
    """The end-to-end serve numbers of the untraced passes (set-up aside)."""
    plain = [p for p in result["passes"] if not p["traced"]]
    latencies = sorted(lat for p in plain for lat in p["latencies"])
    return {
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        "store_mb": statistics.median(p["store_mb"] for p in plain),
        "suite_s": statistics.median(p["wall_s"] for p in plain),
        "request_p50_s": statistics.median(latencies),
        "request_p90_s": statistics.quantiles(latencies, n=10)[8],
        "request_samples": len(latencies),
        "serve_specs_per_s": (
            sum(p["answered"] for p in plain) / sum(p["wall_s"] for p in plain)
        ),
    }


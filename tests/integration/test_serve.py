"""End-to-end ``repro serve``: wire formats, dedup guarantees, concurrency,
and clients that stall, send a malformed head or hang up."""

from __future__ import annotations

import json
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.backends import ScenarioSpec, run_spec
from repro.exec import Executor
from repro.exec.client import ServeClient, ServeError
from repro.exec.serve import ServeServer, ServerThread
from repro.exec.wire import (
    decode_trace,
    encode_trace,
    spec_from_wire,
    spec_to_wire,
)
from repro.model.link import Link
from repro.perf.cache import cache_enabled
from repro.protocols.aimd import AIMD

_TRACE_FIELDS = ("windows", "observed_loss", "congestion_loss", "rtts",
                 "capacities", "pipe_limits", "base_rtts", "flow_rtts")


def _assert_bit_identical(a, b) -> None:
    for name in _TRACE_FIELDS:
        x = np.ascontiguousarray(getattr(a, name))
        y = np.ascontiguousarray(getattr(b, name))
        assert x.shape == y.shape, name
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64)), name


def _wire(alpha: float) -> dict:
    return spec_to_wire([f"AIMD({alpha},0.5)", f"AIMD({alpha},0.5)"],
                        20, 42, 100, steps=32)


def _local(alpha: float):
    spec = ScenarioSpec(
        protocols=[AIMD(alpha, 0.5)] * 2,
        link=Link.from_mbps(20, 42, 100),
        steps=32,
    )
    return run_spec(spec, "fluid", use_cache=False)


class TestWireFormats:
    def test_spec_round_trip(self):
        wire = _wire(1.0)
        spec = spec_from_wire(wire)
        from repro.protocols import make_protocol

        expected = make_protocol("AIMD(1.0,0.5)").name
        assert [p.name for p in spec.protocols] == [expected] * 2
        assert spec.steps == 32
        _assert_bit_identical(run_spec(spec, "fluid", use_cache=False),
                              _local(1.0))

    def test_trace_codec_is_bit_identical(self):
        trace = _local(1.5)
        again = decode_trace(encode_trace(trace))
        _assert_bit_identical(trace, again)
        assert again.backend == trace.backend

    def test_unknown_keys_fail_loudly(self):
        with pytest.raises(ValueError, match="unknown wire spec key"):
            spec_to_wire(["reno"], 20, 42, 100, stepz=32)
        wire = _wire(1.0)
        wire["bogus"] = 1
        with pytest.raises(ValueError, match="unknown wire spec key"):
            spec_from_wire(wire)
        # The retired execution-path knob is rejected, not ignored.
        wire = _wire(1.0)
        wire["allow_vectorized"] = False
        with pytest.raises(ValueError, match="unknown wire spec key"):
            spec_from_wire(wire)

    @pytest.mark.parametrize("field", ["min_window", "max_window"])
    @pytest.mark.parametrize("backend", ["fluid", "network", "meanfield"])
    def test_nan_window_clamp_is_rejected_naming_it(self, backend, field):
        # json.loads accepts a NaN literal, and NaN fails every comparison,
        # so a clamp check written as `min_window < 0` lets it through.
        wire = json.loads(json.dumps({**_wire(1.0), field: float("nan")}))
        spec = spec_from_wire(wire)
        with pytest.raises(ValueError, match=f"^{field} must"):
            run_spec(spec, backend, use_cache=False)

    def test_missing_required_key_names_it(self):
        wire = _wire(1.0)
        del wire["rtt_ms"]
        with pytest.raises(ValueError, match="rtt_ms"):
            spec_from_wire(wire)


class TestServeEndToEnd:
    def test_concurrent_clients_dedup_to_one_computation(self, tmp_path):
        """The acceptance property: two concurrent clients submitting
        overlapping batches get bit-identical results while each unique
        spec is computed exactly once. Requests compute one after another,
        so the store absorbs every repeat of the other request's specs."""
        batches = {
            "a": [_wire(1.0), _wire(2.0), _wire(1.0)],
            "b": [_wire(2.0), _wire(1.0)],
        }
        results: dict[str, list] = {}
        errors: list[BaseException] = []
        with cache_enabled(tmp_path):
            with ServerThread(executor=Executor()) as server:
                client = ServeClient(port=server.port)

                def drive(name: str) -> None:
                    try:
                        results[name] = client.run_specs(batches[name])
                    except Exception as exc:  # surfaced after join
                        errors.append(exc)

                threads = [
                    threading.Thread(target=drive, args=(name,))
                    for name in batches
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                stats = client.stats()
        assert errors == []
        # Each unique spec computed exactly once, whichever request ran
        # first (store hits and within-request followers absorb every
        # repeat).
        assert stats["executor"]["computed"] == 2
        assert stats["executor"]["jobs"] == 5
        assert stats["server"] == {"requests": 2, "specs_received": 5}
        reference = {1.0: _local(1.0), 2.0: _local(2.0)}
        for name, alphas in (("a", [1.0, 2.0, 1.0]), ("b", [2.0, 1.0])):
            assert len(results[name]) == len(alphas)
            for trace, alpha in zip(results[name], alphas):
                _assert_bit_identical(trace, reference[alpha])

    def test_failing_spec_streams_an_error_line(self):
        # integer_windows is wire-expressible but the network backend
        # refuses it at lowering time: a genuine runtime failure.
        bad = spec_to_wire(["AIMD(1,0.5)"], 20, 42, 100, steps=32,
                           integer_windows=True)
        good = _wire(1.0)
        with ServerThread(executor=Executor()) as server:
            client = ServeClient(port=server.port)
            holes = client.run_specs([good, bad, good], backend="network",
                                     skip_errors=True)
            assert holes[1] is None
            assert holes[0] is not None and holes[2] is not None
            with pytest.raises(ServeError, match="failed on the server"):
                client.run_specs([bad], backend="network")

    def test_http_error_paths(self):
        with ServerThread(executor=Executor()) as server:
            client = ServeClient(port=server.port)
            with pytest.raises(ServeError, match="HTTP 400"):
                client.run_specs([{"protocols": ["reno"]}])  # missing keys
            response = client._request("GET", "/nope")
            assert response.status == 404
            response = client._request("PUT", "/run")
            assert response.status == 405
            stats = client.stats()
            assert stats["server"]["requests"] == 0  # no /run succeeded

    @pytest.mark.parametrize("field,value", [
        ("backend", "fluidd"),  # not registered
        ("batch", "false"),  # truthy to bool(), but not a JSON boolean
        ("use_cache", "false"),
    ])
    def test_bad_run_option_is_a_400_naming_it(self, field, value):
        with ServerThread(executor=Executor()) as server:
            client = ServeClient(port=server.port)
            response = client._request(
                "POST", "/run", {"specs": [_wire(1.0)], "batch": True, field: value}
            )
            status, error = response.status, json.loads(response.read())["error"]
            stats = client.stats()
        assert status == 400
        assert error.startswith(f"{field!r} must be") and repr(value) in error
        assert stats["server"]["requests"] == 0
        assert stats["executor"]["jobs"] == 0

    def test_requests_compute_one_at_a_time_on_one_thread(self, monkeypatch):
        """Two clients' requests: the first computation holds until the
        server has received the second request, yet the second never
        starts before the first ends, and both run on one thread."""
        from repro.backends.base import _BACKENDS, Backend, get_backend

        threads: list[int] = []  # the thread of each call, in start order
        running = [0]
        peak = [0]
        state = threading.Lock()

        class GatedBackend(Backend):
            name = "gated"

            def run(self, spec):
                with state:
                    threads.append(threading.get_ident())
                    first = len(threads) == 1
                    running[0] += 1
                    peak[0] = max(peak[0], running[0])
                try:
                    deadline = time.monotonic() + _PATIENCE
                    while first and server.server.requests < 2:
                        assert time.monotonic() < deadline, "no second request"
                        time.sleep(0.01)
                    return get_backend("fluid").run(spec)
                finally:
                    with state:
                        running[0] -= 1

        monkeypatch.setitem(_BACKENDS, "gated", GatedBackend())
        results: dict[float, list] = {}
        errors: list[BaseException] = []
        with ServerThread(executor=Executor()) as server:

            def drive(alpha: float) -> None:
                try:
                    client = ServeClient(port=server.port, timeout=_PATIENCE)
                    results[alpha] = client.run_specs([_wire(alpha)], "gated")
                except Exception as exc:  # surfaced after join
                    errors.append(exc)

            clients = [threading.Thread(target=drive, args=(alpha,))
                       for alpha in (1.0, 2.0)]
            for client in clients:
                client.start()
            for client in clients:
                client.join(_PATIENCE)
                assert not client.is_alive()
        assert errors == []
        assert len(threads) == 2
        assert len(set(threads)) == 1
        assert peak[0] == 1
        for alpha in (1.0, 2.0):
            _assert_bit_identical(results[alpha][0], _local(alpha))

    def test_batch_lane_matches_local_batched_run(self, tmp_path):
        wires = [_wire(1.0), _wire(1.5), _wire(2.0)]
        with cache_enabled(tmp_path):
            with ServerThread(executor=Executor()) as server:
                client = ServeClient(port=server.port)
                served = client.run_specs(wires, batch=True)
        for trace, alpha in zip(served, (1.0, 1.5, 2.0)):
            _assert_bit_identical(trace, _local(alpha))


@pytest.mark.slow
class TestServeStress:
    def test_many_clients_heavy_overlap(self, tmp_path):
        """Six clients hammer one server with overlapping batches; every
        result is bit-identical and each unique spec computes once: the
        requests compute one after another, and the store absorbs every
        repeat."""
        alphas = [round(1.0 + 0.25 * i, 2) for i in range(8)]
        reference = {alpha: _local(alpha) for alpha in alphas}
        client_batches = [
            [alphas[(start + j) % len(alphas)] for j in range(5)]
            for start in range(6)
        ]
        results: dict[int, list] = {}
        errors: list[BaseException] = []
        with cache_enabled(tmp_path):
            with ServerThread(executor=Executor()) as server:

                def drive(slot: int) -> None:
                    try:
                        client = ServeClient(port=server.port)
                        results[slot] = client.run_specs(
                            [_wire(a) for a in client_batches[slot]]
                        )
                    except Exception as exc:
                        errors.append(exc)

                threads = [
                    threading.Thread(target=drive, args=(slot,))
                    for slot in range(len(client_batches))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=300)
                stats = ServeClient(port=server.port).stats()
        assert errors == []
        assert stats["executor"]["computed"] == len(alphas)
        for slot, batch in enumerate(client_batches):
            for trace, alpha in zip(results[slot], batch):
                _assert_bit_identical(trace, reference[alpha])


# ----------------------------------------------------------------------
# Stalled, malformed and vanishing clients, over raw sockets
# ----------------------------------------------------------------------
#: How long a test waits for the server before calling it wedged.
_PATIENCE = 10.0


class _Handlers:
    """Counts finished connection handlers and keeps what escaped them."""

    def __init__(self) -> None:
        self.finished = threading.Semaphore(0)
        self.escaped: list[BaseException] = []

    def wait(self, count: int = 1) -> None:
        for _ in range(count):
            assert self.finished.acquire(timeout=_PATIENCE), "handler wedged"


@pytest.fixture
def handlers(monkeypatch) -> _Handlers:
    """Wrap ``ServeServer._handle`` (bound when a server starts)."""
    record = _Handlers()
    original = ServeServer._handle

    async def handle(self, reader, writer):
        try:
            await original(self, reader, writer)
        except BaseException as exc:
            record.escaped.append(exc)
            raise
        finally:
            record.finished.release()

    monkeypatch.setattr(ServeServer, "_handle", handle)
    return record


def _connect(port: int) -> socket.socket:
    return socket.create_connection(("127.0.0.1", port), timeout=_PATIENCE)


def _read_to_eof(sock: socket.socket) -> bytes:
    """Everything the server sends; fails if EOF does not come in time."""
    sock.settimeout(_PATIENCE)
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def _head(content_length: str) -> bytes:
    return (
        "POST /run HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {content_length}\r\n\r\n"
    ).encode("latin-1")


class TestServeClients:
    def test_malformed_head_gets_400_then_eof(self, handlers):
        with ServerThread(executor=Executor()) as server:
            with _connect(server.port) as sock:
                sock.sendall(_head("abc"))
                started = time.monotonic()
                reply = _read_to_eof(sock)
            handlers.wait()
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert time.monotonic() - started < _PATIENCE / 2
        assert handlers.escaped == []

    def test_stalled_body_is_answered_408_and_closed(self, handlers, monkeypatch):
        monkeypatch.setattr("repro.exec.serve.READ_TIMEOUT_SECONDS", 0.3)
        with ServerThread(executor=Executor()) as server:
            with _connect(server.port) as sock:
                sock.sendall(_head("100") + b"12345678")
                reply = _read_to_eof(sock)
            handlers.wait()
        assert reply.startswith(b"HTTP/1.1 408 ")
        assert b"0.3 s" in reply
        assert handlers.escaped == []

    @pytest.mark.parametrize("reset", [False, True], ids=["close", "reset"])
    def test_client_hanging_up_mid_body_escapes_nothing(self, handlers, reset):
        with ServerThread(executor=Executor()) as server:
            sock = _connect(server.port)
            sock.sendall(_head("100") + b"12345678")
            if reset:  # RST instead of FIN
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
            sock.close()
            handlers.wait()
            # The server still answers the next client.
            assert ServeClient(port=server.port).stats()["server"]["requests"] == 0
        assert handlers.escaped == []

    @pytest.mark.parametrize("value", ["-5", "abc", "1.5", "0x10", "+3"])
    def test_bad_content_length_is_rejected_naming_the_header(self, handlers,
                                                               value):
        with ServerThread(executor=Executor()) as server:
            with _connect(server.port) as sock:
                sock.sendall(_head(value))
                reply = _read_to_eof(sock)
            handlers.wait()
        assert handlers.escaped == []
        status, _, body = reply.partition(b"\r\n\r\n")
        assert status.startswith(b"HTTP/1.1 400 ")
        error = json.loads(body)["error"]
        assert error.startswith("Content-Length must be a non-negative integer")
        assert repr(value) in error

    def test_vanished_client_result_is_archived_and_served(
        self, handlers, monkeypatch, tmp_path
    ):
        """A client that hangs up while its spec computes: the computation
        finishes and is archived, and a request for the same spec queued
        behind it is answered from the store."""
        from repro.backends.base import _BACKENDS, Backend, get_backend

        started, release = threading.Event(), threading.Event()

        class GatedBackend(Backend):
            name = "gated"

            def run(self, spec):
                started.set()
                assert release.wait(_PATIENCE)
                return get_backend("fluid").run(spec)

        monkeypatch.setitem(_BACKENDS, "gated", GatedBackend())
        executor = Executor()
        payload = json.dumps({"specs": [_wire(1.25)], "backend": "gated"})
        request = _head(str(len(payload))) + payload.encode()
        with cache_enabled(tmp_path):
            with ServerThread(executor=executor) as server:
                vanishing = _connect(server.port)
                vanishing.sendall(request)
                assert started.wait(_PATIENCE)
                vanishing.close()
                with _connect(server.port) as queued:
                    queued.sendall(request)
                    deadline = time.monotonic() + _PATIENCE
                    while server.server.requests < 2:
                        assert time.monotonic() < deadline, "request not received"
                        time.sleep(0.01)
                    release.set()
                    reply = _read_to_eof(queued)
                handlers.wait(2)
        assert handlers.escaped == []
        status, _, body = reply.partition(b"\r\n\r\n")
        assert status.startswith(b"HTTP/1.1 200 ")
        record, done = (json.loads(line) for line in body.splitlines())
        assert record["source"] == "cache"
        assert done["done"] is True
        _assert_bit_identical(decode_trace(record["trace"]), _local(1.25))
        stats = executor.snapshot()
        assert stats["computed"] == 1 and stats["errors"] == 0
        assert stats["cache_hits"] == 1

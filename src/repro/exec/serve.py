"""``repro serve``: the unified executor over HTTP/JSON.

A deliberately small threaded server (stdlib ``socketserver``, no web
framework) exposing simulation-as-a-service on top of
:class:`~repro.exec.Executor`:

- ``POST /run`` with ``{"specs": [<wire spec>, ...], "backend": "fluid",
  "batch": false, "use_cache": true}`` runs the batch and streams back
  one NDJSON line per spec **in submission order** —
  ``{"index", "ok", "source", "trace"}`` on success (trace a base64
  array bundle, bit-identical to a local run), ``{"index", "ok": false,
  "error"}`` on a per-spec failure — followed by a terminal
  ``{"done": true, "stats": {...}}`` line. The response is
  ``Connection: close`` and EOF-delimited, so any HTTP/1.1 client can
  read it line by line.
- ``GET /stats`` returns the server counters plus the executor's
  lifetime dedup statistics as JSON.

Each connection is read, answered and closed by its own daemon thread.
A malformed request is answered 400, and a client that does not send
its request within :data:`READ_TIMEOUT_SECONDS` is answered 408; the
computation a request starts is not bounded.

Every ``/run`` hands its computation (the submission and the encoding
of its traces) to one long-lived compute thread through a queue, so
requests compute one after another and the executor is single-threaded.
With a store active, two clients submitting overlapping batches get
identical results while each unique spec is computed exactly once: the
store serves every repeat of an earlier request's spec, and duplicates
within one request follow one computation.

Neither asyncio nor :mod:`hashlib` is imported, so a server maps no
OpenSSL library.
"""

from __future__ import annotations

import json
import queue
import socket
import socketserver
import threading
import time
from typing import Any

from repro.backends.base import backend_names
from repro.exec.executor import Executor, default_executor
from repro.exec.jobs import SpecJob
from repro.exec.wire import encode_trace, spec_from_wire

__all__ = ["ServeServer", "ServerThread", "serve_forever"]

#: Refuse request bodies beyond this size (a spec batch is a few KB each).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Seconds a client gets to send its request head and body; a client that
#: stalls is answered 408 and closed. Only reading is bounded: the
#: computation a request starts runs as long as it takes.
READ_TIMEOUT_SECONDS = 30.0

#: A request-head line longer than this is answered 400.
_MAX_LINE_BYTES = 64 * 1024

#: How often a :class:`ServerThread`'s accept loop checks for ``stop()``.
_STOP_POLL_SECONDS = 0.05

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 408: "Request Timeout",
            500: "Internal Server Error"}


def _run_options(payload: dict) -> tuple[str, bool, bool]:
    """A ``/run`` request's ``backend``, ``batch`` and ``use_cache``.

    A backend not among :func:`~repro.backends.base.backend_names`, or a
    flag that is not a JSON boolean, is a ``ValueError`` naming the
    field, so the request is answered 400 before anything is submitted.
    """
    backend = payload.get("backend", "fluid")
    if backend not in backend_names():
        raise ValueError(
            f"'backend' must be one of {', '.join(backend_names())}; got {backend!r}"
        )
    batch = payload.get("batch", False)
    use_cache = payload.get("use_cache", True)
    for name, value in (("batch", batch), ("use_cache", use_cache)):
        if not isinstance(value, bool):
            raise ValueError(f"{name!r} must be a JSON boolean; got {value!r}")
    return backend, batch, use_cache


class _Reader:
    """Lines and a body from one socket, all by one deadline.

    Each ``recv`` may wait only for what is left until the deadline, so a
    client that drips its bytes runs out of time like one that stalls
    (``TimeoutError``).
    """

    def __init__(self, sock: socket.socket, deadline: float) -> None:
        self._sock = sock
        self._deadline = deadline
        self._buffer = bytearray()

    def _fill(self) -> bool:
        """Receive what has arrived; ``False`` at end of stream."""
        left = self._deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError
        self._sock.settimeout(left)
        chunk = self._sock.recv(65536)
        self._buffer += chunk
        return bool(chunk)

    def readline(self) -> bytes:
        """One line with its newline, or what is left before end of stream."""
        while (end := self._buffer.find(b"\n")) < 0:
            if len(self._buffer) > _MAX_LINE_BYTES:
                raise ValueError("request head line too long")
            if not self._fill():
                end = len(self._buffer) - 1
                break
        line = bytes(self._buffer[:end + 1])
        del self._buffer[:end + 1]
        return line

    def read(self, size: int) -> bytes:
        """Exactly ``size`` bytes; ``EOFError`` if the stream ends first."""
        while len(self._buffer) < size:
            if not self._fill():
                raise EOFError(
                    f"{len(self._buffer)} bytes read on a total of {size} expected bytes"
                )
        return bytes(self._buffer[:size])


class _Connection(socketserver.BaseRequestHandler):
    """One accepted connection, on its own thread."""

    def handle(self) -> None:
        self.server.endpoint._handle(self.request)


class _Listener(socketserver.ThreadingTCPServer):
    """Accepts connections and answers each on its own daemon thread."""

    daemon_threads = True  # never joined: closing does not wait for a stalled client
    allow_reuse_address = True
    request_queue_size = 100  # listen backlog (socketserver defaults to 5)

    def __init__(self, endpoint: "ServeServer") -> None:
        self.endpoint = endpoint
        if ":" in endpoint.host:
            self.address_family = socket.AF_INET6
        super().__init__((endpoint.host, endpoint.port), _Connection)

    def server_close(self) -> None:
        super().server_close()
        self.endpoint.close()


class ServeServer:
    """One serve endpoint bound to one (shared) executor."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 executor: Executor | None = None) -> None:
        self.host = host
        self.port = port
        self.executor = executor or default_executor()
        self.requests = 0
        self.specs_received = 0
        self._lock = threading.Lock()  # the counters, and closing the queue
        self._calls: queue.SimpleQueue = queue.SimpleQueue()
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> socketserver.ThreadingTCPServer:
        """Bind, and start the compute thread; updates ``self.port`` when it was 0.

        The caller runs the returned listener's ``serve_forever`` and then
        closes it (it is a context manager), which ends the compute thread.
        """
        listener = _Listener(self)
        self.port = listener.server_address[1]
        threading.Thread(
            target=self._compute_loop, name="repro-serve-compute", daemon=True
        ).start()
        return listener

    def close(self) -> None:
        """End the compute thread once it has run what is queued.

        A ``/run`` read after this is answered 500, not left waiting.
        """
        with self._lock:
            self._closed = True
            self._calls.put(None)

    def _compute_loop(self) -> None:
        """The compute thread: each queued call in turn, its outcome to its reply queue."""
        while (item := self._calls.get()) is not None:
            call, reply = item
            try:
                reply.put((True, call()))
            except Exception as exc:  # raised again on the connection thread
                reply.put((False, exc))

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    def _handle(self, conn: socket.socket) -> None:
        """Answer one connection; the listener closes it afterwards."""
        try:
            try:
                method, path, body = self._read_request(conn)
            except TimeoutError:
                self._respond_json(conn, 408, {
                    "error": "request not received within "
                    f"{READ_TIMEOUT_SECONDS:g} s"
                })
                return
            except Exception as exc:
                self._respond_json(conn, 400, {"error": str(exc)})
                return
            if path == "/stats" and method == "GET":
                self._respond_json(conn, 200, self.stats())
            elif path == "/run" and method == "POST":
                self._run_endpoint(conn, body)
            elif path in ("/run", "/stats"):
                self._respond_json(
                    conn, 405, {"error": f"{method} not allowed on {path}"}
                )
            else:
                self._respond_json(
                    conn, 404, {"error": f"no such endpoint: {path}"}
                )
        except ConnectionError:
            pass  # client hung up; nothing to salvage
        except Exception as exc:  # defense: never kill the connection thread
            try:
                self._respond_json(
                    conn, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except Exception:
                pass

    @staticmethod
    def _read_request(conn: socket.socket) -> tuple[str, str, bytes]:
        """Method, path and body, read within :data:`READ_TIMEOUT_SECONDS`.

        Writing the answer is not bounded, so the socket is left blocking.
        """
        reader = _Reader(conn, time.monotonic() + READ_TIMEOUT_SECONDS)
        try:
            request_line = reader.readline().decode("latin-1").strip()
            if not request_line:
                raise ValueError("empty request")
            parts = request_line.split()
            if len(parts) != 3:
                raise ValueError(f"malformed request line: {request_line!r}")
            method, path, _version = parts
            content_length = 0
            while True:
                line = reader.readline().decode("latin-1").strip()
                if not line:
                    break
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    value = value.strip()
                    if not (value.isascii() and value.isdigit()):
                        raise ValueError(
                            "Content-Length must be a non-negative integer, "
                            f"got {value!r}"
                        )
                    content_length = int(value)
            if content_length > MAX_BODY_BYTES:
                raise ValueError(f"request body too large ({content_length} bytes)")
            body = reader.read(content_length) if content_length else b""
        finally:
            conn.settimeout(None)
        return method, path, body

    @staticmethod
    def _respond(conn: socket.socket, status: int, content_type: str,
                 lines: list[bytes]) -> None:
        """Send the head and ``lines`` in one write."""
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        conn.sendall(b"".join([head.encode("latin-1"), *lines]))

    def _respond_json(self, conn: socket.socket, status: int,
                      payload: dict) -> None:
        self._respond(conn, status, "application/json", [_line(payload)])

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _run_endpoint(self, conn: socket.socket, body: bytes) -> None:
        try:
            payload = json.loads(body.decode("utf-8"))
            wire_specs = payload["specs"]
            if not isinstance(wire_specs, list):
                raise ValueError("'specs' must be a list")
            backend, batch, use_cache = _run_options(payload)
            jobs = [
                SpecJob(spec=spec_from_wire(wire), backend=backend)
                for wire in wire_specs
            ]
        except Exception as exc:
            self._respond_json(conn, 400, {"error": str(exc)})
            return
        # The compute thread runs the queued requests one after another;
        # this thread waits for its own.
        reply: queue.SimpleQueue = queue.SimpleQueue()
        with self._lock:
            if self._closed:
                raise RuntimeError("the server has stopped")
            self.requests += 1
            self.specs_received += len(jobs)
            self._calls.put((lambda: self._compute(jobs, batch, use_cache), reply))
        ok, value = reply.get()
        if not ok:
            raise value
        done = {"done": True, "stats": self.stats()}
        self._respond(conn, 200, "application/x-ndjson", [*value, _line(done)])

    def _compute(self, jobs: list[SpecJob], batch: bool,
                 use_cache: bool) -> list[bytes]:
        """One ``/run``'s result lines (on the compute thread)."""
        outcomes = self.executor.submit(
            jobs, batch=batch, use_cache=use_cache, skip_errors=True,
        )
        lines = []
        for index, outcome in enumerate(outcomes):
            if outcome.ok:
                record: dict[str, Any] = {
                    "index": index,
                    "ok": True,
                    "source": outcome.source,
                    "trace": encode_trace(outcome.value),
                }
            else:
                record = {
                    "index": index,
                    "ok": False,
                    "source": outcome.source,
                    "error": outcome.error or "job failed",
                }
            lines.append(_line(record))
        return lines

    def stats(self) -> dict:
        """Server counters plus the shared executor's lifetime snapshot."""
        with self._lock:
            server = {
                "requests": self.requests,
                "specs_received": self.specs_received,
            }
        return {"server": server, "executor": self.executor.snapshot()}


def _line(record: dict) -> bytes:
    """One NDJSON line."""
    return json.dumps(record).encode("utf-8") + b"\n"


class ServerThread:
    """A serve endpoint on a background thread (tests, embedded use).

    ``start()`` binds the socket and returns the actual port (pass
    ``port=0`` to pick a free one); ``stop()`` stops accepting, closes
    the socket and joins the accept thread. It does not wait for
    connections still open: their threads are daemons.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 executor: Executor | None = None) -> None:
        self.server = ServeServer(host, port, executor)
        self._listener: socketserver.ThreadingTCPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> int:
        self._listener = self.server.start()
        self._thread = threading.Thread(
            target=self._listener.serve_forever, args=(_STOP_POLL_SECONDS,),
            name="repro-serve", daemon=True,
        )
        self._thread.start()
        return self.server.port

    def stop(self) -> None:
        if self._listener is not None:
            self._listener.shutdown()
            self._listener.server_close()
        if self._thread is not None:
            self._thread.join(timeout=30)

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def serve_forever(host: str = "127.0.0.1", port: int = 8273) -> None:
    """Run a serve endpoint until interrupted (the CLI entry point)."""
    serve = ServeServer(host, port)
    with serve.start() as listener:
        print(f"repro serve listening on http://{serve.host}:{serve.port} "
              "(POST /run, GET /stats; Ctrl-C to stop)", flush=True)
        try:
            listener.serve_forever()
        except KeyboardInterrupt:
            print("repro serve: stopped")

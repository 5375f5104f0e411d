"""``repro serve``: the unified executor over HTTP/JSON.

A deliberately small asyncio server (stdlib only — no web framework)
exposing simulation-as-a-service on top of :class:`~repro.exec.Executor`:

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

Every connection is closed after its response. A malformed request is
answered 400, and a client that does not send its request within
:data:`READ_TIMEOUT_SECONDS` is answered 408; the computation a request
starts is not bounded.

Every request funnels through one shared executor on one worker thread,
so requests compute one after another. With a store active, two clients
submitting overlapping batches get identical results while each unique
spec is computed exactly once: the store serves every repeat of an
earlier request's spec, and duplicates within one request follow one
computation.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
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


class ServeServer:
    """One serve endpoint bound to one (shared) executor."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 executor: Executor | None = None) -> None:
        self.host = host
        self.port = port
        self.executor = executor or default_executor()
        self.requests = 0
        self.specs_received = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> asyncio.base_events.Server:
        """Bind and start serving; updates ``self.port`` when it was 0.

        The loop's default executor becomes one worker thread, so every
        ``asyncio.to_thread`` call (computing and encoding) runs there,
        one at a time; ``asyncio.run`` shuts it down with the loop.
        """
        loop = asyncio.get_running_loop()
        loop.set_default_executor(ThreadPoolExecutor(max_workers=1))
        server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        return server

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """Answer one connection, then close it whatever happened."""
        try:
            try:
                method, path, body = await asyncio.wait_for(
                    self._read_request(reader), READ_TIMEOUT_SECONDS
                )
            except asyncio.TimeoutError:
                await self._respond_json(writer, 408, {
                    "error": "request not received within "
                    f"{READ_TIMEOUT_SECONDS:g} s"
                })
                return
            except Exception as exc:
                await self._respond_json(writer, 400, {"error": str(exc)})
                return
            if path == "/stats" and method == "GET":
                await self._respond_json(writer, 200, self.stats())
            elif path == "/run" and method == "POST":
                await self._run_endpoint(writer, body)
            elif path in ("/run", "/stats"):
                await self._respond_json(
                    writer, 405, {"error": f"{method} not allowed on {path}"}
                )
            else:
                await self._respond_json(
                    writer, 404, {"error": f"no such endpoint: {path}"}
                )
        except ConnectionError:
            pass  # client hung up; nothing to salvage
        except Exception as exc:  # defense: never kill the accept loop
            try:
                await self._respond_json(
                    writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                )
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> tuple[str, str, bytes]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise ValueError("empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise ValueError(f"malformed request line: {request_line!r}")
        method, path, _version = parts
        content_length = 0
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
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
        body = await reader.readexactly(content_length) if content_length else b""
        return method, path, body

    @staticmethod
    async def _write_head(writer: asyncio.StreamWriter, status: int,
                          content_type: str) -> None:
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1"))
        await writer.drain()

    async def _respond_json(self, writer: asyncio.StreamWriter, status: int,
                            payload: dict) -> None:
        await self._write_head(writer, status, "application/json")
        writer.write(json.dumps(payload).encode("utf-8") + b"\n")
        await writer.drain()

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    async def _run_endpoint(self, writer: asyncio.StreamWriter,
                            body: bytes) -> None:
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
            await self._respond_json(writer, 400, {"error": str(exc)})
            return
        self.requests += 1
        self.specs_received += len(jobs)
        # The computation blocks, so it runs on the compute thread (see
        # start) while the loop keeps accepting; a request that arrives
        # meanwhile queues behind it.
        outcomes = await asyncio.to_thread(
            self.executor.submit, jobs,
            batch=batch, use_cache=use_cache, skip_errors=True,
        )
        await self._write_head(writer, 200, "application/x-ndjson")
        for index, outcome in enumerate(outcomes):
            if outcome.ok:
                record: dict[str, Any] = {
                    "index": index,
                    "ok": True,
                    "source": outcome.source,
                    "trace": await asyncio.to_thread(encode_trace, outcome.value),
                }
            else:
                record = {
                    "index": index,
                    "ok": False,
                    "source": outcome.source,
                    "error": outcome.error or "job failed",
                }
            writer.write(json.dumps(record).encode("utf-8") + b"\n")
            await writer.drain()
        done = {"done": True, "stats": self.stats()}
        writer.write(json.dumps(done).encode("utf-8") + b"\n")
        await writer.drain()

    def stats(self) -> dict:
        """Server counters plus the shared executor's lifetime snapshot."""
        server = {
            "requests": self.requests,
            "specs_received": self.specs_received,
        }
        return {"server": server, "executor": self.executor.snapshot()}


class ServerThread:
    """A serve endpoint on a background thread (tests, embedded use).

    ``start()`` blocks until the socket is bound and returns the actual
    port (pass ``port=0`` to pick a free one); ``stop()`` shuts the loop
    down and joins the thread.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 executor: Executor | None = None) -> None:
        self.server = ServeServer(host, port, executor)
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopping: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._error: BaseException | None = None

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> int:
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("serve thread failed to start in time")
        if self._error is not None:
            raise RuntimeError(f"serve thread failed: {self._error}")
        return self.server.port

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except Exception as exc:  # surface bind errors to start()
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        server = await self.server.start()
        self._ready.set()
        async with server:
            await self._stopping.wait()

    def stop(self) -> None:
        if self._loop is not None and self._stopping is not None:
            self._loop.call_soon_threadsafe(self._stopping.set)
        if self._thread is not None:
            self._thread.join(timeout=30)

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def serve_forever(host: str = "127.0.0.1", port: int = 8273) -> None:
    """Run a serve endpoint until interrupted (the CLI entry point)."""

    async def _main() -> None:
        serve = ServeServer(host, port)
        server = await serve.start()
        print(f"repro serve listening on http://{serve.host}:{serve.port} "
              "(POST /run, GET /stats; Ctrl-C to stop)")
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("repro serve: stopped")

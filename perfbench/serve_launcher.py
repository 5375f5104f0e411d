"""``repro serve`` with the benchmark's span wrappers installed.

Used for traced ``serve-mixed`` passes in place of ``python -m repro
serve``: it imports every run-path module, wraps the layer boundaries,
then calls :func:`repro.exec.serve.serve_forever`. SIGTERM stops the
server the way Ctrl-C stops the CLI; the spans, with the executor and
kernel counters (totals of this fresh process) and the process CPU time
spent serving, are then written to ``--trace-out``. Spans are timed by
each thread's CPU clock: the event loop and its worker threads share the
CPU with each other and with the clients.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time

import tracing


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args(argv)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, interrupt)
    tracer = tracing.Tracer(clock=time.thread_time)
    tracer.install()
    from repro.exec import serve

    cpu_start = time.process_time()
    try:
        serve.serve_forever(args.host, args.port)
    finally:
        tracer.dump(
            args.trace_out,
            extra={
                **tracing.counters(),
                "server_cpu_s": time.process_time() - cpu_start,
                "unpatched": len(tracer.unpatched_bindings()),
            },
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

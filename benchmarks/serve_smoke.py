"""CI smoke for ``repro serve``: the real CLI server, two real clients.

Starts ``python -m repro serve`` as a subprocess (the exact artifact a
user runs), points two concurrent clients at it with overlapping spec
batches, and asserts the service's two contracts:

- every returned trace is bit-identical to a local ``run_spec``;
- each unique spec was computed exactly once — the server computes one
  request at a time, so repeats were served by the store or by
  within-submission dedup (the executor's ``computed`` counter is the
  ledger).

Exits non-zero on any violation. Stdlib + repro only; run with
``PYTHONPATH=src python benchmarks/serve_smoke.py``.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
import threading

import numpy as np

from repro.backends import ScenarioSpec, run_spec
from repro.exec.client import ServeClient
from repro.exec.wire import spec_to_wire
from repro.model.link import Link
from repro.protocols.aimd import AIMD

ALPHAS = {"a": [1.0, 2.0, 1.0, 3.0], "b": [2.0, 3.0, 1.0]}
UNIQUE = sorted({alpha for batch in ALPHAS.values() for alpha in batch})
_FIELDS = ("windows", "observed_loss", "congestion_loss", "rtts",
           "capacities", "pipe_limits", "base_rtts", "flow_rtts")


def _wire(alpha: float) -> dict:
    return spec_to_wire([f"AIMD({alpha},0.5)"] * 2, 20, 42, 100, steps=256)


def _local(alpha: float):
    spec = ScenarioSpec(protocols=[AIMD(alpha, 0.5)] * 2,
                        link=Link.from_mbps(20, 42, 100), steps=256)
    return run_spec(spec, "fluid", use_cache=False)


def _check_identical(trace, reference, label: str) -> None:
    for name in _FIELDS:
        a = np.ascontiguousarray(getattr(trace, name))
        b = np.ascontiguousarray(getattr(reference, name))
        if a.shape != b.shape or not np.array_equal(
            a.view(np.uint64), b.view(np.uint64)
        ):
            raise SystemExit(f"FAIL: {label}: field {name} differs")


def main() -> int:
    with tempfile.TemporaryDirectory() as cache_dir:
        env = dict(os.environ, REPRO_SIM_CACHE=cache_dir)
        env.setdefault("PYTHONPATH", "src")
        server = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            assert server.stdout is not None
            banner = server.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            if not match:
                raise SystemExit(f"FAIL: no listening banner, got {banner!r}")
            host, port = match.group(1), int(match.group(2))
            print(f"server up at {host}:{port}")

            results: dict[str, list] = {}
            errors: list[BaseException] = []

            def drive(name: str) -> None:
                try:
                    client = ServeClient(host, port, timeout=300)
                    results[name] = client.run_specs(
                        [_wire(alpha) for alpha in ALPHAS[name]]
                    )
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=drive, args=(name,))
                       for name in ALPHAS]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            if errors:
                raise SystemExit(f"FAIL: client error: {errors[0]}")

            reference = {alpha: _local(alpha) for alpha in UNIQUE}
            for name, alphas in ALPHAS.items():
                for trace, alpha in zip(results[name], alphas):
                    _check_identical(trace, reference[alpha],
                                     f"client {name} alpha={alpha}")
            stats = ServeClient(host, port).stats()
            executor = stats["executor"]
            total = sum(len(batch) for batch in ALPHAS.values())
            print(f"executor stats: {executor}")
            if executor["computed"] != len(UNIQUE):
                raise SystemExit(
                    f"FAIL: computed {executor['computed']} != "
                    f"{len(UNIQUE)} unique specs"
                )
            if executor["jobs"] != total:
                raise SystemExit(
                    f"FAIL: jobs {executor['jobs']} != {total} submitted"
                )
            reused = executor["cache_hits"] + executor["deduped"]
            if reused != total - len(UNIQUE):
                raise SystemExit(
                    f"FAIL: reuse counters sum to {reused}, "
                    f"expected {total - len(UNIQUE)}"
                )
            print(f"OK: {total} specs, {len(UNIQUE)} computed, "
                  f"{reused} deduplicated, all traces bit-identical")
            return 0
        finally:
            server.terminate()
            server.wait(timeout=30)


if __name__ == "__main__":
    sys.exit(main())

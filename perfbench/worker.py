"""The artifact process: regenerates the six paper artifacts in passes.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``. It
imports every module the passes touch, prints ``READY`` (the end of
set-up), then runs passes over the six drivers and prints one JSON line
with per-pass times and output digests. Modes:

- ``setup``: exit right after ``READY`` (extra set-up samples);
- ``fill``: one untimed pass into ``--store`` (the warm workload's store);
- ``cold``: passes until ``--seconds`` elapse, each on a fresh store;
- ``warm``: passes until ``--seconds`` elapse on the filled ``--store``.

With ``--trace 1`` untraced and traced passes alternate; each traced
artifact call writes its spans to ``--trace-dir``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ARTIFACT_MODULES = ("repro.experiments", "repro.packetsim.batch")
ARTIFACTS = ("table1", "figure1", "table2", "claims", "emulab", "fct")


def _drivers(inputs: dict) -> dict:
    """The six driver calls, looked up at call time so traced wrappers apply."""
    from repro import experiments
    from repro.core.metrics.base import EstimatorConfig
    from repro.model.link import Link

    link = Link.from_mbps(*inputs["link"])
    figure1_config = (
        None if inputs["figure1_steps"] is None
        else EstimatorConfig(steps=inputs["figure1_steps"], n_senders=2)
    )
    duration = inputs["fct_duration"]
    return {
        "table1": lambda: experiments.run_table1(
            link=link, config=EstimatorConfig(steps=inputs["table1_steps"], n_senders=2)
        ),
        "figure1": lambda: experiments.run_figure1(config=figure1_config, batch=True),
        "table2": lambda: experiments.run_table2(
            steps=inputs["table2_steps"], batch=True
        ),
        "claims": lambda: experiments.run_claims(
            link=link, steps=inputs["claims_steps"]
        ),
        "emulab": lambda: experiments.run_emulab(
            duration=inputs["emulab_duration"], batch=True
        ),
        "fct": lambda: experiments.run_fct_study(
            duration=duration,
            arrival_window=0.75 * duration,
            replications=inputs["fct_replications"],
            seed=inputs["fct_seed"],
            batch=True,
        ),
    }


def digest(result) -> str:
    """SHA-256 of an artifact's canonical JSON form."""
    blob = json.dumps(result.to_jsonable(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def directory_mb(path: Path) -> float:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.stat(os.path.join(root, name)).st_size
            except OSError:
                pass
    return total / 2**20


def _run_pass(drivers: dict, tracer=None, trace_dir: Path | None = None,
              label: str = "") -> dict:
    import tracing

    record: dict = {"traced": tracer is not None, "times": {}, "digests": {}, "errors": {}}
    for name in ARTIFACTS:
        if tracer is not None:
            before = tracing.counters()
        start = time.perf_counter()
        try:
            result = drivers[name]()
        except Exception as exc:  # a failing artifact is a counted failure
            record["errors"][name] = f"{type(exc).__name__}: {exc}"
            continue
        record["times"][name] = time.perf_counter() - start
        if tracer is not None:
            extra = tracing.phase_extra(before, tracing.counters())
            tracer.dump(str(trace_dir / f"{label}-{name}.json"), extra=extra)
        record["digests"][name] = digest(result)
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "fill", "cold", "warm"), required=True)
    parser.add_argument("--inputs", help="artifact inputs as JSON")
    parser.add_argument("--store", type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=Path)
    args = parser.parse_args(argv)

    import importlib

    for module in ARTIFACT_MODULES:
        importlib.import_module(module)
    print("READY", flush=True)
    if args.mode == "setup":
        print("{}")
        return 0

    from repro.perf.cache import configure_cache

    drivers = _drivers(json.loads(args.inputs))
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    passes: list[dict] = []
    stale: list[str] = []
    start = time.perf_counter()
    store = args.store
    while True:
        index = len(passes)
        if args.mode == "cold":
            if index:
                shutil.rmtree(store, ignore_errors=True)
            store = args.store / f"pass-{index}"
        configure_cache(store, export_env=False)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
            stale = stale or tracer.unpatched_bindings()
        try:
            record = _run_pass(drivers, tracer if traced else None, args.trace_dir, f"p{index}")
        finally:
            if traced:
                tracer.uninstall()
        # The high-water mark so far: it keeps rising over later passes, so
        # only the first pass's value is comparable between runs.
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes.append(record)
        if args.mode == "fill":
            break
        enough = time.perf_counter() - start >= args.seconds
        if enough and (tracer is None or len(passes) >= 2):
            break
    print(json.dumps({
        "passes": passes,
        "store_mb": directory_mb(store),
        "unpatched": stale,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

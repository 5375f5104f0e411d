"""The repository benchmark: paper artifacts cold and warm, and a serve stream.

Usage (from the repository root)::

    python3 perfbench/run.py --workload artifacts-cold --seed 1 --seconds 25 --trace 0

Workloads (see ``NOTES.md`` for why each exists):

- ``artifacts-cold``: the six paper artifacts regenerated in one process,
  every pass on an empty store;
- ``artifacts-warm``: the same inputs rerun against a store an untimed
  cold pass filled;
- ``serve-mixed``: two closed-loop clients streaming mixed-backend spec
  batches to ``python -m repro serve``.

Every run uses fresh processes and fresh store directories under
``.perfbench-work/`` (removed on exit) and clears the program's
``REPRO_*`` variables. Outputs are checked: artifact digests across passes
and against ``reference.json``, serve traces bit-for-bit against local
runs. The human-readable report comes first; the last stdout line is one
JSON object with the metrics of ``BENCHMARK.json`` (end-to-end ones with
``--trace 0``, per-layer ones with ``--trace 1``). The exit status is
non-zero when any output check fails.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs as bench_inputs
import serve_mixed
import tracing
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
WORK_ROOT = ROOT / ".perfbench-work"

WORKLOADS = ("artifacts-cold", "artifacts-warm", "serve-mixed")

#: The program's environment switches; each changes what a run does
#: (a size cap prunes mid-run, debug checks test every packet event, ...).
ISOLATED_ENV = (
    "REPRO_SIM_CACHE",
    "REPRO_CACHE_DIR",
    "REPRO_CACHE_MAX_MB",
    "REPRO_DEBUG_CHECKS",
    "REPRO_JIT",
)

#: Launch-to-ready samples taken besides the measured launches, half
#: before and half after the timed phase: the host's speed drifts over
#: tens of seconds, and samples from both ends of a run average over it.
#: ``setup_s`` is the median of all of them.
SETUP_PROBES = 8
#: A worker still running after this is killed (a run must end within 180 s).
WORKER_TIMEOUT_S = 170.0

#: End-to-end metrics with units: the BENCHMARK.json set, then the
#: workload-specific ones the report prints.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "store_mb": "MB",
    "suite_s": "s",
}
ARTIFACT_UNITS = {f"{name}_s": "s" for name in worker.ARTIFACTS}
SERVE_UNITS = {
    "request_p50_s": "s",
    "request_p90_s": "s",
    "request_samples": "count",
    "serve_specs_per_s": "specs/s",
}


class CheckFailed(RuntimeError):
    """A benchmark process died or produced no result."""


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def isolated_env() -> dict[str, str]:
    """The children's environment: no program switches, ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if k not in ISOLATED_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def _filesystem(path: Path) -> str:
    best, fstype = "", "unknown"
    target = str(path.resolve())
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                parts = line.split()
                mount = parts[1]
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, parts[2]
    except OSError:
        pass
    return fstype


def environment_record(work: Path) -> dict[str, str]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "nproc": str(len(os.sched_getaffinity(0))),
        "store_fs": _filesystem(work),
    }


# ----------------------------------------------------------------------
# Artifact workloads
# ----------------------------------------------------------------------
def _launch_worker(args: list[str], env: dict) -> tuple[float, dict]:
    """Start ``worker.py``; seconds from launch to ``READY``, and its result."""
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-u", str(WORKER), *args],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    deadline = threading.Timer(WORKER_TIMEOUT_S, process.kill)
    deadline.start()
    try:
        ready = process.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready.strip() != "READY":
            raise CheckFailed(f"worker failed during set-up (got {ready!r})")
        output = process.stdout.read()  # through the buffer readline filled
        process.wait()
    finally:
        deadline.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
    if process.returncode != 0:
        raise CheckFailed(f"worker exited with status {process.returncode}")
    lines = output.strip().splitlines()
    if not lines:
        raise CheckFailed("worker printed no result")
    return setup_s, json.loads(lines[-1])


def probe_setup(env: dict) -> float:
    """Seconds from launching the artifact process to its ``READY``."""
    return _launch_worker(["--mode", "setup"], env)[0]


def expected_digest(reference: dict, inputs: dict, name: str) -> str | None:
    """The committed digest for this artifact and these inputs, if any."""
    table = reference.get(inputs["scale"], {}).get(name)
    if isinstance(table, str):
        return table
    if not isinstance(table, dict):
        return None
    if name == "fct":
        return table.get(str(inputs["fct_seed"]))
    bandwidth, _rtt, buffer = inputs["link"]
    return table.get(f"{bandwidth:g}/{buffer:g}")


def check_artifact_passes(passes: list[dict], inputs: dict, reference: dict,
                          baseline: dict | None = None) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every artifact run of ``passes``.

    Each digest must equal the committed reference (where one exists) and
    the first digest seen for that artifact (``baseline``: the fill pass).
    """

    seen = dict(baseline or {})
    attempted, failed, messages = 0, 0, []
    for index, record in enumerate(passes):
        for name in worker.ARTIFACTS:
            attempted += 1
            label = f"pass {index} {name}"
            if name in record["errors"]:
                failed += 1
                messages.append(f"{label}: raised {record['errors'][name]}")
                continue
            digest = record["digests"][name]
            expected = expected_digest(reference, inputs, name)
            if expected is not None and digest != expected:
                failed += 1
                messages.append(f"{label}: digest {digest[:12]} != reference {expected[:12]}")
                continue
            if seen.setdefault(name, digest) != digest:
                failed += 1
                messages.append(f"{label}: digest {digest[:12]} != earlier {seen[name][:12]}")
    return attempted, failed, messages


def run_artifacts(workload: str, seed: int, seconds: float, trace: bool, scale: str,
                  work: Path, env: dict) -> dict:
    inputs = bench_inputs.artifact_inputs(seed, scale)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    setups = [probe_setup(env) for _ in range(SETUP_PROBES // 2)]
    common = ["--inputs", json.dumps(inputs)]
    attempted, failed, messages = 0, 0, []
    baseline = None
    if workload == "artifacts-warm":
        store = work / "store"
        _, fill = _launch_worker(["--mode", "fill", "--store", str(store), *common], env)
        attempted, failed, messages = check_artifact_passes(fill["passes"], inputs, reference)
        baseline = fill["passes"][0]["digests"]
        mode = "warm"
    else:
        store = work / "stores"
        mode = "cold"
    setup_s, result = _launch_worker(
        ["--mode", mode, "--store", str(store), "--seconds", str(seconds),
         "--trace", str(int(trace)), "--trace-dir", str(work), *common],
        env,
    )
    setups += [setup_s] + [probe_setup(env) for _ in range(SETUP_PROBES // 2)]
    more = check_artifact_passes(result["passes"], inputs, reference, baseline)
    attempted, failed, messages = attempted + more[0], failed + more[1], messages + more[2]

    plain = [p for p in result["passes"] if not p["traced"]]
    report = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["passes"][0]["peak_rss_mb"],
        "store_mb": result["store_mb"],
        "suite_s": statistics.median(sum(p["times"].values()) for p in plain),
    }
    for name in worker.ARTIFACTS:
        times = [p["times"][name] for p in plain if name in p["times"]]
        report[f"{name}_s"] = statistics.median(times) if times else float("nan")
    details = [
        f"inputs: link={inputs['link'][0]:g}Mbps/{inputs['link'][1]:g}ms/"
        f"{inputs['link'][2]:g}MSS fct_seed={inputs['fct_seed']} scale={scale}",
        f"passes: {len(plain)} untraced, {len(result['passes']) - len(plain)} traced",
    ]
    layers = None
    if trace:
        traced = [(i, p) for i, p in enumerate(result["passes"]) if p["traced"]]
        dumps = {
            (i, name): json.loads((work / f"p{i}-{name}.json").read_text(encoding="utf-8"))
            for i, p in traced for name in p["times"]
        }
        layers = tracing.layer_metrics(
            list(dumps.values()),
            passes=len(traced),
            traced_wall_s=sum(sum(p["times"].values()) for _, p in traced),
            traced_pass_s=[sum(p["times"].values()) for _, p in traced],
            untraced_pass_s=[sum(p["times"].values()) for p in plain],
        )
        details += _artifact_breakdown(dumps, traced)
        if result["unpatched"]:
            details.append(f"WARNING spans bypassed by: {', '.join(result['unpatched'])}")
    return {
        "report": report,
        "units": {**END_TO_END_UNITS, **ARTIFACT_UNITS},
        "attempted": attempted,
        "failed": failed,
        "messages": messages,
        "details": details,
        "layers": layers,
    }


def _artifact_breakdown(dumps: dict, traced: list) -> list[str]:
    """Per-artifact self seconds of the main layers, and a few counts."""
    groups = ("experiments", "core", "analysis", "exec.submit", "backends.lower",
              "backends.plan", "backends.extract", "model.kernel", "model.serial",
              "packetsim.run", "perf.get", "perf.put", "perf.key")
    lines = ["per-artifact self seconds per traced pass (columns: " + " ".join(groups) + ")"]
    for name in worker.ARTIFACTS:
        picked = [dump for (i, artifact), dump in dumps.items() if artifact == name]
        if not picked:
            continue
        self_s, calls, counts = tracing.span_totals(picked)
        per = float(len(traced))
        wall = sum(p["times"][name] for _, p in traced) / per
        cells = " ".join(f"{self_s[g] / per:.3f}" for g in groups)
        lines.append(
            f"  {name:8s} wall {wall:.3f} | {cells} | store reads in submit "
            f"{counts['exec.store_reads'] / per:g} / keyed jobs "
            f"{counts['exec.keyed_jobs'] / per:g}; puts {calls['perf.put'] / per:g}; "
            f"fluid serial runs {calls['model.serial'] / per:g}"
        )
    return lines


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
def run_serve(seed: int, seconds: float, trace: bool, scale: str, work: Path,
              env: dict) -> dict:
    stream = bench_inputs.serve_stream(seed, scale)
    # The clients and every server they start share one CPU: on a small
    # VM, wake-ups across vCPUs are delayed by the hypervisor, which swung
    # pass times by a third between runs (see NOTES.md).
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    try:
        setups = [serve_mixed.probe_setup(env) for _ in range(SETUP_PROBES // 2)]
        result = serve_mixed.run(stream, seconds, trace, work, env)
        setups += [serve_mixed.probe_setup(env) for _ in range(SETUP_PROBES // 2)]
    finally:
        os.sched_setaffinity(0, affinity)
    report = serve_mixed.summary(result)
    report["setup_s"] = statistics.median(
        setups + [p["setup_s"] for p in result["passes"] if not p["traced"]]
    )
    tally = result["tally"]
    details = [
        f"stream: {sum(len(c) for c in stream)} requests per pass "
        f"({sum(len(r['specs']) for c in stream for r in c)} specs), "
        f"{result['unique_specs']} unique specs verified locally in "
        f"{result['verify_s']:.1f} s",
        f"passes: {sum(not p['traced'] for p in result['passes'])} untraced, "
        f"{sum(p['traced'] for p in result['passes'])} traced; server and clients "
        f"pinned to CPU {min(affinity)}",
    ]
    layers = None
    if trace:
        traced = [p for p in result["passes"] if p["traced"]]
        plain = [p for p in result["passes"] if not p["traced"]]
        server_dumps = [p["dumps"][0] for p in traced]
        layers = tracing.layer_metrics(
            [dump for p in traced for dump in p["dumps"]],
            passes=len(traced),
            traced_wall_s=sum(p["wall_s"] for p in traced),
            traced_pass_s=[p["wall_s"] for p in traced],
            untraced_pass_s=[p["wall_s"] for p in plain],
            serve_self_s=tracing.server_self_s(server_dumps),
        )
        unpatched = sum(d["extra"].get("unpatched", 0) for p in traced for d in p["dumps"])
        if unpatched:
            details.append(f"WARNING {unpatched} server bindings bypassed the spans")
    return {
        "report": report,
        "units": {**END_TO_END_UNITS, **SERVE_UNITS},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "messages": tally.errors,
        "details": details,
        "layers": layers,
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _print_table(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, unit in units.items():
        value = values.get(name)
        if value is None:
            continue
        print(f"  {name:34s} {value:>14.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input scale; 'tiny' exists for the smoke tests")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    for name in ISOLATED_ENV:
        os.environ.pop(name, None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    env = isolated_env()
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace}")
        record = environment_record(work)
        print("env: " + " ".join(f"{k}={v}" for k, v in record.items()))
        try:
            if args.workload == "serve-mixed":
                outcome = run_serve(args.seed, args.seconds, bool(args.trace),
                                    args.scale, work, env)
            else:
                outcome = run_artifacts(args.workload, args.seed, args.seconds,
                                        bool(args.trace), args.scale, work, env)
        except RuntimeError as exc:  # a process of the run died: no result
            print(f"FAILED: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in outcome["details"]:
        print(line)
    attempted, failed = outcome["attempted"], outcome["failed"]
    report = dict(outcome["report"], failed_share=failed / max(attempted, 1))
    _print_table("end-to-end (untraced passes):", report,
                 {**outcome["units"], "failed_share": "fraction"})
    for message in outcome["messages"]:
        print(f"FAILED CHECK: {message}")
    if args.trace:
        layers = outcome["layers"]
        _print_table("per layer (traced passes, per pass):", layers, tracing.PER_LAYER_UNITS)
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit in tracing.PER_LAYER_UNITS.items()
        }
    else:
        metrics = {
            name: {"value": report[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

"""Smoke tests of the benchmark itself, at the tiny input scale.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_UNITS = {
    "artifacts-cold": run.ARTIFACT_UNITS,
    "artifacts-warm": run.ARTIFACT_UNITS,
    "serve-mixed": run.SERVE_UNITS,
}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_metric_tables():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.PER_LAYER_UNITS


def test_one_seed_one_input_set_and_seeds_differ():
    assert inputs.artifact_inputs(7) == inputs.artifact_inputs(7)
    assert inputs.serve_stream(7) == inputs.serve_stream(7)
    assert inputs.artifact_inputs(1) != inputs.artifact_inputs(2)
    assert inputs.serve_stream(1) != inputs.serve_stream(2)


def test_serve_stream_has_repeats_shared_requests_and_every_backend():
    first, second = inputs.serve_stream(3)
    shared = [a for a, b in zip(first, second) if a is b]
    assert shared and all(request["shared"] for request in shared)
    specs = [json.dumps(s, sort_keys=True) for r in first + second for s in r["specs"]]
    assert len(set(specs)) < len(specs)
    assert {r["backend"] for r in first} == {"fluid", "network", "meanfield", "packet"}


def test_serve_streams_of_two_seeds_ask_for_the_same_work():
    def shapes(seed):
        requests = {id(r): r for client in inputs.serve_stream(seed) for r in client}
        return sorted(
            (r["backend"], len(r["specs"][0]["protocols"]),
             r["specs"][0]["bandwidth_mbps"], r["specs"][0]["buffer_mss"])
            for r in requests.values() if r["backend"] != "meanfield"
        ) + sorted(r["specs"][0]["bandwidth_mbps"] for r in requests.values()
                   if r["backend"] == "meanfield")

    assert shapes(1) == shapes(2) == shapes(9)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    done = _bench("--workload", workload, "--seed", "2", "--seconds", "0",
                  "--trace", trace, "--scale", "tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    result = _result(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["end_to_end" if trace == "0" else "per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    report = done.stdout.splitlines()
    for name, unit in {**WORKLOAD_UNITS[workload], "failed_share": "fraction"}.items():
        assert any(line.split()[:1] == [name] and line.endswith(f" {unit}")
                   for line in report), name
    assert any(line.startswith("env: ") and "numba=" in line for line in report)


def test_tampered_artifact_digest_fails_the_run(monkeypatch, capsys):
    real = run.expected_digest
    monkeypatch.setattr(
        run, "expected_digest",
        lambda reference, inputs, name: "0" * 64 if name == "table2" else real(
            reference, inputs, name),
    )
    status = run.main(["--workload", "artifacts-cold", "--seed", "2", "--seconds", "0",
                       "--scale", "tiny"])
    out = capsys.readouterr().out
    result = _result(out)
    assert status != 0
    assert not result["correct"] and result["failed"] == 1
    assert "FAILED CHECK: pass 0 table2: digest" in out
    share = [line for line in out.splitlines() if line.split()[:1] == ["failed_share"]]
    assert float(share[0].split()[1]) == pytest.approx(1 / 6, rel=1e-5)


def test_tampered_serve_trace_fails_the_run(monkeypatch, capsys):
    from repro.exec import client

    real = client.decode_trace

    def tampered(blob):
        trace = real(blob)
        if trace.backend == "network":
            trace.windows.view("uint64")[0, 0] ^= 1
        return trace

    monkeypatch.setattr(client, "decode_trace", tampered)
    status = run.main(["--workload", "serve-mixed", "--seed", "2", "--seconds", "0",
                       "--scale", "tiny"])
    out = capsys.readouterr().out
    result = _result(out)
    assert status != 0
    assert not result["correct"] and 0 < result["failed"] < result["attempted"]
    assert "trace differs from a local run_spec" in out


def test_without_program_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "artifacts-cold", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "metrics" not in done.stdout

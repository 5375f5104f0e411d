"""What each entry point loads, checked in fresh interpreters.

``repro serve`` and every CLI subcommand load only what they run: the
package root resolves its analysis-layer names on first use, the CLI
imports each driver in the branch that runs it, keying a protocol never
reads ``numpy.random``, and no module imports networkx, which
``pyproject.toml`` does not declare. The server maps no OpenSSL: it
serves on threads, not asyncio (which imports ``ssl``), and keys hash
with CPython's builtin SHA-256, not ``hashlib``. Each check runs in a
subprocess, since this test process has long since imported everything.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.perf.cache import _sha256, sha256_hex

SRC = Path(__file__).resolve().parents[2] / "src"

#: What the serving path never loads: asyncio and ``hashlib`` would map
#: OpenSSL (``ssl`` and ``_hashlib``).
_NEVER_SERVED = ("networkx", "numpy.random", "asyncio", "ssl", "_ssl", "hashlib", "_hashlib")

#: The paper drivers and the analysis layers they score with.
_ANALYSIS_LAYERS = ("repro.experiments", "repro.core", "repro.analysis")


def _python(code: str, **env: str) -> dict:
    """Run ``code`` in a fresh interpreter on ``src``; the JSON it prints last."""
    environ = dict(os.environ, **env)
    environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([environ["PYTHONPATH"]] if environ.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=environ, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _under(loaded: list[str], packages: tuple[str, ...]) -> list[str]:
    """The names in ``loaded`` that are one of ``packages`` or inside one."""
    return [
        name for name in loaded
        if any(name == package or name.startswith(package + ".") for package in packages)
    ]


_LOADED = "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"


def test_every_module_imports_first():
    # A module that imports cleanly only after another has loaded hides
    # an import cycle. Dropping every repro module from sys.modules before
    # each import makes every module the first one loaded.
    failures = _python(
        "import importlib, json, pkgutil, sys, traceback\n"
        "import repro\n"
        "names = ['repro'] + sorted(\n"
        "    info.name for info in pkgutil.walk_packages(repro.__path__, 'repro.'))\n"
        "failures = {}\n"
        "for name in names:\n"
        "    for loaded in [m for m in sys.modules if m.partition('.')[0] == 'repro']:\n"
        "        del sys.modules[loaded]\n"
        "    try:\n"
        "        importlib.import_module(name)\n"
        "    except Exception:\n"
        "        failures[name] = traceback.format_exc()\n"
        "print(json.dumps({'modules': len(names), 'failures': failures}))\n"
    )
    assert failures["modules"] == len(list((SRC / "repro").rglob("*.py")))
    assert failures["failures"] == {}


def test_one_driver_loads_no_other():
    # repro.experiments resolves its names on use, so importing one driver
    # does not import the other six through the package.
    loaded = _python("from repro.experiments.table1 import run_table1\n" + _LOADED)
    drivers = ("table2", "figure1", "claims", "emulab", "fct", "survey")
    assert _under(loaded, tuple(f"repro.experiments.{name}" for name in drivers)) == []
    assert "repro.packetsim.workload" not in loaded


def test_package_names_follow_their_driver_module():
    # Never cached in the package: a function rebound on its driver module
    # (the benchmark tracer does this) is what the package name returns.
    seen = _python(
        "import json\n"
        "import repro.experiments as experiments\n"
        "import repro.experiments.claims as claims\n"
        "first = experiments.run_claims is claims.run_claims\n"
        "claims.run_claims = rebound = lambda **kwargs: None\n"
        "listed = set(experiments.__all__) <= set(dir(experiments))\n"
        "print(json.dumps([first, experiments.run_claims is rebound, listed]))\n"
    )
    assert seen == [True, True, True]


def test_cli_and_server_load_no_driver():
    loaded = _python("import repro.cli, repro.exec.serve\n" + _LOADED)
    assert _under(loaded, _NEVER_SERVED + _ANALYSIS_LAYERS) == []


def test_server_answers_every_backend_without_networkx_or_numpy_random(tmp_path):
    # With a store, every spec is keyed, so its protocols are too. The
    # client speaks raw sockets: http.client would import ssl itself.
    answered = _python(
        "import json, socket\n"
        "from repro.exec import Executor\n"
        "from repro.exec.serve import ServerThread\n"
        "from repro.exec.wire import decode_trace\n"
        "def post(port, payload):\n"
        "    body = json.dumps(payload).encode()\n"
        "    head = f'POST /run HTTP/1.1\\r\\nContent-Length: {len(body)}\\r\\n\\r\\n'\n"
        "    with socket.create_connection(('127.0.0.1', port), timeout=120) as sock:\n"
        "        sock.sendall(head.encode() + body)\n"
        "        reply = b''.join(iter(lambda: sock.recv(65536), b''))\n"
        "    status, _, lines = reply.partition(b'\\r\\n\\r\\n')\n"
        "    assert status.startswith(b'HTTP/1.1 200 '), reply\n"
        "    return [json.loads(line) for line in lines.splitlines()]\n"
        "link = {'bandwidth_mbps': 20.0, 'rtt_ms': 42.0, 'buffer_mss': 100.0}\n"
        "requests = [\n"
        "    ('fluid', {'protocols': ['reno', 'cubic'], 'steps': 60, **link}),\n"
        "    ('fluid', {'protocols': ['reno'], 'steps': 60, 'random_loss_rate': 0.01,\n"
        "               **link}),\n"
        "    ('network', {'protocols': ['reno', 'AIMD(2,0.5)'], 'steps': 60, **link}),\n"
        "    ('meanfield', {'protocols': ['reno'], 'flow_multiplicity': 50, 'steps': 60,\n"
        "                   **link}),\n"
        "    ('packet', {'protocols': ['reno', 'reno'], 'duration': 1.0, 'seed': 1, **link}),\n"
        "]\n"
        "with ServerThread(executor=Executor()) as server:\n"
        "    for backend, spec in requests:\n"
        "        record, done = post(server.port, {'specs': [spec], 'backend': backend})\n"
        "        assert record['ok'] and done['done'], (backend, record)\n"
        "        assert decode_trace(record['trace']).backend == backend\n"
        + _LOADED,
        REPRO_SIM_CACHE=str(tmp_path),
    )
    assert _under(answered, _NEVER_SERVED) == []
    assert list(tmp_path.glob("*/*")), "nothing was keyed into the store"


@pytest.mark.parametrize("size", [0, 1, 1 << 20])
def test_builtin_sha256_equals_hashlib(size):
    # _sha2 from Python 3.12, _sha256 before: CI's matrix runs both.
    assert _sha256().__module__ in ("_sha2", "_sha256")
    data = bytes(range(256)) * (size // 256) + b"\x07" * (size % 256)
    assert len(data) == size
    assert sha256_hex(data) == hashlib.sha256(data).hexdigest()


def test_sha256_falls_back_to_hashlib_without_the_builtin():
    # A None entry makes any import of the name fail, as in an
    # interpreter built without the builtin module.
    result = _python(
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import hashlib, json\n"
        "from repro.perf import cache\n"
        "print(json.dumps([cache.sha256_hex(b'abc'), hashlib.sha256(b'abc').hexdigest(),\n"
        "                  cache._sha256() is hashlib.sha256]))\n"
    )
    digest, expected, fell_back = result
    assert digest == expected and fell_back


def test_network_run_needs_no_networkx():
    # A None entry makes any import of the name fail, as on a host
    # without the package.
    steps = _python(
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "from repro.backends import ScenarioSpec, run_spec\n"
        "from repro.protocols import make_protocol\n"
        "spec = ScenarioSpec.from_mbps(20, 42, 100, [make_protocol('reno')] * 2, steps=40)\n"
        "print(run_spec(spec, 'network', use_cache=False).steps)\n"
    )
    assert steps == 40


def test_root_names_resolve_and_are_listed():
    # The analysis-layer names resolve on first use, so a fresh
    # interpreter is the only place their lazy path runs.
    names = _python(
        "import json, repro\n"
        "print(json.dumps({'all': repro.__all__, 'dir': dir(repro),\n"
        "                  'unresolved': [n for n in repro.__all__\n"
        "                                 if getattr(repro, n, None) is None]}))\n"
    )
    assert names["unresolved"] == []
    assert set(names["all"]) <= set(names["dir"])

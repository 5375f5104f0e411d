"""What each entry point loads, checked in fresh interpreters.

``repro serve`` and every CLI subcommand load only what they run: the
package root resolves its analysis-layer names on first use, the CLI
imports each driver in the branch that runs it, keying a protocol never
reads ``numpy.random``, and no module imports networkx, which
``pyproject.toml`` does not declare. Each check runs in a subprocess,
since this test process has long since imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: What the serving path never loads.
_NEVER_SERVED = ("networkx", "numpy.random")

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


def test_cli_and_server_load_no_driver():
    loaded = _python("import repro.cli, repro.exec.serve\n" + _LOADED)
    assert _under(loaded, _NEVER_SERVED + _ANALYSIS_LAYERS) == []


def test_server_answers_every_backend_without_networkx_or_numpy_random(tmp_path):
    # With a store, every spec is keyed, so its protocols are too.
    answered = _python(
        "from repro.exec import Executor\n"
        "from repro.exec.client import ServeClient\n"
        "from repro.exec.serve import ServerThread\n"
        "link = {'bandwidth_mbps': 20.0, 'rtt_ms': 42.0, 'buffer_mss': 100.0}\n"
        "requests = {\n"
        "    'fluid': {'protocols': ['reno', 'cubic'], 'steps': 60, **link},\n"
        "    'network': {'protocols': ['reno', 'AIMD(2,0.5)'], 'steps': 60, **link},\n"
        "    'meanfield': {'protocols': ['reno'], 'flow_multiplicity': 50, 'steps': 60,\n"
        "                  **link},\n"
        "    'packet': {'protocols': ['reno', 'reno'], 'duration': 1.0, 'seed': 1, **link},\n"
        "}\n"
        "with ServerThread(executor=Executor()) as server:\n"
        "    client = ServeClient(port=server.port)\n"
        "    for backend, spec in requests.items():\n"
        "        assert client.run_specs([spec], backend)[0] is not None, backend\n"
        + _LOADED,
        REPRO_SIM_CACHE=str(tmp_path),
    )
    assert _under(answered, _NEVER_SERVED) == []
    assert list(tmp_path.glob("*/*")), "nothing was keyed into the store"


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

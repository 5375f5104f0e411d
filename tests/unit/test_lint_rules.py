"""Per-rule coverage for ``repro lint``: hit, clean pass, noqa suppression.

Each case writes a miniature ``repro/...`` tree into ``tmp_path`` (rule
scopes match on the package-relative path, so the directory layout is
part of the fixture) and runs the real engine over it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import REGISTRY, run_lint

# (rule code, module-relative path, violating source, clean source)
CASES = [
    (
        "REP101",
        "repro/analysis/noise.py",
        "import random\nx = random.random()\n",
        "import numpy as np\nrng = np.random.default_rng(42)\nx = rng.random()\n",
    ),
    (
        "REP101",
        "repro/analysis/entropy.py",
        "import numpy as np\nrng = np.random.default_rng()\n",
        "import numpy as np\nrng = np.random.default_rng(7)\n",
    ),
    (
        "REP102",
        "repro/packetsim/clocks.py",
        "import time\nstamp = time.time()\n",
        "def stamp(scheduler):\n    return scheduler.now\n",
    ),
    (
        "REP103",
        "repro/model/membership.py",
        "def drain(items):\n    for x in set(items):\n        yield x\n",
        "def drain(items):\n    for x in sorted(set(items)):\n        yield x\n",
    ),
    (
        "REP201",
        "repro/model/configs.py",
        (
            "from dataclasses import dataclass\n\n"
            "@dataclass\nclass SimulationConfig:\n    seed: int = 0\n\n"
            "    def __post_init__(self):\n        self._hidden = []\n"
        ),
        (
            "from dataclasses import dataclass\n\n"
            "@dataclass\nclass SimulationConfig:\n    seed: int = 0\n"
            "    hidden: tuple = ()\n\n"
            "    def __post_init__(self):\n        self.hidden = ()\n"
        ),
    ),
    (
        "REP301",
        "repro/protocols/custom.py",
        "from repro.protocols.base import Protocol\n\nclass Hollow(Protocol):\n    pass\n",
        (
            "from repro.protocols.base import Protocol\n\n"
            "class Solid(Protocol):\n"
            "    def next_window(self, obs):\n        return obs.window\n"
        ),
    ),
    (
        "REP302",
        "repro/protocols/vector.py",
        (
            "from repro.protocols.base import Protocol\n\n"
            "class Fast(Protocol):\n"
            "    supports_vectorized = True\n"
            "    def next_window(self, obs):\n        return obs.window\n"
            "    def vectorized_next(self, windows, rtt):\n        return windows\n"
        ),
        (
            "from repro.protocols.base import Protocol\n\n"
            "class Fast(Protocol):\n"
            "    supports_vectorized = True\n"
            "    def next_window(self, obs):\n        return obs.window\n"
            "    def vectorized_next(self, windows, loss_rate, rtt):\n"
            "        return windows\n"
        ),
    ),
    (
        "REP303",
        "repro/backends/custom.py",
        (
            "from repro.backends.base import Backend\n\n"
            "class GhostBackend(Backend):\n"
            "    name = 'ghost'\n"
            "    def run(self, spec):\n        return None\n"
        ),
        (
            "from repro.backends.base import Backend, register_backend\n\n"
            "class SteadyBackend(Backend):\n"
            "    name = 'steady'\n"
            "    def run(self, spec):\n        return None\n\n"
            "register_backend(SteadyBackend())\n"
        ),
    ),
    (
        "REP401",
        "repro/packetsim/packet.py",
        "class Record:\n    def __init__(self):\n        self.a = 1\n",
        "class Record:\n    __slots__ = ('a',)\n    def __init__(self):\n        self.a = 1\n",
    ),
    (
        "REP402",
        "repro/experiments/driver.py",
        "def run(grid=[]):\n    return grid\n",
        "def run(grid=None):\n    return grid or []\n",
    ),
    (
        "REP403",
        "repro/model/kernels.py",
        (
            "def batched_next(windows, loss_rate, rtt):\n"
            "    if loss_rate > 0:\n"
            "        return windows * 0.5\n"
            "    return windows + 1.0\n"
        ),
        (
            "import numpy as np\n\n"
            "def batched_next(windows, loss_rate, rtt):\n"
            "    return np.where(loss_rate > 0.0, windows * 0.5, windows + 1.0)\n"
        ),
    ),
    (
        "REP403",
        "repro/model/batch.py",
        (
            "def batched_dispatch(windows, classes):\n"
            "    if classes:\n"
            "        return windows * 0.5\n"
            "    return windows + 1.0\n"
        ),
        # Masked dispatch: branching on a scalar mask reduction picks a
        # dispatch segment for the whole batch on purpose — not flagged.
        (
            "def batched_dispatch(windows, classes):\n"
            "    out = windows + 0.0\n"
            "    for k in range(2):\n"
            "        if (classes == k).any():\n"
            "            out = out + (classes == k)\n"
            "        if (classes == k).sum() == 0:\n"
            "            continue\n"
            "    return out\n"
        ),
    ),
    (
        "REP404",
        "repro/meanfield/kernel.py",
        (
            "def meanfield_deposit(mass, index, cells):\n"
            "    out = [0.0] * cells\n"
            "    for i, m in zip(index, mass):\n"
            "        out[i] += m\n"
            "    return out\n"
        ),
        (
            "import numpy as np\n\n"
            "def meanfield_deposit(mass, index, cells):\n"
            "    return np.bincount(index, weights=mass, minlength=cells)\n"
        ),
    ),
    (
        "REP404",
        "repro/meanfield/moments.py",
        (
            "def meanfield_moment(mass, points):\n"
            "    return sum(m * x for m, x in zip(mass, points))\n"
        ),
        (
            "def meanfield_moment(mass, points):\n"
            "    return float(mass @ points)\n"
        ),
    ),
    (
        "REP501",
        "repro/core/compare.py",
        "def same(a, b):\n    return a == b / 2\n",
        "def same(a, b):\n    return abs(a - b / 2) < 1e-12\n",
    ),
    (
        # The batched rendering branches on loss > 0.001 while the scalar
        # branches on loss > 0.0 — a drifted constant REP601 must localize.
        "REP601",
        "repro/protocols/drift.py",
        (
            "import numpy as np\n"
            "from repro.protocols.base import Protocol\n\n"
            "class Drifty(Protocol):\n"
            "    supports_batched = True\n"
            "    batch_param_names = ('a', 'b')\n\n"
            "    def __init__(self, a=1.0, b=0.5):\n"
            "        self.a = a\n        self.b = b\n\n"
            "    def next_window(self, obs):\n"
            "        if obs.loss_rate > 0.0:\n"
            "            return obs.window * self.b\n"
            "        return obs.window + self.a\n\n"
            "    @staticmethod\n"
            "    def batched_next(windows, loss_rate, rtt, params):\n"
            "        return np.where(loss_rate > 0.001,\n"
            "                        windows * params['b'],\n"
            "                        windows + params['a'])\n"
        ),
        (
            "import numpy as np\n"
            "from repro.protocols.base import Protocol\n\n"
            "class Drifty(Protocol):\n"
            "    supports_batched = True\n"
            "    batch_param_names = ('a', 'b')\n\n"
            "    def __init__(self, a=1.0, b=0.5):\n"
            "        self.a = a\n        self.b = b\n\n"
            "    def next_window(self, obs):\n"
            "        if obs.loss_rate > 0.0:\n"
            "            return obs.window * self.b\n"
            "        return obs.window + self.a\n\n"
            "    @staticmethod\n"
            "    def batched_next(windows, loss_rate, rtt, params):\n"
            "        return np.where(loss_rate > 0.0,\n"
            "                        windows * params['b'],\n"
            "                        windows + params['a'])\n"
        ),
    ),
    (
        # Advertises batched coverage but implements no batched_next.
        "REP602",
        "repro/protocols/ghost.py",
        (
            "from repro.protocols.base import Protocol\n\n"
            "class Ghost(Protocol):\n"
            "    supports_batched = True\n\n"
            "    def next_window(self, obs):\n"
            "        if obs.loss_rate > 0.0:\n"
            "            return obs.window * 0.5\n"
            "        return obs.window + 1.0\n"
        ),
        (
            "import numpy as np\n"
            "from repro.protocols.base import Protocol\n\n"
            "class Ghost(Protocol):\n"
            "    supports_batched = True\n\n"
            "    def next_window(self, obs):\n"
            "        if obs.loss_rate > 0.0:\n"
            "            return obs.window * 0.5\n"
            "        return obs.window + 1.0\n\n"
            "    @staticmethod\n"
            "    def batched_next(windows, loss_rate, rtt, params):\n"
            "        return np.where(loss_rate > 0.0,\n"
            "                        windows * 0.5, windows + 1.0)\n"
        ),
    ),
    (
        # Declares a batch parameter column ('b') the kernel never reads.
        "REP603",
        "repro/protocols/lean.py",
        (
            "from repro.protocols.base import Protocol\n\n"
            "class Lean(Protocol):\n"
            "    supports_batched = True\n"
            "    batch_param_names = ('a', 'b')\n\n"
            "    def __init__(self, a=1.0):\n"
            "        self.a = a\n\n"
            "    def next_window(self, obs):\n"
            "        return obs.window + self.a\n\n"
            "    @staticmethod\n"
            "    def batched_next(windows, loss_rate, rtt, params):\n"
            "        return windows + params['a']\n"
        ),
        (
            "from repro.protocols.base import Protocol\n\n"
            "class Lean(Protocol):\n"
            "    supports_batched = True\n"
            "    batch_param_names = ('a',)\n\n"
            "    def __init__(self, a=1.0):\n"
            "        self.a = a\n\n"
            "    def next_window(self, obs):\n"
            "        return obs.window + self.a\n\n"
            "    @staticmethod\n"
            "    def batched_next(windows, loss_rate, rtt, params):\n"
            "        return windows + params['a']\n"
        ),
    ),
    (
        # The write's lower bound is `lo - 1`: it overlaps the previous
        # worker's chunk, so the slice is not a clean [lo:hi].
        "REP701",
        "repro/backends/worker.py",
        (
            "import numpy as np\n"
            "from multiprocessing import shared_memory\n\n"
            "def worker(shm_name, steps, total_rows, lo, hi):\n"
            "    shm = shared_memory.SharedMemory(name=shm_name)\n"
            "    full = np.ndarray((steps, total_rows), dtype=np.float64,\n"
            "                      buffer=shm.buf)\n"
            "    full[:, lo - 1:hi] = 1.0\n"
            "    shm.close()\n"
        ),
        (
            "import numpy as np\n"
            "from multiprocessing import shared_memory\n\n"
            "def worker(shm_name, steps, total_rows, lo, hi):\n"
            "    shm = shared_memory.SharedMemory(name=shm_name)\n"
            "    full = np.ndarray((steps, total_rows), dtype=np.float64,\n"
            "                      buffer=shm.buf)\n"
            "    full[:, lo:hi] = 1.0\n"
            "    shm.close()\n"
        ),
    ),
    (
        # `full.sum()` reduces over every worker's rows, not just [lo:hi].
        "REP702",
        "repro/backends/collector.py",
        (
            "import numpy as np\n"
            "from multiprocessing import shared_memory\n\n"
            "def collector(shm_name, steps, rows, lo, hi):\n"
            "    shm = shared_memory.SharedMemory(name=shm_name)\n"
            "    full = np.ndarray((steps, rows), dtype=np.float64,\n"
            "                      buffer=shm.buf)\n"
            "    total = float(full.sum())\n"
            "    full[:, lo:hi] = total\n"
            "    shm.close()\n"
        ),
        (
            "import numpy as np\n"
            "from multiprocessing import shared_memory\n\n"
            "def collector(shm_name, steps, rows, lo, hi):\n"
            "    shm = shared_memory.SharedMemory(name=shm_name)\n"
            "    full = np.ndarray((steps, rows), dtype=np.float64,\n"
            "                      buffer=shm.buf)\n"
            "    total = float(full[:, lo:hi].sum())\n"
            "    full[:, lo:hi] = total\n"
            "    shm.close()\n"
        ),
    ),
]


def _write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


@pytest.mark.parametrize("code,rel,bad,clean", CASES,
                         ids=[f"{c[0]}-{Path(c[1]).stem}" for c in CASES])
def test_rule_hit_clean_and_noqa(tmp_path, code, rel, bad, clean):
    bad_root = _write_tree(tmp_path / "bad", {rel: bad})
    hits = run_lint([bad_root]).findings
    assert [f.code for f in hits] == [code], hits

    clean_root = _write_tree(tmp_path / "clean", {rel: clean})
    assert run_lint([clean_root]).findings == []

    # Suppress on the finding's line; the finding must vanish and be counted.
    lines = bad.splitlines()
    lines[hits[0].line - 1] += "  # repro: noqa[%s] test fixture" % code
    noqa_root = _write_tree(tmp_path / "noqa", {rel: "\n".join(lines) + "\n"})
    result = run_lint([noqa_root])
    assert result.findings == []
    assert result.suppressed == 1


def test_rep202_stale_exclusion_and_clean(tmp_path):
    files = {
        "repro/model/dynamics.py": (
            "from dataclasses import dataclass\n\n"
            "@dataclass\nclass SimulationConfig:\n"
            "    seed: int = 0\n    allow_vectorized: bool = True\n"
        ),
        "repro/perf/cache.py": (
            "_EXCLUDED_CONFIG_FIELDS = frozenset({'allow_vectorized', 'ghost'})\n"
        ),
    }
    root = _write_tree(tmp_path / "bad", files)
    findings = run_lint([root]).findings
    assert [f.code for f in findings] == ["REP202"]
    assert "ghost" in findings[0].message

    files["repro/perf/cache.py"] = (
        "_EXCLUDED_CONFIG_FIELDS = frozenset({'allow_vectorized'})\n"
    )
    clean_root = _write_tree(tmp_path / "clean", files)
    assert run_lint([clean_root]).findings == []

    # Bare (code-less) noqa suppresses project-rule findings too.
    files["repro/perf/cache.py"] = (
        "_EXCLUDED_CONFIG_FIELDS = frozenset({'ghost'})  # repro: noqa\n"
    )
    noqa_root = _write_tree(tmp_path / "noqa", files)
    result = run_lint([noqa_root])
    assert result.findings == []
    assert result.suppressed == 1


def test_inherited_protocol_methods_are_accepted(tmp_path):
    # A subclass of a concrete family inherits next_window/vectorized_next.
    root = _write_tree(tmp_path, {
        "repro/protocols/family.py": (
            "from repro.protocols.base import Protocol\n\n"
            "class Base(Protocol):\n"
            "    supports_vectorized = True\n"
            "    def next_window(self, obs):\n        return obs.window\n"
            "    def vectorized_next(self, windows, loss_rate, rtt):\n"
            "        return windows\n\n"
            "class Derived(Base):\n"
            "    def reset(self):\n        return None\n"
        ),
    })
    assert run_lint([root]).findings == []


def test_rep303_unregistered_backends(tmp_path):
    root = _write_tree(tmp_path / "bad", {
        "repro/backends/ghost.py": (
            "from repro.backends.base import Backend\n\n"
            "class GhostBackend(Backend):\n"
            "    name = 'ghost'\n"
            "    def run(self, spec):\n        return None\n"
        ),
    })
    findings = run_lint([root]).findings
    assert [f.code for f in findings] == ["REP303"]
    assert "register_backend" in findings[0].message

    # A subclass inheriting ``run`` from a registered concrete base only
    # needs its own registration call.
    clean_root = _write_tree(tmp_path / "clean", {
        "repro/backends/family.py": (
            "from repro.backends.base import Backend, register_backend\n\n"
            "class BaseBackend(Backend):\n"
            "    name = 'base'\n"
            "    def run(self, spec):\n        return None\n\n"
            "class ChildBackend(BaseBackend):\n"
            "    name = 'child'\n\n"
            "register_backend(BaseBackend())\n"
            "register_backend(ChildBackend())\n"
        ),
    })
    assert run_lint([clean_root]).findings == []

    # The scope is repro/backends — identical code elsewhere is not flagged.
    elsewhere = _write_tree(tmp_path / "elsewhere", {
        "repro/experiments/ghost.py": (
            "from repro.backends.base import Backend\n\n"
            "class GhostBackend(Backend):\n"
            "    name = 'ghost'\n"
            "    def run(self, spec):\n        return None\n"
        ),
    })
    assert run_lint([elsewhere]).findings == []


def test_select_and_ignore_filter_rules(tmp_path):
    root = _write_tree(tmp_path, {
        "repro/packetsim/mixed.py": (
            "import random\n"
            "def run(grid=[]):\n    return random.random()\n"
        ),
    })
    every = run_lint([root]).findings
    assert {f.code for f in every} == {"REP101", "REP402"}
    only = run_lint([root], select=["REP101"]).findings
    assert {f.code for f in only} == {"REP101"}
    rest = run_lint([root], ignore=["REP101"]).findings
    assert {f.code for f in rest} == {"REP402"}
    with pytest.raises(ValueError, match="unknown rule code"):
        run_lint([root], select=["REP999"])


def test_parse_error_is_reported_not_fatal(tmp_path):
    root = _write_tree(tmp_path, {"repro/broken.py": "def oops(:\n"})
    result = run_lint([root])
    assert not result.ok
    assert [f.code for f in result.all_findings()] == ["REP000"]


def test_registry_covers_all_contract_families():
    codes = set(REGISTRY)
    assert {"REP101", "REP102", "REP103", "REP201", "REP202",
            "REP301", "REP302", "REP303", "REP401", "REP402", "REP501"} <= codes
    for rule in REGISTRY.values():
        assert rule.code.startswith("REP")
        assert rule.description

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
        # ScenarioSpec keys every store entry (repro.perf.store.unified_key
        # walks its fields), so hidden state there aliases store entries.
        "REP201",
        "repro/backends/spec.py",
        (
            "from dataclasses import dataclass\n\n"
            "@dataclass\nclass ScenarioSpec:\n    protocols: list\n\n"
            "    def __post_init__(self):\n"
            "        self.protocols = list(self.protocols)\n"
            "        self._n_flows = len(self.protocols)\n"
        ),
        (
            "from dataclasses import dataclass\n\n"
            "@dataclass\nclass ScenarioSpec:\n    protocols: list\n\n"
            "    def __post_init__(self):\n"
            "        self.protocols = list(self.protocols)\n"
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
        # A while on a scalar mask reduction ('.any()') is exempt; the same
        # loop on any other reduction of a kernel input is flagged.
        "REP404",
        "repro/meanfield/drain.py",
        (
            "def meanfield_drain(mass):\n"
            "    while mass.max() > 0.0:\n"
            "        mass = mass - 1.0\n"
            "    return mass\n"
        ),
        (
            "def meanfield_drain(mass):\n"
            "    while (mass > 0.0).any():\n"
            "        mass = mass - 1.0\n"
            "    return mass\n"
        ),
    ),
    (
        "REP501",
        "repro/core/compare.py",
        "def same(a, b):\n    return a == b / 2\n",
        "def same(a, b):\n    return abs(a - b / 2) < 1e-12\n",
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
            "    seed: int = 0\n    initial_windows: tuple = ()\n"
        ),
        "repro/perf/cache.py": (
            "_EXCLUDED_CONFIG_FIELDS = frozenset({'initial_windows', 'ghost'})\n"
        ),
    }
    root = _write_tree(tmp_path / "bad", files)
    findings = run_lint([root]).findings
    assert [f.code for f in findings] == ["REP202"]
    assert "ghost" in findings[0].message

    files["repro/perf/cache.py"] = (
        "_EXCLUDED_CONFIG_FIELDS = frozenset({'initial_windows'})\n"
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
    assert codes == {"REP101", "REP102", "REP103", "REP201", "REP202",
                     "REP401", "REP402", "REP404", "REP501"}
    for rule in REGISTRY.values():
        assert rule.code.startswith("REP")
        assert rule.description

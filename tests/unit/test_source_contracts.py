"""Source contracts that a passing suite cannot see.

The paper's tables and figures regenerate bit for bit because every
trace is a deterministic function of its spec; the store keys and the
raw-uint64 identity suites rest on that. Part of the contract is
invisible at run time: a defect there sits on a path the suites do not
run, changes nothing they observe yet, or costs only speed or memory.
The checks here hold it on the source instead:

- eight AST checks run over every file of ``src/repro`` in their scope
  (each file parsed once), and over a violating and a clean snippet in
  ``CASES``, so none can pass by matching nothing;
- REP202 and REP401 import the modules they guard and assert on them.

``docs/static-analysis.md`` lists each check with its scope and the
seeded defect it catches.
"""

from __future__ import annotations

import ast
import enum
import inspect
import re
import sys
import tomllib
import types
from collections import Counter
from dataclasses import fields
from pathlib import Path
from typing import Callable, Iterator

import pytest

from repro.model.dynamics import SimulationConfig
from repro.packetsim import engine, packet
from repro.perf.cache import _EXCLUDED_CONFIG_FIELDS

SRC = Path(__file__).resolve().parents[2] / "src"

Finding = tuple[ast.AST, str]


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def _import_map(tree: ast.Module) -> dict[str, str]:
    """Local name -> real dotted origin, from the file's import statements.

    ``import numpy as np`` maps ``np -> numpy``; ``from numpy import
    random`` maps ``random -> numpy.random``; ``from time import time``
    maps ``time -> time.time``.
    """
    mapping: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                mapping[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name != "*":
                    mapping[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return mapping


def _dotted(node: ast.AST, imports: dict[str, str]) -> str | None:
    """Resolve a Name/Attribute chain to its imported dotted origin."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(imports.get(node.id, node.id))
    return ".".join(reversed(parts))


def _base_name(node: ast.expr) -> str | None:
    """The trailing name of an expression (``base.Protocol`` -> ``Protocol``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):  # Generic[...] bases
        return _base_name(node.value)
    return None


def _names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


# ----------------------------------------------------------------------
# REP101 — unseeded randomness
# ----------------------------------------------------------------------
#: Module-level RNG entry points whose state is process-global.
_UNSEEDED_CALLS = frozenset(
    [f"random.{name}" for name in (
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "normalvariate", "expovariate",
        "betavariate", "gammavariate", "lognormvariate", "paretovariate",
        "triangular", "vonmisesvariate", "weibullvariate", "seed",
        "getrandbits", "randbytes",
    )]
    + [f"numpy.random.{name}" for name in (
        "seed", "rand", "randn", "randint", "random", "random_sample",
        "ranf", "sample", "choice", "shuffle", "permutation", "uniform",
        "normal", "exponential", "geometric", "poisson", "binomial",
        "beta", "gamma", "standard_normal", "bytes", "lognormal",
        "pareto", "weibull", "laplace", "gumbel", "triangular",
    )]
)

#: Constructors that draw OS entropy when called without a seed.
_SEEDABLE_CTORS = frozenset({"numpy.random.default_rng", "random.Random"})


def unseeded_random(tree: ast.Module) -> Iterator[Finding]:
    """Every RNG must derive from a seed the spec carries."""
    imports = _import_map(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func, imports)
        if dotted in _UNSEEDED_CALLS:
            yield node, f"module-level RNG '{dotted}' is not seeded per run"
        elif dotted in _SEEDABLE_CTORS and not node.args and not node.keywords:
            yield node, f"'{dotted}()' without a seed draws OS entropy"


# ----------------------------------------------------------------------
# REP102 — host clock in simulator code
# ----------------------------------------------------------------------
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


def wall_clock(tree: ast.Module) -> Iterator[Finding]:
    """Simulators read the simulated clock, never the host's."""
    imports = _import_map(tree)
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Attribute, ast.Name)):
            continue
        if not isinstance(node.ctx, ast.Load):
            continue
        dotted = _dotted(node, imports)
        if dotted in _WALL_CLOCK:
            yield node, f"host clock '{dotted}' in simulator code"


# ----------------------------------------------------------------------
# REP103 — set iteration order in simulator code
# ----------------------------------------------------------------------
def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def set_iteration(tree: ast.Module) -> Iterator[Finding]:
    """Set order depends on hashing; simulator event order must not."""
    iterated: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iterated.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            iterated.extend(generator.iter for generator in node.generators)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple")
            and node.args
        ):
            iterated.append(node.args[0])
    for node in iterated:
        if _is_set_expr(node):
            yield node, "iterates over a set; sort it or use a sequence"


# ----------------------------------------------------------------------
# REP201 — hidden state on store-keyed config classes
# ----------------------------------------------------------------------
#: Classes whose dataclass fields are the store key (``repro.perf.cache``
#: canonicalizes through ``dataclasses.fields``, and
#: ``repro.perf.store.unified_key`` walks every ``ScenarioSpec`` field):
#: an attribute outside the field list is state the key cannot see.
_KEYED_CLASSES = frozenset({"ScenarioSpec", "SimulationConfig", "PacketScenario", "FlowSpec"})


def keyed_hidden_state(tree: ast.Module) -> Iterator[Finding]:
    """Store-keyed configs keep all their state in dataclass fields."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or node.name not in _KEYED_CLASSES:
            continue
        declared: set[str] = set()
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                declared.add(stmt.target.id)
            elif isinstance(stmt, ast.Assign):
                declared.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(method):
                targets: list[ast.expr] = []
                if isinstance(inner, ast.Assign):
                    targets = inner.targets
                elif isinstance(inner, (ast.AnnAssign, ast.AugAssign)):
                    targets = [inner.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and target.attr not in declared
                    ):
                        yield target, (
                            f"'{node.name}.{target.attr}' is not a dataclass "
                            "field; the store key cannot see it"
                        )


# ----------------------------------------------------------------------
# REP402 — mutable default arguments
# ----------------------------------------------------------------------
_MUTABLE_CTORS = frozenset({
    "list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter", "OrderedDict",
})


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    return isinstance(node, ast.Call) and _base_name(node.func) in _MUTABLE_CTORS


def mutable_default(tree: ast.Module) -> Iterator[Finding]:
    """A mutable default is shared across calls, so state leaks between runs."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        defaults = list(node.args.defaults) + [d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            if _is_mutable_default(default):
                label = getattr(node, "name", "<lambda>")
                yield default, f"mutable default argument in '{label}'"


# ----------------------------------------------------------------------
# REP404 — Python loops over the grid in mean-field kernels
# ----------------------------------------------------------------------
#: Reductions whose scalar truth value is the point of a loop test.
_MASK_REDUCTIONS = frozenset({"any", "all", "sum", "count_nonzero"})


def _argument_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> frozenset[str]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    names.extend(extra.arg for extra in (args.vararg, args.kwarg) if extra is not None)
    return frozenset(names)


def _is_mask_reduction(node: ast.expr) -> bool:
    """Whether a loop test collapses the grid to one deliberate scalar.

    ``while mask.any():`` or ``while (grid == k).sum() > 0:`` evaluates
    one truth value for the whole grid, so a test whose every
    input-touching leaf passes through a reduction call is exempt.
    """
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MASK_REDUCTIONS:
            return True
    if isinstance(node, ast.Compare):
        return _is_mask_reduction(node.left) and all(
            _is_mask_reduction(c) or not _names_in(c) for c in node.comparators
        )
    if isinstance(node, ast.BoolOp):
        return all(_is_mask_reduction(v) or not _names_in(v) for v in node.values)
    if isinstance(node, ast.UnaryOp):
        return _is_mask_reduction(node.operand)
    return False


def meanfield_kernel_loop(tree: ast.Module) -> Iterator[Finding]:
    """A ``meanfield_*`` kernel stays whole-array: O(grid) in compiled code."""
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not node.name.startswith("meanfield_"):
            continue
        params = _argument_names(node)
        for inner in ast.walk(node):
            if isinstance(inner, (ast.For, ast.AsyncFor)):
                tainted = _names_in(inner.iter) & params
                loop = "a Python for loop"
            elif isinstance(inner, ast.While):
                exempt = _is_mask_reduction(inner.test)
                tainted = set() if exempt else _names_in(inner.test) & params
                loop = "a Python while"
            elif isinstance(inner, comprehensions):
                tainted = set().union(*(_names_in(gen.iter) for gen in inner.generators)) & params
                loop = "a comprehension"
            else:
                continue
            if tainted:
                yield inner, (
                    f"'{node.name}' walks grid input(s) {', '.join(sorted(tainted))} "
                    f"with {loop}; use whole-array numpy operations"
                )


# ----------------------------------------------------------------------
# REP501 — float equality
# ----------------------------------------------------------------------
_MATH_NOT_FLOAT = ("isnan", "isinf", "isfinite", "floor", "ceil", "trunc", "isclose")


def _is_floatish(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return _is_floatish(node.operand)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):  # true division is always float
            return True
        return _is_floatish(node.left) or _is_floatish(node.right)
    if isinstance(node, ast.Call):
        name = _base_name(node.func)
        if name == "float":
            return True
        if isinstance(node.func, ast.Attribute):
            root = node.func.value
            if isinstance(root, ast.Name) and root.id == "math":
                return name not in _MATH_NOT_FLOAT
    return False


def float_equality(tree: ast.Module) -> Iterator[Finding]:
    """Statistics and metrics compare floats with a tolerance."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)) and (_is_floatish(left) or _is_floatish(right)):
                yield node, "float ==/!= comparison; use a tolerance"
                break


#: The exact float comparisons that are right by construction, keyed by
#: file and enclosing function. Each entry must match exactly one
#: comparison: a second one in the same function, or none, fails REP501.
EXACT_FLOAT_SITES = {
    ("repro/analysis/stats.py", "loss_free_runs"):
        "a loss-free step carries the exact 0.0 that Link.loss_rate assigns",
    ("repro/core/metrics/loss_avoidance.py", "loss_avoidance_from_trace"):
        "the max of exact 0.0 entries is exactly 0.0",
    ("repro/core/theory/theorems.py", "claim1_consistent"):
        "Claim 1 is about exactly zero, and the estimator returns an exact "
        "0.0 when no loss-free interval qualifies",
}


# ----------------------------------------------------------------------
# REP801 — undeclared third-party imports
# ----------------------------------------------------------------------
def _declared_dependencies() -> frozenset[str]:
    """The import names of ``pyproject.toml``'s dependencies (``numpy>=1.24``
    -> ``numpy``)."""
    pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))
    return frozenset(
        re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower().replace("-", "_")
        for requirement in pyproject["project"]["dependencies"]
    )


_DECLARED = _declared_dependencies()


def _import_time_nodes(tree: ast.Module) -> Iterator[ast.AST]:
    """Every node that runs when the module loads: all but function bodies."""
    pending: list[ast.AST] = list(tree.body)
    while pending:
        node = pending.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            pending.extend(ast.iter_child_nodes(node))


def undeclared_import(tree: ast.Module) -> Iterator[Finding]:
    """A top-level import is stdlib, ``repro`` or a declared dependency.

    ``pip install .`` brings only what ``pyproject.toml`` declares, so an
    undeclared one fails the import wherever it is not already installed.
    """
    for node in _import_time_nodes(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.partition(".")[0]
            if top not in sys.stdlib_module_names and top != "repro" and top not in _DECLARED:
                yield node, f"'{name}' is neither stdlib nor declared in pyproject.toml"


# ----------------------------------------------------------------------
# The AST checks, each with its scope
# ----------------------------------------------------------------------
_SIMULATORS = ("repro/packetsim/", "repro/model/", "repro/netmodel/", "repro/meanfield/")

#: Code -> (module-path prefixes the check covers, the check).
AST_CHECKS: dict[str, tuple[tuple[str, ...], Callable[[ast.Module], Iterator[Finding]]]] = {
    "REP101": (("repro/",), unseeded_random),
    "REP102": ((*_SIMULATORS, "repro/protocols/"), wall_clock),
    "REP103": (_SIMULATORS, set_iteration),
    "REP201": (("repro/",), keyed_hidden_state),
    "REP402": (("repro/",), mutable_default),
    "REP404": (("repro/meanfield/", "repro/model/", "repro/backends/"), meanfield_kernel_loop),
    "REP501": (("repro/core/", "repro/analysis/", "repro/packetsim/"), float_equality),
    "REP801": (("repro/",), undeclared_import),
}


def _findings(module: str, tree: ast.Module) -> list[tuple[str, int, str]]:
    """(code, line, message) of every AST check whose scope covers ``module``."""
    return [
        (code, node.lineno, message)
        for code, (scope, check) in AST_CHECKS.items()
        if module.startswith(scope)
        for node, message in check(tree)
    ]


@pytest.fixture(scope="module")
def src_trees() -> dict[str, ast.Module]:
    """Every module of the package, keyed ``repro/...``, parsed once."""
    return {
        path.relative_to(SRC).as_posix(): ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted((SRC / "repro").rglob("*.py"))
    }


def _enclosing_function(tree: ast.Module, line: int) -> str:
    """The innermost function around ``line`` (``ast.walk`` goes outside in)."""
    name = "<module>"
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.lineno <= line <= (node.end_lineno or node.lineno):
                name = node.name
    return name


@pytest.mark.parametrize("code", sorted(AST_CHECKS))
def test_src_keeps_contract(code, src_trees):
    scope, check = AST_CHECKS[code]
    trees = {module: tree for module, tree in src_trees.items() if module.startswith(scope)}
    assert trees, f"{code} covers no file"
    allowed = EXACT_FLOAT_SITES if code == "REP501" else {}
    matched: Counter = Counter()
    violations = []
    for module, tree in trees.items():
        for node, message in check(tree):
            site = (module, _enclosing_function(tree, node.lineno))
            if site in allowed:
                matched[site] += 1
            else:
                violations.append(f"{module}:{node.lineno}: {code} {message}")
    assert violations == []
    assert {site: matched[site] for site in allowed} == dict.fromkeys(allowed, 1)


# (check code, module path, violating source, clean source)
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
        # The network simulator is a simulator too: its run loop reads the
        # simulated step, never the host clock.
        "REP102",
        "repro/netmodel/dynamics.py",
        "import time\n\ndef run(steps):\n    started = time.perf_counter()\n    return started\n",
        "def run(steps):\n    return steps\n",
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
    (
        # networkx served a graph view nothing called, and pyproject.toml
        # never declared it.
        "REP801",
        "repro/netmodel/topology.py",
        "from dataclasses import dataclass\n\nimport networkx as nx\n",
        (
            "from __future__ import annotations\n\nfrom dataclasses import dataclass\n\n"
            "import numpy as np\n\nfrom repro.model.link import Link\n"
        ),
    ),
]


@pytest.mark.parametrize(
    "code,module,bad,clean", CASES, ids=[f"{c[0]}-{Path(c[1]).stem}" for c in CASES]
)
def test_check_flags_violation_and_passes_clean(code, module, bad, clean):
    assert [hit[0] for hit in _findings(module, ast.parse(bad))] == [code]
    assert _findings(module, ast.parse(clean)) == []


def test_rep202_excluded_config_fields_exist():
    """Every name kept out of the simulation key is a config field.

    A stale name (a renamed field, a typo) would let the field it meant
    back into the key, or keep a meaningful one out.
    """
    assert _EXCLUDED_CONFIG_FIELDS <= {f.name for f in fields(SimulationConfig)}


def _slotless(module: types.ModuleType) -> list[str]:
    """Non-enum classes ``module`` defines without ``__slots__``."""
    classes = [
        obj for obj in vars(module).values()
        if inspect.isclass(obj) and obj.__module__ == module.__name__
        and not issubclass(obj, enum.Enum)
    ]
    assert classes, f"{module.__name__} defines no class"
    return [cls.__name__ for cls in classes if "__slots__" not in vars(cls)]


def _snippet(source: str) -> types.ModuleType:
    module = types.ModuleType("snippet")
    exec(compile(source, "<snippet>", "exec"), vars(module))
    return module


def test_rep401_per_packet_classes_declare_slots():
    """Objects allocated per packet or event carry no ``__dict__``."""
    assert _slotless(_snippet("class Record:\n    def __init__(self):\n        self.a = 1\n")) == [
        "Record"
    ]
    assert _slotless(_snippet(
        "class Record:\n    __slots__ = ('a',)\n    def __init__(self):\n        self.a = 1\n"
    )) == []
    assert _slotless(packet) == []
    assert _slotless(engine) == []

"""The rule registry and the initial repo-contract rule set.

Rules are small AST visitors registered under stable codes. Codes are
grouped by contract family:

- ``REP1xx`` determinism (randomness, wall clock, iteration order),
- ``REP2xx`` cache-key safety (content-addressed trace cache),
- ``REP4xx`` hot-path hygiene (slots, mutable defaults, kernel loops),
- ``REP5xx`` float hygiene.

A rule is either a *file rule* (``checker(ctx)`` over one parsed file)
or a *project rule* (``checker(contexts)`` over every parsed file in the
run — used for cross-file contracts). Scopes are module-path prefixes in
``repro/...`` form, so a rule can target exactly the subtrees whose
contract it encodes; unscoped rules apply everywhere.

The full catalogue, with rationale tied to the cache/determinism
contracts, lives in ``docs/static-analysis.md``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.lint.findings import Finding, Severity

__all__ = ["FileContext", "Rule", "REGISTRY", "rule"]


@dataclass
class FileContext:
    """One parsed source file handed to the rules."""

    path: str
    module: str  # package-relative, e.g. ``repro/packetsim/engine.py``
    tree: ast.Module
    source: str
    noqa: dict[int, frozenset[str] | None] = field(default_factory=dict)


@dataclass(frozen=True)
class Rule:
    """A registered lint rule."""

    code: str
    name: str
    severity: Severity
    description: str
    checker: Callable
    scope: tuple[str, ...] | None = None
    project: bool = False

    def applies_to(self, module: str) -> bool:
        if self.scope is None:
            return True
        return any(module.startswith(prefix) for prefix in self.scope)

    def check(self, ctx: FileContext) -> list[Finding]:
        return list(self.checker(self, ctx))

    def check_project(self, contexts: dict[str, FileContext]) -> list[Finding]:
        scoped = {
            module: ctx
            for module, ctx in contexts.items()
            if self.applies_to(module)
        }
        return list(self.checker(self, scoped))


REGISTRY: dict[str, Rule] = {}


def rule(
    code: str,
    name: str,
    severity: Severity,
    description: str,
    scope: tuple[str, ...] | None = None,
    project: bool = False,
) -> Callable:
    """Register the decorated checker under ``code``."""

    def decorate(checker: Callable) -> Callable:
        if code in REGISTRY:
            raise ValueError(f"duplicate rule code {code}")
        REGISTRY[code] = Rule(
            code=code,
            name=name,
            severity=severity,
            description=description,
            checker=checker,
            scope=scope,
            project=project,
        )
        return checker

    return decorate


def _make(rule_: Rule, ctx: FileContext, node: ast.AST, message: str) -> Finding:
    return Finding(
        code=rule_.code,
        message=message,
        path=ctx.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        severity=rule_.severity,
    )


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
                if alias.name == "*":
                    continue
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
    root = imports.get(node.id, node.id)
    parts.append(root)
    return ".".join(reversed(parts))


def _base_name(node: ast.expr) -> str | None:
    """The trailing name of a base-class expression (``base.Protocol`` -> ``Protocol``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):  # Generic[...] bases
        return _base_name(node.value)
    return None


# ----------------------------------------------------------------------
# REP101 — unseeded randomness
# ----------------------------------------------------------------------
#: Module-level RNG entry points whose state is process-global (or, for
#: ``default_rng()``/``Random()`` with no arguments, OS-entropy seeded).
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

#: Constructors that are fine *with* a seed argument but hide OS entropy
#: (hence nondeterminism) when called bare.
_SEEDABLE_CTORS = frozenset({"numpy.random.default_rng", "random.Random"})


@rule(
    "REP101",
    "unseeded-random",
    Severity.ERROR,
    "module-level/unseeded RNG calls make runs irreproducible; use a "
    "seeded numpy Generator threaded through the call",
)
def _check_unseeded_random(rule_: Rule, ctx: FileContext) -> Iterator[Finding]:
    imports = _import_map(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func, imports)
        if dotted is None:
            continue
        if dotted in _UNSEEDED_CALLS:
            yield _make(
                rule_, ctx, node,
                f"call to module-level RNG '{dotted}' is not seeded per-run; "
                "thread a seeded numpy.random.default_rng(seed) through instead",
            )
        elif dotted in _SEEDABLE_CTORS and not node.args and not node.keywords:
            yield _make(
                rule_, ctx, node,
                f"'{dotted}()' without a seed draws OS entropy; pass an "
                "explicit seed so runs are reproducible",
            )


# ----------------------------------------------------------------------
# REP102 — wall-clock reads in simulator code
# ----------------------------------------------------------------------
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


@rule(
    "REP102",
    "wall-clock",
    Severity.ERROR,
    "simulator code must read the simulated clock, never the host's; "
    "wall-clock reads leak host timing into deterministic runs",
    scope=("repro/packetsim", "repro/model", "repro/protocols"),
)
def _check_wall_clock(rule_: Rule, ctx: FileContext) -> Iterator[Finding]:
    imports = _import_map(ctx.tree)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.Attribute, ast.Name)):
            continue
        if not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        dotted = _dotted(node, imports)
        if dotted in _WALL_CLOCK:
            yield _make(
                rule_, ctx, node,
                f"reference to host clock '{dotted}' inside simulator code; "
                "use the scheduler's simulated time instead",
            )


# ----------------------------------------------------------------------
# REP103 — iteration over sets in simulator code
# ----------------------------------------------------------------------
def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


@rule(
    "REP103",
    "set-iteration",
    Severity.ERROR,
    "set iteration order is hash-dependent; iterate a list/tuple or wrap "
    "in sorted() so simulator event order stays deterministic",
    scope=("repro/packetsim", "repro/model"),
)
def _check_set_iteration(rule_: Rule, ctx: FileContext) -> Iterator[Finding]:
    def flag(iter_node: ast.expr) -> Iterator[Finding]:
        if _is_set_expr(iter_node):
            yield _make(
                rule_, ctx, iter_node,
                "iterating over a set: order depends on hashing; sort it or "
                "use a sequence",
            )

    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield from flag(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for generator in node.generators:
                yield from flag(generator.iter)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple")
            and node.args
        ):
            yield from flag(node.args[0])


# ----------------------------------------------------------------------
# REP201 — hidden state on cache-keyed config classes
# ----------------------------------------------------------------------
#: Classes whose instances address content-addressed cache entries. Their
#: dataclass field list *is* the cache key (repro.perf.cache canonicalizes
#: via dataclasses.fields, and repro.perf.store.unified_key walks every
#: ScenarioSpec field), so any instance attribute outside that list is
#: state the key cannot see — two configs differing only in it would alias
#: the same cache entry.
CACHE_KEYED_CLASSES = frozenset(
    {"ScenarioSpec", "SimulationConfig", "PacketScenario", "FlowSpec"}
)


@rule(
    "REP201",
    "cache-key-hidden-state",
    Severity.ERROR,
    "cache-keyed config classes must keep all state in dataclass fields; "
    "hidden attributes silently alias cache entries",
)
def _check_cache_hidden_state(rule_: Rule, ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef) or node.name not in CACHE_KEYED_CLASSES:
            continue
        declared: set[str] = set()
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                declared.add(stmt.target.id)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        declared.add(target.id)
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
                        yield _make(
                            rule_, ctx, target,
                            f"'{node.name}.{target.attr}' is set outside the "
                            "dataclass field list; the cache key cannot see it "
                            "and entries would alias",
                        )


# ----------------------------------------------------------------------
# REP202 — stale cache-key exclusions
# ----------------------------------------------------------------------
@rule(
    "REP202",
    "cache-key-stale-exclusion",
    Severity.ERROR,
    "every name excluded from the simulation cache key must still be a "
    "SimulationConfig field; stale exclusions hide typos that would "
    "silently widen the key",
    project=True,
)
def _check_stale_exclusions(
    rule_: Rule, contexts: dict[str, FileContext]
) -> Iterator[Finding]:
    cache_ctx = contexts.get("repro/perf/cache.py")
    dynamics_ctx = contexts.get("repro/model/dynamics.py")
    if cache_ctx is None or dynamics_ctx is None:
        return
    config_fields: set[str] = set()
    for node in ast.walk(dynamics_ctx.tree):
        if isinstance(node, ast.ClassDef) and node.name == "SimulationConfig":
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    config_fields.add(stmt.target.id)
    if not config_fields:
        return
    for node in ast.walk(cache_ctx.tree):
        if not isinstance(node, ast.Assign):
            continue
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        if "_EXCLUDED_CONFIG_FIELDS" not in names:
            continue
        for constant in ast.walk(node.value):
            if isinstance(constant, ast.Constant) and isinstance(constant.value, str):
                if constant.value not in config_fields:
                    yield _make(
                        rule_, cache_ctx, constant,
                        f"excluded field '{constant.value}' is not a "
                        "SimulationConfig field (renamed or removed?); the "
                        "exclusion list is stale",
                    )


# ----------------------------------------------------------------------
# REP401 — __slots__ on hot-path record classes
# ----------------------------------------------------------------------
_ENUM_BASES = frozenset({"Enum", "IntEnum", "StrEnum", "Flag", "IntFlag"})


def _dataclass_slots(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        if isinstance(deco, ast.Call) and _base_name(deco.func) == "dataclass":
            for kw in deco.keywords:
                if (
                    kw.arg == "slots"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                ):
                    return True
    return False


@rule(
    "REP401",
    "slots-required",
    Severity.ERROR,
    "classes on the packet-level hot path must declare __slots__; a "
    "per-instance __dict__ multiplies steady-state allocation",
    scope=("repro/packetsim/packet.py", "repro/packetsim/engine.py"),
)
def _check_slots(rule_: Rule, ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if any(base in _ENUM_BASES for base in (_base_name(b) for b in node.bases)):
            continue
        if _dataclass_slots(node):
            continue
        has_slots = any(
            (isinstance(stmt, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "__slots__"
                     for t in stmt.targets))
            or (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "__slots__")
            for stmt in node.body
        )
        if not has_slots:
            yield _make(
                rule_, ctx, node,
                f"hot-path class '{node.name}' does not declare __slots__",
            )


# ----------------------------------------------------------------------
# REP402 — mutable default arguments
# ----------------------------------------------------------------------
_MUTABLE_CTORS = frozenset({
    "list", "dict", "set", "bytearray", "deque", "defaultdict",
    "Counter", "OrderedDict",
})


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _base_name(node.func)
        return name in _MUTABLE_CTORS
    return False


@rule(
    "REP402",
    "mutable-default",
    Severity.WARNING,
    "a mutable default argument is shared across calls — state leaks "
    "between runs, which is exactly the aliasing the simulators must avoid",
)
def _check_mutable_defaults(rule_: Rule, ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                label = getattr(node, "name", "<lambda>")
                yield _make(
                    rule_, ctx, default,
                    f"mutable default argument in '{label}'; use None and "
                    "create the container inside the function",
                )


# ----------------------------------------------------------------------
# REP404 — mean-field kernels must not Python-loop over grid cells
# ----------------------------------------------------------------------
def _argument_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> frozenset[str]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    for extra in (args.vararg, args.kwarg):
        if extra is not None:
            names.append(extra.arg)
    return frozenset(names)


def _names_in(node: ast.expr) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


#: Array reductions whose scalar truth value is the *point* of the loop test.
_MASK_REDUCTIONS = frozenset({"any", "all", "sum", "count_nonzero"})


def _is_mask_reduction(node: ast.expr) -> bool:
    """Whether a loop test collapses arrays to one deliberate scalar.

    ``while mask.any():`` or ``while (grid == k).sum() > 0:`` evaluates
    one truth value for the whole grid on purpose, so a test whose every
    input-touching leaf passes through a reduction call is exempt.
    """
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MASK_REDUCTIONS:
            return True
    if isinstance(node, ast.Compare):
        return _is_mask_reduction(node.left) and all(
            _is_mask_reduction(c) or not _names_in(c)
            for c in node.comparators
        )
    if isinstance(node, ast.BoolOp):
        return all(
            _is_mask_reduction(v) or not _names_in(v) for v in node.values
        )
    if isinstance(node, ast.UnaryOp):
        return _is_mask_reduction(node.operand)
    return False


@rule(
    "REP404",
    "meanfield-kernel-loop",
    Severity.ERROR,
    "a 'meanfield_*' kernel owes its O(1)-in-flows cost to whole-grid "
    "array passes; a Python for/while/comprehension over its grid inputs "
    "reintroduces per-cell interpreter cost — scatter with numpy.bincount "
    "and transform with array expressions instead",
    scope=("repro/meanfield", "repro/model", "repro/backends"),
)
def _check_meanfield_kernel_loops(
    rule_: Rule, ctx: FileContext
) -> Iterator[Finding]:
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not node.name.startswith("meanfield_"):
            continue
        params = _argument_names(node)
        for inner in ast.walk(node):
            if isinstance(inner, (ast.For, ast.AsyncFor)):
                tainted = sorted(_names_in(inner.iter) & params)
                if tainted:
                    yield _make(
                        rule_, ctx, inner,
                        f"'{node.name}' iterates over grid input(s) "
                        f"{', '.join(tainted)} with a Python for loop; use "
                        "whole-array numpy operations so the kernel stays "
                        "O(grid) in compiled code",
                    )
            elif isinstance(inner, ast.While):
                tainted = sorted(_names_in(inner.test) & params)
                if tainted and not _is_mask_reduction(inner.test):
                    yield _make(
                        rule_, ctx, inner,
                        f"'{node.name}' loops on grid input(s) "
                        f"{', '.join(tainted)} with a Python while; use "
                        "whole-array numpy operations instead",
                    )
            elif isinstance(inner, comprehensions):
                tainted = sorted(
                    set().union(
                        *(_names_in(gen.iter) for gen in inner.generators)
                    )
                    & params
                )
                if tainted:
                    yield _make(
                        rule_, ctx, inner,
                        f"'{node.name}' builds a comprehension over grid "
                        f"input(s) {', '.join(tainted)}; use whole-array "
                        "numpy operations instead",
                    )


# ----------------------------------------------------------------------
# REP501 — float equality
# ----------------------------------------------------------------------
def _is_floatish(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return _is_floatish(node.operand)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, (ast.Div,)):  # true division is always float
            return True
        return _is_floatish(node.left) or _is_floatish(node.right)
    if isinstance(node, ast.Call):
        name = _base_name(node.func)
        if name == "float":
            return True
        if isinstance(node.func, ast.Attribute):
            root = node.func.value
            if isinstance(root, ast.Name) and root.id == "math":
                return name not in ("isnan", "isinf", "isfinite", "floor",
                                    "ceil", "trunc", "isclose")
    return False


@rule(
    "REP501",
    "float-equality",
    Severity.WARNING,
    "==/!= between float expressions is only safe at exact-by-construction "
    "sites; mark those with a noqa and use tolerances elsewhere",
    scope=("repro/core", "repro/analysis", "repro/packetsim"),
)
def _check_float_equality(rule_: Rule, ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_floatish(left) or _is_floatish(right):
                yield _make(
                    rule_, ctx, node,
                    "float ==/!= comparison; use a tolerance, or mark the "
                    "site exact-by-construction with '# repro: noqa[REP501]'",
                )
                break

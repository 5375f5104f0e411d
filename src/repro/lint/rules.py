"""The rule registry and the initial repo-contract rule set.

Rules are small AST visitors registered under stable codes. Codes are
grouped by contract family:

- ``REP1xx`` determinism (randomness, wall clock, iteration order),
- ``REP2xx`` cache-key safety (content-addressed trace cache),
- ``REP3xx`` protocol interface conformance,
- ``REP4xx`` hot-path hygiene (slots, mutable defaults),
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

__all__ = ["FileContext", "Rule", "REGISTRY", "PROFILES", "rule"]

#: Valid rule profiles: ``fast`` rules run everywhere, ``full`` adds the
#: dataflow/symbolic families (REP6xx/REP7xx).
PROFILES = ("fast", "full")


@dataclass
class FileContext:
    """One parsed source file handed to the rules."""

    path: str
    module: str  # package-relative, e.g. ``repro/packetsim/engine.py``
    tree: ast.Module
    source: str
    noqa: dict[int, frozenset[str] | None] = field(default_factory=dict)
    #: Scratch space shared by every rule that analyzes this file — the
    #: dataflow layer memoizes per-function summaries here so the second
    #: rule asking about the same function pays nothing.
    cache: dict = field(default_factory=dict)


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
    #: ``"fast"`` rules run in every profile; ``"full"`` rules (the
    #: dataflow/equivalence families) only run under ``--profile full``,
    #: which is the default and what CI's full leg uses.
    profile: str = "fast"

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
    profile: str = "fast",
) -> Callable:
    """Register the decorated checker under ``code``."""
    if profile not in PROFILES:
        raise ValueError(f"unknown rule profile {profile!r}")

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
            profile=profile,
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


def _decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef) -> list[str]:
    names = []
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = _base_name(target)
        if name is not None:
            names.append(name)
    return names


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
#: via dataclasses.fields), so any instance attribute outside that list is
#: state the key cannot see — two configs differing only in it would alias
#: the same cache entry.
CACHE_KEYED_CLASSES = frozenset({"SimulationConfig", "PacketScenario", "FlowSpec"})


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
# REP301 / REP302 — protocol interface conformance
# ----------------------------------------------------------------------
def _signature_names(args: ast.arguments) -> list[str]:
    return [a.arg for a in args.posonlyargs + args.args]


def _required_positional(args: ast.arguments) -> int:
    total = len(args.posonlyargs) + len(args.args)
    return total - len(args.defaults)


def _class_literal(node: ast.expr | None) -> tuple[bool, object]:
    """(ok, value) for literals class bodies declare contracts with.

    Beyond plain constants, the protocol contract attributes are tuples
    (``batch_param_names``, ``meanfield_trigger``) and string dicts
    (``symbolic_roles``); the conformance and drift rules need their
    values, so this parses nested constant literals and refuses anything
    computed.
    """
    if isinstance(node, ast.Constant):
        return True, node.value
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, (int, float))
    ):
        return True, -node.operand.value
    if isinstance(node, ast.Tuple):
        elements = [_class_literal(e) for e in node.elts]
        if all(ok for ok, _ in elements):
            return True, tuple(value for _, value in elements)
    if isinstance(node, ast.Dict):
        if any(key is None for key in node.keys):
            return False, None
        keys = [_class_literal(k) for k in node.keys if k is not None]
        values = [_class_literal(v) for v in node.values]
        if all(ok for ok, _ in keys) and all(ok for ok, _ in values):
            return True, {k: v for (_, k), (_, v) in zip(keys, values)}
    return False, None


class _ClassInfo:
    __slots__ = ("ctx", "node", "bases", "methods", "assigns", "abstract")

    def __init__(self, ctx: FileContext, node: ast.ClassDef) -> None:
        self.ctx = ctx
        self.node = node
        self.bases = [name for b in node.bases if (name := _base_name(b))]
        self.methods: dict[str, ast.FunctionDef] = {}
        self.assigns: dict[str, object] = {}
        self.abstract = False
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.methods[stmt.name] = stmt
                if "abstractmethod" in _decorator_names(stmt):
                    self.abstract = True
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                ok, value = _class_literal(stmt.value)
                if ok:
                    self.assigns[stmt.target.id] = value
            elif isinstance(stmt, ast.Assign):
                ok, value = _class_literal(stmt.value)
                for target in stmt.targets:
                    if isinstance(target, ast.Name) and ok:
                        self.assigns[target.id] = value


def _collect_classes(contexts: dict[str, FileContext]) -> dict[str, _ClassInfo]:
    classes: dict[str, _ClassInfo] = {}
    for ctx in contexts.values():
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = _ClassInfo(ctx, node)
    return classes


def _protocol_families(classes: dict[str, _ClassInfo]) -> set[str]:
    """Names of classes transitively derived from ``Protocol``."""
    protocol_like = {"Protocol"}
    changed = True
    while changed:
        changed = False
        for name, info in classes.items():
            if name not in protocol_like and any(b in protocol_like for b in info.bases):
                protocol_like.add(name)
                changed = True
    protocol_like.discard("Protocol")
    return protocol_like


def _ancestry(name: str, classes: dict[str, _ClassInfo]) -> list[_ClassInfo]:
    """The class and its in-project ancestors, nearest first (BFS)."""
    chain: list[_ClassInfo] = []
    queue = [name]
    seen: set[str] = set()
    while queue:
        current = queue.pop(0)
        if current in seen or current not in classes:
            continue
        seen.add(current)
        info = classes[current]
        chain.append(info)
        queue.extend(info.bases)
    return chain


def _lookup_method(chain: list[_ClassInfo], method: str) -> tuple[_ClassInfo, ast.FunctionDef] | None:
    for info in chain:
        node = info.methods.get(method)
        if node is not None and "abstractmethod" not in _decorator_names(node):
            return info, node
    return None


def _lookup_flag(chain: list[_ClassInfo], attr: str) -> object:
    for info in chain:
        if attr in info.assigns:
            return info.assigns[attr]
    return None


@rule(
    "REP301",
    "protocol-interface",
    Severity.ERROR,
    "every Protocol subclass must provide next_window(self, obs) so the "
    "fluid and packet simulators can drive it interchangeably",
    project=True,
)
def _check_protocol_interface(
    rule_: Rule, contexts: dict[str, FileContext]
) -> Iterator[Finding]:
    classes = _collect_classes(contexts)
    for name in sorted(_protocol_families(classes)):
        info = classes[name]
        if info.abstract:
            continue
        chain = _ancestry(name, classes)
        found = _lookup_method(chain, "next_window")
        if found is None:
            yield _make(
                rule_, info.ctx, info.node,
                f"protocol class '{name}' does not implement next_window "
                "(and inherits no concrete implementation)",
            )
            continue
        owner, method = found
        if owner is not info:
            continue  # inherited implementation was checked on its owner
        names = _signature_names(method.args)
        extra_required = _required_positional(method.args) > 2
        kwonly_required = any(
            default is None for default in method.args.kw_defaults
        )
        if len(names) < 2 or extra_required or kwonly_required:
            yield _make(
                rule_, info.ctx, method,
                f"'{name}.next_window' must be callable as "
                "next_window(self, obs); extra required parameters break "
                "the simulator's call contract",
            )


@rule(
    "REP302",
    "vectorized-signature",
    Severity.ERROR,
    "protocols opting into the vectorized fast path must implement "
    "vectorized_next(self, windows, loss_rate, rtt) exactly; a mismatch "
    "breaks the bit-identity contract with next_window",
    project=True,
)
def _check_vectorized_signature(
    rule_: Rule, contexts: dict[str, FileContext]
) -> Iterator[Finding]:
    classes = _collect_classes(contexts)
    expected = ["self", "windows", "loss_rate", "rtt"]
    for name in sorted(_protocol_families(classes)):
        info = classes[name]
        chain = _ancestry(name, classes)
        if _lookup_flag(chain, "supports_vectorized") is not True:
            continue
        found = _lookup_method(chain, "vectorized_next")
        if found is None or found[0].node.name == "Protocol":
            yield _make(
                rule_, info.ctx, info.node,
                f"'{name}' sets supports_vectorized=True but does not "
                "implement vectorized_next",
            )
            continue
        owner, method = found
        if owner is not info and owner.node.name != name:
            continue
        names = _signature_names(method.args)
        if names != expected:
            yield _make(
                rule_, info.ctx, method,
                f"'{name}.vectorized_next' signature is ({', '.join(names)}); "
                f"the fast-path contract requires ({', '.join(expected)})",
            )


# ----------------------------------------------------------------------
# REP303 — backend registration
# ----------------------------------------------------------------------
def _subclasses_of(root: str, classes: dict[str, _ClassInfo]) -> set[str]:
    """Names of classes transitively derived from ``root`` (excluded)."""
    family = {root}
    changed = True
    while changed:
        changed = False
        for name, info in classes.items():
            if name not in family and any(b in family for b in info.bases):
                family.add(name)
                changed = True
    family.discard(root)
    return family


def _module_registers(ctx: FileContext, class_name: str) -> bool:
    """Does the module register ``class_name`` via register_backend(...)?"""
    for stmt in ctx.tree.body:
        calls: list[ast.expr] = []
        if isinstance(stmt, ast.Expr):
            calls = [stmt.value]
        elif isinstance(stmt, ast.Assign):
            calls = [stmt.value]
        for value in calls:
            if not isinstance(value, ast.Call):
                continue
            if _base_name(value.func) != "register_backend":
                continue
            arguments = list(value.args) + [kw.value for kw in value.keywords]
            for argument in arguments:
                for inner in ast.walk(argument):
                    if isinstance(inner, ast.Name) and inner.id == class_name:
                        return True
    return False


@rule(
    "REP303",
    "backend-contract",
    Severity.ERROR,
    "Backend implementations must be registered with register_backend(...) "
    "at module level",
    scope=("repro/backends",),
    project=True,
)
def _check_backend_contract(
    rule_: Rule, contexts: dict[str, FileContext]
) -> Iterator[Finding]:
    classes = _collect_classes(contexts)
    for name in sorted(_subclasses_of("Backend", classes)):
        info = classes[name]
        if info.abstract:
            continue
        if not _module_registers(info.ctx, name):
            yield _make(
                rule_, info.ctx, info.node,
                f"backend class '{name}' is never passed to register_backend; "
                "unregistered backends are invisible to run_spec and the CLI",
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
# REP403 — batched kernels must stay branch-free over their inputs
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


#: Array reductions whose scalar truth value is the *point* of the branch.
_MASK_REDUCTIONS = frozenset({"any", "all", "sum", "count_nonzero"})


def _is_mask_reduction(node: ast.expr) -> bool:
    """Whether a branch test collapses arrays to one deliberate scalar.

    Masked dispatch branches on reductions — ``if mask.any():``,
    ``if (classes == k).sum() == 0:``, ``np.count_nonzero(...)`` — where
    a single truth value for the whole batch is exactly the intent
    (choose a dispatch segment, skip an empty class). Those are not the
    per-element branch bug REP403 exists to catch, so any test whose
    every input-touching leaf passes through a reduction call is exempt.
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
    "REP403",
    "batched-kernel-branch",
    Severity.ERROR,
    "a 'batched_*' kernel advances every scenario of the batch in one "
    "array pass; a Python if/while/ternary on its inputs evaluates one "
    "truth value for the whole batch (or raises on arrays) — encode "
    "per-element branches with numpy.where instead (branching on a mask "
    "reduction like '.any()' or '.sum()' is dispatch, and allowed)",
    scope=("repro/protocols", "repro/model", "repro/backends"),
)
def _check_batched_kernel_branches(
    rule_: Rule, ctx: FileContext
) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not node.name.startswith("batched_"):
            continue
        params = _argument_names(node)
        for inner in ast.walk(node):
            if isinstance(inner, (ast.If, ast.While, ast.IfExp)):
                tainted = sorted(_names_in(inner.test) & params)
                if tainted and not _is_mask_reduction(inner.test):
                    kind = {
                        ast.If: "if",
                        ast.While: "while",
                        ast.IfExp: "conditional expression",
                    }[type(inner)]
                    yield _make(
                        rule_, ctx, inner,
                        f"'{node.name}' branches on batch input(s) "
                        f"{', '.join(tainted)} with a Python {kind}; use "
                        "numpy.where so every scenario keeps its own branch",
                    )


# ----------------------------------------------------------------------
# REP404 — mean-field kernels must not Python-loop over grid cells
# ----------------------------------------------------------------------
@rule(
    "REP404",
    "meanfield-kernel-loop",
    Severity.ERROR,
    "a 'meanfield_*' kernel owes its O(1)-in-flows cost to whole-grid "
    "array passes; a Python for/while/comprehension over its grid inputs "
    "reintroduces per-cell interpreter cost — scatter with numpy.bincount "
    "and transform with array expressions instead (the mirror of REP403 "
    "for density kernels)",
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

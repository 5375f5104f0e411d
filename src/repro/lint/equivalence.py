"""Cross-implementation drift detection (the ``REP6xx`` rule family).

Every protocol update rule in this repo exists in up to three parallel
renderings: the scalar :meth:`next_window`, the array :meth:`batched_next`
and the mean-field branch images derived from ``batched_next`` plus
:attr:`~repro.protocols.base.Protocol.meanfield_trigger`. The runtime
property suites hold them bit-identical, but they only run on sampled
inputs and cannot say *where* two renderings diverge. This module proves
agreement statically: it lifts each rendering into a small normalized
symbolic expression language and compares the trees structurally.

Extraction is deliberately partial. Anything stateful, dynamic, or
outside the supported expression grammar raises :class:`ExtractionError`
and the implementation is skipped (or, where the class *advertises*
coverage the extractor cannot verify, flagged by REP602). Normalization
is bit-safety-preserving: operands of a single commutative ``+``/``*``
node may be sorted (IEEE-754 ``+``/``*`` are exactly commutative), but
nothing is ever reassociated or algebraically rewritten, because float
addition and multiplication are not associative.

Rules registered here (all ``--profile full``):

- **REP601** — two renderings of the same protocol disagree; the finding
  message carries a minimal subexpression diff.
- **REP602** — a protocol advertises batched/mean-field coverage the
  extractor cannot verify (missing method, inextractable body, malformed
  trigger).
- **REP603** — ``batch_param_names`` columns that ``batched_next`` never
  reads, or parameter reads that were never declared.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from repro.lint.dataflow import FunctionSummary, summaries
from repro.lint.findings import Finding, Severity
from repro.lint.rules import (
    FileContext,
    Rule,
    _ancestry,
    _ClassInfo,
    _collect_classes,
    _lookup_flag,
    _lookup_method,
    _make,
    _protocol_families,
    rule,
)

__all__ = ["ExtractionError", "Sym", "extract_protocol_impls"]


class ExtractionError(Exception):
    """The implementation is outside the symbolic extraction grammar."""


# ----------------------------------------------------------------------
# The symbolic expression language
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Sym:
    """Base of all symbolic expression nodes (structural equality)."""


@dataclass(frozen=True)
class Const(Sym):
    value: float


@dataclass(frozen=True)
class Var(Sym):
    """A canonical variable: ``w``, ``loss``, ``rtt`` or a parameter name."""

    name: str


@dataclass(frozen=True)
class Bin(Sym):
    op: str
    left: Sym
    right: Sym


@dataclass(frozen=True)
class Un(Sym):
    op: str
    operand: Sym


@dataclass(frozen=True)
class Cmp(Sym):
    op: str  # gt, ge, lt, le, eq, ne
    left: Sym
    right: Sym


@dataclass(frozen=True)
class CallSym(Sym):
    name: str
    args: tuple[Sym, ...]


@dataclass(frozen=True)
class Where(Sym):
    """``numpy.where`` / scalar branch: ``then`` if ``cond`` else ``orelse``."""

    cond: Sym
    then: Sym
    orelse: Sym


_CMP_SYMBOL = {"gt": ">", "ge": ">=", "lt": "<", "le": "<=", "eq": "==", "ne": "!="}


def render(sym: Sym) -> str:
    """Deterministic human/diff rendering of a symbolic expression."""
    if isinstance(sym, Const):
        return repr(sym.value)
    if isinstance(sym, Var):
        return sym.name
    if isinstance(sym, Bin):
        return f"({render(sym.left)} {sym.op} {render(sym.right)})"
    if isinstance(sym, Un):
        return f"({sym.op}{render(sym.operand)})"
    if isinstance(sym, Cmp):
        return f"({render(sym.left)} {_CMP_SYMBOL[sym.op]} {render(sym.right)})"
    if isinstance(sym, CallSym):
        return f"{sym.name}({', '.join(render(a) for a in sym.args)})"
    if isinstance(sym, Where):
        return (
            f"where({render(sym.cond)}, {render(sym.then)}, {render(sym.orelse)})"
        )
    raise TypeError(f"unrenderable node {sym!r}")


#: IEEE-754 float + and * are exactly commutative (not associative), so
#: sorting the two operands of a *single* node is bit-safe.
_COMMUTATIVE = frozenset({"+", "*"})

_CMP_FLIP = {"gt": "lt", "ge": "le", "lt": "gt", "le": "ge", "eq": "eq", "ne": "ne"}


def normalize(sym: Sym) -> Sym:
    """Canonical form: commutative operand order, constants on the right.

    Only transformations that cannot change a single IEEE-754 operation
    are applied — no reassociation, no distribution, no strength
    reduction. Two normalized trees are equal iff the renderings compute
    bit-identical results operation by operation.
    """
    if isinstance(sym, Bin):
        left, right = normalize(sym.left), normalize(sym.right)
        if sym.op in _COMMUTATIVE and render(right) < render(left):
            left, right = right, left
        return Bin(sym.op, left, right)
    if isinstance(sym, Un):
        return Un(sym.op, normalize(sym.operand))
    if isinstance(sym, Cmp):
        left, right = normalize(sym.left), normalize(sym.right)
        if isinstance(left, Const) and not isinstance(right, Const):
            left, right = right, left
            return Cmp(_CMP_FLIP[sym.op], left, right)
        return Cmp(sym.op, left, right)
    if isinstance(sym, CallSym):
        return CallSym(sym.name, tuple(normalize(a) for a in sym.args))
    if isinstance(sym, Where):
        return Where(normalize(sym.cond), normalize(sym.then), normalize(sym.orelse))
    return sym


def diff(a: Sym, b: Sym) -> tuple[Sym, Sym] | None:
    """The minimal diverging subexpression pair, or ``None`` when equal.

    Recurses while exactly one child differs, so a drifted constant deep
    in two otherwise-identical trees is reported as just that constant
    pair rather than the whole expressions.
    """
    if a == b:
        return None
    if type(a) is not type(b):
        return (a, b)
    children_a: tuple[Sym, ...]
    children_b: tuple[Sym, ...]
    if isinstance(a, Bin) and isinstance(b, Bin):
        if a.op != b.op:
            return (a, b)
        children_a, children_b = (a.left, a.right), (b.left, b.right)
    elif isinstance(a, Un) and isinstance(b, Un):
        if a.op != b.op:
            return (a, b)
        children_a, children_b = (a.operand,), (b.operand,)
    elif isinstance(a, Cmp) and isinstance(b, Cmp):
        if a.op != b.op:
            return (a, b)
        children_a, children_b = (a.left, a.right), (b.left, b.right)
    elif isinstance(a, CallSym) and isinstance(b, CallSym):
        if a.name != b.name or len(a.args) != len(b.args):
            return (a, b)
        children_a, children_b = a.args, b.args
    elif isinstance(a, Where) and isinstance(b, Where):
        children_a = (a.cond, a.then, a.orelse)
        children_b = (b.cond, b.then, b.orelse)
    else:  # Const/Var leaves
        return (a, b)
    child_diffs = [
        d for d in (diff(ca, cb) for ca, cb in zip(children_a, children_b)) if d
    ]
    if len(child_diffs) == 1:
        return child_diffs[0]
    return (a, b)


# ----------------------------------------------------------------------
# AST -> Sym extraction
# ----------------------------------------------------------------------
_BIN_OPS: dict[type, str] = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
    ast.Pow: "**", ast.Mod: "%", ast.FloorDiv: "//",
}
_CMP_OPS: dict[type, str] = {
    ast.Gt: "gt", ast.GtE: "ge", ast.Lt: "lt", ast.LtE: "le",
    ast.Eq: "eq", ast.NotEq: "ne",
}
#: Casts that are the identity on float64 lanes.
_IDENTITY_CASTS = frozenset({"float", "float64"})
#: Elementwise calls the comparison may treat as opaque-but-equal.
_PURE_CALLS = frozenset({
    "maximum", "minimum", "clip", "abs", "fabs", "sqrt", "exp", "log",
    "log1p", "log2", "power", "max", "min",
})
_MAX_DEPTH = 16


@dataclass
class _Env:
    """Name resolution for one implementation rendering.

    ``resolve`` maps AST nodes the rendering spells differently
    (``obs.loss_rate``, ``params["b"]``, ``params[i, j, 2]``) onto the
    shared canonical variables; ``summary`` enables substitution of
    single-assignment locals.
    """

    resolve: Callable[[ast.expr], Sym | None]
    summary: FunctionSummary | None = None


def _trailing_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _expr(node: ast.expr, env: _Env, depth: int = 0) -> Sym:
    """Lower one expression to the symbolic language (or fail loudly)."""
    if depth > _MAX_DEPTH:
        raise ExtractionError("expression nesting/substitution too deep")
    resolved = env.resolve(node)
    if resolved is not None:
        return resolved
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise ExtractionError(f"non-numeric constant {node.value!r}")
        return Const(float(node.value))
    if isinstance(node, ast.Name):
        if env.summary is not None:
            definition = env.summary.single_def(node.id)
            if definition is not None:
                return _expr(definition, env, depth + 1)
        raise ExtractionError(f"unresolvable name '{node.id}'")
    if isinstance(node, ast.BinOp):
        op = _BIN_OPS.get(type(node.op))
        if op is None:
            raise ExtractionError(f"unsupported operator {type(node.op).__name__}")
        return Bin(op, _expr(node.left, env, depth + 1), _expr(node.right, env, depth + 1))
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.USub):
            return Un("-", _expr(node.operand, env, depth + 1))
        if isinstance(node.op, ast.UAdd):
            return _expr(node.operand, env, depth + 1)
        raise ExtractionError(f"unsupported unary {type(node.op).__name__}")
    if isinstance(node, ast.Compare):
        if len(node.ops) != 1 or len(node.comparators) != 1:
            raise ExtractionError("chained comparison")
        op = _CMP_OPS.get(type(node.ops[0]))
        if op is None:
            raise ExtractionError(f"unsupported comparison {type(node.ops[0]).__name__}")
        return Cmp(
            op,
            _expr(node.left, env, depth + 1),
            _expr(node.comparators[0], env, depth + 1),
        )
    if isinstance(node, ast.IfExp):
        return Where(
            _expr(node.test, env, depth + 1),
            _expr(node.body, env, depth + 1),
            _expr(node.orelse, env, depth + 1),
        )
    if isinstance(node, ast.Call):
        if node.keywords:
            raise ExtractionError("call with keyword arguments")
        name = _trailing_name(node.func)
        if name == "where" and len(node.args) == 3:
            return Where(
                _expr(node.args[0], env, depth + 1),
                _expr(node.args[1], env, depth + 1),
                _expr(node.args[2], env, depth + 1),
            )
        if name in _IDENTITY_CASTS and len(node.args) == 1:
            return _expr(node.args[0], env, depth + 1)
        if name in _PURE_CALLS:
            return CallSym(
                name, tuple(_expr(a, env, depth + 1) for a in node.args)
            )
        raise ExtractionError(f"call to '{name}' outside the pure whitelist")
    raise ExtractionError(f"unsupported expression {type(node).__name__}")


def _is_docstring(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    )


def _extract_return(stmts: list[ast.stmt], env: _Env) -> Sym:
    """The expression a statement list ultimately returns.

    Supported shapes: plain ``return expr``; guard arms (``if cond:
    return a`` followed by more statements); a trailing ``if/else`` whose
    both sides return; single-name local bindings (folded lazily through
    :meth:`FunctionSummary.single_def`). Attribute/subscript stores mean
    the update is stateful and extraction refuses — a stale-state
    comparison would be worse than none.
    """
    arms: list[tuple[Sym, Sym]] = []
    default: Sym | None = None
    for pos, stmt in enumerate(stmts):
        if _is_docstring(stmt):
            continue
        if isinstance(stmt, ast.Assign):
            if all(isinstance(t, ast.Name) for t in stmt.targets):
                continue  # folded in on demand via single_def
            raise ExtractionError("stateful store in update body")
        if isinstance(stmt, ast.AnnAssign):
            if isinstance(stmt.target, ast.Name):
                continue
            raise ExtractionError("stateful store in update body")
        if isinstance(stmt, ast.AugAssign):
            raise ExtractionError("augmented assignment in update body")
        if isinstance(stmt, ast.Return):
            if stmt.value is None:
                raise ExtractionError("bare return")
            default = _expr(stmt.value, env)
            break
        if isinstance(stmt, ast.If):
            if stmt.orelse:
                if pos != len(stmts) - 1:
                    raise ExtractionError("if/else followed by further statements")
                default = Where(
                    _expr(stmt.test, env),
                    _extract_return(stmt.body, env),
                    _extract_return(stmt.orelse, env),
                )
                break
            arms.append((_expr(stmt.test, env), _extract_return(stmt.body, env)))
            continue
        raise ExtractionError(f"unsupported statement {type(stmt).__name__}")
    if default is None:
        raise ExtractionError("no return value found")
    for cond, expr in reversed(arms):
        default = Where(cond, expr, default)
    return default


# ----------------------------------------------------------------------
# Per-rendering environments
# ----------------------------------------------------------------------
_OBS_ROLES = {"window": "w", "loss_rate": "loss", "rtt": "rtt"}


def _positional(method: ast.FunctionDef) -> list[str]:
    args = method.args
    return [a.arg for a in args.posonlyargs + args.args]


def _make_attr_resolver(
    self_name: str, attr_roles: Mapping[str, str], obs_name: str
) -> Callable[[ast.expr], Sym | None]:
    """Resolver for ``self.X`` and ``obs.Y`` attribute reads.

    Built by a module-level factory (not an inline closure in a loop) so
    each rendering captures its own names.
    """

    def resolve(node: ast.expr) -> Sym | None:
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            base = node.value.id
            if base == obs_name:
                role = _OBS_ROLES.get(node.attr)
                if role is None:
                    raise ExtractionError(
                        f"unknown observation field '{node.attr}'"
                    )
                return Var(role)
            if base == self_name:
                role = attr_roles.get(node.attr)
                if role is None:
                    raise ExtractionError(
                        f"instance attribute '{node.attr}' has no symbolic role "
                        "(declare it in batch_param_names or symbolic_roles)"
                    )
                return Var(role)
        return None

    return resolve


def _scalar_env(
    method: ast.FunctionDef,
    summary: FunctionSummary,
    attr_roles: Mapping[str, str],
) -> _Env:
    names = _positional(method)
    if len(names) != 2:
        raise ExtractionError("next_window signature is not (self, obs)")
    return _Env(
        resolve=_make_attr_resolver(names[0], attr_roles, obs_name=names[1]),
        summary=summary,
    )


def _make_name_resolver(
    mapping: Mapping[str, str], params_name: str
) -> Callable[[ast.expr], Sym | None]:
    """Resolver for positional array arguments and ``params[...]`` reads."""

    def resolve(node: ast.expr) -> Sym | None:
        if isinstance(node, ast.Name):
            role = mapping.get(node.id)
            if role is not None:
                return Var(role)
            return None
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == params_name
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            return Var(node.slice.value)
        return None

    return resolve


def _batched_env(
    method: ast.FunctionDef,
    summary: FunctionSummary,
    attr_roles: Mapping[str, str],
) -> _Env:
    names = _positional(method)
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    if len(names) != 4:
        raise ExtractionError(
            "batched_next signature is not (windows, loss_rate, rtt, params)"
        )
    mapping = {names[0]: "w", names[1]: "loss", names[2]: "rtt"}
    return _Env(
        resolve=_make_name_resolver(mapping, names[3]),
        summary=summary,
    )


_ENV_FACTORIES: dict[
    str,
    Callable[[ast.FunctionDef, FunctionSummary, Mapping[str, str]], _Env],
] = {
    "next_window": _scalar_env,
    "batched_next": _batched_env,
}


# ----------------------------------------------------------------------
# Per-class implementation extraction
# ----------------------------------------------------------------------
@dataclass
class _Impl:
    """One rendering of a protocol's update rule, extracted or not."""

    label: str
    owner: _ClassInfo
    node: ast.FunctionDef
    sym: Sym | None
    error: str | None


def _attr_roles(chain: list[_ClassInfo]) -> dict[str, str]:
    """Canonical roles of instance attributes along the class chain.

    ``batch_param_names`` entries map to themselves; the optional
    ``symbolic_roles`` hint covers attributes the batched rendering does
    not consume (nearest declaration wins, matching attribute lookup).
    """
    roles: dict[str, str] = {}
    declared = _lookup_flag(chain, "batch_param_names")
    if isinstance(declared, tuple):
        roles.update({n: n for n in declared if isinstance(n, str)})
    extra = _lookup_flag(chain, "symbolic_roles")
    if isinstance(extra, dict):
        roles.update({
            k: v for k, v in extra.items()
            if isinstance(k, str) and isinstance(v, str)
        })
    return roles


def _extract_impl(
    label: str,
    owner: _ClassInfo,
    method: ast.FunctionDef,
    attr_roles: Mapping[str, str],
) -> _Impl:
    summary = summaries(owner.ctx, method)
    try:
        env = _ENV_FACTORIES[label](method, summary, attr_roles)
        sym = normalize(_extract_return(list(method.body), env))
        return _Impl(label=label, owner=owner, node=method, sym=sym, error=None)
    except ExtractionError as exc:
        return _Impl(label=label, owner=owner, node=method, sym=None, error=str(exc))


_IMPL_LABELS = ("next_window", "batched_next")


def extract_protocol_impls(
    name: str, classes: dict[str, _ClassInfo]
) -> list[_Impl]:
    """Every reachable concrete rendering of class ``name``'s update rule.

    The base ``Protocol``'s raising stubs are not renderings and are
    skipped; inherited concrete methods are attributed to their owner so
    findings (and de-duplication) land on the defining class.
    """
    chain = _ancestry(name, classes)
    roles = _attr_roles(chain)
    impls: list[_Impl] = []
    for label in _IMPL_LABELS:
        found = _lookup_method(chain, label)
        if found is None or found[0].node.name == "Protocol":
            continue
        owner, method = found
        impls.append(_extract_impl(label, owner, method, roles))
    return impls


def _trigger_sym(trigger: object) -> Sym | None:
    """The loss condition a ``meanfield_trigger`` declaration encodes."""
    if not isinstance(trigger, tuple) or len(trigger) != 2:
        return None
    op, threshold = trigger
    if op not in ("gt", "ge"):
        return None
    if isinstance(threshold, bool):
        return None
    if isinstance(threshold, (int, float)):
        return Cmp(str(op), Var("loss"), Const(float(threshold)))
    if isinstance(threshold, str):
        return Cmp(str(op), Var("loss"), Var(threshold))
    return None


def _flag_owner(chain: list[_ClassInfo], attr: str) -> _ClassInfo:
    for info in chain:
        if attr in info.assigns:
            return info
    return chain[0]


# ----------------------------------------------------------------------
# REP601 — implementation drift
# ----------------------------------------------------------------------
def _drift_message(
    other_label: str, other_class: str, ref_label: str, ref_class: str,
    pair: tuple[Sym, Sym],
) -> str:
    ref_part, other_part = pair
    return (
        f"'{other_class}.{other_label}' diverges from "
        f"'{ref_class}.{ref_label}': {render(other_part)} vs "
        f"{render(ref_part)} — the renderings must be bit-identical"
    )


@rule(
    "REP601",
    "implementation-drift",
    Severity.ERROR,
    "the scalar, batched and mean-field renderings of a "
    "protocol's update rule must encode the same "
    "arithmetic; a drifted constant or operator breaks the bit-identity "
    "contract the fast paths are gated on",
    project=True,
    profile="full",
)
def _check_implementation_drift(
    rule_: Rule, contexts: dict[str, FileContext]
) -> Iterator[Finding]:
    classes = _collect_classes(contexts)
    seen: set[tuple[object, ...]] = set()
    for name in sorted(_protocol_families(classes)):
        info = classes[name]
        if info.abstract:
            continue
        chain = _ancestry(name, classes)
        impls = extract_protocol_impls(name, classes)
        good = [impl for impl in impls if impl.sym is not None]
        if not good:
            continue
        ref = good[0]
        for other in good[1:]:
            key: tuple[object, ...] = ("impl", id(ref.node), id(other.node))
            if key in seen:
                continue
            seen.add(key)
            if other.sym != ref.sym:
                pair = diff(ref.sym, other.sym)
                assert pair is not None
                yield _make(
                    rule_, other.owner.ctx, other.node,
                    _drift_message(
                        other.label, other.owner.node.name,
                        ref.label, ref.owner.node.name, pair,
                    ),
                )

        # The mean-field trigger against batched_next's branch condition.
        trigger = _lookup_flag(chain, "meanfield_trigger")
        if trigger is not None:
            expected = _trigger_sym(trigger)
            batched_impl = next(
                (i for i in good if i.label == "batched_next"), None
            )
            owner = _flag_owner(chain, "meanfield_trigger")
            key = ("meanfield", id(owner.node))
            if (
                expected is not None
                and batched_impl is not None
                and isinstance(batched_impl.sym, Where)
                and key not in seen
            ):
                seen.add(key)
                if normalize(expected) != batched_impl.sym.cond:
                    yield _make(
                        rule_, owner.ctx, owner.node,
                        f"'{owner.node.name}.meanfield_trigger' encodes "
                        f"{render(normalize(expected))} but batched_next "
                        f"branches on {render(batched_impl.sym.cond)}; the "
                        "mean-field branch images would disagree with the "
                        "batched kernel",
                    )


# ----------------------------------------------------------------------
# REP602 — advertised coverage the extractor cannot verify
# ----------------------------------------------------------------------
@rule(
    "REP602",
    "unverifiable-coverage",
    Severity.ERROR,
    "a protocol advertising batched/mean-field coverage must keep "
    "those renderings statically extractable, or the drift detector "
    "(REP601) is silently blind to them",
    project=True,
    profile="full",
)
def _check_unverifiable_coverage(
    rule_: Rule, contexts: dict[str, FileContext]
) -> Iterator[Finding]:
    classes = _collect_classes(contexts)
    seen: set[tuple[object, ...]] = set()

    for name in sorted(_protocol_families(classes)):
        info = classes[name]
        if info.abstract:
            continue
        chain = _ancestry(name, classes)
        roles = _attr_roles(chain)

        if _lookup_flag(chain, "supports_batched") is True:
            found = _lookup_method(chain, "batched_next")
            if found is None or found[0].node.name == "Protocol":
                yield _make(
                    rule_, info.ctx, info.node,
                    f"'{name}' sets supports_batched=True but implements no "
                    "batched_next",
                )
            else:
                owner, method = found
                impl = _extract_impl("batched_next", owner, method, roles)
                if impl.sym is None and ("batched", id(method)) not in seen:
                    seen.add(("batched", id(method)))
                    yield _make(
                        rule_, owner.ctx, method,
                        f"'{owner.node.name}.batched_next' cannot be "
                        f"symbolically extracted ({impl.error}); the drift "
                        "detector cannot verify the batched rendering",
                    )

        trigger = _lookup_flag(chain, "meanfield_trigger")
        if trigger is not None:
            owner = _flag_owner(chain, "meanfield_trigger")
            if ("trigger", id(owner.node)) not in seen:
                seen.add(("trigger", id(owner.node)))
                expected = _trigger_sym(trigger)
                if expected is None:
                    yield _make(
                        rule_, owner.ctx, owner.node,
                        f"'{owner.node.name}.meanfield_trigger' is malformed: "
                        "expected ('gt'|'ge', float-or-attribute-name)",
                    )
                else:
                    found = _lookup_method(chain, "batched_next")
                    if found is not None and found[0].node.name != "Protocol":
                        impl = _extract_impl(
                            "batched_next", found[0], found[1], roles
                        )
                        if impl.sym is not None and not isinstance(impl.sym, Where):
                            yield _make(
                                rule_, owner.ctx, owner.node,
                                f"'{owner.node.name}' declares a "
                                "meanfield_trigger but its batched_next is "
                                "not a two-branch where(); the mean-field "
                                "branch images cannot be derived",
                            )


# ----------------------------------------------------------------------
# REP603 — batch parameter declaration vs consumption
# ----------------------------------------------------------------------
def _params_reads(method: ast.FunctionDef, params_name: str) -> set[str]:
    reads: set[str] = set()
    for node in ast.walk(method):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == params_name
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            reads.add(node.slice.value)
    return reads


@rule(
    "REP603",
    "batch-param-mismatch",
    Severity.ERROR,
    "batch_param_names and batched_next must agree: a declared column the "
    "kernel never reads wastes batch memory and hides drift, and an "
    "undeclared read takes NaN for every scenario of other classes",
    project=True,
    profile="full",
)
def _check_batch_param_mismatch(
    rule_: Rule, contexts: dict[str, FileContext]
) -> Iterator[Finding]:
    classes = _collect_classes(contexts)
    seen: set[int] = set()
    for name in sorted(_protocol_families(classes)):
        info = classes[name]
        if info.abstract:
            continue
        chain = _ancestry(name, classes)
        if _lookup_flag(chain, "supports_batched") is not True:
            continue
        found = _lookup_method(chain, "batched_next")
        if found is None or found[0].node.name == "Protocol":
            continue
        owner, method = found
        if id(method) in seen:
            continue
        seen.add(id(method))
        owner_chain = _ancestry(owner.node.name, classes) or chain
        declared_raw = _lookup_flag(owner_chain, "batch_param_names")
        declared = (
            tuple(n for n in declared_raw if isinstance(n, str))
            if isinstance(declared_raw, tuple)
            else ()
        )
        names = _positional(method)
        if names and names[0] in ("self", "cls"):
            names = names[1:]
        if len(names) < 4:
            continue  # signature trouble is REP602/REP403 territory
        reads = _params_reads(method, names[3])
        never_read = [n for n in declared if n not in reads]
        undeclared = sorted(reads - set(declared))
        if never_read or undeclared:
            parts = []
            if never_read:
                parts.append(
                    "declares batch params it never reads: "
                    + ", ".join(never_read)
                )
            if undeclared:
                parts.append(
                    "reads batch params it never declares: "
                    + ", ".join(undeclared)
                )
            yield _make(
                rule_, owner.ctx, method,
                f"'{owner.node.name}.batched_next' " + "; ".join(parts),
            )

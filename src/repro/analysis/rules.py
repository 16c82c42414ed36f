"""The replicheck rule catalog (R001, R002, R004, R005).

Every rule targets one way a supposedly bitwise-identical replica can
silently diverge (see ``docs/DETERMINISM.md`` for the invariants and
worked examples; R003, the collective-sequence rule, lives in
:mod:`repro.analysis.callgraph` because it needs call-graph summaries
rather than a single AST walk):

* **R001** — unseeded or global-state RNG.  ``random.*`` and the legacy
  ``np.random.*`` functions share hidden global state; two replicas that
  consume it in even slightly different order diverge forever.  Only an
  explicitly seeded ``np.random.Generator`` threaded through call
  signatures is replica-safe.
* **R002** — iteration over unordered containers.  ``set``/``frozenset``
  iteration order follows the per-process hash seed (``PYTHONHASHSEED``
  randomizes ``str`` hashes), and ``os.listdir``/``glob`` follow
  filesystem order; feeding either into tree traversal, reductions or
  collective payloads makes replicas disagree.
* **R004** — wall-clock reads outside the observability layer.  Time is
  the canonical rank-local value: any control flow derived from it
  (adaptive cutoffs, time-boxed loops) runs differently on every rank.
* **R005** — float accumulation over order-nondeterministic constructs.
  Float addition does not associate; ``sum()`` over a set produces a
  different bit pattern per iteration order even when the set contents
  are identical.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.findings import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Finding,
)

__all__ = [
    "RuleContext",
    "run_syntax_rules",
    "SetTracker",
    "ORDER_SAFE_CONSUMERS",
    "set_returning_functions",
]

#: Shared empty default for name-set parameters (a constant, not a
#: call, so bugbear's call-in-default rule stays quiet).
NO_NAMES: frozenset[str] = frozenset()

# Legacy numpy global-state RNG entry points (np.random.<name>).
_NP_LEGACY = frozenset({
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "f", "gamma", "geometric", "get_state", "gumbel",
    "hypergeometric", "laplace", "logistic", "lognormal", "logseries",
    "multinomial", "multivariate_normal", "negative_binomial",
    "noncentral_chisquare", "noncentral_f", "normal", "pareto",
    "permutation", "poisson", "power", "rand", "randint", "randn",
    "random", "random_integers", "random_sample", "ranf", "rayleigh",
    "sample", "seed", "set_state", "shuffle", "standard_cauchy",
    "standard_exponential", "standard_gamma", "standard_normal",
    "standard_t", "triangular", "uniform", "vonmises", "wald",
    "weibull", "zipf",
})

# Seeded/explicit construction is fine.
_NP_ALLOWED = frozenset({
    "default_rng", "Generator", "SeedSequence", "PCG64", "Philox",
    "MT19937", "SFC64", "BitGenerator", "RandomState",
})

_WALLCLOCK_TIME = frozenset({
    "time", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "time_ns", "clock_gettime", "process_time",
    "process_time_ns",
})
_WALLCLOCK_DATETIME = frozenset({"now", "utcnow", "today"})

# Filesystem-listing calls whose order is not specified.
_FS_LISTING_FUNCS = {("os", "listdir"), ("os", "scandir"),
                     ("glob", "glob"), ("glob", "iglob")}
_FS_LISTING_METHODS = frozenset({"iterdir", "glob", "rglob"})

#: Consumers that make iteration order irrelevant (or restore an order).
ORDER_SAFE_CONSUMERS = frozenset({
    "sorted", "len", "min", "max", "any", "all", "set", "frozenset",
    "bool",
})


@dataclass
class RuleContext:
    """Everything the syntax rules need for one file."""

    tree: ast.Module
    path: str
    source_lines: list[str]
    findings: list[Finding] = field(default_factory=list)

    def snippet(self, node: ast.AST) -> str:
        line = getattr(node, "lineno", 0)
        if 1 <= line <= len(self.source_lines):
            return self.source_lines[line - 1].strip()
        return ""

    def add(self, rule: str, severity: str, node: ast.AST, message: str,
            hint: str = "") -> None:
        self.findings.append(Finding(
            rule=rule,
            severity=severity,
            path=self.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
            hint=hint,
            snippet=self.snippet(node),
        ))


# --------------------------------------------------------------------- #
# shared inference helpers
# --------------------------------------------------------------------- #

class ImportMap:
    """Which local names refer to which modules / module members."""

    def __init__(self, tree: ast.Module) -> None:
        self.modules: dict[str, str] = {}     # alias -> module path
        self.members: dict[str, tuple[str, str]] = {}  # alias -> (mod, name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    self.modules[a.asname or a.name.split(".")[0]] = a.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for a in node.names:
                    self.members[a.asname or a.name] = (node.module, a.name)

    def module_of(self, name: str) -> str | None:
        return self.modules.get(name)

    def member_of(self, name: str) -> tuple[str, str] | None:
        return self.members.get(name)


def _dotted(node: ast.expr) -> str:
    """Best-effort dotted-name rendering of an attribute chain."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return ""


def _is_set_annotation(ann: ast.expr) -> bool:
    if isinstance(ann, ast.Name):
        return ann.id in ("set", "frozenset")
    if isinstance(ann, ast.Subscript):
        return _is_set_annotation(ann.value)
    if isinstance(ann, ast.Attribute):
        return ann.attr in ("Set", "FrozenSet", "AbstractSet")
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        return ann.value.lstrip().startswith(
            ("set", "frozenset", "Set", "FrozenSet")
        )
    return False


def set_returning_functions(tree: ast.Module) -> set[str]:
    """Names of functions in this module annotated to return a set."""
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.returns is not None
        and _is_set_annotation(node.returns)
    }


class SetTracker:
    """Local, syntactic inference of which expressions are unordered.

    Tracks names assigned set-typed values anywhere in the file (scopes
    are not modelled — replicheck is a reviewer's assistant, not a type
    checker, and a name that holds a set *somewhere* is suspicious
    everywhere).  ``set_fns`` is the per-file set of callable names that
    return sets: locally defined set-annotated functions plus imported
    ones the engine resolved from its project-wide signature index.
    """

    def __init__(self, tree: ast.Module, imports: ImportMap,
                 set_fns: frozenset[str] = NO_NAMES) -> None:
        self.imports = imports
        self.set_fns = set(set_fns) | set_returning_functions(tree)
        self.set_names: set[str] = set()
        # set-annotated parameters and variables
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                for arg in (args.posonlyargs + args.args
                            + args.kwonlyargs):
                    if arg.annotation is not None and _is_set_annotation(
                        arg.annotation
                    ):
                        self.set_names.add(arg.arg)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ) and _is_set_annotation(node.annotation):
                self.set_names.add(node.target.id)
        changed = True
        # fixpoint over simple assignments so `a = set(); b = a` resolves
        while changed:
            changed = False
            for node in ast.walk(tree):
                targets: list[ast.expr] = []
                value: ast.expr | None = None
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                elif isinstance(node, ast.AugAssign):
                    # s |= other keeps set-ness
                    targets, value = [node.target], node.target
                if value is None:
                    continue
                if self.is_unordered(value):
                    for t in targets:
                        if isinstance(t, ast.Name) and t.id not in self.set_names:
                            self.set_names.add(t.id)
                            changed = True

    # -- classification ---------------------------------------------------- #
    def is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
            return True
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and (
                f.id in ("set", "frozenset") or f.id in self.set_fns
            ):
                return True
            if isinstance(f, ast.Attribute) and f.attr in (
                "union", "intersection", "difference",
                "symmetric_difference",
            ) and self.is_unordered(f.value):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        if isinstance(node, ast.Name) and node.id in self.set_names:
            return True
        return False

    def is_fs_listing(self, node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        f = node.func
        if isinstance(f, ast.Attribute):
            if f.attr in _FS_LISTING_METHODS and not isinstance(
                f.value, ast.Name
            ):
                return True
            dotted = _dotted(f)
            if dotted:
                head, _, attr = dotted.rpartition(".")
                module = self.imports.module_of(head.split(".")[0]) or head
                if (module.split(".")[0], attr) in _FS_LISTING_FUNCS:
                    return True
            if f.attr in _FS_LISTING_METHODS:
                return True
        elif isinstance(f, ast.Name):
            member = self.imports.member_of(f.id)
            if member is not None and (
                member[0].split(".")[0], member[1]
            ) in _FS_LISTING_FUNCS:
                return True
        return False

    def is_unordered(self, node: ast.expr) -> bool:
        return self.is_set_expr(node) or self.is_fs_listing(node)

    def describe(self, node: ast.expr) -> str:
        if self.is_fs_listing(node):
            return "a filesystem listing"
        return "a set"


def _build_parents(tree: ast.Module) -> dict[ast.AST, ast.AST]:
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


# --------------------------------------------------------------------- #
# R001 — unseeded / global RNG
# --------------------------------------------------------------------- #

def _enclosing_none_default_params(
    node: ast.AST, parents: dict[ast.AST, ast.AST]
) -> set[str]:
    """Parameter names of the enclosing function that default to None."""
    cur: ast.AST | None = node
    while cur is not None and not isinstance(
        cur, (ast.FunctionDef, ast.AsyncFunctionDef)
    ):
        cur = parents.get(cur)
    if cur is None:
        return set()
    args = cur.args
    out: set[str] = set()
    pos = args.posonlyargs + args.args
    for arg, default in zip(pos[len(pos) - len(args.defaults):],
                            args.defaults, strict=True):
        if isinstance(default, ast.Constant) and default.value is None:
            out.add(arg.arg)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults,
                            strict=True):
        if (default is not None and isinstance(default, ast.Constant)
                and default.value is None):
            out.add(arg.arg)
    return out


def _rule_r001(ctx: RuleContext, imports: ImportMap,
               parents: dict[ast.AST, ast.AST]) -> None:
    hint = ("thread an explicitly seeded np.random.Generator "
            "(np.random.default_rng(seed)) through the call signature")
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        # random.<fn>(...) on the stdlib module
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
            mod = imports.module_of(f.value.id)
            if mod == "random":
                if f.attr == "Random" and node.args:
                    continue  # random.Random(seed) is explicit state
                ctx.add("R001", SEVERITY_ERROR, node,
                        f"call to global-state RNG random.{f.attr}()", hint)
                continue
        # from random import shuffle; shuffle(...)
        if isinstance(f, ast.Name):
            member = imports.member_of(f.id)
            if member is not None and member[0] == "random":
                ctx.add("R001", SEVERITY_ERROR, node,
                        f"call to global-state RNG random.{member[1]}()",
                        hint)
                continue
        # np.random.<fn>(...)
        dotted = _dotted(f) if isinstance(f, ast.Attribute) else ""
        if not dotted:
            continue
        head, _, attr = dotted.rpartition(".")
        root = head.split(".")[0] if head else ""
        resolved_head = imports.module_of(root) or root
        is_np_random = (
            head.endswith("random") and resolved_head in ("numpy", "np")
        ) or resolved_head == "numpy.random"
        if not is_np_random:
            continue
        if attr in _NP_LEGACY:
            ctx.add("R001", SEVERITY_ERROR, node,
                    f"call to legacy global-state RNG np.random.{attr}()",
                    hint)
        elif attr == "default_rng":
            arg = node.args[0] if node.args else None
            if arg is None or (isinstance(arg, ast.Constant)
                               and arg.value is None):
                ctx.add("R001", SEVERITY_ERROR, node,
                        "np.random.default_rng() without a seed draws OS "
                        "entropy — every replica gets a different stream",
                        hint)
            elif isinstance(arg, ast.Name) and arg.id in (
                _enclosing_none_default_params(node, parents)
            ):
                ctx.add("R001", SEVERITY_WARNING, node,
                        f"np.random.default_rng({arg.id}) where "
                        f"{arg.id!r} defaults to None — callers that omit "
                        "it silently get OS entropy",
                        "make the None fallback an explicit fixed seed")


# --------------------------------------------------------------------- #
# R002 — iteration over unordered containers
# --------------------------------------------------------------------- #

def _is_sum_func(func: ast.expr) -> bool:
    """Syntactic match for accumulators R005 owns (so R002 defers)."""
    if isinstance(func, ast.Name):
        return func.id in ("sum", "fsum")
    return isinstance(func, ast.Attribute) and func.attr in ("sum", "fsum")


def _order_safe_parent(node: ast.AST,
                       parents: dict[ast.AST, ast.AST],
                       order_safe: frozenset[str] = NO_NAMES) -> bool:
    """Is this expression consumed by an order-insensitive construct?

    ``order_safe`` extends the built-in consumer allowlist with names
    the scan target vouches for (e.g. ``Counter``, ``approx_equal``
    helpers in tests).
    """
    parent = parents.get(node)
    if isinstance(parent, ast.Call) and node in parent.args:
        f = parent.func
        if isinstance(f, ast.Name) and (
                f.id in ORDER_SAFE_CONSUMERS or f.id in order_safe):
            return True
        if isinstance(f, ast.Attribute) and f.attr in order_safe:
            return True
        if isinstance(f, ast.Attribute) and f.attr in (
            "union", "update", "intersection", "difference", "join",
        ):
            # order-insensitive set algebra; join of sorted handled upstream
            return f.attr != "join"
    if isinstance(parent, ast.Compare):
        # membership tests
        return any(isinstance(op, (ast.In, ast.NotIn)) for op in parent.ops)
    return False


def _rule_r002(ctx: RuleContext, sets: SetTracker,
               parents: dict[ast.AST, ast.AST],
               order_safe: frozenset[str] = NO_NAMES) -> None:
    hint = "wrap the iterable in sorted(...) with a deterministic key"

    def flag(iter_node: ast.expr, where: ast.AST) -> None:
        what = sets.describe(iter_node)
        ctx.add("R002", SEVERITY_ERROR, where,
                f"iteration over {what}: order varies per process "
                "(hash seed / filesystem order), so replicas disagree",
                hint)

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.For) and sets.is_unordered(node.iter):
            flag(node.iter, node)
        elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp,
                               ast.SetComp)):
            for comp in node.generators:
                if not sets.is_unordered(comp.iter):
                    continue
                if isinstance(node, ast.SetComp):
                    continue  # set -> set keeps (non-)order, no new hazard
                if isinstance(node, ast.GeneratorExp) and _order_safe_parent(
                    node, parents, order_safe
                ):
                    continue
                # sum(...) over unordered is R005's (more specific) finding
                parent = parents.get(node)
                if isinstance(parent, ast.Call) and _is_sum_func(
                    parent.func
                ):
                    continue
                flag(comp.iter, node)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("list", "tuple", "iter", "enumerate",
                                "reversed") and node.args:
                if sets.is_unordered(node.args[0]) and not (
                    order_safe and _order_safe_parent(node, parents,
                                                      order_safe)
                ):
                    flag(node.args[0], node)


# --------------------------------------------------------------------- #
# R004 — wall clock in replica paths
# --------------------------------------------------------------------- #

def _in_control_flow(node: ast.AST, parents: dict[ast.AST, ast.AST]) -> bool:
    """Does this expression (transitively) feed an if/while test or a
    comparison?"""
    cur: ast.AST | None = node
    while cur is not None:
        parent = parents.get(cur)
        if isinstance(parent, (ast.If, ast.While)) and cur is parent.test:
            return True
        if isinstance(parent, (ast.Compare, ast.BoolOp, ast.IfExp)):
            return True
        if isinstance(parent, ast.stmt):
            return False
        cur = parent
    return False


def _rule_r004(ctx: RuleContext, imports: ImportMap,
               parents: dict[ast.AST, ast.AST]) -> None:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name: str | None = None
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
            mod = imports.module_of(f.value.id) or f.value.id
            if mod == "time" and f.attr in _WALLCLOCK_TIME:
                name = f"time.{f.attr}"
            elif mod == "datetime" and f.attr in _WALLCLOCK_DATETIME:
                name = f"datetime.{f.attr}"
        elif isinstance(f, ast.Attribute) and isinstance(
            f.value, ast.Attribute
        ):
            # datetime.datetime.now(), datetime.date.today()
            dotted = _dotted(f)
            if dotted.startswith("datetime.") and f.attr in _WALLCLOCK_DATETIME:
                name = dotted
        elif isinstance(f, ast.Name):
            member = imports.member_of(f.id)
            if member is not None:
                if member[0] == "time" and member[1] in _WALLCLOCK_TIME:
                    name = f"time.{member[1]}"
        if name is None:
            continue
        in_flow = _in_control_flow(node, parents)
        ctx.add(
            "R004",
            SEVERITY_ERROR if in_flow else SEVERITY_WARNING,
            node,
            f"wall-clock read {name}() "
            + ("feeds control flow — replicas will branch differently"
               if in_flow else
               "in a replica path — any decision derived from it is "
               "rank-local"),
            "keep timing in the obs/ layer, or derive decisions from "
            "replicated state (iteration counts, collective results)",
        )


# --------------------------------------------------------------------- #
# R005 — order-nondeterministic float accumulation
# --------------------------------------------------------------------- #

def _rule_r005(ctx: RuleContext, sets: SetTracker, imports: ImportMap) -> None:
    hint = ("accumulate in a deterministic order: sum(sorted(...)) or a "
            "rank-ordered reduction")

    def is_sum_call(node: ast.Call) -> str | None:
        f = node.func
        if isinstance(f, ast.Name):
            if f.id == "sum":
                return "sum"
            member = imports.member_of(f.id)
            if member is not None and member == ("math", "fsum"):
                return "math.fsum"
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
            mod = imports.module_of(f.value.id) or f.value.id
            if mod == "math" and f.attr == "fsum":
                return "math.fsum"
            if mod in ("numpy", "np") and f.attr == "sum":
                return "np.sum"
        return None

    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        kind = is_sum_call(node)
        if kind is None:
            continue
        arg = node.args[0]
        unordered = sets.is_unordered(arg)
        if not unordered and isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
            unordered = any(
                sets.is_unordered(c.iter) for c in arg.generators
            )
        if unordered:
            ctx.add("R005", SEVERITY_ERROR, node,
                    f"{kind}() over an unordered iterable: float addition "
                    "is not associative, so the result is a function of "
                    "the per-process iteration order", hint)


def run_syntax_rules(tree: ast.Module, path: str,
                     source_lines: list[str],
                     skip_r004: bool = False,
                     set_fns: frozenset[str] = NO_NAMES,
                     order_safe: frozenset[str] = NO_NAMES,
                     ) -> list[Finding]:
    """Run R001/R002/R004/R005 over one parsed file."""
    ctx = RuleContext(tree=tree, path=path, source_lines=source_lines)
    imports = ImportMap(tree)
    sets = SetTracker(tree, imports, set_fns)
    parents = _build_parents(tree)
    _rule_r001(ctx, imports, parents)
    _rule_r002(ctx, sets, parents, order_safe)
    if not skip_r004:
        _rule_r004(ctx, imports, parents)
    _rule_r005(ctx, sets, imports)
    return ctx.findings

"""Project-wide call graph with per-function flow summaries.

The collective rule (R003) asks whether every rank issues the same
collective sequence.  Checking one function at a time misses a rank-
dependent branch that reaches a collective *through a call*: the branch
body contains only ``helper(x)``, the collective lives in ``helper``
(possibly in another module), and neither function alone violates R003.
This module sees through such chains MPI-Checker-style:

1. parse every file once and index every function/method by a
   qualified name (``module:Class.method``);
2. resolve call expressions to those functions with deliberately
   *syntactic* heuristics (imports, ``self.``-methods, attributes whose
   class is known from ``self.x = ClassName(...)`` constructor
   assignments, local ``x = ClassName(...)`` variables);
3. summarize each function to a tree of flow events — collectives,
   resolved calls, branches, loops, ``except`` handlers, lock-held
   regions, blocking operations, attribute writes;
4. run fixpoints over the graph (``may issue a collective``, ``may
   block``, ``may acquire lock X``) and *inline* callee summaries into
   branch arms, so a rank-guarded arm is compared by the collectives it
   reaches, however many calls away.

The summaries feed two rule families: the interprocedural collective
rules here (R003 across calls, R006 collective-under-lock) and the
concurrency pack in :mod:`repro.analysis.concurrency` (R007–R011).

Known approximations (see ``docs/STATIC_ANALYSIS.md``): dynamic
dispatch through base classes, ``getattr``/reflection, decorators that
replace functions, and aliasing through containers are all unresolved —
an unresolved call contributes *nothing* to a summary, which keeps the
analysis quiet rather than noisy, at the cost of false negatives.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.findings import SEVERITY_ERROR, Finding
from repro.analysis.rules import ImportMap, RuleContext

__all__ = [
    "Project",
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "build_project",
    "module_name",
    "run_collective_flow_rules",
]

#: Inlined sequences are truncated here; beyond this length two arms
#: that still agree are overwhelmingly likely to agree forever.
MAX_SEQ = 200

#: Call-chain rendering depth in messages (the analysis itself is a
#: fixpoint and has no depth limit).
MAX_CHAIN = 6

#: Shared empty default for recursion-guard parameters (a constant, not
#: a call, so bugbear's call-in-default rule stays quiet).
_NO_QUALS: frozenset = frozenset()

_LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition", "Semaphore",
                             "BoundedSemaphore"})

#: ``subprocess`` module entry points that block until child exit.
_BLOCKING_SUBPROCESS = frozenset({"run", "call", "check_call",
                                  "check_output"})

#: Zero-timeout method names that block indefinitely on their receiver.
_BLOCKING_METHODS = frozenset({"recv", "recv_bytes", "accept",
                               "serve_forever", "communicate"})

#: Method names treated as collectives when called on a comm-like object.
COLLECTIVE_VERBS = frozenset({
    "allreduce", "bcast", "barrier", "agree", "shrink", "scatter",
    "allgather", "alltoall", "reduce", "gather",
})

# These verbs are common English / stdlib names (functools.reduce,
# itertools accumulate patterns, list gathering helpers) — only treat
# them as collectives when the receiver *looks like* a communicator.
_AMBIGUOUS_VERBS = frozenset({"reduce", "gather"})

_RANK_TOKENS = ("rank", "world_rank")


# --------------------------------------------------------------------- #
# project model
# --------------------------------------------------------------------- #

@dataclass
class ModuleInfo:
    path: str
    module: str                    # dotted-name guess from the path
    tree: ast.Module
    lines: list[str]
    imports: ImportMap


@dataclass
class ClassInfo:
    qual: str                      # "module:ClassName"
    name: str
    module: str
    methods: dict[str, "FunctionInfo"] = field(default_factory=dict)
    #: attribute -> threading-lock-ness (assigned ``threading.Lock()`` …)
    lock_attrs: set[str] = field(default_factory=set)
    #: attribute -> ClassInfo.qual of the instance assigned to it
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class FunctionInfo:
    qual: str                      # "module:qualname"
    name: str
    module: str
    path: str
    node: ast.AST                  # FunctionDef / AsyncFunctionDef / Module
    cls: ClassInfo | None = None
    #: flow-event tree (see _Summarizer for the item alphabet)
    items: list = field(default_factory=list)
    #: (token, node) locks this function acquires directly
    acquires: list[tuple[str, ast.AST]] = field(default_factory=list)
    #: (outer, inner, node) direct nested-acquisition pairs
    lock_pairs: list[tuple[str, str, ast.AST]] = field(default_factory=list)
    #: (description, node, locks-held) direct blocking operations
    blocking: list[tuple[str, ast.AST, tuple[str, ...]]] = field(
        default_factory=list)
    #: (attr, node, under-class-lock, method-name) ``self.X`` writes
    writes: list[tuple[str, ast.AST, bool, str]] = field(
        default_factory=list)
    # -- fixpoint results ------------------------------------------------
    may_collect: bool = False
    collect_via: tuple[str, ...] = ()      # example call path to a collective
    may_block: dict = field(default_factory=dict)   # desc -> example path
    may_acquire: dict = field(default_factory=dict)  # token -> example path


@dataclass
class Project:
    modules: list[ModuleInfo] = field(default_factory=list)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: source lines per path (for finding snippets)
    lines: dict[str, list[str]] = field(default_factory=dict)

    # -- name resolution ------------------------------------------------ #
    def module_named(self, dotted: str) -> ModuleInfo | None:
        """Match a module by exact dotted name or dotted suffix of its
        :func:`module_name` (the engine's set-returning signature index
        is keyed and matched the same way)."""
        for m in self.modules:
            if m.module == dotted or m.module.endswith("." + dotted):
                return m
        return None

    def function_in(self, module: ModuleInfo | None,
                    name: str) -> FunctionInfo | None:
        if module is None:
            return None
        return self.functions.get(f"{module.module}:{name}")

    def class_named(self, module: ModuleInfo, name: str) -> ClassInfo | None:
        info = self.classes.get(f"{module.module}:{name}")
        if info is not None:
            return info
        member = module.imports.member_of(name)
        if member is not None:
            target = self.module_named(member[0])
            if target is not None:
                return self.classes.get(f"{target.module}:{member[1]}")
        return None


def module_name(path: str) -> str:
    """Dotted module guess from a file path (``src/repro/tree/x.py`` ->
    ``src.repro.tree.x``, empty and ``.`` parts dropped, so an absolute
    or ``./``-prefixed path gives the same tail); consumers match by
    dotted suffix."""
    parts = path.replace("\\", "/").rstrip("/").split("/")
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    return ".".join(p for p in parts if p not in ("", "."))


def _receiver_is_comm(node: ast.Attribute) -> bool:
    base = node.value
    name = ""
    if isinstance(base, ast.Name):
        name = base.id
    elif isinstance(base, ast.Attribute):
        name = base.attr
    low = name.lower()
    return "comm" in low or low in ("inner", "_inner")


def _collective_of(node: ast.expr) -> tuple[str, str] | None:
    """``(verb, tag)`` if this expression is a collective call."""
    if not isinstance(node, ast.Call):
        return None
    f = node.func
    if not isinstance(f, ast.Attribute) or f.attr not in COLLECTIVE_VERBS:
        return None
    if f.attr in _AMBIGUOUS_VERBS and not _receiver_is_comm(f):
        return None
    if f.attr not in _AMBIGUOUS_VERBS and not (
        _receiver_is_comm(f) or isinstance(f.value, (ast.Name, ast.Attribute))
    ):
        return None
    tag = "?"
    for kw in node.keywords:
        if kw.arg == "tag":
            if isinstance(kw.value, ast.Constant) and isinstance(
                kw.value.value, str
            ):
                tag = kw.value.value
            elif isinstance(kw.value, (ast.Name, ast.Attribute)):
                tag = ast.unparse(kw.value)
    return (f.attr, tag)


def _mentions_rank(test: ast.expr) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Attribute) and any(
            t in node.attr.lower() for t in _RANK_TOKENS
        ):
            return True
        if isinstance(node, ast.Name) and any(
            t in node.id.lower() for t in _RANK_TOKENS
        ):
            return True
    return False


# --------------------------------------------------------------------- #
# build pass
# --------------------------------------------------------------------- #

def build_project(parsed: Iterable[tuple[str, str, ast.Module]]) -> Project:
    """Index functions, classes and attribute types for the whole scan.

    ``parsed`` yields ``(path, source, tree)`` triples (the engine's
    pass-1 output).  Summaries and fixpoints are computed here too, so
    the returned project is ready for the rule passes.
    """
    project = Project()
    for path, source, tree in parsed:
        module = ModuleInfo(
            path=path,
            module=module_name(path),
            tree=tree,
            lines=source.splitlines(),
            imports=ImportMap(tree),
        )
        project.modules.append(module)
        project.lines[path] = module.lines
        _index_module(project, module)
    for module in project.modules:
        _infer_attr_types(project, module)
    for info in project.functions.values():
        _Summarizer(project, _module_of(project, info.path), info).run()
    _run_fixpoints(project)
    return project


def _module_of(project: Project, path: str) -> ModuleInfo:
    for m in project.modules:
        if m.path == path:
            return m
    raise KeyError(path)


def _index_module(project: Project, module: ModuleInfo) -> None:
    def add_function(node, qualname: str, cls: ClassInfo | None) -> None:
        info = FunctionInfo(
            qual=f"{module.module}:{qualname}",
            name=qualname.rpartition(".")[2],
            module=module.module,
            path=module.path,
            node=node,
            cls=cls,
        )
        project.functions[info.qual] = info
        if cls is not None:
            # only direct class-body defs reach here with cls set
            cls.methods[info.name] = info

    def visit(body: list[ast.stmt], prefix: str,
              cls: ClassInfo | None) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{node.name}"
                add_function(node, qualname, cls)
                # nested defs get their own summaries
                visit(node.body, f"{qualname}.", None)
            elif isinstance(node, ast.ClassDef):
                sub_cls = ClassInfo(
                    qual=f"{module.module}:{prefix}{node.name}",
                    name=node.name,
                    module=module.module,
                )
                project.classes[sub_cls.qual] = sub_cls
                visit(node.body, f"{prefix}{node.name}.", sub_cls)

    visit(module.tree.body, "", None)
    # Module-level statements form a pseudo-function so import-time
    # collective flow is summarized like any other body.
    top = [s for s in module.tree.body
           if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))]
    pseudo = ast.Module(body=top, type_ignores=[])
    add_function(pseudo, "<module>", None)


def _is_threading_lock_ctor(node: ast.expr, imports: ImportMap) -> bool:
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
        mod = imports.module_of(f.value.id) or f.value.id
        return mod == "threading" and f.attr in _LOCK_FACTORIES
    if isinstance(f, ast.Name):
        member = imports.member_of(f.id)
        return (member is not None and member[0] == "threading"
                and member[1] in _LOCK_FACTORIES)
    return False


def _ctor_class(project: Project, module: ModuleInfo,
                node: ast.expr) -> ClassInfo | None:
    """The project class instantiated by ``node``, if it is one."""
    if not isinstance(node, ast.Call):
        return None
    f = node.func
    if isinstance(f, ast.Name):
        return project.class_named(module, f.id)
    if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
        target = project.module_named(
            module.imports.module_of(f.value.id) or f.value.id)
        if target is not None:
            return project.classes.get(f"{target.module}:{f.attr}")
    return None


def _infer_attr_types(project: Project, module: ModuleInfo) -> None:
    """``self.x = ClassName(...)`` / ``self.x = threading.Lock()`` in any
    method types the attribute for the whole class."""
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        cls = project.classes.get(f"{module.module}:{node.name}")
        if cls is None:
            continue
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Assign):
                continue
            for target in sub.targets:
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                if _is_threading_lock_ctor(sub.value, module.imports):
                    cls.lock_attrs.add(target.attr)
                else:
                    ctor = _ctor_class(project, module, sub.value)
                    if ctor is not None:
                        cls.attr_types[target.attr] = ctor.qual


# --------------------------------------------------------------------- #
# call + lock + blocking classification
# --------------------------------------------------------------------- #

def _flock_call(node: ast.Call, imports: ImportMap) -> tuple[bool, bool]:
    """(is fcntl.flock, is exclusive/blocking: no LOCK_NB in the op)."""
    f = node.func
    named = False
    if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
        mod = imports.module_of(f.value.id) or f.value.id
        named = mod == "fcntl" and f.attr == "flock"
    elif isinstance(f, ast.Name):
        member = imports.member_of(f.id)
        named = member is not None and member == ("fcntl", "flock")
    if not named:
        return False, False
    op_text = " ".join(ast.unparse(a) for a in node.args[1:])
    return True, "LOCK_NB" not in op_text


class _Resolver:
    """Resolve a call expression to a project function, or ``None``."""

    def __init__(self, project: Project, module: ModuleInfo,
                 info: FunctionInfo) -> None:
        self.project = project
        self.module = module
        self.info = info
        #: local variable -> ClassInfo.qual, from `x = ClassName(...)`
        self.local_types: dict[str, str] = {}
        for node in ast.walk(info.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                ctor = _ctor_class(project, module, node.value)
                if ctor is not None:
                    self.local_types[node.targets[0].id] = ctor.qual

    def _class_of_expr(self, node: ast.expr) -> ClassInfo | None:
        if isinstance(node, ast.Name):
            if node.id == "self" and self.info.cls is not None:
                return self.info.cls
            qual = self.local_types.get(node.id)
            if qual is not None:
                return self.project.classes.get(qual)
            return None
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self" and self.info.cls is not None):
            qual = self.info.cls.attr_types.get(node.attr)
            if qual is not None:
                return self.project.classes.get(qual)
        return None

    def resolve(self, call: ast.Call) -> FunctionInfo | None:
        f = call.func
        if isinstance(f, ast.Name):
            # innermost enclosing scope first: mod:a.b.<name>, mod:a.<name>…
            prefix = self.info.qual.partition(":")[2]
            while prefix:
                prefix = prefix.rpartition(".")[0]
                scoped = self.project.functions.get(
                    f"{self.module.module}:{prefix}.{f.id}" if prefix
                    else f"{self.module.module}:{f.id}")
                if scoped is not None:
                    return scoped
                if not prefix:
                    break
            local = self.project.function_in(self.module, f.id)
            if local is not None:
                return local
            member = self.module.imports.member_of(f.id)
            if member is not None:
                return self.project.function_in(
                    self.project.module_named(member[0]), member[1])
            return None
        if isinstance(f, ast.Attribute):
            owner = self._class_of_expr(f.value)
            if owner is not None:
                method = owner.methods.get(f.attr)
                if method is not None:
                    return method
            if isinstance(f.value, ast.Name):
                target = self.project.module_named(
                    self.module.imports.module_of(f.value.id) or f.value.id)
                return self.project.function_in(target, f.attr)
        return None

    # -- lock tokens ---------------------------------------------------- #
    def lock_token(self, expr: ast.expr) -> str | None:
        """A stable cross-function identity for a lock-like expression.

        ``self.X`` where X is a known lock attribute (or merely *named*
        like one) is qualified by the owning class; a bare name by its
        module; any ``with f(...)`` whose callee reaches ``fcntl.flock``
        collapses to the single token ``"flock"`` — the sidecar-file
        pattern is one global discipline, not a per-path lock.
        """
        if isinstance(expr, ast.Call):
            is_flock, _ = _flock_call(expr, self.module.imports)
            if is_flock:
                return "flock"
            callee = self.resolve(expr)
            if callee is not None and _acquires_flock(callee):
                return "flock"
            return None
        text = ast.unparse(expr) if isinstance(
            expr, (ast.Name, ast.Attribute)) else ""
        if not text:
            return None
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self" and self.info.cls is not None):
            if (expr.attr in self.info.cls.lock_attrs
                    or "lock" in expr.attr.lower()):
                return f"{self.info.cls.qual}.{expr.attr}"
            return None
        if "lock" in text.lower():
            return f"{self.module.module}:{text}"
        return None

    # -- blocking calls ------------------------------------------------- #
    def blocking_desc(self, call: ast.Call) -> str | None:
        f = call.func
        has_timeout = any(kw.arg == "timeout" for kw in call.keywords)
        if isinstance(f, ast.Attribute):
            base = f.value
            mod = ""
            if isinstance(base, ast.Name):
                mod = self.module.imports.module_of(base.id) or base.id
            if f.attr == "sleep" and mod == "time":
                return "time.sleep"
            if mod == "subprocess" and f.attr in _BLOCKING_SUBPROCESS:
                return f"subprocess.{f.attr}"
            if f.attr == "wait" and not call.args and not call.keywords:
                return f"{ast.unparse(base)}.wait() with no timeout"
            if f.attr == "join" and not call.args and not call.keywords:
                return f"{ast.unparse(base)}.join() with no timeout"
            if f.attr in _BLOCKING_METHODS and not has_timeout:
                return f"{ast.unparse(base)}.{f.attr}()"
            if f.attr == "urlopen" and not has_timeout:
                return "urlopen() with no timeout"
        elif isinstance(f, ast.Name):
            member = self.module.imports.member_of(f.id)
            if member == ("time", "sleep"):
                return "time.sleep"
            if member is not None and member[0] == "subprocess" \
                    and member[1] in _BLOCKING_SUBPROCESS:
                return f"subprocess.{member[1]}"
            if member is not None and member[1] == "urlopen" \
                    and not has_timeout:
                return "urlopen() with no timeout"
        is_flock, exclusive = _flock_call(call, self.module.imports)
        if is_flock and exclusive:
            return "fcntl.flock(LOCK_EX)"
        return None


def _acquires_flock(info: FunctionInfo) -> bool:
    """Does this function *directly* call blocking ``fcntl.flock``?

    Used while resolving ``with helper(...):`` context managers before
    summaries exist, so it inspects the raw AST.
    """
    for node in ast.walk(info.node):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute) and f.attr == "flock":
                return True
            if isinstance(f, ast.Name) and f.id == "flock":
                return True
    return False


# --------------------------------------------------------------------- #
# per-function summaries
# --------------------------------------------------------------------- #
#
# Item alphabet for FunctionInfo.items (a tree mirroring control flow):
#   ("coll", verb, tag, node, in_handler, locks)
#   ("call", qual|None, node, in_handler, locks)
#   ("if",   node, mentions_rank, then_items, else_items)
#   ("loop", body_items)
#   ("handler", body_items)            # except-handler body
#
# `locks` is the tuple of lock tokens held at the event, outermost
# first.  with/try bodies are flattened inline.

class _Summarizer:
    def __init__(self, project: Project, module: ModuleInfo,
                 info: FunctionInfo) -> None:
        self.project = project
        self.module = module
        self.info = info
        self.resolver = _Resolver(project, module, info)

    def run(self) -> None:
        body = getattr(self.info.node, "body", [])
        self.info.items = self._stmts(body, (), in_handler=False)

    # ------------------------------------------------------------------ #
    def _record_acquire(self, token: str, locks: tuple[str, ...],
                        node: ast.AST) -> None:
        self.info.acquires.append((token, node))
        for outer in locks:
            if outer != token:
                self.info.lock_pairs.append((outer, token, node))

    def _leaf(self, stmt: ast.stmt, locks: tuple[str, ...],
              in_handler: bool) -> list:
        """Collect events from a leaf statement's expression tree."""
        out: list = []
        for sub in ast.walk(stmt):
            if not isinstance(sub, ast.Call):
                continue
            coll = _collective_of(sub)
            if coll is not None:
                out.append(("coll", coll[0], coll[1], sub, in_handler,
                            locks))
                continue
            desc = self.resolver.blocking_desc(sub)
            if desc is not None:
                self.info.blocking.append((desc, sub, locks))
            is_flock, exclusive = _flock_call(sub, self.module.imports)
            if is_flock and exclusive:
                self._record_acquire("flock", locks, sub)
                continue
            if isinstance(sub.func, ast.Attribute) \
                    and sub.func.attr == "acquire":
                token = self.resolver.lock_token(sub.func.value)
                if token is not None:
                    self._record_acquire(token, locks, sub)
                    continue
            callee = self.resolver.resolve(sub)
            out.append(("call",
                        callee.qual if callee is not None else None,
                        sub, in_handler, locks))
        self._record_writes(stmt, locks)
        return out

    def _record_writes(self, stmt: ast.stmt, locks: tuple[str, ...]) -> None:
        if self.info.cls is None:
            return
        class_locks = {f"{self.info.cls.qual}.{a}"
                       for a in self.info.cls.lock_attrs}
        under = bool(class_locks.intersection(locks))

        def self_attr(target: ast.expr) -> str | None:
            # self.X, self.X[...], del self.X — all mutate attribute X
            node = target
            if isinstance(node, ast.Subscript):
                node = node.value
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                return node.attr
            return None

        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = stmt.targets
        for target in targets:
            attr = self_attr(target)
            if attr is not None:
                self.info.writes.append((attr, stmt, under, self.info.name))

    # ------------------------------------------------------------------ #
    def _stmts(self, body: list[ast.stmt], locks: tuple[str, ...],
               in_handler: bool) -> list:
        items: list = []
        i = 0
        while i < len(body):
            stmt = body[i]
            # `x.acquire()` as a bare statement opens a held region that
            # runs to the matching `x.release()` in this list (or its end).
            token = self._acquire_stmt_token(stmt)
            if token is not None:
                self._record_acquire(token, locks, stmt)
                region: list[ast.stmt] = []
                j = i + 1
                while j < len(body) and not self._is_release(body[j], token):
                    region.append(body[j])
                    j += 1
                items.extend(self._stmts(region, locks + (token,),
                                         in_handler))
                i = j + 1
                continue
            items.extend(self._stmt(stmt, locks, in_handler))
            i += 1
        return items

    def _acquire_stmt_token(self, stmt: ast.stmt) -> str | None:
        if (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Attribute)
                and stmt.value.func.attr == "acquire"):
            return self.resolver.lock_token(stmt.value.func.value)
        return None

    def _is_release(self, stmt: ast.stmt, token: str) -> bool:
        return (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Attribute)
                and stmt.value.func.attr == "release"
                and self.resolver.lock_token(stmt.value.func.value) == token)

    def _stmt(self, stmt: ast.stmt, locks: tuple[str, ...],
              in_handler: bool) -> list:
        if isinstance(stmt, ast.If):
            then_items = self._stmts(stmt.body, locks, in_handler)
            else_items = self._stmts(stmt.orelse, locks, in_handler)
            return [("if", stmt, _mentions_rank(stmt.test),
                     then_items, else_items)]
        if isinstance(stmt, ast.Try):
            items = self._stmts(stmt.body, locks, in_handler)
            for handler in stmt.handlers:
                items.append(("handler",
                              self._stmts(handler.body, locks,
                                          in_handler=True)))
            items.extend(self._stmts(stmt.orelse, locks, in_handler))
            items.extend(self._stmts(stmt.finalbody, locks, in_handler))
            return items
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            body = self._stmts(stmt.body, locks, in_handler)
            body.extend(self._stmts(stmt.orelse, locks, in_handler))
            # leaf events of the test/iter expressions still count once
            head = self._leaf_head(stmt, locks, in_handler)
            return head + ([("loop", body)] if body else [])
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = locks
            head: list = []
            for item in stmt.items:
                token = self.resolver.lock_token(item.context_expr)
                if token is not None:
                    self._record_acquire(token, inner, stmt)
                    # entering the lock still *calls* the context manager
                    # (e.g. a flock helper): record the call under the
                    # locks held while waiting, so may_block propagates.
                    if isinstance(item.context_expr, ast.Call):
                        callee = self.resolver.resolve(item.context_expr)
                        if callee is not None:
                            head.append((
                                "call", callee.qual, item.context_expr,
                                in_handler, inner))
                    inner = inner + (token,)
                else:
                    # non-lock context manager: still scan its expression
                    head.extend(self._scan_expr(item.context_expr, inner,
                                                in_handler))
            return head + self._stmts(stmt.body, inner, in_handler)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return []   # nested definitions get their own summaries
        return self._leaf(stmt, locks, in_handler)

    def _leaf_head(self, stmt, locks: tuple[str, ...],
                   in_handler: bool) -> list:
        expr = stmt.iter if isinstance(stmt, (ast.For, ast.AsyncFor)) \
            else stmt.test
        return self._scan_expr(expr, locks, in_handler)

    def _scan_expr(self, expr: ast.expr, locks: tuple[str, ...],
                   in_handler: bool) -> list:
        fake = ast.Expr(value=expr)
        ast.copy_location(fake, expr)
        return self._leaf(fake, locks, in_handler)


# --------------------------------------------------------------------- #
# fixpoints
# --------------------------------------------------------------------- #

def _iter_calls(items: list):
    for item in items:
        kind = item[0]
        if kind == "call":
            yield item
        elif kind == "if":
            yield from _iter_calls(item[3])
            yield from _iter_calls(item[4])
        elif kind in ("loop", "handler"):
            yield from _iter_calls(item[1])


def _iter_colls(items: list):
    for item in items:
        kind = item[0]
        if kind == "coll":
            yield item
        elif kind == "if":
            yield from _iter_colls(item[3])
            yield from _iter_colls(item[4])
        elif kind in ("loop", "handler"):
            yield from _iter_colls(item[1])


def _run_fixpoints(project: Project) -> None:
    funcs = project.functions
    for info in funcs.values():
        if any(True for _ in _iter_colls(info.items)):
            info.may_collect = True
            info.collect_via = ()
        for desc, _node, _locks in info.blocking:
            info.may_block.setdefault(desc, ())
        for token, _node in info.acquires:
            info.may_acquire.setdefault(token, ())

    changed = True
    while changed:
        changed = False
        for info in funcs.values():
            for item in _iter_calls(info.items):
                callee = funcs.get(item[1]) if item[1] else None
                if callee is None or callee is info:
                    continue
                if callee.may_collect and not info.may_collect:
                    info.may_collect = True
                    info.collect_via = _extend_path(
                        callee.qual, callee.collect_via)
                    changed = True
                for desc, path in callee.may_block.items():
                    if desc not in info.may_block:
                        info.may_block[desc] = _extend_path(
                            callee.qual, path)
                        changed = True
                for token, path in callee.may_acquire.items():
                    if token not in info.may_acquire:
                        info.may_acquire[token] = _extend_path(
                            callee.qual, path)
                        changed = True


def _extend_path(qual: str, path: tuple[str, ...]) -> tuple[str, ...]:
    return ((qual,) + path)[:MAX_CHAIN]


def _render_chain(qual_path: tuple[str, ...]) -> str:
    if not qual_path:
        return ""
    names = [q.rpartition(":")[2] for q in qual_path]
    return " -> ".join(names)


# --------------------------------------------------------------------- #
# effective sequences (inlined callee summaries)
# --------------------------------------------------------------------- #

class _SeqExpander:
    """Fold a function's item tree into a flat collective sequence with
    callee summaries inlined, the comparison domain of R003 v2."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self._memo: dict[str, tuple] = {}

    def of_function(self, qual: str,
                    stack: frozenset = _NO_QUALS) -> tuple:
        if qual in stack:
            return (("?rec", "?"),)
        if qual in self._memo:
            return self._memo[qual]
        info = self.project.functions.get(qual)
        if info is None:
            return ()
        seq = self.expand(info.items, stack | {qual})
        if not stack:              # only cache recursion-independent results
            self._memo[qual] = seq
        return seq

    def expand(self, items: list, stack: frozenset) -> tuple:
        out: list = []
        for item in items:
            kind = item[0]
            if kind == "coll":
                out.append((item[1], item[2]))
            elif kind == "call":
                if item[1]:
                    out.extend(self.of_function(item[1], stack))
            elif kind == "if":
                then_seq = self.expand(item[3], stack)
                else_seq = self.expand(item[4], stack)
                if then_seq == else_seq:
                    out.extend(then_seq)
                else:
                    out.append(("?branch", "?"))
            elif kind == "loop":
                if self.expand(item[1], stack):
                    out.append(("?loop", "?"))
            # handlers contribute nothing to the nominal sequence
            if len(out) > MAX_SEQ:
                return tuple(out[:MAX_SEQ]) + (("?trunc", "?"),)
        return tuple(out)


# --------------------------------------------------------------------- #
# rules: R003 (interprocedural) + R006
# --------------------------------------------------------------------- #

def run_collective_flow_rules(project: Project) -> list[Finding]:
    """R003 across call chains and branch arms; R006 collective-under-
    lock — both directly and through resolved calls."""
    findings: list[Finding] = []
    expander = _SeqExpander(project)
    for qual in sorted(project.functions):
        info = project.functions[qual]
        ctx = RuleContext(
            tree=None, path=info.path,
            source_lines=project.lines.get(info.path, []))
        _emit(project, info, info.items, ctx, expander)
        findings.extend(ctx.findings)
    return findings


def _emit(project: Project, info: FunctionInfo, items: list,
          ctx: RuleContext, expander: _SeqExpander) -> None:
    for item in items:
        kind = item[0]
        if kind == "coll":
            _verb, _tag, node, in_handler, locks = item[1], item[2], \
                item[3], item[4], item[5]
            if in_handler:
                ctx.add(
                    "R003", SEVERITY_ERROR, node,
                    f"collective {item[1]}(tag={item[2]!r}) inside an "
                    "except handler: exception delivery is rank-local, "
                    "so only some ranks reach this collective and the "
                    "others deadlock",
                    "move the collective out of the handler, or agree on "
                    "the error first (comm.agree) so every rank takes "
                    "the same path",
                )
            if locks:
                ctx.add(
                    "R006", SEVERITY_ERROR, node,
                    f"collective {item[1]}(tag={item[2]!r}) issued while "
                    f"holding lock {locks[-1]}: if any peer rank needs "
                    "that lock to reach its matching call, the mesh "
                    "deadlocks with the lock held",
                    "release the lock before the collective, or restrict "
                    "the lock to rank-local state",
                )
        elif kind == "call":
            qual, node, in_handler, locks = item[1], item[2], item[3], \
                item[4]
            callee = project.functions.get(qual) if qual else None
            if callee is None:
                continue
            if in_handler and callee.may_collect:
                chain = _render_chain((callee.qual,) + callee.collect_via)
                ctx.add(
                    "R003", SEVERITY_ERROR, node,
                    "call chain reaches a collective from inside an "
                    f"except handler (via {chain}): exception delivery "
                    "is rank-local, so only some ranks issue it",
                    "agree on the error first (comm.agree) so every rank "
                    "takes the same path",
                )
            if locks and callee.may_collect:
                chain = _render_chain((callee.qual,) + callee.collect_via)
                ctx.add(
                    "R006", SEVERITY_ERROR, node,
                    f"call chain reaches a collective while holding lock "
                    f"{locks[-1]} (via {chain}): if any peer rank needs "
                    "that lock to reach its matching call, the mesh "
                    "deadlocks with the lock held",
                    "release the lock before calling into collective-"
                    "issuing code",
                )
        elif kind == "if":
            node, mentions_rank, then_items, else_items = \
                item[1], item[2], item[3], item[4]
            if mentions_rank:
                then_seq = expander.expand(then_items,
                                           frozenset({info.qual}))
                else_seq = expander.expand(else_items,
                                           frozenset({info.qual}))
                if then_seq != else_seq:
                    arms = (f"then={list(then_seq) or '[]'}, "
                            f"else={list(else_seq) or '[]'}")
                    ctx.add(
                        "R003", SEVERITY_ERROR, node,
                        "rank-dependent branch issues different "
                        f"collective sequences ({arms}): ranks taking "
                        "different arms block in mismatched collectives",
                        "hoist the collective (or the call that issues "
                        "it) out of the branch, or make every rank take "
                        "the same collective path",
                    )
            _emit(project, info, then_items, ctx, expander)
            _emit(project, info, else_items, ctx, expander)
        elif kind in ("loop", "handler"):
            _emit(project, info, item[1], ctx, expander)

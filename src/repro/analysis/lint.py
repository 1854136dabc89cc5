"""Repo-invariant lint (Prong B): ``python -m repro.analysis.lint src/``.

Four AST-based rules, stdlib-``ast`` only, each guarding an invariant
the pipeline's correctness or reproducibility rests on:

* **REP001 — seeded randomness.**  No unseeded ``random`` /
  ``numpy.random`` sources outside workload generators: an unseeded
  RNG makes sampling-based estimators (Monte Carlo, kernel SHAP)
  non-reproducible run to run.  Construct ``random.Random(seed)`` /
  ``numpy.random.default_rng(seed)`` instead.
* **REP002 — sorted set/dict iteration.**  In canonicalization and
  signature modules (``compiler/knowledge.py``, ``circuits/*``,
  ``engine/cache.py``), no iteration over a bare ``set``/``dict``
  unless wrapped in ``sorted(...)``: these modules produce canonical
  forms keyed into the shared store, which must be byte-identical
  across processes and ``PYTHONHASHSEED`` values.
* **REP003 — float-free exact arithmetic.**  No ``float`` literals or
  ``float(...)`` conversions in the exact-arithmetic modules
  (``core/numerics/base.py``, ``core/shapley.py``) or in the
  level-scheduled sweeps (``core/numerics/fixed.py``), whose float64
  tier is chosen by dtype object under proven bounds, never by a
  literal.
* **REP004 — acyclic lock order.**  Over ``engine/service/`` and
  ``engine/store.py``, extract the static lock-acquisition graph
  (every ``with self.<lock>`` nesting, direct and through the
  may-acquire closure of method calls) and fail on cycles or
  re-acquisition of a non-reentrant lock — the coordinator's
  compile-ahead queue made lock-order inversions a real deadlock
  risk.

Suppress a rule on one line with an inline marker comment::

    for group in groups.values():  # repro: allow=REP002 (insertion-ordered)

The marker names one or more comma-separated rule ids; everything
after them is free-form justification.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Iterable

RULES = {
    "REP001": "unseeded random source outside workload generators",
    "REP002": "unsorted set/dict iteration in a canonicalization module",
    "REP003": "float literal/conversion in an exact-arithmetic module",
    "REP004": "lock-acquisition graph has a cycle or non-reentrant re-acquisition",
}

#: Module paths (relative to the ``repro`` package) scoped per rule.
REP001_EXEMPT_PREFIXES = ("workloads/",)
REP002_SCOPE = ("compiler/knowledge.py", "engine/cache.py")
REP002_SCOPE_PREFIXES = ("circuits/",)
REP003_SCOPE = (
    "core/numerics/base.py",
    "core/numerics/fixed.py",
    "core/shapley.py",
)
REP004_SCOPE = ("engine/store.py",)
REP004_SCOPE_PREFIXES = ("engine/service/",)

_SUPPRESS_MARK = "repro: allow="


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def as_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
        }


def _module_rel(path: str) -> str:
    """Path of a source file relative to the ``repro`` package root
    (used for rule scoping); the raw path when outside the package."""
    parts = PurePosixPath(str(path).replace("\\", "/")).parts
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        return "/".join(parts[anchor + 1 :])
    return "/".join(parts)


def _suppressed(lines: list[str], lineno: int, rule: str) -> bool:
    if not 0 < lineno <= len(lines):
        return False
    text = lines[lineno - 1]
    marker = text.find(_SUPPRESS_MARK)
    if marker < 0:
        return False
    listed = text[marker + len(_SUPPRESS_MARK) :].split()[0]
    return rule in {item.strip() for item in listed.split(",")}


# ----------------------------------------------------------------------
# REP001 — seeded randomness
# ----------------------------------------------------------------------

#: ``random`` module functions driven by the hidden global RNG.
_GLOBAL_RNG_FUNCS = {
    "random", "randint", "randrange", "choice", "choices", "sample",
    "shuffle", "uniform", "betavariate", "expovariate", "gammavariate",
    "gauss", "lognormvariate", "normalvariate", "paretovariate",
    "triangular", "vonmisesvariate", "weibullvariate", "getrandbits",
    "randbytes",
}


class _Rep001Visitor(ast.NodeVisitor):
    def __init__(self) -> None:
        self.findings: list[tuple[int, str]] = []
        self._random_aliases: set[str] = set()
        self._numpy_aliases: set[str] = set()
        self._nprandom_aliases: set[str] = set()
        self._from_random: dict[str, str] = {}
        self._from_nprandom: dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self._random_aliases.add(bound)
            elif alias.name == "numpy":
                self._numpy_aliases.add(bound)
            elif alias.name == "numpy.random":
                if alias.asname:
                    self._nprandom_aliases.add(alias.asname)
                else:
                    self._numpy_aliases.add("numpy")

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name
            if node.module == "random":
                self._from_random[bound] = alias.name
            elif node.module == "numpy":
                if alias.name == "random":
                    self._nprandom_aliases.add(bound)
            elif node.module == "numpy.random":
                self._from_nprandom[bound] = alias.name

    @staticmethod
    def _dotted(func: ast.expr) -> tuple[str, ...] | None:
        parts: list[str] = []
        while isinstance(func, ast.Attribute):
            parts.append(func.attr)
            func = func.value
        if isinstance(func, ast.Name):
            parts.append(func.id)
            return tuple(reversed(parts))
        return None

    @staticmethod
    def _unseeded_args(node: ast.Call) -> bool:
        if not node.args and not node.keywords:
            return True
        if len(node.args) == 1 and not node.keywords:
            arg = node.args[0]
            return isinstance(arg, ast.Constant) and arg.value is None
        return False

    def _flag(self, node: ast.Call, what: str) -> None:
        self.findings.append(
            (
                node.lineno,
                f"{what}; construct it with an explicit seed so sampling "
                f"runs are reproducible",
            )
        )

    def visit_Call(self, node: ast.Call) -> None:
        dotted = self._dotted(node.func)
        if dotted is not None:
            self._check_dotted(node, dotted)
        self.generic_visit(node)

    def _check_dotted(self, node: ast.Call, dotted: tuple[str, ...]) -> None:
        head, tail = dotted[0], dotted[1:]
        if head in self._random_aliases and len(tail) == 1:
            attr = tail[0]
            if attr == "Random" and self._unseeded_args(node):
                self._flag(node, "unseeded random.Random()")
            elif attr == "SystemRandom":
                self._flag(node, "random.SystemRandom() (entropy-seeded)")
            elif attr == "seed" and self._unseeded_args(node):
                self._flag(node, "random.seed() without a seed value")
            elif attr in _GLOBAL_RNG_FUNCS:
                self._flag(node, f"random.{attr}() on the global RNG")
            return
        np_tail: tuple[str, ...] | None = None
        if head in self._numpy_aliases and len(tail) >= 2 and tail[0] == "random":
            np_tail = tail[1:]
        elif head in self._nprandom_aliases and len(tail) >= 1:
            np_tail = tail
        if np_tail is not None and len(np_tail) == 1:
            attr = np_tail[0]
            if attr in ("default_rng", "RandomState", "Generator"):
                if self._unseeded_args(node):
                    self._flag(node, f"unseeded numpy.random.{attr}()")
            elif attr == "seed" and self._unseeded_args(node):
                self._flag(node, "numpy.random.seed() without a seed value")
            else:
                self._flag(node, f"numpy.random.{attr}() on the global RNG")
            return
        if len(dotted) == 1:
            name = dotted[0]
            origin = self._from_random.get(name)
            if origin is not None:
                if origin == "Random" and self._unseeded_args(node):
                    self._flag(node, "unseeded Random()")
                elif origin == "SystemRandom":
                    self._flag(node, "SystemRandom() (entropy-seeded)")
                elif origin in _GLOBAL_RNG_FUNCS or origin == "seed":
                    self._flag(node, f"random.{origin}() on the global RNG")
                return
            origin = self._from_nprandom.get(name)
            if origin is not None:
                if origin in ("default_rng", "RandomState"):
                    if self._unseeded_args(node):
                        self._flag(node, f"unseeded numpy.random.{origin}()")
                else:
                    self._flag(node, f"numpy.random.{origin}() on the global RNG")


# ----------------------------------------------------------------------
# REP002 — sorted set/dict iteration in canonicalization modules
# ----------------------------------------------------------------------

#: Repo APIs whose call result is a set (iteration order = hash order).
_SET_RETURNING_METHODS = {
    "variables", "reachable_vars", "labels", "auxiliary_vars",
    "labelled_vars", "keys", "values", "items",
}
#: Repo APIs returning dicts keyed/valued by sets.
_DICT_OF_SETS_METHODS = {"gate_var_sets"}

#: Builtins that make iteration order irrelevant or deterministic.
_ORDER_NEUTRALIZERS = {"sorted", "len", "sum", "min", "max", "any", "all"}
#: Builtins that merely forward their iterable's order.
_ORDER_FORWARDERS = {"enumerate", "reversed", "zip", "list", "tuple", "iter"}


class _Rep002Visitor(ast.NodeVisitor):
    """Tracks set-like values through local assignments and flags
    ``for``/comprehension iteration whose order is hash-dependent."""

    def __init__(self) -> None:
        self.findings: list[tuple[int, str]] = []
        self._scopes: list[dict[str, str]] = [{}]

    # -- scope management ------------------------------------------------

    def _enter(self, node: ast.AST) -> None:
        self._scopes.append({})
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = _enter
    visit_AsyncFunctionDef = _enter

    def _lookup(self, name: str) -> str | None:
        for scope in reversed(self._scopes):
            kind = scope.get(name)
            if kind is not None:
                return kind
        return None

    def _bind(self, target: ast.expr, kind: str | None) -> None:
        if isinstance(target, ast.Name):
            if kind is None:
                self._scopes[-1].pop(target.id, None)
            else:
                self._scopes[-1][target.id] = kind

    # -- set-likeness of an expression ----------------------------------

    def _kind_of(self, node: ast.expr) -> str | None:
        """``"set"``/``"dict"``/``"dict_of_sets"`` when ``node``'s value
        iterates in hash order, else ``None``."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(node, (ast.Dict, ast.DictComp)):
            return "dict"
        if isinstance(node, ast.Name):
            return self._lookup(node.id)
        if isinstance(node, ast.IfExp):
            return self._kind_of(node.body) or self._kind_of(node.orelse)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            left = self._kind_of(node.left)
            right = self._kind_of(node.right)
            if "set" in (left, right):
                return "set"
            return None
        if isinstance(node, ast.Subscript):
            if self._kind_of(node.value) == "dict_of_sets":
                return "set"
            return None
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in ("set", "frozenset"):
                    return "set"
                if func.id == "dict":
                    return "dict"
                return None
            if isinstance(func, ast.Attribute):
                attr = func.attr
                if attr in ("union", "intersection", "difference",
                            "symmetric_difference", "copy"):
                    base = self._kind_of(func.value)
                    return base if base in ("set", "dict", "dict_of_sets") \
                        else ("set" if attr != "copy" else None)
                if attr in ("keys", "values", "items"):
                    base = self._kind_of(func.value)
                    if base in ("dict", "dict_of_sets"):
                        return "set"  # a view iterates like its dict
                    return None
                if attr in _DICT_OF_SETS_METHODS:
                    return "dict_of_sets"
                if attr in _SET_RETURNING_METHODS:
                    return "set"
            return None
        return None

    # -- assignments -----------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        kind = self._kind_of(node.value)
        for target in node.targets:
            self._bind(target, kind)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._bind(node.target, self._kind_of(node.value))
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.generic_visit(node)

    # -- iteration contexts ---------------------------------------------

    def _check_iter(self, node: ast.expr) -> None:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name = node.func.id
            if name in _ORDER_NEUTRALIZERS:
                return
            if name in _ORDER_FORWARDERS:
                for arg in node.args:
                    self._check_iter(arg)
                return
        kind = self._kind_of(node)
        if kind is not None:
            what = "dict" if kind in ("dict", "dict_of_sets") else "set"
            self.findings.append(
                (
                    node.lineno,
                    f"iteration over a bare {what} is hash-order dependent "
                    f"here; wrap it in sorted(...) to keep canonical forms "
                    f"PYTHONHASHSEED-independent",
                )
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self._bind(node.target, None)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for comp in node.generators:
            self._check_iter(comp.iter)
            self._bind(comp.target, None)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension


# ----------------------------------------------------------------------
# REP003 — float-free exact arithmetic
# ----------------------------------------------------------------------


class _Rep003Visitor(ast.NodeVisitor):
    def __init__(self) -> None:
        self.findings: list[tuple[int, str]] = []

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, float):
            self.findings.append(
                (
                    node.lineno,
                    f"float literal {node.value!r} in an exact-arithmetic "
                    f"module; use Fraction/int (floats belong to the "
                    f"guarded fixed-width tier)",
                )
            )

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "float":
            self.findings.append(
                (
                    node.lineno,
                    "float(...) conversion in an exact-arithmetic module; "
                    "keep values in Fraction/int",
                )
            )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# REP004 — lock-order analysis
# ----------------------------------------------------------------------

_LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}


@dataclass
class LockOrderGraph:
    """The static lock-acquisition graph of a set of modules."""

    #: Lock nodes, named ``Class.attr``.
    nodes: set[str] = field(default_factory=set)
    #: Nesting edges ``(outer, inner) -> "path:line"`` of one witness
    #: acquisition site (direct nesting or via the may-acquire closure
    #: of a method call made while holding ``outer``).
    edges: dict[tuple[str, str], str] = field(default_factory=dict)
    findings: list[Finding] = field(default_factory=list)

    def as_dict(self) -> dict[str, object]:
        return {
            "nodes": sorted(self.nodes),
            "edges": [
                {"outer": outer, "inner": inner, "site": site}
                for (outer, inner), site in sorted(self.edges.items())
            ],
            "findings": [finding.as_dict() for finding in self.findings],
        }


def _lock_factory(node: ast.expr) -> str | None:
    """``"Lock"``/``"RLock"``/... when ``node`` is a ``threading.X()``
    (or bare imported ``X()``) lock construction."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id == "threading" and func.attr in _LOCK_FACTORIES:
            return func.attr
    if isinstance(func, ast.Name) and func.id in _LOCK_FACTORIES:
        return func.id
    return None


class _LockAnalyzer:
    def __init__(self, files: Iterable[tuple[str, str]]) -> None:
        self.graph = LockOrderGraph()
        self._lock_types: dict[str, str] = {}  # "Cls.attr" -> factory
        self._attr_owners: dict[str, set[str]] = {}  # attr -> classes
        self._methods: dict[tuple[str, str], ast.AST] = {}
        self._method_names: dict[str, set[str]] = {}  # name -> classes
        self._files: list[tuple[str, ast.Module]] = []
        for path, text in files:
            tree = ast.parse(text, filename=path)
            self._files.append((path, tree))

    # -- discovery -------------------------------------------------------

    def _discover(self) -> None:
        for _path, tree in self._files:
            for cls in tree.body:
                if not isinstance(cls, ast.ClassDef):
                    continue
                for method in cls.body:
                    if not isinstance(
                        method, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        continue
                    self._methods[(cls.name, method.name)] = method
                    self._method_names.setdefault(method.name, set()).add(
                        cls.name
                    )
                    for node in ast.walk(method):
                        if not isinstance(node, ast.Assign):
                            continue
                        factory = _lock_factory(node.value)
                        if factory is None:
                            continue
                        for target in node.targets:
                            if (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                            ):
                                name = f"{cls.name}.{target.attr}"
                                self._lock_types[name] = factory
                                self._attr_owners.setdefault(
                                    target.attr, set()
                                ).add(cls.name)
        self.graph.nodes = set(self._lock_types)

    def _resolve_lock(self, node: ast.expr, cls: str) -> str | None:
        """Resolve ``self.attr`` / ``obj.attr`` to a lock node."""
        if not isinstance(node, ast.Attribute):
            return None
        attr = node.attr
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            name = f"{cls}.{attr}"
            return name if name in self._lock_types else None
        owners = self._attr_owners.get(attr)
        if owners and len(owners) == 1:
            return f"{next(iter(owners))}.{attr}"
        return None

    def _resolve_call(
        self, node: ast.Call, cls: str
    ) -> tuple[str, str] | None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(
            func.value, ast.Name
        ):
            if func.value.id == "self":
                key = (cls, func.attr)
                return key if key in self._methods else None
            owners = self._method_names.get(func.attr)
            if owners and len(owners) == 1:
                return (next(iter(owners)), func.attr)
        return None

    # -- may-acquire closure --------------------------------------------

    def _closure(self) -> dict[tuple[str, str], set[str]]:
        direct: dict[tuple[str, str], set[str]] = {}
        calls: dict[tuple[str, str], set[tuple[str, str]]] = {}
        for (cls, name), method in self._methods.items():
            key = (cls, name)
            direct[key] = set()
            calls[key] = set()
            for node in ast.walk(method):
                if isinstance(node, (ast.With, ast.AsyncWith)):
                    for item in node.items:
                        lock = self._resolve_lock(item.context_expr, cls)
                        if lock is not None:
                            direct[key].add(lock)
                elif isinstance(node, ast.Call):
                    if (
                        isinstance(node.func, ast.Attribute)
                        and node.func.attr == "acquire"
                    ):
                        lock = self._resolve_lock(node.func.value, cls)
                        if lock is not None:
                            direct[key].add(lock)
                    callee = self._resolve_call(node, cls)
                    if callee is not None:
                        calls[key].add(callee)
        closure = {key: set(locks) for key, locks in direct.items()}
        changed = True
        while changed:
            changed = False
            for key, callees in calls.items():
                for callee in callees:
                    extra = closure.get(callee, set()) - closure[key]
                    if extra:
                        closure[key] |= extra
                        changed = True
        return closure

    # -- lexical edge extraction ----------------------------------------

    def analyze(self) -> LockOrderGraph:
        self._discover()
        closure = self._closure()
        for path, tree in self._files:
            for cls in tree.body:
                if not isinstance(cls, ast.ClassDef):
                    continue
                for method in cls.body:
                    if isinstance(
                        method, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        self._scan(method, cls.name, path, [], closure)
        self._detect_cycles()
        return self.graph

    def _add_edge(
        self, outer: str, inner: str, path: str, line: int
    ) -> None:
        if outer == inner:
            if self._lock_types.get(outer) == "Lock":
                self.graph.findings.append(
                    Finding(
                        path,
                        line,
                        "REP004",
                        f"non-reentrant lock {outer} may be re-acquired "
                        f"while already held",
                    )
                )
            return
        self.graph.edges.setdefault((outer, inner), f"{path}:{line}")

    def _scan(self, node, cls, path, held, closure) -> None:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner_held = list(held)
            for item in node.items:
                self._scan(item.context_expr, cls, path, inner_held, closure)
                lock = self._resolve_lock(item.context_expr, cls)
                if lock is not None:
                    for outer in inner_held:
                        self._add_edge(outer, lock, path, node.lineno)
                    inner_held.append(lock)
            for child in node.body:
                self._scan(child, cls, path, inner_held, closure)
            return
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "acquire"
            ):
                lock = self._resolve_lock(node.func.value, cls)
                if lock is not None:
                    for outer in held:
                        self._add_edge(outer, lock, path, node.lineno)
            callee = self._resolve_call(node, cls)
            if callee is not None and held:
                for inner in sorted(closure.get(callee, ())):
                    for outer in held:
                        self._add_edge(outer, inner, path, node.lineno)
        for child in ast.iter_child_nodes(node):
            self._scan(child, cls, path, held, closure)

    def _detect_cycles(self) -> None:
        adjacency: dict[str, set[str]] = {}
        for outer, inner in self.graph.edges:
            adjacency.setdefault(outer, set()).add(inner)
        state: dict[str, int] = {}  # 1 = on stack, 2 = done

        def visit(node: str, trail: list[str]) -> list[str] | None:
            state[node] = 1
            trail.append(node)
            for nxt in sorted(adjacency.get(node, ())):
                if state.get(nxt) == 1:
                    return trail[trail.index(nxt) :] + [nxt]
                if state.get(nxt, 0) == 0:
                    cycle = visit(nxt, trail)
                    if cycle is not None:
                        return cycle
            trail.pop()
            state[node] = 2
            return None

        for node in sorted(adjacency):
            if state.get(node, 0) == 0:
                cycle = visit(node, [])
                if cycle is not None:
                    site = self.graph.edges.get(
                        (cycle[0], cycle[1]), "<unknown>"
                    )
                    path, _, line = site.partition(":")
                    self.graph.findings.append(
                        Finding(
                            path,
                            int(line or 0),
                            "REP004",
                            "lock-order cycle: " + " -> ".join(cycle),
                        )
                    )
                    return


def analyze_lock_order(files: Iterable[tuple[str, str]]) -> LockOrderGraph:
    """Extract the static lock-acquisition graph of ``files`` (pairs of
    ``(path, source)``) and report order cycles / non-reentrant
    re-acquisition as REP004 findings."""
    return _LockAnalyzer(files).analyze()


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def lint_source(path: str, text: str) -> list[Finding]:
    """Run the per-file rules (REP001-REP003) on one source file."""
    rel = _module_rel(path)
    try:
        tree = ast.parse(text, filename=path)
    except SyntaxError as exc:
        return [Finding(path, exc.lineno or 0, "REP000", f"syntax error: {exc.msg}")]
    lines = text.splitlines()
    findings: list[Finding] = []

    def run(rule: str, visitor) -> None:
        visitor.visit(tree)
        for line, message in visitor.findings:
            if not _suppressed(lines, line, rule):
                findings.append(Finding(path, line, rule, message))

    if not rel.startswith(REP001_EXEMPT_PREFIXES):
        run("REP001", _Rep001Visitor())
    if rel in REP002_SCOPE or rel.startswith(REP002_SCOPE_PREFIXES):
        run("REP002", _Rep002Visitor())
    if rel in REP003_SCOPE:
        run("REP003", _Rep003Visitor())
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def lint_paths(
    paths: Iterable[str | Path],
) -> tuple[list[Finding], LockOrderGraph]:
    """Lint every ``.py`` file under ``paths``; returns the combined
    per-file findings and the REP004 lock-order graph of the in-scope
    concurrency modules."""
    files: list[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    findings: list[Finding] = []
    lock_files: list[tuple[str, str]] = []
    for file in files:
        text = file.read_text(encoding="utf-8")
        findings.extend(lint_source(str(file), text))
        rel = _module_rel(str(file))
        if rel in REP004_SCOPE or rel.startswith(REP004_SCOPE_PREFIXES):
            lock_files.append((str(file), text))
    graph = analyze_lock_order(lock_files)
    lines_by_path: dict[str, list[str]] = {
        path: text.splitlines() for path, text in lock_files
    }
    for finding in graph.findings:
        if not _suppressed(
            lines_by_path.get(finding.path, []), finding.line, finding.rule
        ):
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings, graph


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="repo-invariant lint (REP001-REP004)",
    )
    parser.add_argument("paths", nargs="+", help="files or directories to lint")
    parser.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    parser.add_argument(
        "--graph",
        action="store_true",
        help="also print the REP004 lock-acquisition graph",
    )
    args = parser.parse_args(argv)
    findings, graph = lint_paths(args.paths)
    if args.json:
        print(
            json.dumps(
                {
                    "findings": [finding.as_dict() for finding in findings],
                    "lock_order": graph.as_dict(),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for finding in findings:
            print(finding.render())
        if args.graph:
            print(f"lock nodes: {', '.join(sorted(graph.nodes)) or '(none)'}")
            for (outer, inner), site in sorted(graph.edges.items()):
                print(f"  {outer} -> {inner}  ({site})")
        print(
            f"{len(findings)} finding(s); lock graph: "
            f"{len(graph.nodes)} node(s), {len(graph.edges)} edge(s)"
        )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())

"""Whole-program concurrency & determinism dataflow analyzer.

``repro lint`` runs this pass on top of the file-local REP0xx
linter.  Where :mod:`repro.analysis.linter` checks one module at a time,
this pass parses every module under the lint roots into one *program*:
a symbol index (functions, classes, methods, module globals), a
module-level call graph, and per-function fact summaries that are
propagated transitively along call edges.  The facts encode the repo's
concurrency contract — rng draws hoisted into a serial prologue before
any executor dispatch, no shared mutable state crossing a dispatch
boundary, fork-reset hooks guarding module-level executors — which the
process-pool fan-out (PR 1) and the threaded K-FAC path (PR 8) rely on
but no file-local rule can see.

Function classification lattice
-------------------------------

Every function gets a summary along four axes:

- **rng consumption** — each draw (``<receiver>.normal()``-style call on
  an rng-named receiver, or a ``numpy.random`` global call) is tagged
  with where its generator came from: ``local`` (constructed in the
  function body), ``param`` (flowed in through an argument), ``self``
  (shared object state), ``global`` (module-level), or ``unknown``.
  ``param`` draws are re-tagged at every call edge by substituting the
  caller's argument expression, so a task that seeds its *own* generator
  stays ``local`` all the way up the graph.
- **argument mutation** — the set of parameters the function mutates
  (attribute/subscript stores, mutating method calls, ``out=`` targets),
  closed under calls via a fixpoint so ``f(x)`` counts as mutating ``x``
  when ``f`` does.
- **module-state mutation** — writes to ``global``-declared names or to
  module-level containers.
- **dispatch** — submission of work to an executor (``.submit`` →
  thread pool) or a process pool (``.apply_async``/``run_tasks`` and
  friends), with the dispatched callable and captured arguments.

Rules
-----

======= ==============================================================
REP101  An rng draw whose generator is *not* task-local is reachable
        from a callable dispatched to a thread pool (shared stream →
        schedule-dependent draws); for process pools only module-global
        generators are flagged (task state is pickled per worker).
REP102  Module-level state is written on a thread-dispatched path, or
        in a module that dispatches to threads, and the module installs
        no ``os.register_at_fork`` reset hook — a forked worker inherits
        a dead thread's state.
REP103  The same buffer is captured by two or more concurrent dispatch
        sites and the task writes it (``out=``/mutation) — the tasks may
        alias the buffer under concurrency.
REP104  An order-sensitive float reduction (``sum()``/``math.fsum`` or
        a ``+=`` accumulation referencing the loop variable) runs over
        an unordered iterable — hash randomisation reorders the
        summands and float addition does not commute bitwise.
REP105  An object captured by an in-flight executor/pool task is
        mutated between submission and ``.result()``/``.get()`` — the
        task races the mutation.
======= ==============================================================

Findings reuse :class:`repro.analysis.linter.Finding` and inline
``# repro: allow[REPxxx]`` waivers.

Known false negatives (documented, by construction): calls through
variables whose method name is defined by more than one class (dynamic
dispatch is resolved only when the method name is unique program-wide),
callables passed as values (e.g. the ``fn`` argument the process pool
itself forwards), nested function/lambda tasks, and aliasing through
containers.  The analyzer over-approximates in the other direction only
through unique-name method resolution; waivers carry the justification
when a flagged site is provably safe.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.linter import (
    FLOW_RULES,
    Finding,
    _ImportTable,
    _is_keys_call,
    _is_set_expression,
    _iter_python_files,
    _relative_posix,
    _suppressed_rules,
)

__all__ = ["FLOW_RULES", "FlowProgram", "analyze_paths", "build_program"]

#: Generator draw methods (numpy Generator/RandomState + stdlib Random).
_RNG_METHODS = frozenset(
    {
        "random",
        "normal",
        "standard_normal",
        "uniform",
        "integers",
        "randint",
        "choice",
        "shuffle",
        "permutation",
        "permuted",
        "exponential",
        "poisson",
        "binomial",
        "multinomial",
        "geometric",
        "gamma",
        "beta",
        "lognormal",
        "bytes",
        "sample",
        "randrange",
        "gauss",
    }
)

#: Receiver names that look like a random generator (``rng``,
#: ``self._rng``, ``episode_rng`` ...).
_RNG_NAME_RE = re.compile(r"(^|_)rng$", re.IGNORECASE)

#: Container methods that mutate their receiver.
_MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "sort",
        "reverse",
        "add",
        "discard",
        "update",
        "setdefault",
        "fill",
        "resize",
        "put",
        "setflags",
        "appendleft",
        "popleft",
    }
)

#: ``<executor>.submit(fn, ...)`` — concurrent.futures dispatch, analyzed
#: as a thread dispatch: the executor's class is not resolved, and for a
#: ProcessPoolExecutor (``parallel/pool.py``) the thread rules are the
#: stricter ones, which is safe.
_THREAD_DISPATCH = frozenset({"submit"})

#: ``<pool>.apply_async(fn, args)`` etc. — multiprocessing dispatch.
_PROCESS_DISPATCH = frozenset(
    {"apply_async", "map_async", "starmap_async", "imap", "imap_unordered"}
)

#: Synchronous process fan-out helpers resolved by name: the call blocks
#: until every task is done, so no concurrent window exists afterwards.
_BLOCKING_DISPATCH_FUNCS = frozenset({"run_tasks"})

#: Methods that join a dispatch handle and end the concurrent window.
_JOIN_METHODS = frozenset({"result", "get"})

_FAR_LINE = 10**9


def _dotted_text(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    cursor: ast.expr = node
    while isinstance(cursor, ast.Attribute):
        parts.append(cursor.attr)
        cursor = cursor.value
    if not isinstance(cursor, ast.Name):
        return None
    parts.append(cursor.id)
    return ".".join(reversed(parts))


def _aliases(a: str, b: str) -> bool:
    """Do two dotted paths name overlapping storage (equal or one a
    prefix of the other)?"""
    return a == b or a.startswith(b + ".") or b.startswith(a + ".")


@dataclass
class _RngDraw:
    """One rng draw site, tagged with where the generator came from."""

    kind: str  # local | param | self | global | unknown
    receiver: str
    path: str
    line: int
    param: Optional[str] = None  # receiver root when kind == "param"


@dataclass
class _Mutation:
    """One mutation event: ``target`` is the dotted path being written."""

    target: str
    line: int
    col: int
    via: str = ""  # callee qualname for call-induced mutations


@dataclass
class _CallSite:
    node: ast.Call
    dotted: str  # dotted text of the callee expression
    receiver: Optional[str]  # dotted receiver for method-style calls
    args: List[Optional[str]]  # dotted texts of positional args
    arg_is_call: List[bool]  # positional arg is a fresh Call expression
    kwargs: Dict[str, Optional[str]]
    targets: List[Tuple[str, int]] = field(default_factory=list)  # (qualname, offset)


@dataclass
class _DispatchSite:
    node: ast.Call
    kind: str  # "thread" | "process"
    blocking: bool
    callable_expr: Optional[ast.expr]
    captured: List[str]  # dotted captured args (bound receiver first)
    captured_pos: List[Optional[int]]  # callee param slot per captured arg
    line: int
    entries: List[str] = field(default_factory=list)  # resolved task qualnames
    window_end: int = _FAR_LINE


@dataclass
class _FunctionInfo:
    qualname: str
    module: "_ModuleInfo"
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    params: List[str]
    class_qualname: Optional[str]
    local_names: Set[str] = field(default_factory=set)
    constructed: Set[str] = field(default_factory=set)  # names bound to Call results
    aliases: Dict[str, str] = field(default_factory=dict)  # name -> dotted source
    rng_draws: List[_RngDraw] = field(default_factory=list)
    global_writes: List[Tuple[str, int, int]] = field(default_factory=list)
    direct_mutations: List[_Mutation] = field(default_factory=list)
    call_sites: List[_CallSite] = field(default_factory=list)
    dispatches: List[_DispatchSite] = field(default_factory=list)
    out_writes: List[Tuple[str, int, int]] = field(default_factory=list)
    out_params: Set[str] = field(default_factory=set)
    reductions: List[Tuple[str, int, int]] = field(default_factory=list)
    mutated_params: Set[str] = field(default_factory=set)
    mutations: List[_Mutation] = field(default_factory=list)  # incl. call-induced


@dataclass
class _ClassInfo:
    qualname: str
    module: "_ModuleInfo"
    bases: List[str]  # dotted base-class texts, unresolved
    methods: Dict[str, str] = field(default_factory=dict)  # name -> qualname


@dataclass
class _ModuleInfo:
    name: str
    path: str  # posix path relative to the lint root
    lines: List[str]
    imports: _ImportTable
    global_names: Set[str] = field(default_factory=set)
    has_fork_hook: bool = False
    has_thread_dispatch: bool = False
    functions: List[_FunctionInfo] = field(default_factory=list)


class FlowProgram:
    """Symbol index + call graph over every analyzed module."""

    def __init__(self) -> None:
        self.modules: Dict[str, _ModuleInfo] = {}
        self.functions: Dict[str, _FunctionInfo] = {}
        self.classes: Dict[str, _ClassInfo] = {}
        self.methods_by_name: Dict[str, List[str]] = {}

    # -- symbol lookup -------------------------------------------------

    def _lookup_method(
        self, class_qualname: str, name: str, _seen: Optional[Set[str]] = None
    ) -> Optional[str]:
        """Resolve ``name`` on a class, walking indexed base classes."""
        seen = _seen if _seen is not None else set()
        if class_qualname in seen:
            return None
        seen.add(class_qualname)
        cls = self.classes.get(class_qualname)
        if cls is None:
            return None
        if name in cls.methods:
            return cls.methods[name]
        for base in cls.bases:
            base_qual = self._resolve_symbol(base, cls.module)
            if base_qual is not None and base_qual in self.classes:
                found = self._lookup_method(base_qual, name, seen)
                if found is not None:
                    return found
        return None

    def _resolve_symbol(self, dotted: str, module: _ModuleInfo) -> Optional[str]:
        """Map a dotted name used inside ``module`` to an index qualname."""
        root, sep, rest = dotted.partition(".")
        resolved_root = module.imports._names.get(root)
        candidates = []
        if resolved_root is not None:
            candidates.append(resolved_root + (("." + rest) if sep else ""))
        candidates.append(f"{module.name}.{dotted}")
        candidates.append(dotted)
        for candidate in candidates:
            if candidate in self.functions or candidate in self.classes:
                return candidate
        return None

    def resolve_call(
        self, dotted: str, fn: _FunctionInfo
    ) -> List[Tuple[str, int]]:
        """Resolve a callee expression to ``(qualname, arg_offset)``
        pairs; offset 1 means the receiver binds the callee's ``self``.

        Resolution order: ``self``/``cls`` methods through the class
        hierarchy, then imports and same-module symbols, then — for
        method-style calls on arbitrary receivers — a unique-name
        fallback that only fires when exactly one class program-wide
        defines the method (ambiguous names stay unresolved: a
        documented false negative rather than a guessed edge).
        """
        parts = dotted.split(".")
        if parts[0] in ("self", "cls") and fn.class_qualname is not None:
            if len(parts) == 2:
                found = self._lookup_method(fn.class_qualname, parts[1])
                if found is not None:
                    return [(found, 1)]
            return self._unique_method(parts[-1]) if len(parts) > 2 else []
        resolved = self._resolve_symbol(dotted, fn.module)
        if resolved is not None:
            if resolved in self.functions:
                return [(resolved, 0)]
            init = self._lookup_method(resolved, "__init__")
            if init is not None:
                return [(init, 1)]
            return []
        if len(parts) >= 2:
            return self._unique_method(parts[-1])
        return []

    def _unique_method(self, name: str) -> List[Tuple[str, int]]:
        hits = self.methods_by_name.get(name, [])
        if len(hits) == 1:
            return [(hits[0], 1)]
        return []

    def reachable(self, entry: str) -> List[str]:
        """Qualnames reachable from ``entry`` (inclusive) via call edges."""
        seen: Set[str] = set()
        stack = [entry]
        while stack:
            current = stack.pop()
            if current in seen or current not in self.functions:
                continue
            seen.add(current)
            for site in self.functions[current].call_sites:
                for qualname, _offset in site.targets:
                    if qualname not in seen:
                        stack.append(qualname)
        return sorted(seen)


def _module_name(rel_posix: str) -> str:
    parts = rel_posix[:-3].split("/") if rel_posix.endswith(".py") else rel_posix.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "<root>"


def _param_names(args: ast.arguments) -> List[str]:
    names = [a.arg for a in getattr(args, "posonlyargs", [])]
    names.extend(a.arg for a in args.args)
    if args.vararg is not None:
        names.append(args.vararg.arg)
    names.extend(a.arg for a in args.kwonlyargs)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return names


def _module_level_targets(tree: ast.Module) -> Set[str]:
    """Names assigned at module scope (including inside top-level
    ``if``/``try`` blocks)."""
    names: Set[str] = set()
    stack: List[ast.stmt] = list(tree.body)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, (ast.If, ast.Try)):
            stack.extend(stmt.body)
            stack.extend(getattr(stmt, "orelse", []))
            stack.extend(getattr(stmt, "finalbody", []))
            for handler in getattr(stmt, "handlers", []):
                stack.extend(handler.body)
            continue
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(stmt.target, ast.Name):
                names.add(stmt.target.id)
    return names


class _FunctionScanner:
    """Extracts the syntactic facts of one function body."""

    def __init__(self, fn: _FunctionInfo) -> None:
        self.fn = fn
        self.declared_globals: Set[str] = set()

    def scan(self) -> None:
        fn = self.fn
        body = fn.node.body
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Global):
                    self.declared_globals.update(node.names)
        # Two passes: bindings first so rng-source classification sees
        # every local/alias regardless of statement order, facts second.
        for stmt in body:
            for node in ast.walk(stmt):
                self._scan_bindings(node)
        for stmt in body:
            for node in ast.walk(stmt):
                self._scan_node(node)
        self._attach_dispatch_windows()

    # -- bindings ------------------------------------------------------

    def _scan_bindings(self, node: ast.AST) -> None:
        fn = self.fn
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                fn.local_names.add(target.id)
                if isinstance(node.value, ast.Call):
                    fn.constructed.add(target.id)
                    fn.aliases.pop(target.id, None)
                else:
                    source = _dotted_text(node.value)
                    if source is not None and source != target.id:
                        fn.aliases[target.id] = source
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node.target, ast.Name):
                fn.local_names.add(node.target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for name_node in ast.walk(node.target):
                if isinstance(name_node, ast.Name):
                    fn.local_names.add(name_node.id)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    for name_node in ast.walk(item.optional_vars):
                        if isinstance(name_node, ast.Name):
                            fn.local_names.add(name_node.id)
                            fn.constructed.add(name_node.id)

    # -- resolution helpers --------------------------------------------

    def _resolve_alias(self, dotted: str) -> str:
        seen: Set[str] = set()
        while True:
            root, sep, rest = dotted.partition(".")
            if root in seen or root not in self.fn.aliases:
                return dotted
            seen.add(root)
            dotted = self.fn.aliases[root] + (("." + rest) if sep else "")

    def _classify_source(self, dotted: str) -> Tuple[str, Optional[str]]:
        """Where does the object named by ``dotted`` come from?

        Returns ``(kind, param_name)`` with kind in local / param / self
        / global / unknown.
        """
        fn = self.fn
        dotted = self._resolve_alias(dotted)
        root = dotted.split(".")[0]
        if root in ("self", "cls"):
            return "self", None
        if root in fn.params:
            return "param", root
        if root in fn.constructed:
            return "local", None
        if root in self.declared_globals or (
            root in fn.module.global_names and root not in fn.local_names
        ):
            return "global", None
        if root in fn.local_names:
            return "local", None
        return "unknown", None

    # -- per-node facts ------------------------------------------------

    def _scan_node(self, node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            self._scan_call(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                self._record_store(target, in_place=isinstance(node, ast.AugAssign))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    self._record_store(target)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._scan_reduction_loop(node)

    def _record_store(self, target: ast.expr, in_place: bool = False) -> None:
        """Record what a store writes.  Binding a plain name mutates
        nothing; an augmented assignment (``in_place``) writes through the
        name to the object it holds (``x *= 2.0`` on an ndarray)."""
        fn = self.fn
        dotted: Optional[str]
        if isinstance(target, ast.Name):
            if target.id in self.declared_globals:
                fn.global_writes.append(
                    (target.id, target.lineno, target.col_offset)
                )
            if not in_place:
                return
            dotted = target.id
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            container = target.value if isinstance(target, ast.Subscript) else target
            dotted = _dotted_text(container)
        else:
            return
        if dotted is None:
            return
        dotted = self._resolve_alias(dotted)
        root = dotted.split(".")[0]
        line, col = target.lineno, target.col_offset
        fn.direct_mutations.append(_Mutation(target=dotted, line=line, col=col))
        if root not in fn.params and root not in fn.local_names:
            if root in fn.module.global_names or root in self.declared_globals:
                fn.global_writes.append((root, line, col))

    def _scan_call(self, call: ast.Call) -> None:
        fn = self.fn
        func = call.func
        if isinstance(func, ast.Attribute):
            attr = func.attr
            receiver = _dotted_text(func.value)
            if attr in _THREAD_DISPATCH:
                self._record_dispatch(call, "thread", blocking=False)
            elif attr in _PROCESS_DISPATCH:
                self._record_dispatch(call, "process", blocking=False)
            if receiver is not None:
                resolved_receiver = self._resolve_alias(receiver)
                if attr in _RNG_METHODS and _RNG_NAME_RE.search(
                    resolved_receiver.rsplit(".", 1)[-1]
                ):
                    kind, param = self._classify_source(resolved_receiver)
                    fn.rng_draws.append(
                        _RngDraw(
                            kind=kind,
                            receiver=resolved_receiver,
                            path=fn.module.path,
                            line=call.lineno,
                            param=param,
                        )
                    )
                if attr in _MUTATING_METHODS:
                    self._record_receiver_mutation(resolved_receiver, call)
                self._record_call_site(call, f"{receiver}.{attr}", receiver)
            # numpy.random global draws count as module-global streams.
            full = fn.module.imports.resolve(func)
            if full is not None and full.startswith("numpy.random."):
                leaf = full.rsplit(".", 1)[1]
                if leaf[:1].islower() and leaf != "default_rng":
                    fn.rng_draws.append(
                        _RngDraw(
                            kind="global",
                            receiver=full,
                            path=fn.module.path,
                            line=call.lineno,
                        )
                    )
        elif isinstance(func, ast.Name):
            if func.id in _BLOCKING_DISPATCH_FUNCS:
                self._record_dispatch(call, "process", blocking=True)
            self._record_call_site(call, func.id, None)
            if func.id == "sum" and call.args:
                self._check_reduction_arg(call.args[0], call)
        if isinstance(func, ast.Attribute):
            full = fn.module.imports.resolve(func)
            if full == "math.fsum" and call.args:
                self._check_reduction_arg(call.args[0], call)
        for kw in call.keywords:
            if kw.arg == "out":
                dotted = _dotted_text(kw.value)
                if dotted is not None:
                    dotted = self._resolve_alias(dotted)
                    fn.out_writes.append((dotted, call.lineno, call.col_offset))
                    fn.direct_mutations.append(
                        _Mutation(target=dotted, line=call.lineno, col=call.col_offset)
                    )
                    root = dotted.split(".")[0]
                    if root in fn.params:
                        fn.out_params.add(root)
                    elif root not in fn.local_names and (
                        root in fn.module.global_names
                    ):
                        fn.global_writes.append(
                            (root, call.lineno, call.col_offset)
                        )

    def _record_receiver_mutation(self, receiver: str, call: ast.Call) -> None:
        fn = self.fn
        root = receiver.split(".")[0]
        fn.direct_mutations.append(
            _Mutation(target=receiver, line=call.lineno, col=call.col_offset)
        )
        if root not in fn.params and root not in fn.local_names:
            if root in fn.module.global_names or root in self.declared_globals:
                fn.global_writes.append((root, call.lineno, call.col_offset))

    def _record_call_site(
        self, call: ast.Call, dotted: str, receiver: Optional[str]
    ) -> None:
        args = [_dotted_text(arg) for arg in call.args]
        arg_is_call = [isinstance(arg, ast.Call) for arg in call.args]
        kwargs = {
            kw.arg: _dotted_text(kw.value)
            for kw in call.keywords
            if kw.arg is not None
        }
        self.fn.call_sites.append(
            _CallSite(
                node=call,
                dotted=dotted,
                receiver=receiver,
                args=args,
                arg_is_call=arg_is_call,
                kwargs=kwargs,
            )
        )

    def _record_dispatch(self, call: ast.Call, kind: str, blocking: bool) -> None:
        captured: List[str] = []
        positions: List[Optional[int]] = []
        callable_expr: Optional[ast.expr] = call.args[0] if call.args else None
        if callable_expr is not None and isinstance(callable_expr, ast.Attribute):
            bound = _dotted_text(callable_expr.value)
            if bound is not None:
                captured.append(self._resolve_alias(bound))
                positions.append(0)
        task_args: List[ast.expr] = list(call.args[1:])
        # ``apply_async(fn, (a, b))`` packs the task args in a tuple.
        if (
            kind == "process"
            and not blocking
            and len(task_args) == 1
            and isinstance(task_args[0], (ast.Tuple, ast.List))
        ):
            task_args = list(task_args[0].elts)
        for index, arg in enumerate(task_args):
            dotted = _dotted_text(arg)
            if dotted is not None:
                captured.append(self._resolve_alias(dotted))
                positions.append(index + 1)
        for kw in call.keywords:
            dotted = _dotted_text(kw.value)
            if dotted is not None:
                captured.append(self._resolve_alias(dotted))
                positions.append(None)
        self.fn.dispatches.append(
            _DispatchSite(
                node=call,
                kind=kind,
                blocking=blocking,
                callable_expr=callable_expr,
                captured=captured,
                captured_pos=positions,
                line=call.lineno,
            )
        )

    # -- REP104 reductions ---------------------------------------------

    def _is_unordered_iterable(self, node: ast.expr) -> bool:
        if _is_set_expression(node) or _is_keys_call(node):
            return True
        if isinstance(node, ast.GeneratorExp) and node.generators:
            return self._is_unordered_iterable(node.generators[0].iter)
        return False

    def _check_reduction_arg(self, arg: ast.expr, call: ast.Call) -> None:
        if self._is_unordered_iterable(arg):
            self.fn.reductions.append(
                (
                    "sum() over an unordered iterable: hash randomisation "
                    "reorders the summands and float addition does not "
                    "commute bitwise; sort the iterable first",
                    call.lineno,
                    call.col_offset,
                )
            )

    def _scan_reduction_loop(self, loop: Union[ast.For, ast.AsyncFor]) -> None:
        if not self._is_unordered_iterable(loop.iter):
            return
        loop_vars = {
            name.id for name in ast.walk(loop.target) if isinstance(name, ast.Name)
        }
        for stmt in loop.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
                    value_names = {
                        name.id
                        for name in ast.walk(node.value)
                        if isinstance(name, ast.Name)
                    }
                    if value_names & loop_vars:
                        self.fn.reductions.append(
                            (
                                "+= accumulation over an unordered iterable "
                                "is order-sensitive for floats; iterate "
                                "sorted(...) instead",
                                node.lineno,
                                node.col_offset,
                            )
                        )

    # -- dispatch windows ----------------------------------------------

    def _attach_dispatch_windows(self) -> None:
        """For each non-blocking dispatch assigned to a handle, close the
        concurrent window at the first ``handle.result()``/``.get()``."""
        fn = self.fn
        handle_of: Dict[int, str] = {}
        for stmt in ast.walk(fn.node):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                for node in ast.walk(stmt.value):
                    if isinstance(node, ast.Call):
                        handle_of[id(node)] = target.id
        joins: List[Tuple[str, int]] = []
        for node in ast.walk(fn.node):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _JOIN_METHODS
            ):
                receiver = _dotted_text(node.func.value)
                if receiver is not None:
                    joins.append((receiver.split(".")[0], node.lineno))
        for site in fn.dispatches:
            if site.blocking:
                site.window_end = site.line  # no window: the call joins
                continue
            handle = handle_of.get(id(site.node))
            if handle is None:
                continue
            ends = [line for name, line in joins if name == handle and line > site.line]
            if ends:
                site.window_end = min(ends)


def build_program(
    paths: Iterable[Union[str, Path]],
    root: Optional[Union[str, Path]] = None,
) -> FlowProgram:
    """Parse every ``.py`` file under ``paths`` into one program index."""
    program = FlowProgram()
    root_path = Path(root) if root is not None else Path.cwd()
    for file in _iter_python_files(paths):
        rel = _relative_posix(file, root_path)
        try:
            source = file.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=rel)
        except (SyntaxError, UnicodeDecodeError):
            continue  # the file-local pass reports REP000 for these
        imports = _ImportTable()
        imports.visit_imports(tree)
        module = _ModuleInfo(
            name=_module_name(rel),
            path=rel,
            lines=source.splitlines(),
            imports=imports,
            global_names=_module_level_targets(tree),
        )
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                full = imports.resolve(node.func)
                if full == "os.register_at_fork":
                    module.has_fork_hook = True
        program.modules[module.name] = module

        def index_function(
            node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
            class_qualname: Optional[str],
        ) -> _FunctionInfo:
            prefix = class_qualname if class_qualname is not None else module.name
            fn = _FunctionInfo(
                qualname=f"{prefix}.{node.name}",
                module=module,
                node=node,
                params=_param_names(node.args),
                class_qualname=class_qualname,
            )
            program.functions[fn.qualname] = fn
            module.functions.append(fn)
            return fn

        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                index_function(stmt, None)
            elif isinstance(stmt, ast.ClassDef):
                cls = _ClassInfo(
                    qualname=f"{module.name}.{stmt.name}",
                    module=module,
                    bases=[
                        dotted
                        for dotted in (_dotted_text(base) for base in stmt.bases)
                        if dotted is not None
                    ],
                )
                program.classes[cls.qualname] = cls
                for member in stmt.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        fn = index_function(member, cls.qualname)
                        cls.methods[member.name] = fn.qualname
                        program.methods_by_name.setdefault(
                            member.name, []
                        ).append(fn.qualname)

    for fn in program.functions.values():
        _FunctionScanner(fn).scan()
        if any(site.kind == "thread" for site in fn.dispatches):
            fn.module.has_thread_dispatch = True

    _resolve_program(program)
    _close_mutations(program)
    return program


def _resolve_program(program: FlowProgram) -> None:
    for fn in program.functions.values():
        for site in fn.call_sites:
            site.targets = program.resolve_call(site.dotted, fn)
        for dispatch in fn.dispatches:
            if dispatch.callable_expr is None:
                continue
            dotted = _dotted_text(dispatch.callable_expr)
            if dotted is None:
                continue
            dispatch.entries = [
                qualname
                for qualname, _offset in program.resolve_call(
                    fn.aliases.get(dotted, dotted), fn
                )
            ]


def _close_mutations(program: FlowProgram) -> None:
    """Fixpoint: a function mutates parameter ``p`` if it passes ``p``
    (or storage rooted at ``p``) to a callee that mutates the matching
    parameter.  Afterwards, materialize call-induced mutation events."""
    for fn in program.functions.values():
        for mutation in fn.direct_mutations:
            root = mutation.target.split(".")[0]
            if root in fn.params:
                fn.mutated_params.add(root)

    changed = True
    rounds = 0
    while changed and rounds < 50:
        changed = False
        rounds += 1
        for fn in program.functions.values():
            for site in fn.call_sites:
                for root in _mutated_call_roots(program, site):
                    if root in fn.params and root not in fn.mutated_params:
                        fn.mutated_params.add(root)
                        changed = True

    for fn in program.functions.values():
        fn.mutations = list(fn.direct_mutations)
        for site in fn.call_sites:
            for dotted, qualname in _mutated_call_targets(program, site):
                fn.mutations.append(
                    _Mutation(
                        target=dotted,
                        line=site.node.lineno,
                        col=site.node.col_offset,
                        via=qualname,
                    )
                )


def _mutated_call_targets(
    program: FlowProgram, site: _CallSite
) -> List[Tuple[str, str]]:
    """(dotted argument, callee) pairs the call mutates via the callee."""
    out: List[Tuple[str, str]] = []
    for qualname, offset in site.targets:
        callee = program.functions.get(qualname)
        if callee is None or not callee.mutated_params:
            continue
        if offset == 1 and site.receiver is not None and callee.params:
            if callee.params[0] in callee.mutated_params:
                out.append((site.receiver, qualname))
        for index, dotted in enumerate(site.args):
            if dotted is None:
                continue
            pindex = index + offset
            if pindex < len(callee.params) and (
                callee.params[pindex] in callee.mutated_params
            ):
                out.append((dotted, qualname))
        for name, dotted in site.kwargs.items():
            if dotted is not None and name in callee.mutated_params:
                out.append((dotted, qualname))
    return out


def _mutated_call_roots(program: FlowProgram, site: _CallSite) -> Set[str]:
    return {
        dotted.split(".")[0] for dotted, _ in _mutated_call_targets(program, site)
    }


# ---------------------------------------------------------------------------
# rng summaries (REP101)
# ---------------------------------------------------------------------------


_MAX_DRAWS_PER_SUMMARY = 8


def _rng_summary(
    program: FlowProgram,
    qualname: str,
    cache: Dict[str, List[_RngDraw]],
    stack: Set[str],
) -> List[_RngDraw]:
    """Transitive rng draws of ``qualname``, with ``param``-sourced draws
    re-tagged through each call edge (a callee drawing from its ``rng``
    parameter is ``local`` to a caller that constructs the generator)."""
    if qualname in cache:
        return cache[qualname]
    if qualname in stack:
        return []  # recursion: the cycle's draws are found via other paths
    fn = program.functions.get(qualname)
    if fn is None:
        return []
    stack.add(qualname)
    draws: List[_RngDraw] = list(fn.rng_draws)
    for site in fn.call_sites:
        for target, offset in site.targets:
            for draw in _rng_summary(program, target, cache, stack):
                if len(draws) >= _MAX_DRAWS_PER_SUMMARY:
                    break
                if draw.kind != "param" or draw.param is None:
                    draws.append(draw)
                    continue
                callee = program.functions[target]
                arg = _argument_for_param(site, callee, draw.param, offset)
                if arg is None:
                    draws.append(
                        _RngDraw("unknown", draw.receiver, draw.path, draw.line)
                    )
                    continue
                dotted, is_call = arg
                if is_call:
                    kind, param = "local", None
                else:
                    scanner = _FunctionScanner(fn)
                    for stmt in fn.node.body:
                        for node in ast.walk(stmt):
                            scanner._scan_bindings(node)
                    kind, param = scanner._classify_source(dotted or "")
                if kind != "local":
                    draws.append(
                        _RngDraw(kind, draw.receiver, draw.path, draw.line, param)
                    )
    stack.discard(qualname)
    cache[qualname] = draws
    return draws


def _argument_for_param(
    site: _CallSite, callee: _FunctionInfo, param: str, offset: int
) -> Optional[Tuple[Optional[str], bool]]:
    """The caller-side argument bound to ``param``: (dotted, is_call)."""
    if param in site.kwargs:
        return site.kwargs[param], False
    try:
        pindex = callee.params.index(param)
    except ValueError:
        return None
    if offset == 1 and pindex == 0:
        return (site.receiver, False) if site.receiver is not None else None
    aindex = pindex - offset
    if 0 <= aindex < len(site.args):
        return site.args[aindex], site.arg_is_call[aindex]
    return None


# ---------------------------------------------------------------------------
# rule evaluation
# ---------------------------------------------------------------------------


def _emit(
    findings: List[Finding],
    rule: str,
    module: _ModuleInfo,
    line: int,
    col: int,
    message: str,
) -> None:
    findings.append(
        Finding(rule=rule, path=module.path, line=line, col=col, message=message)
    )


def _check_rep101(program: FlowProgram, findings: List[Finding]) -> None:
    cache: Dict[str, List[_RngDraw]] = {}
    for fn in program.functions.values():
        for site in fn.dispatches:
            for entry in site.entries:
                for draw in _rng_summary(program, entry, cache, set()):
                    if site.kind == "thread" and draw.kind == "local":
                        continue
                    if site.kind == "process" and draw.kind != "global":
                        continue
                    pool = "thread executor" if site.kind == "thread" else "process pool"
                    _emit(
                        findings,
                        "REP101",
                        fn.module,
                        site.line,
                        site.node.col_offset,
                        f"task {entry}() dispatched to a {pool} reaches an rng "
                        f"draw on {draw.receiver!r} ({draw.path}:{draw.line}, "
                        f"{draw.kind} stream); hoist the draw into the serial "
                        "prologue or seed a task-local generator",
                    )
                    break  # one finding per (site, entry)


def _check_rep102(program: FlowProgram, findings: List[Finding]) -> None:
    threaded: Set[str] = set()
    for fn in program.functions.values():
        for site in fn.dispatches:
            if site.kind == "thread":
                for entry in site.entries:
                    threaded.update(program.reachable(entry))
    for fn in program.functions.values():
        if not fn.global_writes:
            continue
        if fn.module.has_fork_hook:
            continue
        if fn.qualname not in threaded and not fn.module.has_thread_dispatch:
            continue
        reported: Set[str] = set()
        for name, line, col in fn.global_writes:
            if name in reported:
                continue
            reported.add(name)
            why = (
                "is reachable from a thread-dispatched task"
                if fn.qualname in threaded
                else "lives in a module that dispatches to a thread executor"
            )
            _emit(
                findings,
                "REP102",
                fn.module,
                line,
                col,
                f"module-level state {name!r} is written by {fn.qualname}() "
                f"which {why}, and the module installs no os.register_at_fork "
                "reset hook; a forked worker would inherit stale state",
            )


def _check_rep103(program: FlowProgram, findings: List[Finding]) -> None:
    for fn in program.functions.values():
        sites = [s for s in fn.dispatches if not s.blocking]
        if len(sites) < 2:
            continue
        seen: Dict[str, _DispatchSite] = {}
        flagged: Set[str] = set()
        for site in sites:
            for dotted, pos in zip(site.captured, site.captured_pos):
                if dotted not in seen:
                    seen[dotted] = site
                    continue
                if seen[dotted] is site or dotted in flagged:
                    continue
                if _task_writes_param(program, site, dotted, pos) or (
                    _task_writes_param(
                        program,
                        seen[dotted],
                        dotted,
                        _position_in(seen[dotted], dotted),
                    )
                ):
                    flagged.add(dotted)
                    _emit(
                        findings,
                        "REP103",
                        fn.module,
                        site.line,
                        site.node.col_offset,
                        f"buffer {dotted!r} is captured by concurrent dispatch "
                        f"sites at lines {seen[dotted].line} and {site.line} "
                        "and the task writes it (out=/mutation); the tasks may "
                        "alias the buffer — give each task a private buffer",
                    )


def _position_in(site: _DispatchSite, dotted: str) -> Optional[int]:
    for captured, pos in zip(site.captured, site.captured_pos):
        if captured == dotted:
            return pos
    return None


def _task_writes_param(
    program: FlowProgram,
    site: _DispatchSite,
    dotted: str,
    pos: Optional[int],
) -> bool:
    """Does the dispatched task write the captured argument at ``pos``?"""
    if pos is None:
        return False
    for entry in site.entries:
        callee = program.functions.get(entry)
        if callee is None:
            continue
        # pos 0 is the bound receiver (maps to self); pos k >= 1 maps to
        # the k-th parameter after any bound receiver.
        bound = (
            site.callable_expr is not None
            and isinstance(site.callable_expr, ast.Attribute)
        )
        pindex = pos if bound else pos - 1
        if 0 <= pindex < len(callee.params):
            param = callee.params[pindex]
            if param in callee.mutated_params or param in callee.out_params:
                return True
    return False


def _check_rep104(program: FlowProgram, findings: List[Finding]) -> None:
    for fn in program.functions.values():
        for message, line, col in fn.reductions:
            _emit(findings, "REP104", fn.module, line, col, message)


def _check_rep105(program: FlowProgram, findings: List[Finding]) -> None:
    for fn in program.functions.values():
        for site in fn.dispatches:
            if site.blocking:
                continue
            reported: Set[Tuple[int, str]] = set()
            for mutation in fn.mutations:
                if not (site.line < mutation.line < site.window_end):
                    continue
                for captured in site.captured:
                    if not _aliases(mutation.target, captured):
                        continue
                    key = (mutation.line, captured)
                    if key in reported:
                        continue
                    reported.add(key)
                    via = f" (via {mutation.via}())" if mutation.via else ""
                    _emit(
                        findings,
                        "REP105",
                        fn.module,
                        mutation.line,
                        mutation.col,
                        f"{mutation.target!r} is mutated{via} while the task "
                        f"submitted at line {site.line} may still hold "
                        f"{captured!r}; mutate after the join or pass a copy",
                    )
                    break


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def analyze_program(program: FlowProgram) -> List[Finding]:
    """Evaluate REP101-REP105 over a built program (waivers not applied)."""
    findings: List[Finding] = []
    _check_rep101(program, findings)
    _check_rep102(program, findings)
    _check_rep103(program, findings)
    _check_rep104(program, findings)
    _check_rep105(program, findings)
    return findings


def analyze_paths(
    paths: Iterable[Union[str, Path]],
    root: Optional[Union[str, Path]] = None,
    select: Sequence[str] = (),
) -> List[Finding]:
    """Run the whole-program flow pass; returns unsuppressed findings.

    ``select`` restricts the reported rules (empty = all of REP101-105);
    inline ``# repro: allow[REPxxx]`` waivers are honoured exactly as in
    the file-local pass.
    """
    program = build_program(paths, root=root)
    lines_by_path = {
        module.path: module.lines for module in program.modules.values()
    }
    findings: List[Finding] = []
    for finding in analyze_program(program):
        if select and finding.rule not in select:
            continue
        lines = lines_by_path.get(finding.path, [])
        if finding.rule in _suppressed_rules(lines, finding.line):
            continue
        text = lines[finding.line - 1].strip() if finding.line <= len(lines) else ""
        findings.append(
            Finding(
                rule=finding.rule,
                path=finding.path,
                line=finding.line,
                col=finding.col,
                message=finding.message,
                source_line=text,
            )
        )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings

"""Every public name and every option in ``src/`` has a caller in the program.

A public function, class or method that nothing in ``src/``,
``benchmarks/`` or ``examples/`` references is either a test's helper
living in the package or dead code: the first belongs beside its tests
(as ``tests/core/reference_observation.py`` and
``tests/rl/reference_policy.py`` do), the second goes.  The name scan
reads the three trees' ASTs and counts, by bare name, every attribute
load, and every ``Name`` load of a module-level function or class.  A
method or property is reached only through an attribute (a store
counts for a property with a setter), so a loop variable that shares a
method's name calls nothing.  A reference inside the definition itself
(recursion, a class naming itself) does not count, and neither do
imports or ``__all__`` strings.

The keyword scan holds options to the same rule.  A defaulted parameter
of a public function, method or ``__init__``, and a defaulted field of a
public frozen dataclass, exists only if a call in the program sets it:
by keyword, by position, through ``partial(f, ...)`` or through a
``*``/``**`` splat.  A call of a class sets its ``__init__`` (else its
dataclass fields, inherited ones first, else its base's), and
``super().__init__(...)`` sets the base class's.  Calls resolve by bare
name, so a call of any function, class or method of that name counts.
A value no call sets is the default's: it belongs in a module constant
next to its one reader.

The few names and options public without a caller in the program are
listed in :data:`EXEMPT` and :data:`EXEMPT_KEYWORDS`, each with its
reason.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The trees whose code counts as a caller; definitions are read from
#: the first.
ROOTS = ("src", "benchmarks", "examples")

#: Public names with no caller in the program, by qualified name.
EXEMPT: Dict[str, str] = {
    "grid_network": (
        "the regular mesh ROADMAP item 9's Fig. 9 bench is to run past 110 nodes; "
        "today only the slow 1,024-node shortest-path oracle builds it"
    ),
    "canonical_stream": (
        "the serial-vs-pooled determinism contract of a telemetry stream: "
        "the records without their timings, which the tests compare"
    ),
}

#: Options no call in the program sets, as ``qualname(option=)``; an
#: ``__init__`` parameter or a dataclass field goes under its class.
EXEMPT_KEYWORDS: Dict[str, str] = {
    "run_tasks(timeout=)": (
        "a safety bound on a stuck worker (tests/parallel/test_pool.py sets it); "
        "a caller that cannot wait forever needs it"
    ),
    "invariants_enabled(env=)": (
        "a test seam: the switch's parsing is tested on a dict instead of "
        "the process environment"
    ),
    "FaultScenarioConfig(specs=)": (
        "the explicit fault schedules the fault goldens and injector tests pin"
    ),
    "grid_network(node_capacity=)": "the mesh of ROADMAP item 9's bench (see EXEMPT)",
    "grid_network(link_capacity=)": "the mesh of ROADMAP item 9's bench (see EXEMPT)",
    "grid_network(link_delay=)": "the mesh of ROADMAP item 9's bench (see EXEMPT)",
}

_Definition = Tuple[Path, str, str, int, int, bool]  # ..., is a method


def _python_files(root: Path) -> Iterator[Path]:
    for tree in ROOTS:
        for path in sorted((root / tree).rglob("*.py")):
            if "__pycache__" not in path.parts:
                yield path


def _parse_trees(root: Path) -> List[Tuple[Path, ast.Module]]:
    return [
        (path, ast.parse(path.read_text(encoding="utf-8"), str(path)))
        for path in _python_files(root)
    ]


def _decorator_names(node: ast.AST) -> Set[str]:
    names = set()
    for decorator in getattr(node, "decorator_list", ()):
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if isinstance(decorator, ast.Name):
            names.add(decorator.id)
        elif isinstance(decorator, ast.Attribute):
            names.add(decorator.attr)
    return names


def _definitions(
    path: Path, body: List[ast.stmt], prefix: str, in_class: bool = False
) -> Iterator[_Definition]:
    """Module-level functions and classes, and every class's methods,
    whose names do not start with an underscore."""
    for node in body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_") and "setter" not in _decorator_names(node):
            last = node.end_lineno or node.lineno
            method = in_class and not isinstance(node, ast.ClassDef)
            yield path, prefix + node.name, node.name, node.lineno, last, method
        if isinstance(node, ast.ClassDef):
            yield from _definitions(path, node.body, f"{prefix}{node.name}.", True)


def uncalled(root: Path) -> List[str]:
    """``file:line qualname`` of every public definition under
    ``root/src`` that no reference under the :data:`ROOTS` of ``root``
    reaches from outside the definition: an attribute load, a ``Name``
    load of a module-level function or class, or an attribute store of
    a property with a setter."""
    trees = _parse_trees(root)
    definitions: List[_Definition] = []
    setters: Set[str] = set()
    for path, tree in trees:
        if path.is_relative_to(root / "src"):
            definitions.extend(_definitions(path, tree.body, ""))
            setters.update(
                node.name
                for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
                and "setter" in _decorator_names(node)
            )
    names: Dict[str, Set[Tuple[Path, int]]] = {}
    attributes: Dict[str, Set[Tuple[Path, int]]] = {}
    for path, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.setdefault(node.id, set()).add((path, node.lineno))
            elif isinstance(node, ast.Attribute) and (
                isinstance(node.ctx, ast.Load)
                or (isinstance(node.ctx, ast.Store) and node.attr in setters)
            ):
                attributes.setdefault(node.attr, set()).add((path, node.lineno))
    found = []
    for path, qualname, name, first, last, method in definitions:
        references = attributes.get(name, set())
        if not method:
            references = references | names.get(name, set())
        if not any(
            where != path or not first <= line <= last for where, line in references
        ):
            found.append(f"{path.relative_to(root)}:{first} {qualname}")
    return found


# ---------------------------------------------------------------------------
# The keyword scan
# ---------------------------------------------------------------------------

#: One parameter or field: ``(owner, name)``, where the owner is the
#: ``file:qualname`` of the function, or of the class for an ``__init__``
#: parameter or a dataclass field.
_Parameter = Tuple[str, str]
#: What a call of one definition can set: its positional parameters in
#: order (after ``self``/``cls``), then its keyword-only ones.
_Signature = Tuple[List[_Parameter], List[_Parameter]]


def _own_init(node: ast.ClassDef) -> Optional[ast.FunctionDef]:
    for member in node.body:
        if isinstance(member, ast.FunctionDef) and member.name == "__init__":
            return member
    return None


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(decorator, ast.Call)
        and "dataclass" in ast.unparse(decorator.func)
        and any(
            k.arg == "frozen" and isinstance(k.value, ast.Constant) and k.value.value
            for k in decorator.keywords
        )
        for decorator in node.decorator_list
    )


def _dataclass_fields(node: ast.ClassDef) -> Iterator[Tuple[ast.AnnAssign, bool]]:
    """Each ``__init__`` field of a dataclass body and whether it has a
    default, in order."""
    for statement in node.body:
        if not (
            isinstance(statement, ast.AnnAssign)
            and isinstance(statement.target, ast.Name)
            and "ClassVar" not in ast.unparse(statement.annotation)
        ):
            continue
        value = statement.value
        if isinstance(value, ast.Call) and any(
            k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
            for k in value.keywords
        ):
            continue
        yield statement, value is not None


class _Program:
    """The options of ``src/`` and the definitions a call can resolve to."""

    def __init__(self) -> None:
        #: Checked option -> its ``file:line qualname(option=)`` report.
        self.options: Dict[_Parameter, str] = {}
        self.fields: Set[_Parameter] = set()
        self.functions: Dict[str, List[_Signature]] = {}
        self.methods: Dict[str, List[_Signature]] = {}
        self.classes: Dict[str, List[ast.ClassDef]] = {}
        self._owner: Dict[int, str] = {}

    def _check(self, where: str, line: int, owner: str, name: str, label: str) -> None:
        self.options[(owner, name)] = f"{where}:{line} {label}({name}=)"

    def _signature(
        self, where: str, node: ast.FunctionDef, owner: str, label: str,
        skip_first: bool, checked: bool,
    ) -> _Signature:
        args = node.args
        positional = args.posonlyargs + args.args
        defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
        pairs = list(zip(positional, defaults))[1 if skip_first else 0:]
        pairs += list(zip(args.kwonlyargs, args.kw_defaults))
        if checked:
            for arg, default in pairs:
                if default is not None:
                    self._check(where, arg.lineno, owner, arg.arg, label)
        split = len(pairs) - len(args.kwonlyargs)
        return (
            [(owner, arg.arg) for arg, _ in pairs[:split]],
            [(owner, arg.arg) for arg, _ in pairs[split:]],
        )

    def add_module(self, where: str, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                signature = self._signature(
                    where, node, f"{where}:{node.name}", node.name,
                    False, not node.name.startswith("_"),
                )
                self.functions.setdefault(node.name, []).append(signature)
            elif isinstance(node, ast.ClassDef):
                self._add_class(where, node, "", True)

    def _add_class(self, where: str, node: ast.ClassDef, prefix: str, public: bool) -> None:
        qualname = prefix + node.name
        owner = f"{where}:{qualname}"
        public = public and not node.name.startswith("_")
        self._owner[id(node)] = owner
        self.classes.setdefault(node.name, []).append(node)
        for member in node.body:
            if isinstance(member, ast.ClassDef):
                self._add_class(where, member, f"{qualname}.", public)
            elif isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decorators = _decorator_names(member)
                if member.name == "__init__":
                    self._signature(where, member, owner, qualname, True, public)
                elif not decorators & {"property", "setter"}:
                    signature = self._signature(
                        where, member, f"{owner}.{member.name}",
                        f"{qualname}.{member.name}",
                        "staticmethod" not in decorators,
                        public and not member.name.startswith("_"),
                    )
                    self.methods.setdefault(member.name, []).append(signature)
        if _own_init(node) is None and "dataclass" in _decorator_names(node):
            for statement, has_default in _dataclass_fields(node):
                name = statement.target.id
                self.fields.add((owner, name))
                if has_default and public and _is_frozen_dataclass(node):
                    self._check(where, statement.lineno, owner, name, qualname)

    def bases(self, node: ast.ClassDef) -> List[ast.ClassDef]:
        found = []
        for base in node.bases:
            name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
            found.extend(self.classes.get(name, ()))
        return found

    def constructor(self, node: ast.ClassDef) -> _Signature:
        """What a call of the class sets: its own ``__init__``, else its
        dataclass fields after the inherited ones, else its first base's
        constructor."""
        owner = self._owner[id(node)]
        init = _own_init(node)
        if init is not None:
            args = init.args
            return (
                [(owner, a.arg) for a in (args.posonlyargs + args.args)[1:]],
                [(owner, a.arg) for a in args.kwonlyargs],
            )
        bases = [self.constructor(base) for base in self.bases(node) if base is not node]
        inherited = bases[0] if bases else ([], [])
        if "dataclass" in _decorator_names(node):
            own = [(owner, s.target.id) for s, _ in _dataclass_fields(node)]
            return inherited[0] + own, []
        return inherited


def _called_name(func: ast.expr) -> Tuple[Optional[str], bool]:
    """``(name, through an attribute)`` of a call's target."""
    if isinstance(func, ast.Name):
        return func.id, False
    if isinstance(func, ast.Attribute):
        return func.attr, True
    return None, False


class _Calls(ast.NodeVisitor):
    """Adds to ``set_options`` every option a call in one module sets."""

    def __init__(self, program: _Program, set_options: Set[_Parameter]) -> None:
        self.program = program
        self.set_options = set_options
        self.classes: List[ast.ClassDef] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes.append(node)
        self.generic_visit(node)
        self.classes.pop()

    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)
        func, args = node.func, list(node.args)
        name, through_attribute = _called_name(func)
        if name == "partial" and args:
            func, args = args[0], args[1:]
            name, through_attribute = _called_name(func)
        if name == "replace":
            # ``dataclasses.replace(obj, field=...)`` sets a field by name.
            self.set_options.update(
                field for field in self.program.fields
                if any(field[1] == k.arg for k in node.keywords)
            )
        for positional, keyword_only in self._signatures(func, name, through_attribute):
            for index, arg in enumerate(args):
                if isinstance(arg, ast.Starred):
                    self.set_options.update(positional[index:])
                    break
                self.set_options.update(positional[index:index + 1])
            for keyword in node.keywords:
                self.set_options.update(
                    p for p in positional + keyword_only
                    if keyword.arg is None or p[1] == keyword.arg
                )

    def _signatures(self, func, name, through_attribute) -> List[_Signature]:
        program = self.program
        if name is None:
            return []
        if (
            through_attribute
            and name == "__init__"
            and isinstance(func.value, ast.Call)
            and _called_name(func.value.func)[0] == "super"
        ):
            enclosing = self.classes[-1:]
            return [program.constructor(b) for c in enclosing for b in program.bases(c)]
        if name == "cls" and self.classes:
            # A classmethod's ``cls(...)`` constructs the enclosing class.
            return [program.constructor(self.classes[-1])]
        signatures = list(program.functions.get(name, ()))
        signatures += [program.constructor(c) for c in program.classes.get(name, ())]
        if through_attribute:
            signatures += program.methods.get(name, ())
        return signatures


def unset(root: Path) -> List[str]:
    """``file:line qualname(option=)`` of every defaulted parameter of a
    public function, method or ``__init__`` under ``root/src``, and every
    defaulted field of a public frozen dataclass there, that no call
    under the :data:`ROOTS` of ``root`` sets."""
    trees = _parse_trees(root)
    program = _Program()
    for path, tree in trees:
        if path.is_relative_to(root / "src"):
            program.add_module(str(path.relative_to(root)), tree)
    set_options: Set[_Parameter] = set()
    for _, tree in trees:
        _Calls(program, set_options).visit(tree)
    return [
        report for option, report in program.options.items()
        if option not in set_options
    ]


# ---------------------------------------------------------------------------
# The checks
# ---------------------------------------------------------------------------


def test_every_public_name_has_a_caller():
    missing = [
        entry for entry in uncalled(REPO_ROOT) if entry.split()[1] not in EXEMPT
    ]
    assert not missing, (
        "public names nothing in src/, benchmarks/ or examples/ calls — give "
        "each a caller, move it beside its tests, or delete it:\n"
        + "\n".join(missing)
    )


def test_every_exemption_is_still_uncalled():
    """An exempt name that gained a caller, or was deleted, leaves the list."""
    exempt = {entry.split()[1] for entry in uncalled(REPO_ROOT)} & set(EXEMPT)
    assert exempt == set(EXEMPT)
    assert all(reason.strip() for reason in EXEMPT.values())


def test_every_option_has_a_caller():
    missing = [
        entry for entry in unset(REPO_ROOT) if entry.split()[1] not in EXEMPT_KEYWORDS
    ]
    assert not missing, (
        "options no call in src/, benchmarks/ or examples/ sets — make each "
        "a module constant next to its reader, or delete it:\n"
        + "\n".join(missing)
    )


def test_every_keyword_exemption_is_still_unset():
    """An exempt option that gained a caller, or was deleted, leaves the list."""
    exempt = {entry.split()[1] for entry in unset(REPO_ROOT)} & set(EXEMPT_KEYWORDS)
    assert exempt == set(EXEMPT_KEYWORDS)
    assert all(reason.strip() for reason in EXEMPT_KEYWORDS.values())


def _plant(tmp_path: Path, src: str, example: str, test: str = "") -> Path:
    """A synthetic tree: one module ``src/pkg/mod.py``, one example and
    one test, which is no caller."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from pkg.mod import *  # noqa: F401,F403\n"
    )
    (package / "mod.py").write_text(src)
    for tree in ("benchmarks", "examples", "tests"):
        (tmp_path / tree).mkdir()
    (tmp_path / "examples" / "demo.py").write_text(example)
    (tmp_path / "tests" / "test_mod.py").write_text(test)
    return tmp_path


def test_the_scan_reports_a_planted_uncalled_name(tmp_path):
    """Every public name has a caller but three: one nothing names, one
    that only calls itself, and a method whose one namesake is a loop
    variable; the package's import and ``__all__`` entries name them all."""
    root = _plant(
        tmp_path,
        '__all__ = ["Shape", "area", "spiral", "unused"]\n'
        "\n"
        "\n"
        "class Shape:\n"
        "    def corners(self):\n"
        "        return 4\n"
        "\n"
        "    def sides(self):\n"
        "        return 4\n"
        "\n"
        "    def _private(self):\n"
        "        return 0\n"
        "\n"
        "\n"
        "def area(shape):\n"
        "    return shape.corners()\n"
        "\n"
        "\n"
        "def spiral(n):\n"
        "    return spiral(n - 1) if n else 0\n"
        "\n"
        "\n"
        "def unused():\n"
        "    return None\n",
        "from pkg.mod import Shape, area\n"
        "\n"
        "for sides in range(3):\n"
        "    print(area(Shape()), sides)\n",
        "from pkg.mod import Shape\n\nassert Shape().sides() == 4\n",
    )
    assert uncalled(root) == [
        "src/pkg/mod.py:8 Shape.sides",
        "src/pkg/mod.py:19 spiral",
        "src/pkg/mod.py:23 unused",
    ]


def test_the_keyword_scan_reports_a_planted_option(tmp_path):
    """Every option is set by a program call — by keyword, by position,
    through ``partial``, a splat, a subclass's ``super().__init__`` or a
    dataclass subclass — but two: a keyword only a test sets, and a
    frozen field nothing sets."""
    root = _plant(
        tmp_path,
        "from dataclasses import dataclass\n"
        "\n"
        "\n"
        "def scale(x, factor=2.0, offset=0.0, clip=None):\n"
        "    return x * factor + offset\n"
        "\n"
        "\n"
        "def shift(x, by=1.0, *, wrap=False):\n"
        "    return x + by\n"
        "\n"
        "\n"
        "class Base:\n"
        "    def __init__(self, size=1):\n"
        "        self.size = size\n"
        "\n"
        "\n"
        "class Child(Base):\n"
        "    def __init__(self):\n"
        "        super().__init__(size=3)\n"
        "\n"
        "    def grow(self, step=1, limit=10):\n"
        "        return self.size + step\n"
        "\n"
        "\n"
        "@dataclass(frozen=True)\n"
        "class Config:\n"
        "    rate: float = 0.5\n"
        "    steps: int = 4\n"
        "\n"
        "\n"
        "@dataclass(frozen=True)\n"
        "class Wide(Config):\n"
        "    width: int = 2\n",
        "from functools import partial\n"
        "from pkg.mod import Child, Wide, scale, shift\n"
        "\n"
        "scale(1.0, 3.0)\n"
        "partial(scale, offset=1.0)\n"
        "shift(*(1.0, 2.0), **{'wrap': True})\n"
        "Child().grow(*[2, 3])\n"
        "Wide(0.1, width=3)\n",
        "from pkg.mod import scale\n\nscale(1.0, clip=2.0)\n",
    )
    assert unset(root) == [
        "src/pkg/mod.py:4 scale(clip=)",
        "src/pkg/mod.py:28 Config(steps=)",
    ]

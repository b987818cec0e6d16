"""Every public name in ``src/`` has a caller in the program.

A public function, class or method that nothing in ``src/``,
``benchmarks/`` or ``examples/`` references is either a test's helper
living in the package or dead code: the first belongs beside its tests
(as ``tests/core/reference_observation.py`` and
``tests/topology/reference_paths.py`` do), the second goes.  The scan
reads the three trees' ASTs and counts every ``Name`` and ``Attribute``
that loads a name, by bare name; a reference inside the definition
itself (recursion, a class naming itself) does not count, and neither
do imports or ``__all__`` strings.  The few names that are public API
without a caller in the program are listed in :data:`EXEMPT`, each with
its reason.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

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

_Definition = Tuple[Path, str, str, int, int]  # file, qualname, name, first, last


def _python_files(root: Path) -> Iterator[Path]:
    for tree in ROOTS:
        for path in sorted((root / tree).rglob("*.py")):
            if "__pycache__" not in path.parts:
                yield path


def _definitions(path: Path, body: List[ast.stmt], prefix: str) -> Iterator[_Definition]:
    """Module-level functions and classes, and every class's methods,
    whose names do not start with an underscore."""
    for node in body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            last = node.end_lineno or node.lineno
            yield path, prefix + node.name, node.name, node.lineno, last
        if isinstance(node, ast.ClassDef):
            yield from _definitions(path, node.body, f"{prefix}{node.name}.")


def uncalled(root: Path) -> List[str]:
    """``file:line qualname`` of every public definition under
    ``root/src`` that no loaded ``Name`` or ``Attribute`` under the
    :data:`ROOTS` of ``root`` references outside the definition."""
    definitions: List[_Definition] = []
    references: Dict[str, Set[Tuple[Path, int]]] = {}
    for path in _python_files(root):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                references.setdefault(node.id, set()).add((path, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                references.setdefault(node.attr, set()).add((path, node.lineno))
        if path.is_relative_to(root / "src"):
            definitions.extend(_definitions(path, tree.body, ""))
    found = []
    for path, qualname, name, first, last in definitions:
        if not any(
            where != path or not first <= line <= last
            for where, line in references.get(name, ())
        ):
            found.append(f"{path.relative_to(root)}:{first} {qualname}")
    return found


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


def test_the_scan_reports_a_planted_uncalled_name(tmp_path):
    """A synthetic tree: a module in ``src/`` whose public names all have
    a caller but two — one nothing names, one that only calls itself;
    the package's import and ``__all__`` entries name both."""
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        '__all__ = ["Shape", "area", "spiral", "unused"]\n'
        "from pkg.shapes import Shape, area, spiral, unused\n"
    )
    (package / "shapes.py").write_text(
        "class Shape:\n"
        "    def corners(self):\n"
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
        "    return None\n"
    )
    for tree in ("benchmarks", "examples"):
        (tmp_path / tree).mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from pkg import Shape, area\n\nprint(area(Shape()))\n"
    )
    assert uncalled(tmp_path) == [
        "src/pkg/shapes.py:13 spiral",
        "src/pkg/shapes.py:17 unused",
    ]

"""AST-based determinism linter for the ``repro`` package.

Run from the repository root::

    python tools/lint.py src/repro benchmarks

It prints one text report and exits 1 on any finding, 0 on none.  The
linter is a development tool: it imports nothing from ``repro``, and
``repro`` does not import it.

The rules encode the repo's reproducibility contract — bit-identical
results across the serial, process-parallel, and batched-inference
execution paths — as static checks, so violations are caught at review
time instead of surfacing as flaky determinism tests.

Each rule has a one-line description in :data:`RULES`; the table in
DESIGN.md §11 says what each fires on and why it threatens
reproducibility.

Suppressions
------------

A finding is fixed, or waived by an inline comment on the offending line
or the line directly above::

    rng = np.random.default_rng()  # repro: allow[REP001] CLI entry point

There is no other way to accept one: every finding the run reports fails
it.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

__all__ = [
    "RULES",
    "Finding",
    "lint_source",
    "lint_paths",
    "render_text",
    "run_lint",
    "build_parser",
    "main",
]

#: rule id -> one-line description.
RULES: Dict[str, str] = {
    "REP001": "unseeded RNG construction (seed every stream explicitly)",
    "REP002": "legacy global-RNG call (use a local seeded Generator)",
    "REP003": "wall-clock/nondeterministic value in a seeded core package",
    "REP004": "unordered set/.keys() iteration or sum without sorted()",
    "REP005": "exact float ==/!= comparison in non-test code",
    "REP006": "mutable default argument",
    "REP007": "bare assert in library code (stripped under -O)",
    "REP008": "waiver comment names an unknown rule id",
}

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*allow\[([A-Z0-9,\s]+)\]")

#: numpy.random attributes that are *not* legacy global-RNG calls.
_SAFE_NP_RANDOM = frozenset(
    {
        "default_rng",
        "SeedSequence",
        "Generator",
        "RandomState",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: stdlib ``random`` attributes that are instance constructors, not
#: global-state calls.
_SAFE_STDLIB_RANDOM = frozenset({"Random", "SystemRandom"})

#: Fully qualified callables that read wall clock / OS entropy (REP003).
#: ``time.perf_counter`` is absent on purpose: it only feeds telemetry
#: timing fields, which the determinism contract strips.
_NONDETERMINISTIC_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbits",
        "secrets.randbelow",
        "secrets.choice",
    }
)

#: Unseeded-RNG constructors (REP001), fully qualified.
_RNG_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "random.Random",
    }
)

#: Reductions whose float result depends on the order of their first
#: argument (REP004).
_ORDER_SENSITIVE_SUMS = frozenset({"sum", "math.fsum"})

#: Set-returning methods: iterating their result is order-unstable.
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)


@dataclass(frozen=True)
class Finding:
    """One lint finding.

    Attributes:
        rule: Rule id (``REP000`` for a syntax error, else ``REP001`` …
            ``REP008``).
        path: Posix-style path of the file, relative to the lint root.
        line: 1-based line number.
        col: 0-based column offset.
        message: Human-readable description of the violation.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"


#: Files where REP001 is allowed: interactive entry points may construct
#: OS-seeded generators.
_ENTRYPOINT_SUFFIXES = ("cli.py", "__main__.py")

#: Path fragments delimiting the seeded core packages REP003 protects.
_WALLCLOCK_PACKAGES = (
    "repro/core/",
    "repro/sim/",
    "repro/rl/",
    "repro/nn/",
    "repro/traffic/",
)

#: Path fragments marking test-style code, exempt from REP005 and REP007
#: (pytest asserts are idiomatic there; benchmarks run under pytest too).
#: A fragment ending in ``/`` matches anywhere in the path, any other the
#: start of the file name.
_TEST_FRAGMENTS = ("tests/", "test_", "conftest", "bench_")


def _is_entrypoint(path: str) -> bool:
    return path.endswith(_ENTRYPOINT_SUFFIXES)


def _in_wallclock_scope(path: str) -> bool:
    return any(fragment in path for fragment in _WALLCLOCK_PACKAGES)


def _is_test_code(path: str) -> bool:
    name = path.rsplit("/", 1)[-1]
    return any(
        fragment in path if fragment.endswith("/") else name.startswith(fragment)
        for fragment in _TEST_FRAGMENTS
    )


class _ImportTable:
    """Maps local names to fully qualified dotted module/object paths."""

    def __init__(self) -> None:
        self._names: Dict[str, str] = {}

    def visit_imports(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    full = alias.name if alias.asname else alias.name.split(".", 1)[0]
                    self._names[local] = full
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self._names[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.expr) -> Optional[str]:
        """Fully qualified dotted name of an attribute/name chain, with
        the leading segment resolved through the import table; None for
        non-name expressions (calls, subscripts, ...)."""
        parts: List[str] = []
        cursor: ast.expr = node
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            return None
        root = self._names.get(cursor.id, cursor.id)
        parts.append(root)
        return ".".join(reversed(parts))


def _is_set_expression(node: ast.expr) -> bool:
    """Heuristic: does this expression evaluate to a (frozen)set?"""
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in _SET_METHODS:
            # x.union(...)/x.intersection(...) — only set-ish when the
            # receiver is itself a set expression, to avoid flagging
            # unrelated APIs that happen to share the method name.
            return _is_set_expression(func.value)
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expression(node.left) or _is_set_expression(node.right)
    return False


def _is_keys_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "keys"
        and not node.args
        and not node.keywords
    )


def _is_float_comparand(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_comparand(node.operand)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "float"
    return False


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("list", "dict", "set", "bytearray")
    return False


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str, imports: _ImportTable) -> None:
        self.path = path
        self.imports = imports
        self.findings: List[Finding] = []

    # -- helpers -------------------------------------------------------

    def _emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                rule=rule,
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    def _has_seed_argument(self, node: ast.Call) -> bool:
        for arg in node.args:
            if not (isinstance(arg, ast.Constant) and arg.value is None):
                return True
        for kw in node.keywords:
            if kw.arg is None:  # **kwargs may carry a seed; trust it
                return True
            if isinstance(kw.value, ast.Constant) and kw.value.value is None:
                continue
            return True
        return False

    # -- call-site rules (REP001/REP002/REP003) ------------------------

    def visit_Call(self, node: ast.Call) -> None:
        full = self.imports.resolve(node.func)
        if full is not None:
            short = full.replace("numpy.", "np.", 1) if full.startswith("numpy.") else full
            if full in _RNG_CONSTRUCTORS:
                if not self._has_seed_argument(node) and not _is_entrypoint(self.path):
                    self._emit(
                        "REP001",
                        node,
                        f"{short}() constructed without a seed; pass an "
                        "explicit seed or SeedSequence-derived generator",
                    )
            elif full.startswith("numpy.random."):
                leaf = full.rsplit(".", 1)[1]
                if leaf not in _SAFE_NP_RANDOM:
                    self._emit(
                        "REP002",
                        node,
                        f"legacy global-RNG call {short}(); use a local "
                        "np.random.Generator seeded from the run's SeedSequence",
                    )
            elif full.startswith("random.") and full.count(".") == 1:
                leaf = full.rsplit(".", 1)[1]
                if leaf not in _SAFE_STDLIB_RANDOM:
                    self._emit(
                        "REP002",
                        node,
                        f"global stdlib RNG call {full}(); use a seeded "
                        "random.Random instance",
                    )
            if full in _NONDETERMINISTIC_CALLS and _in_wallclock_scope(self.path):
                self._emit(
                    "REP003",
                    node,
                    f"nondeterministic source {short}() inside a seeded core "
                    "package; thread the value in from the caller",
                )
            if full in _ORDER_SENSITIVE_SUMS and node.args:
                self._check_iteration(node.args[0])
        self.generic_visit(node)

    # -- iteration rule (REP004): loops, comprehensions, sum/fsum ------

    def _check_iteration(self, iter_node: ast.expr) -> None:
        if _is_set_expression(iter_node):
            self._emit(
                "REP004",
                iter_node,
                "iterating a set expression; wrap it in sorted() so the "
                "order cannot depend on hash randomisation",
            )
        elif _is_keys_call(iter_node):
            self._emit(
                "REP004",
                iter_node,
                "iterating .keys(); wrap in sorted() or iterate the "
                "mapping itself (insertion order) to make the intent explicit",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_iteration(node.iter)
        self.generic_visit(node)

    # -- comparison rule (REP005) --------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        if not _is_test_code(self.path) and any(
            isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
        ):
            if any(
                _is_float_comparand(side)
                for side in [node.left, *node.comparators]
            ):
                self._emit(
                    "REP005",
                    node,
                    "exact ==/!= against a float; compare with an explicit "
                    "tolerance (math.isclose / np.isclose) or justify inline",
                )
        self.generic_visit(node)

    # -- definition rules (REP006/REP007) ------------------------------

    def _check_defaults(self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                self._emit(
                    "REP006",
                    default,
                    f"mutable default argument in {node.name}(); default to "
                    "None and create the object inside the function",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_Assert(self, node: ast.Assert) -> None:
        if not _is_test_code(self.path):
            self._emit(
                "REP007",
                node,
                "bare assert is stripped under python -O; raise "
                "InvariantViolation (internal invariant) or "
                "ValueError/RuntimeError (caller misuse) instead",
            )
        self.generic_visit(node)


def _suppressed_rules(lines: Sequence[str], line: int) -> Set[str]:
    """Rules suppressed for 1-based ``line`` via ``# repro: allow[...]``
    on the line itself or the line directly above.

    A waiver never applies further than that one line below it — this is
    the only scope in which a suppression is honoured.
    """
    rules: Set[str] = set()
    for lineno in (line, line - 1):
        if 1 <= lineno <= len(lines):
            match = _SUPPRESS_RE.search(lines[lineno - 1])
            if match:
                rules.update(
                    code.strip() for code in match.group(1).split(",") if code.strip()
                )
    return rules


def _unknown_waiver_findings(lines: Sequence[str], path: str) -> List[Finding]:
    """REP008: every rule id in a waiver comment must exist, so a typo'd
    waiver fails loudly instead of silently suppressing nothing."""
    findings: List[Finding] = []
    for lineno, text in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        unknown = [
            code.strip()
            for code in match.group(1).split(",")
            if code.strip() and code.strip() not in RULES
        ]
        if unknown:
            findings.append(
                Finding(
                    rule="REP008",
                    path=path,
                    line=lineno,
                    col=match.start(),
                    message=(
                        f"waiver names unknown rule id(s) {', '.join(unknown)}; "
                        "known rules are REP001-REP008"
                    ),
                )
            )
    return findings


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one module's source text; returns unsuppressed findings."""
    path = path.replace("\\", "/")
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        line = exc.lineno or 1
        return [
            Finding(
                rule="REP000",
                path=path,
                line=line,
                col=(exc.offset or 1) - 1,
                message=f"syntax error: {exc.msg}",
            )
        ]
    imports = _ImportTable()
    imports.visit_imports(tree)
    visitor = _Visitor(path, imports)
    visitor.visit(tree)

    lines = source.splitlines()
    findings = [
        finding
        for finding in visitor.findings + _unknown_waiver_findings(lines, path)
        if finding.rule not in _suppressed_rules(lines, finding.line)
    ]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def _iter_python_files(paths: Iterable[Union[str, Path]]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        elif not path.exists():
            raise FileNotFoundError(f"lint target does not exist: {path}")
    return files


def _relative_posix(path: Path, root: Optional[Path]) -> str:
    resolved = path.resolve()
    if root is not None:
        try:
            return resolved.relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def lint_paths(
    paths: Iterable[Union[str, Path]],
    root: Optional[Union[str, Path]] = None,
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths`` (files or directories).

    Finding paths are reported relative to ``root`` (default: the
    current working directory) in posix form, so reports are portable
    across checkouts.
    """
    root_path = Path(root) if root is not None else Path.cwd()
    findings: List[Finding] = []
    for file in _iter_python_files(paths):
        rel = _relative_posix(file, root_path)
        findings.extend(lint_source(file.read_text(encoding="utf-8"), path=rel))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def render_text(findings: Sequence[Finding]) -> str:
    if not findings:
        return "repro lint: no findings"
    lines = [finding.render() for finding in findings]
    by_rule: Dict[str, int] = {}
    for finding in findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    summary = ", ".join(f"{rule} x{n}" for rule, n in sorted(by_rule.items()))
    lines.append(f"repro lint: {len(findings)} finding(s) ({summary})")
    return "\n".join(lines)


def run_lint(
    paths: Sequence[str], root: Optional[Union[str, Path]] = None
) -> Tuple[int, str]:
    """CLI core: lint ``paths`` and return ``(exit_code, report_text)``.

    Any reported finding gives exit 1.
    """
    findings = lint_paths(paths, root=root)
    return (1 if findings else 0), render_text(findings)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tools/lint.py",
        description="determinism linter (rules REP001-REP008)",
    )
    parser.add_argument("paths", nargs="*", default=["src/repro", "benchmarks"],
                        help="files or directories to lint "
                             "(default: src/repro benchmarks)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Lint the paths on the command line, print the report and return
    the exit status."""
    args = build_parser().parse_args(argv)
    code, report = run_lint(args.paths)
    print(report)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""Every module-level function and class of the package has a reader.

A name that nothing under `src/`, `perfbench/` or `demos/` reads, other
than its own definition, is code that only tests exercise. The walk
counts a bare name and an attribute as a read, and walks a string that
parses as Python like code: the benchmark's tracer wraps functions it
names by string, and its README set-up is a line of code. An import alone
is not a read.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hardrank"
READER_DIRS = ("src", "perfbench", "demos")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def reads(tree: ast.AST):
    """(name, line) of each place `tree` reads a name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                code = ast.parse(node.value)
            except (SyntaxError, ValueError):
                continue
            yield from ((name, node.lineno) for name, _ in reads(code))


def unread_definitions(trees: dict[str, ast.Module], checked) -> list[str]:
    """``file: name`` of each module-level function or class of the `checked`
    files that no tree in `trees` reads outside that definition."""
    readers: dict[str, list[tuple[str, int]]] = {}
    for path, tree in trees.items():
        for name, line in reads(tree):
            readers.setdefault(name, []).append((path, line))
    unread = []
    for path in checked:
        for node in trees[path].body:
            if isinstance(node, DEFINITIONS) and all(
                where == path and node.lineno <= line <= node.end_lineno
                for where, line in readers.get(node.name, [])
            ):
                unread.append(f"{path}: {node.name}")
    return unread


def _unread(sources: dict[str, str]) -> list[str]:
    trees = {path: ast.parse(source) for path, source in sources.items()}
    return unread_definitions(trees, sorted(trees))


class TestDetector:
    def test_recursion_alone_is_no_read(self):
        assert _unread({"a.py": "def f(n):\n    return f(n - 1)\n"}) == ["a.py: f"]

    def test_import_alone_is_no_read(self):
        sources = {"a.py": "class C:\n    pass\n", "b.py": "from a import C\n"}
        assert _unread(sources) == ["a.py: C"]

    @pytest.mark.parametrize(
        "reader",
        ["from a import f\nf()\n", "import a\na.f\n", "TARGETS = (('a', 'f'),)\n",
         "SETUP = 'from a import f; f(7)'\n"],
    )
    def test_name_attribute_and_string_are_reads(self, reader):
        assert _unread({"a.py": "def f():\n    pass\n", "b.py": reader}) == []

    def test_read_in_the_same_file_counts(self):
        assert _unread({"a.py": "def f():\n    pass\n\n\nx = f()\n"}) == []


def test_every_package_definition_has_a_reader():
    paths = sorted(
        path for directory in READER_DIRS for path in (ROOT / directory).rglob("*.py")
    )
    trees = {
        str(path.relative_to(ROOT)): ast.parse(path.read_text(encoding="utf-8"))
        for path in paths
    }
    checked = [str(path.relative_to(ROOT)) for path in sorted(SRC.glob("*.py"))]
    assert unread_definitions(trees, checked) == []


# The adapter layer between rankers and runs. Only the benchmark's serving
# workload still builds it, so nothing under src/ or demos/ may import or
# read these names outside their own definitions; once perfbench stops
# reading them, the check above flags them for deletion.
PERFBENCH_ONLY = frozenset(
    {"ModelRanker", "ScoreFileRanker", "ModelQppProvider", "FileQppProvider", "route_qpp"}
)


def adapter_readers(path: str, tree: ast.Module) -> list[str]:
    """``path:line: name`` of each import or read of a PERFBENCH_ONLY name in
    `tree` outside that name's own module-level definition."""
    own = {
        node.name: (node.lineno, node.end_lineno)
        for node in tree.body
        if isinstance(node, DEFINITIONS) and node.name in PERFBENCH_ONLY
    }
    imports = (
        (alias.name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )
    found = []
    for name, line in [*reads(tree), *imports]:
        first, last = own.get(name, (0, -1))
        if name in PERFBENCH_ONLY and not first <= line <= last:
            found.append(f"{path}:{line}: {name}")
    return found


class TestAdapterReaders:
    def test_import_and_read_are_found_but_the_definition_is_not(self):
        source = (
            "from a import route_qpp\nroute_qpp()\n\n\n"
            "class ModelRanker:\n    x = 'ModelRanker'\n"
        )
        found = adapter_readers("b.py", ast.parse(source))
        assert sorted(found) == ["b.py:1: route_qpp", "b.py:2: route_qpp"]


def test_adapter_layer_is_read_only_under_perfbench():
    found = []
    for directory in ("src", "demos"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found += adapter_readers(str(path.relative_to(ROOT)), tree)
    assert found == []

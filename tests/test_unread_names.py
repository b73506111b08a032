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

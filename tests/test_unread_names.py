"""Every module-level function and class of the package has a reader, and
so does every method, property and annotated field of those classes.

A name that nothing under `src/`, `perfbench/` or `demos/` reads, other
than its own definition, is code that only tests exercise. The walk
counts a bare name and an attribute as a read, and walks a string that
parses as Python like code: the benchmark's tracer wraps functions it
names by string, and its README set-up is a line of code. An import alone
is not a read. A class member is read only as an attribute (`x.seed`),
and matches by name alone, so a read of `x.seed` counts for every member
called `seed`: the check finds members that nothing reads, not every
unused one. Dunder methods are left out, as Python itself calls them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hardrank"
READER_DIRS = ("src", "perfbench", "demos")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def reads(tree: ast.AST, attributes_only: bool = False):
    """(name, line) of each place `tree` reads a name; with
    `attributes_only`, of each place it reads an attribute `x.name`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not attributes_only:
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                code = ast.parse(node.value)
            except (SyntaxError, ValueError):
                continue
            yield from ((name, node.lineno) for name, _ in reads(code, attributes_only))


def definitions(tree: ast.Module):
    """(label, name, node) of each module-level function or class of `tree`,
    and of each non-dunder method, property and annotated field of those
    classes, labelled ``Class.name``."""
    for node in tree.body:
        if not isinstance(node, DEFINITIONS):
            continue
        yield node.name, node.name, node
        if not isinstance(node, ast.ClassDef):
            continue
        for member in node.body:
            if isinstance(member, FUNCTIONS) and not member.name.startswith("__"):
                name = member.name
            elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                name = member.target.id
            else:
                continue
            yield f"{node.name}.{name}", name, member


def readers(trees: dict[str, ast.Module], attributes_only: bool) -> dict:
    """name -> [(file, line)] of each place a tree reads it (see `reads`)."""
    by_name: dict[str, list[tuple[str, int]]] = {}
    for path, tree in trees.items():
        for name, line in reads(tree, attributes_only):
            by_name.setdefault(name, []).append((path, line))
    return by_name


def unread_definitions(trees: dict[str, ast.Module], checked) -> list[str]:
    """``file: label`` of each definition (see `definitions`) of the
    `checked` files that no tree in `trees` reads outside that definition.
    A class member is read only as an attribute: a bare name or a string
    `"name"` is a local variable or a key, not the member."""
    any_reads, attribute_reads = readers(trees, False), readers(trees, True)
    unread = []
    for path in checked:
        for label, name, node in definitions(trees[path]):
            found = attribute_reads if "." in label else any_reads
            if all(
                where == path and node.lineno <= line <= node.end_lineno
                for where, line in found.get(name, [])
            ):
                unread.append(f"{path}: {label}")
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

    def test_unread_method_property_and_field_are_found(self):
        source = (
            "class C:\n    size: int\n    def __init__(self):\n        pass\n"
            "    def grow(self):\n        return self.grow()\n"
            "    @property\n    def area(self):\n        return 0\n\n\nC()\n"
        )
        assert _unread({"a.py": source}) == ["a.py: C.size", "a.py: C.grow", "a.py: C.area"]

    def test_member_read_as_an_attribute_elsewhere_counts(self):
        source = "class C:\n    size: int\n    def grow(self):\n        return self.size\n"
        assert _unread({"a.py": source, "b.py": "from a import C\nC().grow()\n"}) == []

    def test_bare_name_or_key_is_no_member_read(self):
        source = "class C:\n    size: int\n\n\nsize = {'size': C()}\n"
        assert _unread({"a.py": source}) == ["a.py: C.size"]


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

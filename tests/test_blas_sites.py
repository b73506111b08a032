"""No new BLAS reduction in the package.

A float product through BLAS (`@`, `np.dot`, `np.matmul`, `np.vecdot`,
`np.inner`, `np.einsum`) sums in an order that the BLAS kernel picks, so
its last bits can change with the CPU (ROADMAP, "Bits that do not depend
on the CPU"). The walk below finds every such site in `src/hardrank` and
fails, naming file:line, on any that is not in `ALLOWED`: today's sites,
each named by its file, its enclosing function and its source text. They
are to be replaced by fixed-order sums. The feature kernel sums its
integer products with `np.bincount`, exact in any order, and BM25 adds
its impacts with `np.add.at`, one at a time; neither has a site here.

`import hardrank` also defaults `OPENBLAS_NUM_THREADS` to 1 before numpy
loads: every product has 6 columns, so BLAS worker threads would only spin.
The child-interpreter tests at the end hold that default.
"""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hardrank"
PRODUCTS = frozenset({"dot", "matmul", "vecdot", "inner", "einsum"})

ALLOWED = Counter({
    ("src/hardrank/linear_model.py", "bce_gradient", "features.T @ residual"): 1,
    ("src/hardrank/linear_model.py", "fit_logistic", "features @ weights"): 2,
    ("src/hardrank/linear_model.py", "LogisticScorer.score_rows",
     "np.vecdot(z, self.weights)"): 1,
})


def product_sites(path: str, source: str):
    """(path, line, enclosing function, source text) of each `@`, `@=` and
    call of a function or method named in PRODUCTS in `source`; the
    function is ``Class.method`` for a method, "" at module level."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        called = node.func if isinstance(node, ast.Call) else None
        if (
            isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
            or isinstance(called, ast.Attribute) and called.attr in PRODUCTS
            or isinstance(called, ast.Name) and called.id in PRODUCTS
        ):
            found.append((path, node.lineno, scope, ast.get_source_segment(source, node)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def unallowed(sites, allowed: Counter) -> list[str]:
    """``path:line: function: text`` of each site beyond its allowed count."""
    left = Counter(allowed)
    out = []
    for path, line, scope, text in sites:
        key = (path, scope, text)
        if left[key]:
            left[key] -= 1
        else:
            out.append(f"{path}:{line}: {scope or '<module>'}: {text}")
    return out


class TestDetector:
    def test_every_kind_of_product_is_found(self):
        source = (
            "import numpy as np\nfrom numpy import einsum\n\n\nclass A:\n"
            "    def f(self, x, y):\n        x @= y\n        return x @ y, np.dot(x, y)\n\n\n"
            "def g(x, y):\n    return np.matmul(x, y) + np.vecdot(x, y) + x.dot(y)\n\n\n"
            "z = np.inner(1, 2) + einsum('i,i', 1, 2)\n"
        )
        assert [(line, scope, text) for _, line, scope, text in product_sites("a.py", source)] == [
            (7, "A.f", "x @= y"),
            (8, "A.f", "x @ y"),
            (8, "A.f", "np.dot(x, y)"),
            (12, "g", "np.matmul(x, y)"),
            (12, "g", "np.vecdot(x, y)"),
            (12, "g", "x.dot(y)"),
            (15, "", "np.inner(1, 2)"),
            (15, "", "einsum('i,i', 1, 2)"),
        ]

    def test_other_arithmetic_is_no_site(self):
        source = "import numpy as np\n\n\ndef f(x):\n    return np.add.accumulate(x * x)[-1]\n"
        assert product_sites("a.py", source) == []

    def test_a_site_beyond_its_allowed_count_is_named(self):
        sites = product_sites("a.py", "def f(x):\n    return x @ x, x @ x\n")
        assert unallowed(sites, Counter({("a.py", "f", "x @ x"): 1})) == ["a.py:2: f: x @ x"]
        assert unallowed(sites, Counter({("a.py", "f", "x @ x"): 2})) == []


def test_no_blas_product_outside_the_allow_list():
    sites = []
    for path in sorted(SRC.glob("*.py")):
        sites += product_sites(str(path.relative_to(ROOT)), path.read_text(encoding="utf-8"))
    assert unallowed(sites, ALLOWED) == []
    # an allowed site that is gone should leave the list with it
    assert Counter((path, scope, text) for path, _, scope, text in sites) == ALLOWED


# Imports hardrank first and fails if that loaded numpy (the default would
# come too late), then loads both bundled OpenBLAS builds (numpy's and
# scipy's); prints the variable and the thread count (0 without
# /proc/self/task).
THREADS_AFTER_IMPORT = """
import os, sys
import hardrank
assert "numpy" not in sys.modules, "import hardrank loaded numpy"
import numpy, scipy.special
task = "/proc/self/task"
print(os.environ.get("OPENBLAS_NUM_THREADS"), len(os.listdir(task)) if os.path.isdir(task) else 0)
"""


def threads_after_import(env) -> tuple[str, int]:
    result = subprocess.run([sys.executable, "-c", THREADS_AFTER_IMPORT], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    value, threads = result.stdout.split()
    return value, int(threads)


class TestThreadCap:
    def test_unset_variable_becomes_one_thread(self, child_env):
        env = {name: value for name, value in child_env.items() if name != "OPENBLAS_NUM_THREADS"}
        value, threads = threads_after_import(env)
        assert value == "1"
        if not Path("/proc/self/task").is_dir():
            pytest.skip("no /proc/self/task to count threads in")
        assert threads == 1

    def test_an_explicit_value_wins(self, child_env):
        assert threads_after_import({**child_env, "OPENBLAS_NUM_THREADS": "2"})[0] == "2"

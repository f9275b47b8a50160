"""Every name a module of the package imports is read by that module, and
every top-level definition of the package is read by the package.

No linter is a dependency of the project, so these are the unused-import and
dead-definition checks: each `jethier` module is parsed with `ast`.  A name an
import binds must be read somewhere in the module, or listed in its
`__all__`; an import kept on purpose carries `# noqa: F401` on its line.  A
top-level `def` or `class` must be read by package code outside its own
body; code only the tests use belongs in the tests.
"""

import ast
from pathlib import Path

import pytest

import jethier

MODULES = sorted(Path(jethier.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    out.append((alias.lineno, name))
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_guard_sees_an_unused_import():
    source = ("from .jetcalc import HbarSeries, Sum  # noqa: E501\n"
              "import math\n"
              "from .diffop import leibniz  # noqa: F401\n"
              "__all__ = ['math']\n"
              "Sum()\n")
    assert unused_imports(source) == [(1, "HbarSeries")]


# No package code calls these; perfbench's tracer lists them until its
# callables are refreshed (ROADMAP item 1b), which then moves them to the tests.
UNREAD_ON_PURPOSE = [("diffop", "apply_op"), ("givental", "r_deform_omega"),
                     ("jetcalc", "substitute")]


def unread_definitions(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of each top-level def or class that no module reads
    outside the definition's own body.  Names are matched by name alone;
    an import or an `__all__` entry is not a read."""
    tops = []  # (module, top-level node, the names it reads)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            reads = {n.id for n in ast.walk(node)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            tops.append((module, node, reads))
    return [(module, node.name) for module, node, _ in tops
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not any(node.name in reads for _, other, reads in tops if other is not node)]


def test_every_definition_is_read():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unread_definitions(sources) == UNREAD_ON_PURPOSE


def test_guard_sees_an_unread_definition():
    sources = {"a": ("def used():\n    pass\n"
                     "def recursive(n):\n    return recursive(n - 1)\n"
                     "class Exported:\n    pass\n"
                     "__all__ = ['Exported']\n"),
               "b": ("from .a import Exported, used\n"
                     "def caller():\n    return used()\n"
                     "caller()\n")}
    assert unread_definitions(sources) == [("a", "recursive"), ("a", "Exported")]

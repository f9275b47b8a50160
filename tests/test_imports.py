"""Every name a module of the package imports is read by that module.

No linter is a dependency of the project, so this is the unused-import check:
each `jethier` module is parsed with `ast`, and a name an import binds must
be read somewhere in the module, or listed in its `__all__`.  An import kept
on purpose carries `# noqa: F401` on its line.
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

"""Every name a module of the package imports is read by that module, and
every top-level definition of the package is read by the package.

No linter is a dependency of the project, so these are the unused-import and
dead-definition checks: each `jethier` module is parsed with `ast`.  A name an
import binds must be read somewhere in the module, or listed in its
`__all__`; an import kept on purpose carries `# noqa: F401` on its line.  A
top-level `def` or `class`, and a method of a top-level class other than a
dunder, must be read by package code outside its own body; code only the
tests use belongs in the tests.  Each method the
benchmark's tracer lists is defined by its own class and bound by no other.
"""

import ast
import importlib
from collections import Counter
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


def reads(node: ast.AST, attributes: bool) -> Counter:
    """How often each name is read in `node`, and with `attributes` each
    attribute name too."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if (isinstance(n, ast.Name) or attributes and isinstance(n, ast.Attribute))
                   and isinstance(n.ctx, ast.Load))


def unread_definitions(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of each top-level def or class, and each method of a
    top-level class other than a dunder, that no module reads outside the
    definition's own body.  Names are matched by name alone: a method by a
    read of that name or of an attribute of that name.  An import or an
    `__all__` entry is not a read."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    trees = [(module, ast.parse(source)) for module, source in sources.items()]
    defs = []  # (module, definition, whether attribute reads count)
    for module, tree in trees:
        for node in tree.body:
            if isinstance(node, (*funcs, ast.ClassDef)):
                defs.append((module, node, False))
            if isinstance(node, ast.ClassDef):
                defs += [(module, m, True) for m in node.body if isinstance(m, funcs)
                         and not (m.name.startswith("__") and m.name.endswith("__"))]
    total = {attributes: sum((reads(tree, attributes) for _, tree in trees), Counter())
             for attributes in (False, True)}
    return [(module, node.name) for module, node, attributes in defs
            if total[attributes][node.name] == reads(node, attributes)[node.name]]


def test_every_definition_is_read():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unread_definitions(sources) == UNREAD_ON_PURPOSE


def test_guard_sees_an_unread_definition():
    sources = {"a": ("def used():\n    pass\n"
                     "def recursive(n):\n    return recursive(n - 1)\n"
                     "class Exported:\n    pass\n"
                     "class Kept:\n"
                     "    def __init__(self):\n        pass\n"
                     "    def run(self):\n        return self.step()\n"
                     "    def step(self):\n        return 1\n"
                     "    def alone(self):\n        return self.alone()\n"
                     "__all__ = ['Exported']\n"),
               "b": ("from .a import Exported, Kept, used\n"
                     "def caller():\n    return used() + Kept().run()\n"
                     "caller()\n")}
    assert unread_definitions(sources) == [("a", "recursive"), ("a", "Exported"),
                                           ("a", "alone")]


# perfbench/spans.py traces each `Class.method` it lists through the
# attribute its class defines, and wraps every other binding of that function
# object: a method a class inherits breaks a traced run, and a function two
# classes share would count the calls of one under the other's row.
SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"


def traced_methods() -> list[tuple[str, type, str]]:
    """(name, class, attribute) of each `Class.method` the tracer lists, read
    from its CALLABLES and OPERATORS with `ast`."""
    consts = {node.targets[0].id: ast.literal_eval(node.value)
              for node in ast.parse(SPANS.read_text()).body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in ("CALLABLES", "OPERATORS")}
    out = []
    for module, names in consts["CALLABLES"].items():
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(importlib.import_module(f"jethier.{module}"), cls_name)
                out.append((f"{module}.{name}", cls, consts["OPERATORS"].get(meth, meth)))
    return out


def misbound(listed, classes) -> list[str]:
    """Each name of `listed` whose class does not define the attribute
    itself, or whose function another of `classes` binds too."""
    return [name for name, cls, attr in listed
            if attr not in vars(cls)
            or any(other is not cls and any(v is vars(cls)[attr] for v in vars(other).values())
                   for other in classes)]


def test_traced_methods_are_their_own_classes():
    classes = {v for path in MODULES
               for v in vars(importlib.import_module(f"jethier.{path.stem}")).values()
               if isinstance(v, type) and v.__module__.startswith("jethier")}
    listed = traced_methods()
    assert {"jetcalc.JetPoly.mul", "jetcalc.JetPoly.add",
            "jetcalc.HbarSeries.mul"} <= {name for name, _, _ in listed}
    assert misbound(listed, classes) == []


def test_guard_sees_a_misbound_method():
    class Base:
        def __mul__(self, other):
            return other

    class Own(Base):
        def __mul__(self, other):
            return other

    class Inherits(Base):
        pass

    class Shares:
        __add__ = Own.__mul__

    listed = [("Own.mul", Own, "__mul__"), ("Inherits.mul", Inherits, "__mul__"),
              ("Shares.add", Shares, "__add__")]
    assert misbound(listed, [Base, Own, Inherits, Shares]) == ["Own.mul", "Inherits.mul",
                                                               "Shares.add"]
    assert misbound(listed[:1], [Base, Own, Inherits]) == []

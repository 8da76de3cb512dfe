"""Source hygiene that no installed linter checks.

Every name a module under ``src/`` or ``tests/`` imports must be
referenced in that module.  Package ``__init__.py`` files re-export what
they import, names listed in ``__all__`` are exports, and
``from __future__`` imports are compiler directives, so those are exempt.

Every function and class defined under ``src/`` must be referenced by
name somewhere in ``src/``: as a name, an attribute or an imported name.
Dunder methods are called by the language, so they are exempt.  Like the
config reads below, references are matched by name alone.

No module under ``src/`` computes a ReLU as ``np.where(x > 0, x, 0)``:
its per-element branch is mispredicted on mixed signs, and
``tensor._relu_`` gives the same bytes without one.

Only the ops listed in ``FINITE_SKIPS`` pass ``finite=`` to
``Tensor._result`` and so skip the finite test of their output: each
only selects, moves or clips its operands' values, or (``lbr``) has
checked the values its output is the ReLU of.  A new skip is a choice
that this list must record.

Every field of a config dataclass (a section of ``RunConfig``) must be
read somewhere in ``src/`` outside the ``validate`` and ``__post_init__``
checks: a setting that only its own check reads changes nothing a run
does.  Reads are matched by attribute name, so a field shares its reads
with any other attribute of the same name.
"""

import ast
from dataclasses import fields
from pathlib import Path

from pointfuse.config import RunConfig

ROOT = Path(__file__).resolve().parent.parent
CHECK_METHODS = ("validate", "__post_init__")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements in ``source`` and never referenced."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    src = ("from __future__ import annotations\n"
           "import os, sys as system\n"
           "from a.b import c, d as e\n"
           "import x.y\n"
           "__all__ = ['c']\n"
           "print(e, x.y)\n")
    assert unused_imports(src) == [(2, "os"), (2, "system")]


def test_no_module_imports_a_name_it_never_uses():
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for line, name in unused_imports(path.read_text()):
            found.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert not found, "imported but never used:\n" + "\n".join(found)


def attribute_reads(source: str) -> tuple[set, set]:
    """Attribute names ``source`` reads (``x.name`` in load context): those
    read inside a ``validate`` or ``__post_init__`` function, and those
    read anywhere else."""
    inside, outside = set(), set()

    def visit(node, in_check):
        for child in ast.iter_child_nodes(node):
            check = in_check or (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                                 and child.name in CHECK_METHODS)
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                (inside if check else outside).add(child.attr)
            visit(child, check)

    visit(ast.parse(source), False)
    return inside, outside


def test_attribute_reads_split_at_the_checks():
    src = ("class C:\n"
           "    def validate(self):\n"
           "        if self.a or self.b:\n"
           "            self.c = 1\n"
           "def use(cfg):\n"
           "    return cfg.b\n")
    assert attribute_reads(src) == ({"a", "b"}, {"b"})


def test_every_config_field_is_read_outside_its_checks():
    outside = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        outside |= attribute_reads(path.read_text())[1]
    found = []
    for section in fields(RunConfig):
        cls = type(section.default_factory())
        found += [f"{section.name}.{f.name} ({cls.__name__})"
                  for f in fields(cls) if f.name not in outside]
    assert not found, ("config fields that src/ reads only in validate/__post_init__, "
                       "or not at all:\n" + "\n".join(found))


def unreferenced_definitions(sources: dict) -> list[str]:
    """Functions and classes defined in ``sources`` (path -> source text)
    whose name no source references, as ``path:line name``."""
    defined, referenced = {}, set()
    for path, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path}:{node.lineno}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    return sorted(f"{where} {name}" for name, where in defined.items()
                  if name not in referenced and not (name.startswith("__") and name.endswith("__")))


def test_unreferenced_definitions_are_found():
    sources = {"a.py": ("class A:\n"
                        "    def __init__(self): pass\n"
                        "    def used(self): pass\n"
                        "    def unused(self): pass\n"
                        "def helper(): pass\n"
                        "def orphan(): pass\n"),
               "b.py": "from a import helper as h\nA().used()\n"}
    assert unreferenced_definitions(sources) == ["a.py:4 unused", "a.py:6 orphan"]


def test_every_function_and_class_in_src_is_referenced_in_src():
    sources = {str(path.relative_to(ROOT)): path.read_text()
               for path in sorted((ROOT / "src").rglob("*.py"))}
    found = unreferenced_definitions(sources)
    assert not found, "defined under src/ but referenced nowhere in src/:\n" + "\n".join(found)


def _is_zero(node) -> bool:
    return (isinstance(node, ast.Constant) and not isinstance(node.value, bool)
            and node.value == 0)


def where_relus(source: str) -> list[int]:
    """Lines of ``source`` that call ``<module>.where(x > 0, x, 0)``, x
    any expression, 0 written as an int or a float."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "where" and len(node.args) == 3):
            continue
        cond, x, other = node.args
        if (isinstance(cond, ast.Compare) and len(cond.ops) == 1
                and isinstance(cond.ops[0], ast.Gt) and _is_zero(cond.comparators[0])
                and ast.dump(cond.left) == ast.dump(x) and _is_zero(other)):
            found.append(node.lineno)
    return found


def test_where_relus_are_found():
    src = ("import numpy as np\n"
           "a = np.where(h > 0.0, h, 0.0)\n"
           "b = np.where(h.data > 0, h.data, 0)\n"
           "c = np.where(h > 0.0, g, 0.0)\n"
           "d = np.where(h < 0.0, h, 0.0)\n"
           "e = np.where(h > 1.0, h, 0.0)\n"
           "f = np.where(h > 0.0, h, -1.0)\n"
           "g = np.maximum(h, 0.0)\n")
    assert where_relus(src) == [2, 3]


def test_no_module_in_src_computes_a_relu_with_where():
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path in sorted((ROOT / "src").rglob("*.py"))
             for line in where_relus(path.read_text())]
    assert not found, "np.where ReLU, use tensor._relu_:\n" + "\n".join(found)


# module:function of every op whose output skips Tensor._result's finite test
FINITE_SKIPS = ["nn.py:lbr", "tensor.py:amax", "tensor.py:clamp", "tensor.py:concat",
                "tensor.py:gather_rows", "tensor.py:narrow", "tensor.py:reshape",
                "tensor.py:transpose"]


def finite_skips(source: str) -> list[str]:
    """Module-level functions of ``source`` that call ``_result`` with a
    ``finite=`` keyword."""
    found = []
    for fn in ast.parse(source).body:
        if isinstance(fn, ast.FunctionDef) and any(
                isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_result"
                and any(k.arg == "finite" for k in node.keywords)
                for node in ast.walk(fn)):
            found.append(fn.name)
    return found


def test_finite_skips_are_found():
    src = ("def a(x):\n"
           "    return Tensor._result(x, (), None, finite=True)\n"
           "def b(x):\n"
           "    return Tensor._result(x, (), None)\n"
           "def c(x):\n"
           "    def inner():\n"
           "        return T.Tensor._result(x, (), None, finite=x > 0)\n"
           "    return inner()\n")
    assert finite_skips(src) == ["a", "c"]


def test_only_the_listed_ops_skip_the_finite_test_of_their_output():
    found = sorted(f"{path.name}:{name}" for path in sorted((ROOT / "src").rglob("*.py"))
                   for name in finite_skips(path.read_text()))
    assert found == FINITE_SKIPS

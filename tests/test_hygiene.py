"""Source hygiene that no installed linter checks.

Every name a module under ``src/`` or ``tests/`` imports must be
referenced in that module.  Package ``__init__.py`` files re-export what
they import, names listed in ``__all__`` are exports, and
``from __future__`` imports are compiler directives, so those are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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

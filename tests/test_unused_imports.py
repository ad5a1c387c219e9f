"""Every name a package module imports is used in that module.

Uses the standard library's ast only.  A name counts as used when the
module loads it anywhere (code or annotations) or lists it in __all__.
"""

import ast
import pathlib

import pytest

import wickwaves

PACKAGE = pathlib.Path(wickwaves.__file__).parent


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_finds_an_unused_import():
    src = ("from __future__ import annotations\nimport os\nimport sys\n"
           "from math import pi, tau\n__all__ = ['tau']\nprint(sys.argv, pi)\n")
    assert _unused_imports(src) == [(2, "os")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []

"""Every name a cevian module imports is used in it or re-exported by its
__all__; the package's __init__ re-exports without listing, so it is not
checked.  Read with ast alone, so no linter is needed."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cevian"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names ``source`` binds by import at any depth and never reads,
    unless its __all__ lists them; ``from __future__`` imports are skipped."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used and name not in exported]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_the_check_sees_unused_imports_and_skips_exports():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nfrom .a import b, c as d, e\n"
              "__all__ = ['e']\n"
              "def f():\n    from .x import y\n    return d\n")
    assert unused_imports(source) == ["math", "os", "b", "y"]

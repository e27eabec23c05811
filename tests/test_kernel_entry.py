"""The pair rule is written once: no line of the package outside core_model's
kernel section (the term kernels themselves and their table _PAIR_TERMS),
_pair_sum and pair_table names _pair_terms3, _pair_terms4 or _PAIR_TERMS, so
a change to the pair terms' number type or error bars edits one place and
reaches every closed form and every pair table.  Read with ast alone."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cevian"
MODULES = sorted(p.name for p in SRC.glob("*.py"))

KERNELS = {"_pair_terms3", "_pair_terms4", "_PAIR_TERMS"}
# core_model's top-level definitions that may name them
ENTRY = KERNELS | {"_pair_sum", "pair_table"}


def _defines(node) -> set:
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    return set()


def kernel_uses(source: str, entry=frozenset()) -> list:
    """The line numbers where ``source`` names a kernel, as a name, an
    attribute or an import, outside the top-level definitions of ``entry``."""
    lines = []
    for top in ast.parse(source).body:
        if _defines(top) and _defines(top) <= entry:
            continue
        for node in ast.walk(top):
            names = ()
            if isinstance(node, ast.Name):
                names = (node.id,)
            elif isinstance(node, ast.Attribute):
                names = (node.attr,)
            elif isinstance(node, ast.alias):
                names = (node.name,)
            if KERNELS.intersection(names):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("module", MODULES)
def test_only_pair_sum_and_pair_table_reach_the_kernels(module):
    entry = ENTRY if module == "core_model.py" else frozenset()
    assert kernel_uses((SRC / module).read_text(), entry) == []


def test_the_check_sees_names_attributes_and_imports():
    source = ("from .core_model import _pair_terms4\n"
              "x = cm._PAIR_TERMS[4]\n"
              "def f(e, w1, w2):\n"
              "    return _pair_terms3(e, w1, w2)\n"
              "def _pair_sum(w, shape):\n"
              "    return _PAIR_TERMS[shape._N](shape._pair_e, _ORIGIN[shape._N], w)\n"
              "def pair_table(comps, shape):\n"
              "    terms = _PAIR_TERMS[shape._N]\n")
    assert kernel_uses(source) == [1, 2, 4, 6, 8]
    assert kernel_uses(source, ENTRY) == [1, 2, 4]

"""The straight-line hot functions of the report path build no generator
expression or comprehension: on Python 3.11 each one builds a frame per call,
which costs more than the arithmetic it wraps.  Each function named here is
written out per arity or over tuple literals instead; the allowed exceptions
are named with it.  Read with ast alone."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cevian"

_COMPREHENSIONS = (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)

# module -> {qualified function name: the comprehension kinds it may hold}
HOT = {
    "core_model.py": {
        "_pair_terms3": (),
        "_pair_terms4": (),
        "_pair_sum": (),
        "_normalized": (),
        "_ratios": (),
        "_windowed": (),
        "TriangleSides.__init__": (),
        "TetraEdges.__init__": (),
        "TetraEdges._face_areas": (),
        "TetraEdges.face_areas": (),
        "_scaled": (),
        "_slack_report": (),
        "_pair_roots": ("DictComp",),  # the components by name, once per table
        "pair_table": (),
    },
    "tet_centers.py": {"tet_center_ir_tensor": ()},
    "tet_metrics.py": {"transcribed_closed_forms4": (), "_transcribed_forms4": (),
                       "tet_inequality_slacks": (), "_tet_inequality_slacks": (),
                       "_unit_slacks": ()},
    "tri_centers.py": {"euler_relation": ()},
}


def functions(source: str) -> dict:
    """Every function of ``source`` by qualified name (``Class.method``)."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out[prefix + child.name] = child
                visit(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")

    visit(ast.parse(source), "")
    return out


def comprehensions(func) -> list:
    """The comprehension kinds ``func`` holds, nested functions included,
    sorted by name."""
    return sorted(type(node).__name__ for node in ast.walk(func)
                  if isinstance(node, _COMPREHENSIONS))


@pytest.mark.parametrize("module, name, allowed",
                         [(m, n, a) for m, names in HOT.items() for n, a in names.items()],
                         ids=[f"{m[:-3]}.{n}" for m, names in HOT.items() for n in names])
def test_hot_function_builds_no_comprehension(module, name, allowed):
    found = functions((SRC / module).read_text())
    assert name in found, f"{name} is gone from {module}; update the list"
    assert comprehensions(found[name]) == sorted(allowed)


def test_the_check_sees_every_kind():
    source = ("class K:\n"
              "    def f(self, v):\n"
              "        a = [x for x in v]\n"
              "        b = {x: 1 for x in v}\n"
              "        def g():\n"
              "            return sum(x for x in v), {x for x in v}\n"
              "        return (1, 2)\n")
    found = functions(source)
    assert set(found) == {"K.f", "K.f.g"}
    assert comprehensions(found["K.f"]) == ["DictComp", "GeneratorExp", "ListComp", "SetComp"]
    assert comprehensions(found["K.f.g"]) == ["GeneratorExp", "SetComp"]

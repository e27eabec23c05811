"""No module of the package other than coord_oracle (whose sums run over
numpy arrays) uses builtin sum().  From Python 3.12 on, sum() over floats adds
with compensation, so it rounds differently from 3.11; the closed forms add
left to right or through math.fsum instead, and give the same digits on every
supported Python (tests/golden/tet_report_digits.json pins them).  Read with
ast alone."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "cevian"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "coord_oracle.py")


def builtin_sum_uses(source: str) -> list:
    """The line numbers where ``source`` reads the name ``sum``, called or
    passed on (as in ``map(sum, rows)``)."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and node.id == "sum" and isinstance(node.ctx, ast.Load)]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_no_builtin_sum(module):
    assert builtin_sum_uses((SRC / module).read_text()) == []


def test_the_check_sees_calls_and_references():
    source = "x = sum(v)\ny = map(sum, rows)\nz = math.fsum(v)\nobj.sum(v)\n"
    assert builtin_sum_uses(source) == [1, 2]

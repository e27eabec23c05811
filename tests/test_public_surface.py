"""The package's public surface: every name a module's __all__ lists
resolves, every name the benchmark in perfbench/ reads from the package
exists, the certification harness loads no second value-type mechanism, and
no argument of a wrong kind escapes a closed-form function as a bare
exception."""

import ast
import importlib
import importlib.util
import inspect
import itertools
import math
import os
import pathlib
import subprocess
import sys

import pytest

from cevian.core_model import (Components, DistanceReport, GeometryError, TetraEdges,
                               TriangleSides, _Frozen)
from goldens import PUBLIC_MODULES

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_FILES = sorted(p.name for p in (ROOT / "perfbench").glob("*.py"))


@pytest.mark.parametrize("module", PUBLIC_MODULES)
def test_star_import_resolves_every_all_entry(module):
    namespace = {}
    exec(f"from cevian.{module} import *", namespace)
    assert set(importlib.import_module(f"cevian.{module}").__all__) <= set(namespace)


def _module_named(name):
    """The cevian module ``name`` names, or None when it names no module."""
    try:
        spec = importlib.util.find_spec(name)
    except ModuleNotFoundError:
        return None
    return None if spec is None else importlib.import_module(name)


def missing_package_names(source: str) -> list:
    """The names ``source`` imports from a cevian module, or reads as an
    attribute of a name bound to one, that the module does not have."""
    tree = ast.parse(source)
    bound, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "cevian":
                    head = a.name if a.asname else a.name.split(".")[0]
                    bound[a.asname or head] = importlib.import_module(head)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cevian":
            owner = importlib.import_module(node.module)
            for a in node.names:
                sub = _module_named(f"{node.module}.{a.name}")
                if sub is not None:
                    bound[a.asname or a.name] = sub
                elif not hasattr(owner, a.name):
                    missing.append(f"{node.module}.{a.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and not hasattr(bound[node.value.id], node.attr)):
            missing.append(f"{bound[node.value.id].__name__}.{node.attr}")
    return missing


@pytest.mark.parametrize("name", BENCH_FILES)
def test_benchmark_reads_only_names_the_package_has(name):
    assert missing_package_names((ROOT / "perfbench" / name).read_text()) == []


def test_the_contract_check_sees_missing_names():
    source = ("from cevian.core_model import GeometryError, no_such_rule\n"
              "from cevian import tri_metrics, coord_oracle as oracle\n"
              "import cevian.cli\n"
              "def f():\n"
              "    tri_metrics.center_pair_table, tri_metrics.gone\n"
              "    oracle.definitional_center, oracle.gone, cevian.cli.main\n")
    assert missing_package_names(source) == ["cevian.core_model.no_such_rule",
                                             "cevian.tri_metrics.gone",
                                             "cevian.coord_oracle.gone"]


def test_the_harness_loads_no_dataclasses():
    script = "import sys, cevian.verify; print('dataclasses' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                       timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"



def _table_with_a_wrong_pair() -> list:
    """A pair table whose entry holds no pair, filled without __init__ as
    pair_table fills its own."""
    rep = object.__new__(DistanceReport)
    rep.__dict__.update(pair=None, squared_distance=1.0, distance=1.0)
    return [rep]


class _Named:
    """Not a string, but read through str() as ``name``."""

    def __init__(self, name):
        self.name = name

    def __str__(self):
        return self.name


# one argument of each wrong kind: a sequence of the wrong length, None, a
# string, NaN, an int past the float range, a negative number, either shape,
# components, a list, a pair table whose entry holds a wrong pair, objects
# that read as a vertex, a face or a center name, and components at vertex A
WRONG_KINDS = [(1, 2), None, "x", math.nan, 10 ** 400, -1.0, TriangleSides(3, 4, 5),
               TetraEdges(3, 4, 5, 5, 6, 7), Components((1, 1, 1)), [1, 2],
               _table_with_a_wrong_pair(), _Named("A"), _Named("BCD"), _Named("G"),
               Components((1, 0, 0)), Components((1, 0, 0, 0))]


def _arity(func) -> int:
    """The number of required positional parameters of ``func``."""
    return sum(p.default is p.empty and p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
               for p in inspect.signature(func).parameters.values())


# the functions that left __all__ but stay defined for perfbench/, called as
# the public ones are
RETIRED = {"tri_metrics": ["area_determinant", "center_pair_table"],
           "tet_centers": ["face_areas"], "tet_metrics": ["center_pair_table4"]}


# a valid call of each public callable of more than 3 required arguments,
# whose wrong-kind calls vary one argument at a time from it
VALID_CALLS = {"TetraEdges": (3, 4, 5, 5, 6, 7), "validate_tetrahedron": (3, 4, 5, 5, 6, 7),
               "TetMetricsSummary": (1.0, 0.5, 2.0, 1e-16)}


def _wrong_kind_calls(name, func):
    """Every combination of the wrong kinds for a callable of at most 3
    required arguments; else its valid call with one argument at a time
    replaced by each wrong kind."""
    n = _arity(func)
    if n <= 3:
        yield from itertools.product(WRONG_KINDS, repeat=n)
        return
    valid = VALID_CALLS[name]
    assert len(valid) == n
    yield valid
    for i, wrong in itertools.product(range(n), WRONG_KINDS):
        yield valid[:i] + (wrong,) + valid[i + 1:]


@pytest.mark.parametrize("module", ["core_model", "tri_centers", "tri_metrics", "tet_centers",
                                    "tet_metrics"])
def test_every_argument_kind_gives_a_result_or_a_typed_error(module):
    # every public callable, classes included, called with wrong kinds; a value
    # type the call returns must hash, as a field of the wrong kind would not
    mod, bare, calls = importlib.import_module(f"cevian.{module}"), {}, 0
    for name in mod.__all__ + RETIRED.get(module, []):
        func = getattr(mod, name)
        if not callable(func) or (isinstance(func, type) and issubclass(func, BaseException)):
            continue
        for args in _wrong_kind_calls(name, func):
            calls += 1
            try:
                value = func(*args)
                if isinstance(value, _Frozen):
                    hash(value)
            except GeometryError:
                pass
            except Exception as exc:  # the bare exception the README rules out
                bare.setdefault(name, (type(exc).__name__, args))
    assert calls > 0
    assert bare == {}

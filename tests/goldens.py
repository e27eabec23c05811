"""The golden files: each file in tests/golden/ with the function that
renders its exact bytes.

- The runs of golden_cases.CASES: what `cevian ARGV` prints on stdout, each
  run checked against its exit code.  stderr (verify's elapsed time) is not
  kept.
- Three digit ledgers, one JSON record per shape and line, each record
  opening with the shape's lengths, so a diff names the shapes whose digits
  moved.  A value is kept as the reprs of its floats, a raise as its class
  and message:
  - engine_digits.json: the distance engine and the center rule, over 32
    triangles and 32 tetrahedra;
  - tri_report_digits.json: the triangle report layer, over 37 triangles;
  - tet_report_digits.json: the tetrahedron metric layer, over 35
    tetrahedra.
- public_names.txt: one `module.name` per `__all__` entry, so a change to
  the public surface shows as a diff.

tests/test_goldens.py compares every file with its rendering byte for byte.
A change meant to keep every value leaves tests/golden/ alone; one that
moves values on purpose rewrites every file with

    PYTHONPATH=src python tests/goldens.py

and the diff of tests/golden/ then shows exactly which values moved.
"""

import contextlib
import functools
import importlib
import io
import json
import math
import os
import pathlib
import random
from unittest import mock

import cevian
from cevian.cli import RTOL_ENV_VAR, main
from cevian.core_model import (
    CENTER_KINDS,
    EDGES,
    FACES,
    VERTICES,
    GeometryError,
    PowerIncenter,
    center_components,
    circumradius,
    dist_from_circumcenter,
    dist_vertex_to_center,
    face_components_from_tetra,
    pair_table,
    validate_tetrahedron,
    validate_triangle,
)
from cevian.tet_centers import (
    concurrency_conditions,
    projection_of_center,
    tet_center_ir_tensor,
    vertex_projection_components,
)
from cevian.tet_metrics import (
    circumradius_forms,
    metrics_summary,
    tet_inequality_slacks,
    transcribed_closed_forms4,
)
from cevian.tri_centers import center_ir, euler_relation, excenter_segment_ratio
from cevian.tri_metrics import (
    ict_altitudes,
    ict_areas,
    inequality_slacks,
    k_invariant,
    transcribed_closed_forms,
)
from golden_cases import CASES, EXIT_CODES, GOLDEN_DIR

PACKAGE = pathlib.Path(cevian.__file__).parent
# the modules that declare a public surface
PUBLIC_MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if "\n__all__ = " in p.read_text())


def attempt(call):
    """What ``call()`` returns, or the GeometryError it raises."""
    try:
        return call()
    except GeometryError as exc:
        return exc


def reprs(value):
    """The reprs of a value's floats, through dicts, sequences, values with
    ``as_tuple`` (shapes, Components, IRVector3) and value types with
    fields; a GeometryError as its class and message, a string as it is."""
    if isinstance(value, GeometryError):
        return f"!{type(value).__name__}: {value}"
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): reprs(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [reprs(v) for v in value]
    if hasattr(value, "as_tuple"):
        return reprs(value.as_tuple())
    if hasattr(value, "__match_args__"):
        return {name: reprs(getattr(value, name)) for name in value.__match_args__}
    return repr(value)


def _lines(records) -> str:
    """A JSON array with one record per line."""
    return "[\n" + ",\n".join(json.dumps(reprs(rec)) for rec in records) + "\n]"


def _drawn(shapes, total, seed, draw) -> list:
    """``shapes``, then seeded draws up to ``total`` shapes; a draw that
    gives None is skipped."""
    rng, out = random.Random(seed), list(shapes)
    while len(out) < total:
        lengths = draw(rng)
        if lengths is not None:
            out.append(lengths)
    return out


def _valid(validate, lengths):
    """``lengths``, or None where ``validate`` refuses them."""
    return None if isinstance(attempt(lambda: validate(*lengths)), GeometryError) else lengths


_QGI = ("Q", "G", "I")


def _edges(points) -> tuple:
    return tuple(math.dist(points[i], points[j]) for i, j in EDGES[4])


def _unit_cube_tetrahedron(rng):
    return _valid(validate_tetrahedron, _edges([[rng.random() for _ in range(3)]
                                                for _ in range(4)]))


# --------------------------------------------------------------------------
# the CLI runs and the public names

def _cli(name) -> str:
    argv, want = CASES[name], EXIT_CODES.get(name, 0)
    out = io.StringIO()
    with (mock.patch.dict(os.environ), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(io.StringIO())):
        os.environ.pop(RTOL_ENV_VAR, None)  # the tolerances are the defaults
        code = main(list(argv))
    if code != want:
        raise AssertionError(f"cevian {' '.join(argv)} exited {code}, want {want}")
    return out.getvalue()


def _public_names() -> str:
    return "".join(f"{m}.{n}\n" for m in PUBLIC_MODULES
                   for n in importlib.import_module(f"cevian.{m}").__all__)


# --------------------------------------------------------------------------
# engine_digits.json: every center's Components, the pair table over them and
# each center's distances from the circumcenter and the vertices; for a
# tetrahedron also the faces' projections and pierce points of Q, G and I.
# The equilateral triangle, the regular tetrahedron and the isosceles
# tetrahedron have coincident centers, which take the pair distance's grain
# path.

def _engine_triangle(rng):
    a, b, c = sorted(rng.uniform(0.05, 1.0) for _ in range(3))
    return (a, b, c) if a + b > c * (1.0 + 1e-3) else None


# eight special triangles and tetrahedra, then seeded draws up to 32 of each
ENGINE_TRIANGLES = _drawn([
    (1.0, 1.0, 1.0),  # equilateral: every center coincides
    (3.0, 4.0, 5.0),  # right angle at C
    (4.3, 5.1, 6.7),
    (5.0, 5.0, 8.0),  # obtuse isosceles
    (1.0, 1.0, 1.9),  # cap
    (0.01, 1.0, 1.0),  # needle
    (3e-50, 4e-50, 5e-50),
    (3e50, 4e50, 5e50),
], 32, 20261018, _engine_triangle)

ENGINE_TETRAHEDRA = _drawn([
    (1.0,) * 6,  # regular: every center coincides
    (3.0, 4.0, 5.0, 5.0, 6.0, 7.0),
    (3.0, 3.0, 3.0, 2.0, 2.0, 2.0),
    (4.0, 5.0, 6.0, 6.0, 4.0, 5.0),  # isosceles: equal faces, so G = I
    (1.0, 1.0, 1.0, math.sqrt(2.0), math.sqrt(2.0), math.sqrt(2.0)),  # trirectangular
    (3e-30, 4e-30, 5e-30, 5e-30, 6e-30, 7e-30),
    (3e30, 4e30, 5e30, 5e30, 6e30, 7e30),
    (1.0, 1.0, 1.0, 1.0, 1.0, 1.7),  # near flat: DB is close to sqrt(3)
], 32, 20261019, _unit_cube_tetrahedron)


def _engine_record(shape) -> dict:
    n = len(shape.E)
    comps = {kind: attempt(lambda: center_components(kind, shape)) for kind in CENTER_KINDS[n]}
    found = {kind: c for kind, c in comps.items() if not isinstance(c, GeometryError)}
    rec = {"lengths": shape, "components": comps}
    rec["distances"] = {
        kind: [attempt(lambda: dist_from_circumcenter(c, shape))]
        + [attempt(lambda: dist_vertex_to_center(v, c, shape)) for v in VERTICES[:n]]
        for kind, c in found.items()
    }
    rec["pair_table"] = attempt(lambda: [[*r.pair, r.squared_distance, r.distance]
                                         for r in pair_table(found, shape)])
    if n == 4:
        rec["projections"] = {face: {kind: attempt(lambda: projection_of_center(kind, shape, face))
                                     for kind in _QGI} for face in FACES}
        rec["pierce_points"] = {face: {kind: attempt(lambda: face_components_from_tetra(c, face))
                                       for kind, c in found.items() if kind in _QGI}
                                for face in FACES}
    return rec


def engine_digits() -> str:
    triangles = (_engine_record(validate_triangle(*s)) for s in ENGINE_TRIANGLES)
    tetrahedra = (_engine_record(validate_tetrahedron(*e)) for e in ENGINE_TETRAHEDRA)
    return f'{{\n"triangles": {_lines(triangles)},\n"tetrahedra": {_lines(tetrahedra)}\n}}\n'


# --------------------------------------------------------------------------
# tri_report_digits.json: every center's cevian ratios (the seven kinds), the
# transcribed closed forms, the inequality slacks, the Euler relation, each
# center's ICT areas and altitudes, the excenter segment ratio, K, the area
# and the circumradius.

def _band_triangle(rng):
    return _valid(validate_triangle, (rng.uniform(0.05, 5.0), rng.uniform(0.05, 5.0),
                                      rng.uniform(0.05, 5.0)))


# five special triangles, then 32 seeded draws
TRI_REPORT_TRIANGLES = _drawn([
    (1.0, 1.0, 1.0),  # equilateral: every center coincides
    (3.0, 4.0, 5.0),  # right angle at C: H is C and Q's component of C vanishes
    (5.0, 5.0, 8.0),  # isosceles and obtuse
    (1.0, 1.0, 1.9),  # cap: one angle near 180 degrees
    (0.01, 1.0, 1.0),  # needle: one angle near 0
], 5 + 32, 20261020, _band_triangle)


def _tri_report_record(sides) -> dict:
    kinds = CENTER_KINDS[3]
    return {
        "lengths": sides,
        "ir": {kind: attempt(lambda: center_ir(kind, sides)) for kind in kinds},
        "forms": attempt(lambda: transcribed_closed_forms(sides)),
        "slacks": attempt(lambda: inequality_slacks(sides)),
        "euler": attempt(lambda: euler_relation(sides)),
        "ict": {kind: [attempt(lambda: ict_areas(center_components(kind, sides), sides)),
                       attempt(lambda: ict_altitudes(center_components(kind, sides), sides))]
                for kind in kinds},
        "excenter_segment_ratio": attempt(lambda: excenter_segment_ratio(sides)),
        "k_invariant": attempt(lambda: k_invariant(sides)),
        "area": attempt(lambda: sides.area),
        "circumradius": attempt(lambda: circumradius(sides)),
    }


def tri_report_digits() -> str:
    return _lines(_tri_report_record(validate_triangle(*s)) for s in TRI_REPORT_TRIANGLES) + "\n"


# --------------------------------------------------------------------------
# tet_report_digits.json: every center's per-face ratio tensor (the seven
# kinds and power:2), the transcribed closed forms, the inequality slacks,
# the three circumradius forms, the metrics summary, each face's vertex
# projection and Q/G/I projections, and the concurrency report of power:2's
# four face pierce points.

# A = (0, 0, 1) over the equilateral triangle BCD on the unit circle of the
# plane z = 0: every vertex is at distance 1 from the origin, which lies on
# face BCD, so the circumcenter's component of A vanishes
ON_FACE_POINTS = ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0),
                  (-0.5, math.sqrt(3.0) / 2.0, 0.0), (-0.5, -math.sqrt(3.0) / 2.0, 0.0))

# three special tetrahedra, then 32 seeded draws
TET_REPORT_TETRAHEDRA = _drawn([
    (1.0,) * 6,  # regular: every center coincides
    (4.0, 5.0, 6.0, 6.0, 4.0, 5.0),  # isosceles: equal faces, so G = I
    _edges(ON_FACE_POINTS),  # circumcenter on face BCD
], 3 + 32, 20261020, _unit_cube_tetrahedron)


def _tet_report_record(edges) -> dict:
    power = center_components(PowerIncenter(2.0), edges)
    return {
        "lengths": edges,
        "ir_tensors": {kind: attempt(lambda: tet_center_ir_tensor(kind, edges))
                       for kind in CENTER_KINDS[4] + ("power:2",)},
        "forms": attempt(lambda: transcribed_closed_forms4(edges)),
        "slacks": attempt(lambda: tet_inequality_slacks(edges)),
        "circumradius_forms": attempt(lambda: circumradius_forms(edges)),
        "summary": attempt(lambda: metrics_summary(edges)),
        "projections": {
            face: [attempt(lambda: vertex_projection_components(edges, face))]
            + [attempt(lambda: projection_of_center(kind, edges, face)) for kind in _QGI]
            for face in FACES
        },
        "concurrency": attempt(lambda: concurrency_conditions(
            {face: face_components_from_tetra(power, face) for face in FACES})),
    }


def tet_report_digits() -> str:
    return _lines(_tet_report_record(validate_tetrahedron(*e))
                  for e in TET_REPORT_TETRAHEDRA) + "\n"


# --------------------------------------------------------------------------

# each file in tests/golden/ -> the function that renders its text
GOLDENS = {
    **{name: functools.partial(_cli, name) for name in CASES},
    "engine_digits.json": engine_digits,
    "tri_report_digits.json": tri_report_digits,
    "tet_report_digits.json": tet_report_digits,
    "public_names.txt": _public_names,
}


def render(name) -> bytes:
    return GOLDENS[name]().encode("utf-8")


if __name__ == "__main__":
    for name in GOLDENS:
        (GOLDEN_DIR / name).write_bytes(render(name))
        print(f"wrote {GOLDEN_DIR / name}")

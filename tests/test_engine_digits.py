"""The distance engine's and the center rule's digits, pinned: for 32 seeded
triangles and 32 seeded tetrahedra, the repr of every center's Components,
of the pair table over those centers, and of each center's distances from
the circumcenter and the vertices; for a tetrahedron also the faces'
projections and pierce points of Q, G and I.  A raise is recorded as its class
and message.  The shapes include the equilateral triangle, the regular
tetrahedron and an isosceles tetrahedron, whose coincident centers take
the pair distance's grain path, and a right triangle.

A change that keeps the engine's arithmetic must leave
tests/golden/engine_digits.json alone; one that moves digits on purpose
regenerates it with

    PYTHONPATH=src python tests/test_engine_digits.py
"""

import json
import math
import pathlib
import random

from cevian.core_model import (
    CENTER_KINDS,
    FACES,
    GeometryError,
    VERTICES,
    center_components,
    dist_from_circumcenter,
    dist_vertex_to_center,
    face_components_from_tetra,
    pair_table,
    validate_tetrahedron,
    validate_triangle,
)
from cevian.tet_centers import projection_of_center

GOLDEN = pathlib.Path(__file__).parent / "golden" / "engine_digits.json"

SPECIAL_TRIANGLES = [
    (1.0, 1.0, 1.0),  # equilateral: every center coincides
    (3.0, 4.0, 5.0),  # right angle at C
    (4.3, 5.1, 6.7),
    (5.0, 5.0, 8.0),  # obtuse isosceles
    (1.0, 1.0, 1.9),  # cap
    (0.01, 1.0, 1.0),  # needle
    (3e-50, 4e-50, 5e-50),
    (3e50, 4e50, 5e50),
]

SPECIAL_TETRAHEDRA = [
    (1.0,) * 6,  # regular: every center coincides
    (3.0, 4.0, 5.0, 5.0, 6.0, 7.0),
    (3.0, 3.0, 3.0, 2.0, 2.0, 2.0),
    (4.0, 5.0, 6.0, 6.0, 4.0, 5.0),  # isosceles: equal faces, so G = I
    (1.0, 1.0, 1.0, math.sqrt(2.0), math.sqrt(2.0), math.sqrt(2.0)),  # trirectangular
    (3e-30, 4e-30, 5e-30, 5e-30, 6e-30, 7e-30),
    (3e30, 4e30, 5e30, 5e30, 6e30, 7e30),
    (1.0, 1.0, 1.0, 1.0, 1.0, 1.7),  # near flat: DB is close to sqrt(3)
]


def _triangles():
    rng = random.Random(20261018)
    out = list(SPECIAL_TRIANGLES)
    while len(out) < 32:
        a, b, c = sorted(rng.uniform(0.05, 1.0) for _ in range(3))
        if a + b > c * (1.0 + 1e-3):
            out.append((a, b, c))
    return out


def _tetrahedra():
    rng = random.Random(20261019)
    out = list(SPECIAL_TETRAHEDRA)
    while len(out) < 32:
        p = [[rng.random() for _ in range(3)] for _ in range(4)]
        edges = tuple(math.dist(p[i], p[j]) for i, j in ((0, 1), (0, 2), (0, 3),
                                                         (1, 2), (2, 3), (3, 1)))
        try:
            validate_tetrahedron(*edges)
        except GeometryError:
            continue
        out.append(edges)
    return out


def _raised(exc) -> str:
    return f"!{type(exc).__name__}: {exc}"


def _reprs(call):
    """The reprs of what ``call()`` returns (a Components, a float or a
    sequence of floats), or its GeometryError as class and message."""
    try:
        value = call()
    except GeometryError as exc:
        return _raised(exc)
    if hasattr(value, "as_tuple"):
        value = value.as_tuple()
    return [repr(v) for v in value] if isinstance(value, (tuple, list)) else repr(value)


def _record(shape) -> dict:
    n = len(shape.E)
    comps, rec = {}, {"lengths": [repr(x) for x in shape.as_tuple()], "components": {}}
    for kind in CENTER_KINDS[n]:
        try:
            comps[kind] = center_components(kind, shape)
        except GeometryError as exc:
            rec["components"][kind] = _raised(exc)
            continue
        rec["components"][kind] = _reprs(lambda: comps[kind])
    rec["distances"] = {
        kind: [_reprs(lambda: dist_from_circumcenter(c, shape))]
        + [_reprs(lambda: dist_vertex_to_center(v, c, shape)) for v in VERTICES[:n]]
        for kind, c in comps.items()
    }
    try:
        rec["pair_table"] = [[k1, k2, repr(r.squared_distance), repr(r.distance)]
                             for r in pair_table(comps, shape) for k1, k2 in (r.pair,)]
    except GeometryError as exc:
        rec["pair_table"] = _raised(exc)
    if n == 4:
        rec["projections"] = {face: {kind: _reprs(lambda: projection_of_center(kind, shape, face))
                                     for kind in ("Q", "G", "I")} for face in FACES}
        rec["pierce_points"] = {face: {kind: _reprs(lambda: face_components_from_tetra(c, face))
                                       for kind, c in comps.items() if kind in ("Q", "G", "I")}
                                for face in FACES}
    return rec


def render() -> dict:
    return {
        "triangles": [_record(validate_triangle(*s)) for s in _triangles()],
        "tetrahedra": [_record(validate_tetrahedron(*e)) for e in _tetrahedra()],
    }


def test_engine_digits_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = render()
    for kind in ("triangles", "tetrahedra"):
        assert len(got[kind]) == len(want[kind]) == 32
        for i, (g, w) in enumerate(zip(got[kind], want[kind])):
            assert g == w, f"{kind}[{i}] with lengths {w['lengths']} moved"


def test_golden_covers_the_coincident_center_and_right_angle_paths():
    want = json.loads(GOLDEN.read_text())
    equilateral, right = want["triangles"][0], want["triangles"][1]
    regular = want["tetrahedra"][0]
    for rec in (equilateral, regular):
        assert {r[3] for r in rec["pair_table"] if "E_" not in r[0] + r[1]} == {"0.0"}
    assert right["components"]["H"] == ["0.0", "0.0", "1.0"]


if __name__ == "__main__":
    # one line per shape, so a diff names the shapes whose digits moved
    GOLDEN.write_text("{\n" + ",\n".join(
        f'"{kind}": [\n' + ",\n".join(json.dumps(rec) for rec in recs) + "\n]"
        for kind, recs in render().items()) + "\n}\n")
    print(f"wrote {GOLDEN}")

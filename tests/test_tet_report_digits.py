"""The tetrahedron metric layer's digits, pinned: for 32 seeded tetrahedra,
plus the regular one, an isosceles one and one whose circumcenter lies on a
face, the repr of every center's per-face ratio tensor (the seven kinds and
power:2), the transcribed closed forms, the inequality slacks, the three
circumradius forms, the metrics summary, each face's vertex projection and
Q/G/I projections, and the concurrency report of power:2's four face pierce
points.  A raise is recorded as its class and message.

A change that keeps the metric layer's arithmetic must leave
tests/golden/tet_report_digits.json alone; one that moves digits on purpose
regenerates it with

    PYTHONPATH=src python tests/test_tet_report_digits.py
"""

import json
import math
import pathlib
import random

from cevian.core_model import (
    FACES,
    GeometryError,
    PowerIncenter,
    face_components_from_tetra,
    validate_tetrahedron,
)
from cevian.tet_centers import (
    TET_CENTER_KINDS,
    concurrency_conditions,
    projection_of_center,
    tet_center_components,
    tet_center_ir_tensor,
    vertex_projection_components,
)
from cevian.tet_metrics import (
    circumradius_forms,
    metrics_summary,
    tet_inequality_slacks,
    transcribed_closed_forms4,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "tet_report_digits.json"

KINDS = TET_CENTER_KINDS + ("power:2",)

# A = (0, 0, 1) over the equilateral triangle BCD on the unit circle of the
# plane z = 0: every vertex is at distance 1 from the origin, which lies on
# face BCD, so the circumcenter's component of A vanishes
ON_FACE_POINTS = ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0),
                  (-0.5, math.sqrt(3.0) / 2.0, 0.0), (-0.5, -math.sqrt(3.0) / 2.0, 0.0))

EDGE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1))


def _edges(points) -> tuple:
    return tuple(math.dist(points[i], points[j]) for i, j in EDGE_PAIRS)


SPECIAL_TETRAHEDRA = [
    (1.0,) * 6,  # regular: every center coincides
    (4.0, 5.0, 6.0, 6.0, 4.0, 5.0),  # isosceles: equal faces, so G = I
    _edges(ON_FACE_POINTS),  # circumcenter on face BCD
]


def _tetrahedra():
    rng = random.Random(20261020)
    out = list(SPECIAL_TETRAHEDRA)
    while len(out) < len(SPECIAL_TETRAHEDRA) + 32:
        edges = _edges([[rng.random() for _ in range(3)] for _ in range(4)])
        try:
            validate_tetrahedron(*edges)
        except GeometryError:
            continue
        out.append(edges)
    return out


def _reprs(value):
    """The reprs of a value's floats, through dicts, sequences, Components,
    IRVector3 and the metrics summary."""
    if isinstance(value, dict):
        return {str(k): _reprs(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_reprs(v) for v in value]
    if hasattr(value, "as_tuple"):
        return _reprs(value.as_tuple())
    if hasattr(value, "__match_args__"):
        return {name: _reprs(getattr(value, name)) for name in value.__match_args__}
    return repr(value)


def _call(call):
    """_reprs of what ``call()`` returns, or its GeometryError as class and
    message."""
    try:
        return _reprs(call())
    except GeometryError as exc:
        return f"!{type(exc).__name__}: {exc}"


def _record(edges) -> dict:
    rec = {"lengths": [repr(x) for x in edges.as_tuple()]}
    rec["ir_tensors"] = {kind: _call(lambda: tet_center_ir_tensor(kind, edges)) for kind in KINDS}
    rec["forms"] = _call(lambda: transcribed_closed_forms4(edges))
    rec["slacks"] = _call(lambda: tet_inequality_slacks(edges))
    rec["circumradius_forms"] = _call(lambda: circumradius_forms(edges))
    rec["summary"] = _call(lambda: metrics_summary(edges))
    rec["projections"] = {
        face: [_call(lambda: vertex_projection_components(edges, face))]
        + [_call(lambda: projection_of_center(kind, edges, face)) for kind in "QGI"]
        for face in FACES
    }
    power = tet_center_components(PowerIncenter(2.0), edges)
    rec["concurrency"] = _call(lambda: concurrency_conditions(
        {face: face_components_from_tetra(power, face) for face in FACES}))
    return rec


def render() -> list:
    return [_record(validate_tetrahedron(*e)) for e in _tetrahedra()]


def test_tet_report_digits_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = render()
    assert len(got) == len(want) == len(SPECIAL_TETRAHEDRA) + 32
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"tetrahedron {i} with lengths {w['lengths']} moved"


def test_golden_covers_coincident_centers_and_a_circumcenter_on_a_face():
    want = json.loads(GOLDEN.read_text())
    regular, isosceles, on_face = want[:3]
    assert all(regular["forms"][k] == "0.0" for k in ("QG", "QI", "GI", "GQ", "IQ"))
    assert isosceles["forms"]["GI"] == "0.0" and isosceles["slacks"]["GI"] == "-0.0"
    assert on_face["ir_tensors"]["Q"].startswith("!ZeroComponent: component of A ~ 0")
    assert all(isinstance(t, dict) for k, t in on_face["ir_tensors"].items() if k != "Q")


if __name__ == "__main__":
    # one line per tetrahedron, so a diff names the shapes whose digits moved
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(rec) for rec in render()) + "\n]\n")
    print(f"wrote {GOLDEN}")

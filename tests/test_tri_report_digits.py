"""The triangle report layer's digits, pinned: for 32 seeded band triangles,
plus the equilateral one, the right triangle (3, 4, 5), the isosceles
(5, 5, 8), the cap (1, 1, 1.9) and the needle (0.01, 1, 1), the repr of
every center's cevian ratios (the seven kinds), the transcribed closed
forms, the inequality slacks, the Euler relation, each center's ICT areas
and altitudes, the excenter segment ratio, K, the area and the circumradius.
A raise is recorded as its class and message.

A change that keeps the triangle layer's arithmetic must leave
tests/golden/tri_report_digits.json alone; one that moves digits on purpose
regenerates it with

    PYTHONPATH=src python tests/test_tri_report_digits.py
"""

import json
import pathlib
import random

from cevian.core_model import (
    CENTER_KINDS,
    GeometryError,
    center_components,
    circumradius,
    validate_triangle,
)
from cevian.tri_centers import center_ir, euler_relation, excenter_segment_ratio
from cevian.tri_metrics import (
    ict_altitudes,
    ict_areas,
    inequality_slacks,
    k_invariant,
    transcribed_closed_forms,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "tri_report_digits.json"

SPECIAL_TRIANGLES = [
    (1.0, 1.0, 1.0),  # equilateral: every center coincides
    (3.0, 4.0, 5.0),  # right angle at C: H is C and Q's component of C vanishes
    (5.0, 5.0, 8.0),  # isosceles and obtuse
    (1.0, 1.0, 1.9),  # cap: one angle near 180 degrees
    (0.01, 1.0, 1.0),  # needle: one angle near 0
]


def _triangles():
    rng = random.Random(20261020)
    out = list(SPECIAL_TRIANGLES)
    while len(out) < len(SPECIAL_TRIANGLES) + 32:
        sides = (rng.uniform(0.05, 5.0), rng.uniform(0.05, 5.0), rng.uniform(0.05, 5.0))
        try:
            validate_triangle(*sides)
        except GeometryError:
            continue
        out.append(sides)
    return out


def _reprs(value):
    """The reprs of a value's floats, through dicts, sequences and IRVector3."""
    if isinstance(value, dict):
        return {str(k): _reprs(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_reprs(v) for v in value]
    if hasattr(value, "as_tuple"):
        return _reprs(value.as_tuple())
    return repr(value)


def _call(call):
    """_reprs of what ``call()`` returns, or its GeometryError as class and
    message."""
    try:
        return _reprs(call())
    except GeometryError as exc:
        return f"!{type(exc).__name__}: {exc}"


def _record(sides) -> dict:
    rec = {"lengths": [repr(x) for x in sides.as_tuple()]}
    rec["ir"] = {kind: _call(lambda: center_ir(kind, sides)) for kind in CENTER_KINDS[3]}
    rec["forms"] = _call(lambda: transcribed_closed_forms(sides))
    rec["slacks"] = _call(lambda: inequality_slacks(sides))
    rec["euler"] = _call(lambda: euler_relation(sides))
    rec["ict"] = {kind: [_call(lambda: ict_areas(center_components(kind, sides), sides)),
                         _call(lambda: ict_altitudes(center_components(kind, sides), sides))]
                  for kind in CENTER_KINDS[3]}
    rec["excenter_segment_ratio"] = _call(lambda: excenter_segment_ratio(sides))
    rec["k_invariant"] = _call(lambda: k_invariant(sides))
    rec["area"] = _call(lambda: sides.area)
    rec["circumradius"] = _call(lambda: circumradius(sides))
    return rec


def render() -> list:
    return [_record(validate_triangle(*s)) for s in _triangles()]


def test_tri_report_digits_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = render()
    assert len(got) == len(want) == len(SPECIAL_TRIANGLES) + 32
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"triangle {i} with lengths {w['lengths']} moved"


def test_golden_covers_a_right_angle_and_coincident_centers():
    want = json.loads(GOLDEN.read_text())
    equilateral, right = want[:2]
    assert right["ir"]["H"].startswith("!RightAngleOrthocenter: ")
    assert right["ir"]["Q"].startswith("!ZeroComponent: ")
    assert all(isinstance(right["ir"][k], list) for k in CENTER_KINDS[3] if k not in "HQ")
    assert [equilateral["slacks"][k] for k in ("GI", "GH", "IH")] == ["-0.0"] * 3


if __name__ == "__main__":
    # one line per triangle, so a diff names the shapes whose digits moved
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(rec) for rec in render()) + "\n]\n")
    print(f"wrote {GOLDEN}")

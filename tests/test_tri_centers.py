import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from cevian.core_model import (
    CENTER_KINDS,
    GeometryError,
    RightAngleOrthocenter,
    ZeroComponent,
    components_from_ir3,
    validate_triangle,
)
from cevian import coord_oracle as oracle
from cevian.tri_centers import (
    TRI_CENTER_KINDS,
    center_components,
    center_ir,
    euler_relation,
    excenter_segment_ratio,
)
from goldens import attempt, reprs

R345 = validate_triangle(3, 4, 5)
EQUI = validate_triangle(2, 2, 2)
SCALENE = validate_triangle(4, 6, 7)

TRIANGLES = [
    R345, EQUI, SCALENE,
    validate_triangle(0.3, 0.4, 0.5),
    validate_triangle(5, 5, 6),
    validate_triangle(2, 3, 4),
]


def test_known_components_on_345():
    assert center_components("G", R345).as_tuple() == (1 / 3, 1 / 3, 1 / 3)
    assert center_components("I", R345).as_tuple() == pytest.approx(
        (0.25, 1 / 3, 5 / 12))
    # right angle at C puts the orthocenter exactly at C and the circumcenter
    # at the midpoint of AB; the polynomial weights hit those exactly
    assert center_components("H", R345).as_tuple() == (0.0, 0.0, 1.0)
    assert center_components("Q", R345).as_tuple() == (0.5, 0.5, 0.0)


def test_excenter_components_sign_pattern():
    ea = center_components("E_A", R345).as_tuple()
    assert ea == pytest.approx((-0.5, 2 / 3, 5 / 6))
    for kind, idx in (("E_A", 0), ("E_B", 1), ("E_C", 2)):
        comps = center_components(kind, R345).as_tuple()
        assert comps[idx] < 0
        assert sum(comps) == pytest.approx(1.0)


def test_unknown_kind_rejected():
    with pytest.raises(GeometryError, match="unknown triangle center"):
        center_components("X", R345)


@pytest.mark.parametrize("sides", TRIANGLES)
@pytest.mark.parametrize("kind", TRI_CENTER_KINDS)
def test_components_realize_definitional_centers(sides, kind):
    tri = oracle.embed_triangle(sides)
    realized = oracle.point_from_components(tri, center_components(kind, sides))
    want = oracle.definitional_center(tri, kind)
    assert np.linalg.norm(realized - want) < 1e-12 + 1e-9 * sides.perimeter


def test_incenter_ir_is_side_quotients():
    ir = center_ir("I", SCALENE)
    a, b, c = SCALENE.as_tuple()
    assert ir.as_tuple() == pytest.approx((b / a, c / b, a / c))


@pytest.mark.parametrize("kind, want", [
    ("I", (1e12, 1.0, 1e-12)),
    ("E_A", (-1e12, 1.0, -1e-12)),
])
def test_side_quotient_ratios_do_not_depend_on_the_scale(kind, want):
    # a side of 1e-12 is a valid length, not a vanishing weight: the ratios
    # are the exact side quotients, as for the same triangle scaled up
    assert center_ir(kind, validate_triangle(1e-12, 1, 1)).as_tuple() == want
    scaled = center_ir(kind, validate_triangle(1e-9, 1e3, 1e3)).as_tuple()
    assert scaled == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("sides", [SCALENE, EQUI, validate_triangle(2, 3, 4)])
@pytest.mark.parametrize("kind", TRI_CENTER_KINDS)
def test_ir_consistent_with_components(sides, kind):
    try:
        ir = center_ir(kind, sides)
    except (RightAngleOrthocenter, ZeroComponent):
        pytest.skip("ratio vector undefined here")
    assert ir.lambda_ab * ir.lambda_bc * ir.lambda_ca == pytest.approx(1.0)
    via = components_from_ir3(ir)
    direct = center_components(kind, sides)
    for x, y in zip(via.as_tuple(), direct.as_tuple()):
        assert x == pytest.approx(y, abs=1e-12)


def test_right_angle_makes_ratio_vectors_degenerate():
    # H sits at vertex C, so its cevian ratios blow up; Q lands on side AB
    with pytest.raises(RightAngleOrthocenter):
        center_ir("H", R345)
    with pytest.raises(ZeroComponent):
        center_ir("Q", R345)


def test_euler_line_ratio():
    out = euler_relation(SCALENE)
    assert out["gh_over_gq"] == pytest.approx(-2.0, abs=1e-12)
    assert out["collinearity_residual"] < 1e-12 * SCALENE.perimeter


def test_euler_relation_degenerate_at_equilateral():
    # G = H = Q: the ratio is reported by convention, the residual vanishes
    out = euler_relation(EQUI)
    assert out["gh_over_gq"] == -2.0
    assert out["collinearity_residual"] == 0.0


def test_euler_relation_fits_just_above_its_coincidence_floors():
    # G and Q are 1.005e-14 apart in components and their squared distance
    # there is 1.52e-28: above each floor (1e-14, 1e-28) and below its double,
    # so the fit runs and reads its rounding, not the coincident -2.0
    ratio = euler_relation(validate_triangle(1, 1, 1 + 2.26e-14))["gh_over_gq"]
    assert ratio != -2.0 and abs(ratio + 2.0) < 1e-4


def test_excenter_segment_ratio_values():
    assert excenter_segment_ratio(R345) == pytest.approx(0.5)
    assert excenter_segment_ratio(EQUI) == pytest.approx(1 / 3)


def _weights(kind, sides):
    """The reprs of the kind's weights on the triangle with ``sides``, or the
    type of the GeometryError it raises."""
    got = attempt(lambda: center_components(kind, validate_triangle(*sides)))
    return type(got) if isinstance(got, GeometryError) else reprs(got)


_SIDE = st.floats(1e-3, 1e3)


@given(st.tuples(_SIDE, _SIDE, _SIDE))
@example((3.0, 4.0, 5.0))  # H and Q at the right angle
@example((0.3, 0.3, 0.3))
@example((1.0, 2.0, 3.0))  # flat: no triangle
def test_relabelling_the_sides_permutes_every_center_bitwise(sides):
    # side i is opposite vertex i, so listing the sides in the order sigma
    # moves vertex sigma[i] to i: every center's weights move with it, and
    # E_X is the excenter at the vertex that X now names
    kinds = CENTER_KINDS[3]
    before = {kind: _weights(kind, sides) for kind in kinds}
    for sigma in itertools.permutations(range(3)):
        relabelled = tuple(sides[i] for i in sigma)
        for kind in kinds:
            want = before[kind if kind[0] != "E" else "E_" + "ABC"[sigma["ABC".index(kind[2])]]]
            if not isinstance(want, type):
                want = [want[i] for i in sigma]
            assert _weights(kind, relabelled) == want, (sides, sigma, kind)

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cevian.core_model import (
    CENTER_KINDS,
    Components,
    GeometryError,
    UnitComponent,
    _user_slacks,
    center_components,
    circumradius,
    dist_between_centers,
    dist_from_circumcenter,
    dist_origin_to_center,
    dist_vertex_to_center,
    dist_vertex_to_foot,
    pair_table,
    validate_triangle,
)
from cevian import coord_oracle as oracle, verify
from cevian.tri_metrics import (
    ict_altitudes,
    ict_areas,
    inequality_slacks,
    k_invariant,
    transcribed_closed_forms,
)

R345 = validate_triangle(3, 4, 5)
EQUI = validate_triangle(2, 2, 2)
SCALENE = validate_triangle(4, 6, 7)


def _center_pair_table(shape):
    """The 21-pair distance table over every named center of the shape."""
    kinds = CENTER_KINDS[len(shape.E)]
    return pair_table({k: center_components(k, shape) for k in kinds}, shape)


def test_basic_invariants_345():
    assert k_invariant(R345) == pytest.approx(576.0)       # 16 * area^2
    assert R345.area == pytest.approx(6.0)
    assert circumradius(R345) == pytest.approx(2.5)


def test_distance_engine_known_values():
    comps = {k: center_components(k, R345) for k in CENTER_KINDS[3]}
    gi = dist_between_centers(comps["G"], comps["I"], R345)
    assert gi == pytest.approx(1 / 3, rel=1e-12)
    qi = dist_between_centers(comps["Q"], comps["I"], R345)
    assert qi == pytest.approx(math.sqrt(1.25), rel=1e-12)
    # right angle: Q at the midpoint of the hypotenuse, H at C, so QH = R
    qh = dist_between_centers(comps["Q"], comps["H"], R345)
    assert qh == pytest.approx(2.5, rel=1e-12)


def test_vertex_and_foot_distances():
    g = center_components("G", R345)
    # A -> foot of the A-cevian through G = the midpoint of BC
    assert dist_vertex_to_foot("A", g, R345) == pytest.approx(
        0.5 * math.sqrt(73), rel=1e-12)
    # AG cuts the median 2:1
    assert dist_vertex_to_center("A", g, R345) == pytest.approx(
        math.sqrt(73) / 3, rel=1e-12)
    i = center_components("I", R345)
    assert dist_vertex_to_center("C", i, R345) == pytest.approx(
        math.sqrt(2), rel=1e-12)


def test_foot_undefined_when_component_is_one():
    h = center_components("H", R345)  # alpha_C = 1: the cevian degenerates
    with pytest.raises(UnitComponent):
        dist_vertex_to_foot("C", h, R345)


def test_circumcenter_distance_agrees_with_pair_engine():
    comps = {k: center_components(k, R345) for k in ("Q", "I")}
    direct = dist_from_circumcenter(comps["I"], R345)
    via_pair = dist_between_centers(comps["Q"], comps["I"], R345)
    assert direct == pytest.approx(via_pair, rel=1e-12)


def test_origin_form_matches_vertex_form():
    i = center_components("I", R345)
    # origin at vertex A: distances to (A, B, C) are (0, c, b)
    d = dist_origin_to_center((0.0, 5.0, 4.0), i, R345)
    assert d == pytest.approx(dist_vertex_to_center("A", i, R345), rel=1e-12)
    # any iterable of distances, read once
    assert dist_origin_to_center(iter([0.0, 5.0, 4.0]), i, R345) == d


def test_pair_table_covers_all_21_pairs_and_matches_oracle():
    table = _center_pair_table(SCALENE)
    assert len(table) == 21
    tri = oracle.embed_triangle(SCALENE)
    pts = {k: oracle.definitional_center(tri, k) for k in CENTER_KINDS[3]}
    for rep in table:
        want = float(np.linalg.norm(pts[rep.pair[0]] - pts[rep.pair[1]]))
        assert rep.distance == pytest.approx(want, abs=1e-12 + 1e-9 * 17.0)
        assert rep.squared_distance == pytest.approx(rep.distance ** 2)


def test_incenter_subareas_and_altitudes():
    i = center_components("I", R345)
    areas = ict_areas(i, R345)
    assert areas == pytest.approx(
        {"s_abp": 2.5, "s_bcp": 1.5, "s_cap": 2.0})
    assert sum(areas.values()) == pytest.approx(6.0)
    # every altitude from the incenter is the inradius
    alts = ict_altitudes(i, R345)
    assert list(alts.values()) == pytest.approx([1.0, 1.0, 1.0])


def test_centroid_altitudes_are_third_of_triangle_altitudes():
    g = center_components("G", R345)
    alts = ict_altitudes(g, R345)
    assert alts["h_bc"] == pytest.approx(4.0 / 3)
    assert alts["h_ca"] == pytest.approx(1.0)
    assert alts["h_ab"] == pytest.approx(0.8)


def test_inequality_slacks_on_345():
    slacks = inequality_slacks(R345)
    assert slacks["QG"] == pytest.approx(6.25 - 50.0 / 9, rel=1e-12)
    assert slacks["QI"] == pytest.approx(1.25, rel=1e-12)
    assert slacks["QH"] == pytest.approx(6.25, rel=1e-12)
    assert slacks["GI"] == pytest.approx(144.0, rel=1e-12)
    assert all(v >= 0 for v in slacks.values())


def test_slacks_vanish_at_equilateral():
    for key, slack in inequality_slacks(EQUI).items():
        assert abs(slack) < 1e-9, key


sides_strategy = st.tuples(
    st.floats(min_value=0.2, max_value=5.0),
    st.floats(min_value=0.2, max_value=5.0),
    st.floats(min_value=0.2, max_value=5.0),
).filter(lambda t: t[0] + t[1] > t[2] * 1.01
         and t[1] + t[2] > t[0] * 1.01
         and t[2] + t[0] > t[1] * 1.01)


@given(sides_strategy)
def test_slacks_never_negative(raw):
    sides = validate_triangle(*raw)
    scale = sides.perimeter ** 4
    # as computed: the rounding window is far wider than this at scale
    for key, (slack, _) in _user_slacks(sides).items():
        assert slack >= -1e-12 * max(1.0, scale), key


@given(sides_strategy)
def test_transcribed_forms_match_engine(raw):
    """Compared on squared distances: near coincident centers (equilateral
    QG, QI) the square root turns one ulp under the radical into ~1e-8, so a
    plain relative test on the roots is meaningless there."""
    sides = validate_triangle(*raw)
    comps = {k: center_components(k, sides) for k in CENTER_KINDS[3]}
    forms = transcribed_closed_forms(sides)
    pairs = {"IE_A": ("I", "E_A"), "IE_B": ("I", "E_B"), "IE_C": ("I", "E_C"),
             "E_AE_B": ("E_A", "E_B"), "E_BE_C": ("E_B", "E_C"),
             "E_CE_A": ("E_C", "E_A"), "QG": ("Q", "G"), "QI": ("Q", "I")}
    scale2 = sides.perimeter ** 2
    for key, (k1, k2) in pairs.items():
        d2 = dist_between_centers(comps[k1], comps[k2], sides) ** 2
        f2 = forms[key] ** 2
        assert abs(d2 - f2) <= 1e-9 * max(d2, f2) + 1e-13 * scale2, key


def test_equilateral_excenter_spacing():
    forms = transcribed_closed_forms(EQUI)
    assert forms["E_AE_B"] == pytest.approx(4.0, rel=1e-12)  # = 2a


def test_pair_table_on_equilateral_triangles():
    # G, I, H and Q coincide; their differences are pure rounding noise,
    # which the table must clamp to zero instead of raising
    rng = np.random.default_rng(3)
    for side in rng.uniform(0.05, 5.0, size=2000):
        sides = validate_triangle(side, side, side)
        for rep in _center_pair_table(sides):
            if set(rep.pair) <= {"G", "I", "H", "Q"}:
                assert rep.distance <= 1e-12 * side, rep
            else:
                assert rep.distance > 0.5 * side, rep


def test_mismatched_arity_is_a_typed_error():
    with pytest.raises(GeometryError):
        dist_from_circumcenter(Components((0.1, 0.2, 0.3, 0.4)), R345)


def test_each_slack_factor_clears_its_squared_distance():
    # a slack is c^2 * d^2 for the distance d of its pair of centers, on the
    # unit shape, and its rounding window scales with the same c^2: on a
    # seeded sample of verify's band, leaving out pairs whose centers coincide
    rng = np.random.default_rng(198)
    sample = [s for s in (verify._random_triangle(rng) for _ in range(64)) if s is not None]
    assert len(sample) > 48
    for sides in sample:
        for name, (slack, c) in sides._slacks.items():
            d = math.ldexp(dist_between_centers(center_components(name[0], sides),
                                                center_components(name[1], sides), sides),
                           -sides._k)
            if d > 0.0:
                assert slack == pytest.approx(c * c * d * d, rel=1e-9), (name, sides)


@pytest.mark.parametrize("sides", [(0.5733979450979236, 0.8629263007232576, 0.2895283556253341),
                                   (0.4823237887878221, 0.2038862833549737, 0.6862100721427957)])
def test_a_transcribed_form_with_a_zero_denominator_raises(sides):
    # p - b (first) and p - c (second) round to 0.0, although c + a - b and
    # a + b - c are positive: the forms divide by them
    with pytest.raises(GeometryError, match="zero denominator"):
        transcribed_closed_forms(validate_triangle(*sides))

import math
from itertools import combinations

import numpy as np
import pytest

from cevian.core_model import (
    ATOL,
    CENTER_KINDS,
    Components,
    GeometryError,
    PowerIncenter,
    _user_slacks,
    _windowed,
    center_components,
    circumradius,
    dist_between_centers,
    dist_from_circumcenter,
    dist_vertex_to_center,
    dist_vertex_to_foot,
    pair_table,
    validate_tetrahedron,
)
from cevian import coord_oracle as oracle, core_model, verify
from cevian.tet_metrics import (
    circumradius_forms,
    crelle_check,
    inradius,
    metrics_summary,
    tet_inequality_slacks,
    transcribed_closed_forms4,
    volume,
)

REGULAR = validate_tetrahedron(1, 1, 1, 1, 1, 1)
PYRAMID = validate_tetrahedron(3, 3, 3, 2, 2, 2)
IRREGULAR = validate_tetrahedron(3, 4, 5, 5, 6, 7)
CORPUS = [REGULAR, PYRAMID, IRREGULAR, validate_tetrahedron(2, 2, 2, 3, 2, 3)]


def _center_pair_table(shape):
    """The 21-pair distance table over every named center of the shape."""
    kinds = CENTER_KINDS[len(shape.E)]
    return pair_table({k: center_components(k, shape) for k in kinds}, shape)


def test_regular_metrics_are_the_textbook_values():
    assert volume(REGULAR) == pytest.approx(math.sqrt(2) / 12, rel=1e-12)
    assert inradius(REGULAR) == pytest.approx(math.sqrt(6) / 12, rel=1e-12)
    assert circumradius(REGULAR) == pytest.approx(math.sqrt(6) / 4, rel=1e-12)


def cayley_menger_volume(edges):
    """Independent volume via the 5x5 bordered determinant of squared
    distances."""
    ab, ac, ad, bc, cd, db = (x * x for x in edges.as_tuple())
    m = np.array([
        [0, 1, 1, 1, 1],
        [1, 0, ab, ac, ad],
        [1, ab, 0, bc, db],
        [1, ac, bc, 0, cd],
        [1, ad, db, cd, 0],
    ], dtype=float)
    return math.sqrt(np.linalg.det(m) / 288.0)


@pytest.mark.parametrize("edges", CORPUS)
def test_volume_matches_cayley_menger(edges):
    assert volume(edges) == pytest.approx(cayley_menger_volume(edges),
                                          rel=1e-10)


@pytest.mark.parametrize("edges", CORPUS)
def test_volume_inradius_surface_relation(edges):
    assert 3.0 * volume(edges) == pytest.approx(
        inradius(edges) * edges.face_areas.s, rel=1e-12)


@pytest.mark.parametrize("edges", CORPUS)
def test_circumradius_forms_agree(edges):
    forms = circumradius_forms(edges)
    vals = list(forms.values())
    assert len(forms) == 3
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], rel=1e-10)
    assert crelle_check(edges) < 1e-10


@pytest.mark.parametrize("edges", CORPUS)
def test_summary_vs_oracle(edges):
    tet = oracle.embed_tetra(edges)
    s = metrics_summary(edges)
    mat = np.column_stack(tet.vertices[1:] - tet.vertices[0])
    assert s.volume == pytest.approx(abs(np.linalg.det(mat)) / 6.0, rel=1e-10)
    q = oracle.definitional_center(tet, "Q")
    assert s.circumradius == pytest.approx(np.linalg.norm(q - tet.vertices[0]),
                                           rel=1e-10)
    assert s.crelle_residual < 1e-10


def test_u_polynomial_is_volume_squared_scaled():
    for edges in CORPUS:
        assert edges.circum_aux.u == pytest.approx(
            144.0 * volume(edges) ** 2, rel=1e-11)


def test_vertex_distance_pyramid():
    g = center_components("G", PYRAMID)
    assert dist_vertex_to_center("A", g, PYRAMID) == pytest.approx(
        math.sqrt(69) / 4, rel=1e-12)


def test_vertex_distance_regular_reaches_circumradius():
    g = center_components("G", REGULAR)
    for v in "ABCD":
        assert dist_vertex_to_center(v, g, REGULAR) == pytest.approx(
            math.sqrt(6) / 4, rel=1e-12)


def test_foot_distances_complement_vertex_distances():
    # the center divides its cevian so that (vertex->center) / (vertex->foot)
    # equals one minus the vertex component
    i = center_components("I", IRREGULAR)
    for idx, v in enumerate("ABCD"):
        ap = dist_vertex_to_center(v, i, IRREGULAR)
        af = dist_vertex_to_foot(v, i, IRREGULAR)
        assert ap / af == pytest.approx(1.0 - i.weights[idx], rel=1e-10)


def test_circum_distance_engine_agreement():
    i = center_components("I", IRREGULAR)
    q = center_components("Q", IRREGULAR)
    assert dist_from_circumcenter(i, IRREGULAR) == pytest.approx(
        dist_between_centers(q, i, IRREGULAR), rel=1e-11)


def test_pair_table_covers_and_matches_oracle():
    table = _center_pair_table(IRREGULAR)
    assert len(table) == 21
    tet = oracle.embed_tetra(IRREGULAR)
    pts = {k: oracle.definitional_center(tet, k) for k in CENTER_KINDS[4]}
    emax = max(IRREGULAR.as_tuple())
    for rep in table:
        want = float(np.linalg.norm(pts[rep.pair[0]] - pts[rep.pair[1]]))
        assert rep.distance == pytest.approx(want, abs=1e-12 + 1e-9 * emax)


def test_centroid_incenter_showcase_value():
    # for the (a=2, l=3) pyramid GI collapses to a closed ratio of AG
    ag = dist_vertex_to_center("A", center_components("G", PYRAMID), PYRAMID)
    want = abs(math.sqrt(3) - 2 * math.sqrt(2)) / (
        math.sqrt(3) + 6 * math.sqrt(2)) * ag
    g = center_components("G", PYRAMID)
    i = center_components("I", PYRAMID)
    assert dist_between_centers(g, i, PYRAMID) == pytest.approx(
        want, rel=1e-12)
    assert transcribed_closed_forms4(PYRAMID)["GI"] == pytest.approx(
        want, rel=1e-12)


@pytest.mark.parametrize("edges", CORPUS)
def test_transcribed_forms_match_engine(edges):
    comps = {k: center_components(k, edges) for k in CENTER_KINDS[4]}
    forms = transcribed_closed_forms4(edges)
    pairs = {"QG": ("Q", "G"), "QI": ("Q", "I"), "GI": ("G", "I"),
             "GQ": ("G", "Q"), "IQ": ("I", "Q")}
    for x in "ABCD":
        pairs[f"GE_{x}"] = ("G", f"E_{x}")
        pairs[f"IE_{x}"] = ("I", f"E_{x}")
        pairs[f"QE_{x}"] = ("Q", f"E_{x}")
    for x, y in combinations("ABCD", 2):
        pairs[f"E_{x}E_{y}"] = (f"E_{x}", f"E_{y}")
    emax2 = max(edges.as_tuple()) ** 2
    for key, (k1, k2) in pairs.items():
        d2 = dist_between_centers(comps[k1], comps[k2], edges) ** 2
        f2 = forms[key] ** 2
        assert abs(d2 - f2) <= 1e-9 * max(d2, f2) + 1e-12 * emax2, key


def test_slacks_nonnegative_and_tight_at_regular():
    for key, slack in tet_inequality_slacks(REGULAR).items():
        assert abs(slack) < 1e-9, key
    for edges in CORPUS:
        scale = max(edges.as_tuple()) ** 6
        # as computed: the rounding window is far wider than this at scale
        for key, (slack, _) in _user_slacks(edges).items():
            assert slack >= -1e-12 * max(1.0, scale), key


def test_pyramid_slack_values_frozen():
    slacks = tet_inequality_slacks(PYRAMID)
    assert slacks["QG"] == pytest.approx(
        circumradius(PYRAMID) ** 2 - 39.0 / 16.0, rel=1e-10)


def test_circumcenter_weights_match_determinant_route():
    """Cross-check the polynomial weights against the replaced-column Cramer
    solution of the raw equidistance system."""
    for edges in CORPUS:
        ab2, ac2, ad2, bc2, cd2, db2 = (x * x for x in edges.as_tuple())
        m = np.array([
            [1.0, 1.0, 1.0, 1.0],
            [ab2, -ab2, bc2 - ac2, db2 - ad2],
            [ac2 - ab2, bc2, -bc2, cd2 - db2],
            [ad2 - ac2, db2 - bc2, cd2, -cd2],
        ])
        total = np.linalg.det(m)
        want = []
        for col in range(4):
            mc = m.copy()
            mc[:, col] = np.array([1.0, 0.0, 0.0, 0.0])
            want.append(np.linalg.det(mc) / total)
        got = center_components("Q", edges).as_tuple()
        assert got == pytest.approx(want, rel=1e-8, abs=1e-10)


def test_mismatched_arity_is_a_typed_error():
    with pytest.raises(GeometryError):
        dist_from_circumcenter(Components((0.2, 0.3, 0.5)), IRREGULAR)


def test_the_slack_table_is_built_once_per_shape(monkeypatch):
    # its four pair sums (QI, GI, GQ, IQ), whichever readers ask for it
    pair_sum, sums = core_model._pair_sum, []

    def counted(weights, shape):
        sums.append(weights)
        return pair_sum(weights, shape)

    monkeypatch.setattr(core_model, "_pair_sum", counted)
    edges = validate_tetrahedron(3, 4, 5, 5, 6, 7)
    tet_inequality_slacks(edges)
    _user_slacks(edges)
    transcribed_closed_forms4(edges)
    assert len(sums) == 4


def test_a_slack_reads_zero_only_inside_its_window():
    # edges of 0.5: the unit shape is the user's, with max(E) = 0.25, so a
    # slack with c = 2 has the window ATOL * 4 * 0.25
    edges, nan = validate_tetrahedron(*(0.5,) * 6), validate_tetrahedron(*(0.5,) * 6)
    w = ATOL * 4.0 * 0.25
    below = math.nextafter(-w, -math.inf)
    cases = {"edge": -w, "inside": -w / 3.0, "below": below, "minus_zero": -0.0,
             "positive": 0.5}
    names = dict(zip(edges._SLACK_DEGREES, cases))
    edges.__dict__["_slacks"] = {name: (cases[case], 2.0) for name, case in names.items()}
    windows = {name: window for name, (_, window) in _windowed(edges).items()}
    assert windows == dict.fromkeys(names, w)
    out = {case: tet_inequality_slacks(edges)[name] for name, case in names.items()}
    assert out["edge"] == 0.0 and out["inside"] == 0.0 and out["below"] == below
    assert math.copysign(1.0, out["minus_zero"]) == -1.0
    assert out["positive"] == 0.5
    # a NaN is not rounding noise: the report raises rather than print it
    nan.__dict__["_slacks"] = dict.fromkeys(names, (math.nan, 2.0))
    assert all(math.isnan(value) for value, _ in _windowed(nan).values())
    with pytest.raises(GeometryError, match="slack"):
        tet_inequality_slacks(nan)


def test_each_slack_factor_clears_its_squared_distance():
    # a slack is c^2 * d^2 for the distance d of its pair of centers, on the
    # unit shape, and its rounding window scales with the same c^2: on a
    # seeded sample of verify's band, leaving out pairs whose centers coincide
    rngs = [np.random.default_rng(233 + i) for i in range(64)]
    sample = [e for e in verify._random_tetras(rngs) if e is not None]
    assert len(sample) > 48
    for edges in sample:
        for name, (slack, c) in edges._slacks.items():
            d = math.ldexp(dist_between_centers(center_components(name[0], edges),
                                                center_components(name[1], edges), edges),
                           -edges._k)
            if d > 0.0:
                assert slack == pytest.approx(c * c * d * d, rel=1e-9), (name, edges)

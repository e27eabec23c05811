import math
from itertools import combinations

import numpy as np
import pytest

from cevian.core_model import (
    ATOL,
    Components,
    GeometryError,
    PowerIncenter,
    _windowed,
    center_components,
    circumradius,
    dist_between_centers,
    dist_from_circumcenter,
    dist_vertex_to_center,
    dist_vertex_to_foot,
    validate_tetrahedron,
)
from cevian import coord_oracle as oracle
from cevian.tet_centers import TET_CENTER_KINDS, face_areas, tet_center_components
from cevian.tet_metrics import (
    _tet_inequality_slacks,
    center_pair_table4,
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
        inradius(edges) * face_areas(edges).s, rel=1e-12)


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
    g = tet_center_components("G", PYRAMID)
    assert dist_vertex_to_center("A", g, PYRAMID) == pytest.approx(
        math.sqrt(69) / 4, rel=1e-12)


def test_vertex_distance_regular_reaches_circumradius():
    g = tet_center_components("G", REGULAR)
    for v in "ABCD":
        assert dist_vertex_to_center(v, g, REGULAR) == pytest.approx(
            math.sqrt(6) / 4, rel=1e-12)


def test_foot_distances_complement_vertex_distances():
    # the center divides its cevian so that (vertex->center) / (vertex->foot)
    # equals one minus the vertex component
    i = tet_center_components("I", IRREGULAR)
    for idx, v in enumerate("ABCD"):
        ap = dist_vertex_to_center(v, i, IRREGULAR)
        af = dist_vertex_to_foot(v, i, IRREGULAR)
        assert ap / af == pytest.approx(1.0 - i.weights[idx], rel=1e-10)


def test_circum_distance_engine_agreement():
    i = tet_center_components("I", IRREGULAR)
    q = tet_center_components("Q", IRREGULAR)
    assert dist_from_circumcenter(i, IRREGULAR) == pytest.approx(
        dist_between_centers(q, i, IRREGULAR), rel=1e-11)


def test_pair_table_covers_and_matches_oracle():
    table = center_pair_table4(IRREGULAR)
    assert len(table) == 21
    tet = oracle.embed_tetra(IRREGULAR)
    pts = {k: oracle.definitional_center(tet, k) for k in TET_CENTER_KINDS}
    emax = max(IRREGULAR.as_tuple())
    for rep in table:
        want = float(np.linalg.norm(pts[rep.pair[0]] - pts[rep.pair[1]]))
        assert rep.distance == pytest.approx(want, abs=1e-12 + 1e-9 * emax)


def test_centroid_incenter_showcase_value():
    # for the (a=2, l=3) pyramid GI collapses to a closed ratio of AG
    ag = dist_vertex_to_center("A", tet_center_components("G", PYRAMID), PYRAMID)
    want = abs(math.sqrt(3) - 2 * math.sqrt(2)) / (
        math.sqrt(3) + 6 * math.sqrt(2)) * ag
    g = tet_center_components("G", PYRAMID)
    i = tet_center_components("I", PYRAMID)
    assert dist_between_centers(g, i, PYRAMID) == pytest.approx(
        want, rel=1e-12)
    assert transcribed_closed_forms4(PYRAMID)["GI"] == pytest.approx(
        want, rel=1e-12)


@pytest.mark.parametrize("edges", CORPUS)
def test_transcribed_forms_match_engine(edges):
    comps = {k: tet_center_components(k, edges) for k in TET_CENTER_KINDS}
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
        for key, (slack, _) in _tet_inequality_slacks(edges).items():
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
        got = tet_center_components("Q", edges).as_tuple()
        assert got == pytest.approx(want, rel=1e-8, abs=1e-10)


def test_mismatched_arity_is_a_typed_error():
    with pytest.raises(GeometryError):
        dist_from_circumcenter(Components((0.2, 0.3, 0.5)), IRREGULAR)


def test_a_slack_reads_zero_only_inside_its_window():
    w = ATOL * 2.0 * 3.0  # ATOL * f * scale
    below = math.nextafter(-w, -math.inf)
    out = _windowed({"edge": (-w, 2.0), "inside": (-w / 3.0, 2.0), "below": (below, 2.0),
                     "minus_zero": (-0.0, 2.0), "positive": (0.5, 2.0), "nan": (math.nan, 2.0)},
                    3.0)
    assert out["edge"] == 0.0 and out["inside"] == 0.0 and out["below"] == below
    assert math.copysign(1.0, out["minus_zero"]) == -1.0
    assert out["positive"] == 0.5 and math.isnan(out["nan"])


def test_each_slack_factor_clears_its_squared_distance():
    # a slack is f * d^2 for the distance d of its pair of centers, and its
    # rounding window scales with the same f
    for name, (slack, f) in _tet_inequality_slacks(IRREGULAR).items():
        d = dist_between_centers(center_components(name[0], IRREGULAR),
                                 center_components(name[1], IRREGULAR), IRREGULAR)
        assert slack == pytest.approx(f * d * d, rel=1e-9), name

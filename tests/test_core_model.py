import dataclasses
import math
import random

import pytest
from hypothesis import given, strategies as st

from cevian.core_model import (
    CevaViolation,
    Components,
    DegenerateDenominator,
    FACES,
    FACE_INDICES,
    FaceTriangleInequalityViolated,
    GeometryError,
    IRVector3,
    InconsistentFaces,
    NegativeSquaredDistance,
    NonPositiveLength,
    NotRealizable,
    PowerIncenter,
    TriangleInequalityViolated,
    TetraEdges,
    TriangleSides,
    VERTICES,
    _close,
    _sqrt_clamped,
    components_from_ir3,
    concurrency_defect,
    dist_between_centers,
    dist_origin_to_center,
    dist_vertex_to_center,
    dist_vertex_to_foot,
    edge_polynomials,
    face_components_from_tetra,
    fractional_ratio_determinant,
    gram_volume_term,
    ir_from_components3,
    pair_sum,
    pair_table,
    shared_edge_residuals,
    tetra_components_from_face_pair,
    validate_tetrahedron,
    validate_triangle,
    vertex_foot_ratios3,
    vertex_foot_ratios4,
)
from cevian.tri_metrics import area_determinant, ict_altitudes, ict_areas

FACE_OPPOSITE = {face: next(v for v in "ABCD" if v not in face) for face in FACES}


# ---------------------------------------------------------------- validation

def test_valid_triangle_accepted():
    sides = validate_triangle(3, 4, 5)
    assert sides.semiperimeter == 6.0
    assert sides.perimeter == 12.0
    assert sides.as_tuple() == (3.0, 4.0, 5.0)


@pytest.mark.parametrize("bad", [(0, 1, 1), (-2, 3, 4), (1, float("nan"), 1)])
def test_nonpositive_or_nonfinite_side_rejected(bad):
    with pytest.raises(NonPositiveLength):
        validate_triangle(*bad)


@pytest.mark.parametrize("bad", [(1, 1, 2), (1, 2, 1), (5, 2, 2), (1, 1, 2.0000001)])
def test_triangle_inequality_rejected(bad):
    with pytest.raises(TriangleInequalityViolated):
        validate_triangle(*bad)


def test_tetra_face_inequality_rejected():
    with pytest.raises(FaceTriangleInequalityViolated):
        validate_tetrahedron(10, 1, 1, 1, 1, 1)


def test_flat_tetra_rejected():
    # the six distances of a unit square with its diagonals: realizable only
    # in the plane
    s = math.sqrt(2.0)
    with pytest.raises(NotRealizable):
        validate_tetrahedron(1, s, 1, 1, 1, s)


def _lengths(edges):
    """Edge length by vertex-letter pair, in both orders, from the fields."""
    named = {"AB": edges.ab, "AC": edges.ac, "AD": edges.ad,
             "BC": edges.bc, "CD": edges.cd, "DB": edges.db}
    return {pair: v for (x, y), v in named.items() for pair in ((x, y), (y, x))}


def _face_sides(edges, face):
    """The face triangle's sides a = V2V3, b = V3V1, c = V1V2."""
    v1, v2, v3 = FACES[face]
    length = _lengths(edges)
    return validate_triangle(length[v2, v3], length[v3, v1], length[v1, v2])


def test_edge_accessors():
    edges = validate_tetrahedron(3, 4, 5, 5, 6, 7)
    assert (edges.ab, edges.db) == (3.0, 7.0)
    # opposite-vertex convention: a = BC, b = CA, c = AB
    v1, v2, v3, opp = FACE_INDICES["ABC"]
    face = [math.sqrt(edges.E[i][j]) for i, j in ((v2, v3), (v3, v1), (v1, v2))]
    assert (face, opp) == ([5.0, 4.0, 3.0], 3)
    assert list(FACE_INDICES) == list(FACES)
    for opp, (face, (*verts, opp_index)) in enumerate(FACE_INDICES.items()):
        assert [VERTICES[i] for i in verts] == list(FACES[face])
        assert VERTICES[opp] == VERTICES[opp_index] == FACE_OPPOSITE[face]


def test_gram_term_positive_for_realizable_input():
    polys = edge_polynomials((3, 4, 5, 5, 6, 7))
    assert polys["t1"] - polys["t2"] - polys["t3"] > 0.0


# ---------------------------------------------------------------- cached invariants

def _edges_of_points(p):
    d = lambda i, j: math.dist(p[i], p[j])
    return validate_tetrahedron(d(0, 1), d(0, 2), d(0, 3), d(1, 2), d(2, 3), d(3, 1))


def _invariant_tetras():
    rng = random.Random(7)
    for _ in range(20):
        yield _edges_of_points([[rng.uniform(-1.0, 1.0) for _ in range(3)] for _ in range(4)])
    yield validate_tetrahedron(1, 1, 1, 1, 1, 1)
    # near-flat: D just above the base plane (close to the volume gate), and
    # a needle face ABC under a low apex
    yield _edges_of_points([(0, 0, 0), (1, 0, 0), (0.3, 0.9, 0), (0.4, 0.3, 1e-5)])
    yield _edges_of_points([(0, 0, 0), (1, 0, 0), (0.5, 1e-3, 0), (0.4, 0.3, 3e-3)])


def _circum_from_scratch(edges):
    length = _lengths(edges)
    vals = {}
    for face, opp in FACE_OPPOSITE.items():
        v1, v2, v3 = FACES[face]
        e12 = length[v1, v2] ** 2
        e23 = length[v2, v3] ** 2
        e31 = length[v3, v1] ** 2
        delta2f = 0.5 * (e12 + e23 + e31)
        vals[opp] = (
            (delta2f - e12) * e12 * length[opp, v3] ** 2
            + (delta2f - e23) * e23 * length[opp, v1] ** 2
            + (delta2f - e31) * e31 * length[opp, v2] ** 2
            - e12 * e23 * e31
        )
    return vals


@pytest.mark.parametrize("edges", list(_invariant_tetras()))
def test_cached_invariants_match_from_scratch(edges):
    fa = edges.face_areas
    for face, opp in FACE_OPPOSITE.items():
        assert fa.by_vertex[VERTICES.index(opp)] == area_determinant(_face_sides(edges, face))
    assert fa.s == math.fsum(fa.by_vertex)

    aux = edges.circum_aux
    want = _circum_from_scratch(edges)
    assert list(aux.by_vertex) == [want[v] for v in "ABCD"]
    assert aux.u == math.fsum(want.values())

    assert gram_volume_term(edges) == gram_volume_term(edges.as_tuple())
    assert edges.volume_term == gram_volume_term(edges.as_tuple())


def _invariant_triangles():
    rng = random.Random(5)
    for _ in range(20):
        p = [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(3)]
        yield validate_triangle(math.dist(p[1], p[2]), math.dist(p[2], p[0]),
                                math.dist(p[0], p[1]))
    yield validate_triangle(1, 1, 1)
    yield validate_triangle(1, 1, 2 - 1e-7)


@pytest.mark.parametrize("shape", list(_invariant_tetras()) + list(_invariant_triangles()))
def test_squared_edge_matrix(shape):
    e = shape.E
    n = len(e)
    assert all(isinstance(row, tuple) and len(row) == n for row in e)
    for i in range(n):
        assert e[i][i] == 0.0
        for j in range(n):
            assert e[i][j] == e[j][i]
    names = "ABCD"[:n]
    if n == 4:
        lengths = _lengths(shape)
    else:
        lengths = {("B", "C"): shape.a, ("C", "A"): shape.b, ("A", "B"): shape.c}
    for (x, y), length in lengths.items():
        assert e[names.index(x)][names.index(y)] == length * length
    assert len({frozenset(k) for k in lengths}) == n * (n - 1) // 2
    assert shape.E is e
    with pytest.raises(TypeError):
        e[0][1] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        shape.E = e


def test_squared_edge_matrix_multiplies_over_many_shapes():
    # every length is squared with x * x; ** 2 differs from it in the last
    # bit for 12 of the 12000 edges drawn here
    rng = random.Random(13)
    for _ in range(2000):
        edges = _edges_of_points([[rng.random() for _ in range(3)] for _ in range(4)])
        ab, ac, ad, bc, cd, db = edges.as_tuple()
        assert edges.E == ((0.0, ab * ab, ac * ac, ad * ad), (ab * ab, 0.0, bc * bc, db * db),
                           (ac * ac, bc * bc, 0.0, cd * cd), (ad * ad, db * db, cd * cd, 0.0))
        a, b, c = edges.bc, edges.ac, edges.ab  # face ABC
        sides = validate_triangle(a, b, c)
        assert sides.E == ((0.0, c * c, b * b), (c * c, 0.0, a * a), (b * b, a * a, 0.0))


def test_face_areas_bitwise_over_many_tetrahedra():
    # x ** 2 and x * x differ in the last bit for about 0.1 % of floats on
    # some C libraries, so only many shapes show which one a formula uses
    rng = random.Random(11)
    for _ in range(2000):
        try:
            edges = _edges_of_points([[rng.random() for _ in range(3)] for _ in range(4)])
        except NotRealizable:
            continue
        fa = edges.face_areas
        for face, opp in FACE_OPPOSITE.items():
            assert fa.by_vertex[VERTICES.index(opp)] == area_determinant(_face_sides(edges, face))


@pytest.mark.parametrize("edges", list(_invariant_tetras())[:3] + [validate_triangle(3, 4, 5)])
def test_filled_cache_keeps_value_semantics(edges):
    for name in ("E", "face_areas", "circum_aux") if len(edges.E) == 4 else ("E", "area"):
        getattr(edges, name)
    _fill_center_cache(edges)  # edges3 is a triangle, with its area and centers cached
    fresh = type(edges)(*edges.as_tuple())
    assert edges == fresh
    assert hash(edges) == hash(fresh) and repr(edges) == repr(fresh)
    assert (copy := dataclasses.replace(edges)) == fresh and "_centers" not in vars(copy)
    with pytest.raises(dataclasses.FrozenInstanceError):
        edges.ab = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        edges.volume_term = 1.0


def test_nonpositive_face_invariant_raises_on_every_access():
    # an edge set the volume gate rejects, built without validation: face
    # ABC keeps strict triangle inequalities, but its K rounds to below 0
    edges = object.__new__(TetraEdges)
    for name, v in zip(("ab", "ac", "ad", "bc", "cd", "db"),
                       (0.9039744671490588, 0.5898063027663567, 1.0,
                        0.31416816438270223, 1.0, 1.0)):
        object.__setattr__(edges, name, v)
    for _ in range(2):
        with pytest.raises(GeometryError, match="nonpositive squared-area invariant"):
            edges.face_areas
    assert "face_areas" not in vars(edges)


# ---------------------------------------------------------------- components

def test_components_renormalize():
    c = Components((2.0, 4.0, 6.0))
    assert math.isclose(sum(c.as_tuple()), 1.0, rel_tol=0, abs_tol=1e-15)
    assert math.isclose(c.weights[2], 0.5)


def test_components_degenerate_sum():
    with pytest.raises(DegenerateDenominator):
        Components((1.0, -2.0, 1.0))


def test_components4_vertex_lookup():
    c = Components((1, 2, 3, 4))
    assert c.weights[3] == pytest.approx(0.4)
    with pytest.raises(IndexError):
        c.weights[4]


def test_power_incenter_token():
    assert str(PowerIncenter(2.0)) == "power:2"
    assert str(PowerIncenter(1.5)) == "power:1.5"


def test_tolerance_close():
    # equal within ATOL + RTOL * max(|x|, |y|)
    assert _close(1.0, 1.0 + 1e-12)
    assert not _close(1.0, 1.001)


# ---------------------------------------------------------- ratio conversions

def test_ceva_violation_rejected():
    with pytest.raises(CevaViolation):
        IRVector3(1.0, 1.0, 2.0)


def test_ir_reciprocals():
    ir = IRVector3(2.0, 4.0, 0.125)
    assert ir.lambda_ba == pytest.approx(0.5)
    assert ir.lambda_cb == pytest.approx(0.25)
    assert ir.lambda_ac == pytest.approx(8.0)


simplex3 = st.tuples(
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.05, max_value=1.0),
)


@given(simplex3)
def test_ir_component_roundtrip(raw):
    c = Components(raw)
    ir = ir_from_components3(c)
    assert ir.lambda_ab * ir.lambda_bc * ir.lambda_ca == pytest.approx(1.0)
    back = components_from_ir3(ir)
    for x, y in zip(c.as_tuple(), back.as_tuple()):
        assert x == pytest.approx(y, abs=1e-12)


@given(simplex3)
def test_foot_ratio_identities(raw):
    """The integral ratios along the three cevians sum to 2, the reciprocal
    fractions sum to 1, and the three fractional ratios satisfy the
    product-minus-sum determinant identity."""
    c = Components(raw)
    r = vertex_foot_ratios3(c)
    assert r["kap_al"] + r["kap_bm"] + r["kap_cn"] == pytest.approx(2.0)
    rec = sum(1.0 / (1.0 + r[k]) for k in ("lam_al", "lam_bm", "lam_cn"))
    assert rec == pytest.approx(1.0)
    assert fractional_ratio_determinant(
        r["lam_al"], r["lam_bm"], r["lam_cn"]) == pytest.approx(0.0, abs=1e-9)


simplex4 = st.tuples(
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.05, max_value=1.0),
)


@given(simplex4)
def test_foot_ratio_sum_tetra(raw):
    r = vertex_foot_ratios4(Components(raw))
    assert sum(r.values()) == pytest.approx(3.0)


# ------------------------------------------------------- face decompositions

@given(simplex4)
def test_face_pair_reassembly(raw):
    beta = Components(raw)
    f1 = face_components_from_tetra(beta, "BCD")
    f2 = face_components_from_tetra(beta, "CDA")
    back = tetra_components_from_face_pair(f1, f2)
    for x, y in zip(beta.as_tuple(), back.as_tuple()):
        assert x == pytest.approx(y, abs=1e-10)


def test_face_components_sum_to_one():
    beta = Components((0.1, 0.2, 0.3, 0.4))
    for face in FACES:
        f = face_components_from_tetra(beta, face)
        assert sum(f.as_tuple()) == pytest.approx(1.0)


def test_shared_edge_residuals_vanish_for_consistent_faces():
    beta = Components((0.1, 0.2, 0.3, 0.4))
    faces = {f: face_components_from_tetra(beta, f) for f in FACES}
    res = shared_edge_residuals(faces)
    assert len(res) == 6
    assert max(res.values()) < 1e-12
    assert concurrency_defect(faces) < 1e-12


def test_tampered_faces_detected():
    beta = Components((0.1, 0.2, 0.3, 0.4))
    faces = {f: face_components_from_tetra(beta, f) for f in FACES}
    v = faces["ABC"].as_tuple()
    faces["ABC"] = Components((v[0] * 1.3, v[1], v[2]))
    assert concurrency_defect(faces) > 1e-3


def test_inconsistent_face_pair_raises():
    beta = Components((0.1, 0.2, 0.3, 0.4))
    f1 = face_components_from_tetra(beta, "BCD")
    bad = Components((0.5, 0.3, 0.2))
    with pytest.raises(InconsistentFaces):
        tetra_components_from_face_pair(f1, bad)


# ---------------------------------------------------------------- distance engine

def test_sqrt_clamp_window():
    assert _sqrt_clamped(-1e-15, 1.0) == 0.0
    with pytest.raises(NegativeSquaredDistance):
        _sqrt_clamped(-1e-3, 1.0)


TRI = validate_triangle(3, 4, 5)
TET = validate_tetrahedron(3, 4, 5, 5, 6, 7)
C3 = Components((0.2, 0.3, 0.5))
C4 = Components((0.1, 0.2, 0.3, 0.4))


@pytest.mark.parametrize("call", [
    lambda: pair_sum((0.2, 0.3, 0.5), TET),
    lambda: pair_sum((0.1, 0.2, 0.3, 0.4), TRI),
    lambda: dist_between_centers(C4, C4, TRI),
    lambda: dist_between_centers(C3, C3, TET),
    lambda: dist_between_centers(C3, C4, TRI),
    lambda: dist_between_centers(C4, C3, TET),
    lambda: dist_origin_to_center((1.0, 1.0, 1.0, 1.0), C4, TRI),
    lambda: dist_origin_to_center((1.0, 1.0, 1.0), C3, TET),
    lambda: dist_origin_to_center((1.0, 1.0, 1.0, 1.0), C3, TRI),
    lambda: dist_origin_to_center((1.0, 1.0, 1.0), C4, TET),
    lambda: dist_vertex_to_center("A", C4, TRI),
    lambda: dist_vertex_to_center("D", C3, TET),
    lambda: dist_vertex_to_foot("A", C4, TRI),
    lambda: dist_vertex_to_foot("D", C3, TET),
    lambda: pair_table({"P": C3, "P'": C3}, TET),
    lambda: pair_table({"P": C4, "P'": C4}, TRI),
], ids=lambda f: str(f.__code__.co_firstlineno))
def test_engine_rejects_weights_that_do_not_fit_the_shape(call):
    with pytest.raises(GeometryError):
        call()


@pytest.mark.parametrize("weights", [(), (1.0,), (0.5, 0.5), (0.2,) * 5, (0.1,) * 10])
def test_components_need_three_or_four_weights(weights):
    with pytest.raises(GeometryError, match="3 or 4 weights"):
        Components(weights)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: face_components_from_tetra(C3, "BCD"), id="face_components_from_tetra"),
    pytest.param(lambda: ir_from_components3(C4), id="ir_from_components3"),
    pytest.param(lambda: ict_areas(C4, TRI), id="ict_areas"),
    pytest.param(lambda: ict_altitudes(C4, TRI), id="ict_altitudes"),
    pytest.param(lambda: tetra_components_from_face_pair(C4, C3), id="face_pair_first"),
    pytest.param(lambda: tetra_components_from_face_pair(C3, C4), id="face_pair_second"),
    pytest.param(lambda: vertex_foot_ratios3(C4), id="vertex_foot_ratios3"),
    pytest.param(lambda: vertex_foot_ratios4(C3), id="vertex_foot_ratios4"),
    pytest.param(lambda: shared_edge_residuals({f: C4 for f in FACES}),
                 id="shared_edge_residuals"),
])
def test_components_of_the_wrong_arity_raise_typed_errors(call):
    with pytest.raises(GeometryError, match="weights given where"):
        call()


@pytest.mark.parametrize("dists", [(math.nan, 4.0, 3.0), (math.inf, 4.0, 3.0),
                                   (-5.0, 4.0, 3.0)])
def test_engine_rejects_bad_origin_distances(dists):
    with pytest.raises(GeometryError):
        dist_origin_to_center(dists, C3, TRI)


@pytest.mark.parametrize("vertex", ["D", "E", "", 0, None])
def test_engine_rejects_unknown_vertices(vertex):
    with pytest.raises(GeometryError):
        dist_vertex_to_center(vertex, C3, TRI)


def test_engine_pair_sum_is_half_the_quadratic_form():
    for shape, w in ((TRI, (0.7, -0.2, 0.5)), (TET, (0.4, -0.1, 0.3, 0.4))):
        e = shape.E
        n = len(w)
        full = 0.5 * math.fsum(w[i] * w[j] * e[i][j] for i in range(n) for j in range(n))
        ps, scale = pair_sum(w, shape)
        assert ps == pytest.approx(full, rel=1e-14)
        assert scale >= abs(ps)


def _fill_center_cache(shape):
    """Builds every named center of ``shape``, which fills its center cache."""
    from cevian.core_model import CENTER_KINDS, center_components

    kinds = CENTER_KINDS[len(shape.E)]
    comps = [center_components(kind, shape) for kind in kinds]
    assert list(vars(shape)["_centers"].values()) == comps and len(comps) == len(kinds)

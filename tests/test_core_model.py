import math
import random
import re
from itertools import combinations, product

import pytest
from hypothesis import example, given, reject, strategies as st

from cevian.core_model import (
    ATOL,
    RTOL,
    CENTER_KINDS,
    CevaViolation,
    CircumAux,
    Components,
    DegenerateDenominator,
    DistanceReport,
    EDGES,
    FACES,
    FACE_INDICES,
    FaceAreas,
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
    UnitComponent,
    VERTICES,
    ZeroComponent,
    _cached,
    _close,
    _ratios,
    _sqrt_clamped,
    center_components,
    circumradius,
    components_from_ir3,
    dist_between_centers,
    dist_from_circumcenter,
    dist_origin_to_center,
    dist_vertex_to_center,
    dist_vertex_to_foot,
    edge_polynomials,
    face_components_from_tetra,
    fractional_ratio_determinant,
    gram_volume_term,
    ir_from_components3,
    pair_distances,
    pair_sum,
    pair_table,
    tetra_components_from_face_pair,
    validate_tetrahedron,
    validate_triangle,
    vertex_foot_ratios,
)
from cevian.tet_centers import concurrency_conditions, projection_components
from cevian.tet_metrics import TetMetricsSummary, circumradius_forms, inradius
from cevian.tri_centers import center_ir
from cevian.tri_metrics import (ict_altitudes, ict_areas, inequality_slacks, k_invariant,
                                transcribed_closed_forms)
from goldens import ENGINE_TETRAHEDRA, ENGINE_TRIANGLES
from test_engine_kernels import outcome

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


# lengths that are not numbers at all: a typed error names the length, where
# float() or a comparison used to raise a bare ValueError or TypeError
@pytest.mark.parametrize("build, name", [
    (lambda: validate_triangle("x", 4, 5), "side a"),
    (lambda: validate_triangle(None, 4, 5), "side a"),
    (lambda: validate_triangle(3, 4, 10 ** 400), "side c"),
    (lambda: TriangleSides(3, 4, 5j), "side c"),
    (lambda: validate_tetrahedron(1, 1, 1, 1, 1, [1]), "edge db"),
    (lambda: TetraEdges(1, 1, "one", 1, 1, 1), "edge ad"),
], ids=["str", "None", "huge-int", "complex", "list", "str-edge"])
def test_lengths_that_are_not_numbers_raise_typed_errors(build, name):
    with pytest.raises(NonPositiveLength, match=name):
        build()


# raw length sequences skip the shapes' checks, but not the typed error
@pytest.mark.parametrize("call, named", [
    (lambda: k_invariant(["x", 1, 1]), "['x', 1, 1]"),
    (lambda: edge_polynomials([1, 1, 1, 1, 1, None]), "[1, 1, 1, 1, 1, None]"),
    (lambda: gram_volume_term(5), "lengths 5 "),
], ids=["k_invariant-str", "edge_polynomials-None", "gram_volume_term-int"])
def test_raw_length_sequences_that_are_not_numbers_raise_typed_errors(call, named):
    with pytest.raises(GeometryError, match=re.escape(named)):
        call()


# shape arguments that are not shapes: a typed error names the argument,
# where reading its lengths used to raise a bare AttributeError
@pytest.mark.parametrize("call", [
    lambda: center_components("G", (3, 4, 5)),
    lambda: pair_table({"G": Components((1, 1, 1)), "I": Components((1, 2, 3))}, (3, 4, 5)),
    lambda: dist_between_centers(Components((1, 1, 1)), Components((1, 2, 3)), (3, 4, 5)),
    lambda: circumradius((3, 4, 5)),
    lambda: pair_sum((1, 1, 1), (3, 4, 5)),
    lambda: dist_origin_to_center((1, 1, 1), Components((1, 1, 1)), (3, 4, 5)),
    lambda: dist_from_circumcenter(Components((1, 1, 1)), (3, 4, 5)),
    lambda: dist_vertex_to_center("A", Components((1, 1, 1)), (3, 4, 5)),
    lambda: dist_vertex_to_foot("A", Components((1, 1, 1)), (3, 4, 5)),
], ids=["center_components-tuple", "pair_table-tuple", "dist_between_centers-tuple",
        "circumradius-tuple", "pair_sum-tuple", "dist_origin_to_center-tuple",
        "dist_from_circumcenter-tuple", "dist_vertex_to_center-tuple",
        "dist_vertex_to_foot-tuple"])
def test_shape_arguments_that_are_not_shapes_raise_typed_errors(call):
    with pytest.raises(GeometryError, match=re.escape("shape (3, 4, 5) ")):
        call()


# the functions for one kind of shape, given another argument or the other
# shape, where they used to raise a bare AttributeError or IndexError
_TET = TetraEdges(3, 4, 5, 5, 6, 7)


@pytest.mark.parametrize("call, named", [
    (lambda: center_ir("G", (3, 4, 5)), "shape (3, 4, 5) is not a TriangleSides"),
    (lambda: center_ir("G", _TET), f"shape {_TET!r} is not a TriangleSides"),
    (lambda: inequality_slacks((3, 4, 5)), "shape (3, 4, 5) is not a TriangleSides"),
    (lambda: inequality_slacks(_TET), f"shape {_TET!r} is not a TriangleSides"),
    (lambda: ict_areas(Components((1, 1, 1)), (3, 4, 5)), "shape (3, 4, 5) is not a TriangleSides"),
    (lambda: ict_altitudes(Components((1, 1, 1)), (3, 4, 5)),
     "shape (3, 4, 5) is not a TriangleSides"),
    (lambda: inradius((3, 4, 5, 5, 6, 7)), "shape (3, 4, 5, 5, 6, 7) is not a TetraEdges"),
    (lambda: circumradius_forms(validate_triangle(3, 4, 5)),
     "shape TriangleSides(a=3.0, b=4.0, c=5.0) is not a TetraEdges"),
], ids=["center_ir-tuple", "center_ir-tetra", "inequality_slacks-tuple",
        "inequality_slacks-tetra", "ict_areas-tuple", "ict_altitudes-tuple", "inradius-tuple",
        "circumradius_forms-triangle"])
def test_shape_arguments_of_the_wrong_kind_raise_typed_errors(call, named):
    with pytest.raises(GeometryError) as info:
        call()
    assert str(info.value) == named


def test_numeric_strings_are_lengths():
    assert validate_triangle("3", "4", "5") == validate_triangle(3, 4, 5)
    assert validate_tetrahedron(*"111111").as_tuple() == (1.0,) * 6
    assert TriangleSides(3, 4, 5).as_tuple() == (3.0, 4.0, 5.0)
    assert all(type(x) is float for x in TriangleSides(3, 4, 5).as_tuple())


@pytest.mark.parametrize("face", [5, None])
def test_unknown_faces_raise_typed_errors(face):
    with pytest.raises(GeometryError, match="unknown face"):
        face_components_from_tetra(Components((0.1, 0.2, 0.3, 0.4)), face)


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
        assert fa.by_vertex[VERTICES.index(opp)] == _face_sides(edges, face).area
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
    with pytest.raises(AttributeError, match="cannot assign to field 'E'"):
        shape.E = e


def test_edge_table_follows_the_length_order():
    # a tetrahedron's edge names its two vertices, a triangle's side the
    # vertex it is opposite
    assert list(TetraEdges.__match_args__) == [
        "abcd"[i] + "abcd"[j] for i, j in EDGES[4]]
    assert list(TriangleSides.__match_args__) == [
        "abc"[3 - i - j] for i, j in EDGES[3]]


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


def _unit(lengths) -> tuple:
    """The unit shape's lengths: each times 2**-k, k the binary exponent of
    the longest."""
    k = math.frexp(max(lengths))[1]
    return tuple(math.ldexp(x, -k) for x in lengths)


def _generic_squares(shape) -> dict:
    """E, _E, _pair_e and, for a triangle, _dots by the generic rule: x * x
    at the vertex pair EDGES[n] gives each length, the pairs i < j in order,
    and D_A = b^2 + c^2 - a^2 (and cyclic); E on the lengths, the others on
    the unit shape's."""
    n = shape._N
    out = {}
    for name, lengths in (("E", shape.as_tuple()), ("_E", _unit(shape.as_tuple()))):
        m = [[0.0] * n for _ in range(n)]
        for (i, j), x in zip(EDGES[n], lengths):
            m[i][j] = m[j][i] = x * x
        out[name] = tuple(map(tuple, m))
    m = out["_E"]
    out["_pair_e"] = tuple(m[i][j] for i, j in combinations(range(n), 2))
    if n == 3:
        a2, b2, c2 = m[1][2], m[2][0], m[0][1]
        out["_dots"] = (b2 + c2 - a2, c2 + a2 - b2, a2 + b2 - c2)
    return out


def _squares_shapes():
    """The engine-digit shapes, a band corpus, and both scaled over a grid on
    which the squares overflow to inf or underflow to subnormals and zero;
    yields (lengths, validator) for every edge set the validator accepts."""
    rng = random.Random(23)
    tris = list(ENGINE_TRIANGLES)
    tets = list(ENGINE_TETRAHEDRA)
    while len(tris) < 300:
        a, b, c = (rng.uniform(0.05, 5.0) for _ in range(3))
        if a + b > c and b + c > a and c + a > b:
            tris.append((a, b, c))
    for _ in range(300):
        p = [[rng.random() for _ in range(3)] for _ in range(4)]
        tets.append(tuple(math.dist(p[i], p[j]) for i, j in EDGES[4]))
    for scale in (1.0, 1e-170, 1e-160, 2.0 ** -520, 1e-80, 1e80, 1e150, 1.3e154, 2.0 ** 512,
                  1e160, 1e300):
        for lengths, validate in [(t, validate_triangle) for t in tris[::7]] + \
                                 [(t, validate_tetrahedron) for t in tets[::7]]:
            try:
                validate(*(scale * x for x in lengths))
            except GeometryError:
                continue
            yield tuple(scale * x for x in lengths), validate
    for lengths in tris:
        yield lengths, validate_triangle
    for lengths in tets:
        try:
            validate_tetrahedron(*lengths)
        except GeometryError:
            continue
        yield lengths, validate_tetrahedron


def test_constructor_squares_follow_the_generic_rule():
    # compared by repr, bit for bit, NaN (inf - inf in a D_X) and -0.0 included
    seen = {3: 0, 4: 0, "inf": 0, "tiny": 0}
    for lengths, validate in _squares_shapes():
        shape = validate(*lengths)
        want = _generic_squares(shape)
        for name, value in want.items():
            got = vars(shape)[name]
            assert type(got) is tuple and repr(got) == repr(value), (lengths, name)
        assert all(type(x) is float for x in shape._pair_e)
        assert 0.25 <= max(shape._pair_e) < 1.0  # the longest unit length is in [0.5, 1)
        seen[shape._N] += 1
        squares = [shape.E[i][j] for i, j in combinations(range(shape._N), 2)]
        seen["inf"] += math.inf in squares
        seen["tiny"] += min(squares) < 2.0 ** -1022  # subnormal or zero
    assert seen[3] > 300 and seen[4] > 300 and seen["inf"] > 50 and seen["tiny"] > 50


def test_crelle_product_and_face_differences_follow_the_generic_rule():
    # _crelle and each face's delta2f - e^2 against the formulas on the
    # named unit lengths, by repr, bit for bit
    seen = 0
    for lengths, validate in _squares_shapes():
        if validate is not validate_tetrahedron:
            continue
        edges = validate(*lengths)
        length = _lengths(TetraEdges(*_unit(lengths)))
        m1, m2, m3 = (length["A", "B"] * length["C", "D"], length["B", "C"] * length["A", "D"],
                      length["C", "A"] * length["D", "B"])
        q = 0.5 * (m1 + m2 + m3)
        assert repr(edges._crelle) == repr(q * (q - m1) * (q - m2) * (q - m3)), lengths
        for face, (v1, v2, v3) in FACES.items():
            e12, e23, e31 = (length[v1, v2] * length[v1, v2], length[v2, v3] * length[v2, v3],
                             length[v3, v1] * length[v3, v1])
            delta2f = 0.5 * (e12 + e23 + e31)
            diffs = (delta2f - e12, delta2f - e23, delta2f - e31)
            eight_sq = diffs[0] * e12 + diffs[1] * e23 + diffs[2] * e31
            want = (FACE_INDICES[face], (e12, e23, e31), diffs, eight_sq)
            assert repr(vars(edges)["_faces"][face]) == repr(want), (lengths, face)
        seen += 1
    assert seen > 300


@pytest.mark.parametrize("edges, message", [
    ((1, 1, 1, 10, 1, 1), "face BCD edges (10.0, 1.0, 1.0) violate the triangle inequality"),
    ((1, 1, 10, 1, 1, 1), "face CDA edges (1.0, 10.0, 1.0) violate the triangle inequality"),
    ((10, 1, 1, 1, 1, 1), "face DAB edges (1.0, 10.0, 1.0) violate the triangle inequality"),
    ((1, 3, 2.5, 1, 2.5, 2), "face ABC edges (1.0, 1.0, 3.0) violate the triangle inequality"),
    (("0.1", 0.3, 0.25, 0.1, 0.25, 0.2),
     "face ABC edges (0.1, 0.1, 0.3) violate the triangle inequality"),
    ((1, 1, 1, 1, 2, 1), "face BCD edges (1.0, 2.0, 1.0) violate the triangle inequality"),
], ids=["BCD", "CDA", "DAB", "ABC", "ABC-str", "BCD-flat"])
def test_face_inequality_messages_name_the_first_failing_face(edges, message):
    # each face's sides (V1V2, V2V3, V3V1) in its cyclic order
    with pytest.raises(FaceTriangleInequalityViolated, match=f"^{re.escape(message)}$"):
        validate_tetrahedron(*edges)


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
            assert fa.by_vertex[VERTICES.index(opp)] == _face_sides(edges, face).area


def test_areas_scale_exactly_with_a_power_of_two():
    # multiplying every length by 2**k multiplies each square by 4**k exactly,
    # so a correctly rounded K and sqrt scale each area by exactly 4**k; libm's
    # pow is not correctly rounded, so a K squared with ** misses for some shapes
    rng = random.Random(17)
    triangles, tetras = [], []
    while len(triangles) < 3000:
        a, b, c = sorted(rng.uniform(0.05, 1.0) for _ in range(3))
        if a + b > c:
            triangles.append((a, b, c))
    while len(tetras) < 600:
        try:
            tetras.append(_edges_of_points([[rng.random() for _ in range(3)]
                                            for _ in range(4)]).as_tuple())
        except NotRealizable:
            continue
    for k in (-3, 5, 30):
        scale = 2.0 ** k
        off = [s for s in triangles if validate_triangle(*(scale * x for x in s)).area
               != 4.0 ** k * validate_triangle(*s).area]
        assert off == [], f"{len(off)} of {len(triangles)} triangle areas at 2**{k}"
        off = [e for e in tetras
               if validate_tetrahedron(*(scale * x for x in e)).face_areas.by_vertex
               != tuple(4.0 ** k * s for s in validate_tetrahedron(*e).face_areas.by_vertex)]
        assert off == [], f"{len(off)} of {len(tetras)} tetrahedron face-area sets at 2**{k}"


# every per-instance cache a shape can fill, the values whose build can
# raise, and every entry its constructor sets besides the fields; none is a
# field
_CACHES = {3: ("_area", "area", "_circumradius", "_slacks"),
           4: ("volume_term", "_face_areas", "face_areas", "circum_aux", "_q_pair_sum",
               "_slacks")}
_DERIVED = {3: ("E", "_k", "_u", "_E", "_pair_e", "_dots", "perimeter", "semiperimeter",
                "_centers"),
            4: ("E", "_k", "_u", "_E", "_pair_e", "_delta2", "_volume_term", "_faces",
                "_circum_aux", "_crelle", "_circumradius", "_feet", "_centers")}


def test_only_values_that_can_raise_are_cached():
    # a value the constructor can form without raising is set there instead
    cached = {cls.__name__: {name for klass in cls.__mro__ for name, v in vars(klass).items()
                             if isinstance(v, _cached)} for cls in (TriangleSides, TetraEdges)}
    assert cached == {"TriangleSides": set(_CACHES[3]), "TetraEdges": set(_CACHES[4])}


@pytest.mark.parametrize("edges", list(_invariant_tetras())[:3] + [validate_triangle(3, 4, 5)])
def test_filled_cache_keeps_value_semantics(edges):
    for name in (("E", "volume_term", "face_areas", "circum_aux") if len(edges.E) == 4
                 else ("E", "area")):
        getattr(edges, name)
    _fill_center_cache(edges)  # edges3 is a triangle, with its area and centers cached
    dist_between_centers(*list(vars(edges)["_centers"].values())[:2], edges)
    if len(edges.E) == 4:
        from cevian.tet_centers import vertex_projection_components
        for face in FACES:
            vertex_projection_components(edges, face)
        edges._q_pair_sum
    circumradius(edges)
    edges._slacks
    assert set(_CACHES[len(edges.E)]) <= set(vars(edges))
    fresh = type(edges)(*edges.as_tuple())
    assert edges == fresh
    assert hash(edges) == hash(fresh) and repr(edges) == repr(fresh)
    assert (copy := type(edges)(*edges.as_tuple())) == fresh
    assert not set(_CACHES[len(edges.E)]) & set(vars(copy))
    derived = _DERIVED[len(edges.E)]
    assert set(derived) <= set(vars(copy)) and not set(derived) & set(copy.__match_args__)
    for name in ("_centers", "_feet") if len(edges.E) == 4 else ("_centers",):  # own, empty
        assert vars(copy)[name] == {} and vars(copy)[name] is not vars(edges)[name]
    for name in derived:  # a changed entry leaves equality, the hash and the repr alone
        copy.__dict__[name] = None
    assert copy == fresh and hash(copy) == hash(fresh) and repr(copy) == repr(fresh)
    with pytest.raises(AttributeError, match="cannot assign to field"):
        edges.ab = 1.0
    with pytest.raises(AttributeError, match="cannot assign to field"):
        edges.volume_term = 1.0


# the nine frozen value types, each built positionally and by keyword, with
# the repr a frozen dataclass of the same fields prints
VALUE_TYPES = [
    (TriangleSides(3, 4, 5), TriangleSides(a=3, b=4, c=5),
     "TriangleSides(a=3.0, b=4.0, c=5.0)"),
    (TetraEdges(3, 4, 5, 5, 6, 7), TetraEdges(ab=3, ac=4, ad=5, bc=5, cd=6, db=7),
     "TetraEdges(ab=3.0, ac=4.0, ad=5.0, bc=5.0, cd=6.0, db=7.0)"),
    (FaceAreas((1.0, 2.0, 3.0, 4.0), 10.0), FaceAreas(by_vertex=(1.0, 2.0, 3.0, 4.0), s=10.0),
     "FaceAreas(by_vertex=(1.0, 2.0, 3.0, 4.0), s=10.0)"),
    (CircumAux((1.0, 2.0, 3.0, 4.0), 10.0), CircumAux(by_vertex=(1.0, 2.0, 3.0, 4.0), u=10.0),
     "CircumAux(by_vertex=(1.0, 2.0, 3.0, 4.0), u=10.0)"),
    (Components((1, 1, 2)), Components(weights=[1.0, 1.0, 2.0]),
     "Components(weights=(0.25, 0.25, 0.5))"),
    (PowerIncenter(2), PowerIncenter(n=2), "PowerIncenter(n=2)"),
    (IRVector3(2.0, 0.5, 1.0), IRVector3(lambda_ab=2.0, lambda_bc=0.5, lambda_ca=1.0),
     "IRVector3(lambda_ab=2.0, lambda_bc=0.5, lambda_ca=1.0)"),
    (DistanceReport(("G", "I"), 4.0, 2.0),
     DistanceReport(pair=("G", "I"), squared_distance=4.0, distance=2.0),
     "DistanceReport(pair=('G', 'I'), squared_distance=4.0, distance=2.0)"),
    (TetMetricsSummary(1.0, 0.25, 0.5, 0.0),
     TetMetricsSummary(volume=1.0, inradius=0.25, circumradius=0.5, crelle_residual=0.0),
     "TetMetricsSummary(volume=1.0, inradius=0.25, circumradius=0.5, crelle_residual=0.0)"),
]


@pytest.mark.parametrize("value, by_keyword, pinned", VALUE_TYPES,
                         ids=[type(v).__name__ for v, _, _ in VALUE_TYPES])
def test_value_types_keep_frozen_value_semantics(value, by_keyword, pinned):
    cls = type(value)
    fields = tuple(getattr(value, name) for name in cls.__match_args__)
    assert type(by_keyword) is cls and by_keyword == value
    rebuilt = cls(*fields)
    if isinstance(rebuilt, (TriangleSides, TetraEdges)):  # compared with its caches filled
        _fill_center_cache(rebuilt)
        for name in ("area",) if cls is TriangleSides else ("face_areas", "circum_aux"):
            getattr(rebuilt, name)
    assert value == rebuilt and not value != rebuilt
    # the hash of the field tuple, as a frozen dataclass hashes
    assert hash(value) == hash(rebuilt) == hash(fields)
    assert repr(value) == repr(rebuilt) == pinned
    assert value.__eq__(fields) is NotImplemented and value != fields
    for name in (*cls.__match_args__, "volume_term", "other"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, 1.0)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in cls.__match_args__) == fields
    match value:
        case cls(first):
            assert first is fields[0]
        case _:
            pytest.fail(f"{cls.__name__} does not match on its first field")


def test_value_types_with_equal_fields_but_other_classes_differ():
    assert FaceAreas((1.0,) * 4, 4.0) != CircumAux((1.0,) * 4, 4.0)
    match TET:
        case TetraEdges(ab, ac, ad, bc, cd, db=7.0):
            assert (ab, ac, ad, bc, cd) == (3.0, 4.0, 5.0, 5.0, 6.0)
        case _:
            pytest.fail("TetraEdges does not match on its six edges")


def test_nonpositive_face_invariant_raises_on_every_access():
    # an edge set the volume gate rejects, built without validation: face
    # ABC keeps strict triangle inequalities, but its K rounds to below 0
    edges = object.__new__(TetraEdges)
    for name, v in zip(("ab", "ac", "ad", "bc", "cd", "db"),
                       (0.9039744671490588, 0.5898063027663567, 1.0,
                        0.31416816438270223, 1.0, 1.0)):
        object.__setattr__(edges, name, v)
    object.__setattr__(edges, "_pair_e", tuple(x * x for x in (edges.ab, edges.ac, edges.ad,
                                                                edges.bc, edges.db, edges.cd)))
    for _ in range(2):
        with pytest.raises(GeometryError, match="nonpositive squared-area invariant"):
            edges.face_areas
    assert "face_areas" not in vars(edges)


# sides whose squares are finite but whose K = 16*Area^2 at the user's scale
# is not: it was inf - inf = NaN at 3e100..5e100 and inf for the equilateral
# 7e76.  On the unit shape K is finite, so each value of degree d in the
# lengths is its value on the sides scaled by 2**-k, times 2**(d*k), exactly
_K_READERS = [
    (lambda t: t.area, 2),
    (circumradius, 1),
    (transcribed_closed_forms, 1),
    (lambda t: dist_from_circumcenter(center_components("G", t), t), 1),
    (k_invariant, 4),
    (lambda t: k_invariant(t.as_tuple()), 4),  # raw lengths
]
_K_IDS = ["area", "circumradius", "transcribed_closed_forms", "dist_from_circumcenter",
          "k_invariant", "k_invariant-raw"]


@pytest.mark.parametrize("sides", [(3e100, 4.1e100, 5e100), (7e76, 7e76, 7e76)])
@pytest.mark.parametrize("call, degree", _K_READERS, ids=_K_IDS)
def test_a_squared_area_invariant_past_the_float_range_scales_or_raises(sides, call, degree):
    t = validate_triangle(*sides)
    k = math.frexp(max(sides))[1]
    reference = call(validate_triangle(*(math.ldexp(x, -k) for x in sides)))
    for _ in range(2):
        if degree == 4 and sides[0] == 3e100:  # K itself, about 1e401, is past the range
            with pytest.raises(GeometryError, match="squared-area invariant .* leaves the "
                                                    "floating-point range"):
                call(t)
            continue
        got = call(t)
        if isinstance(got, dict):
            assert got == {key: math.ldexp(v, degree * k) for key, v in reference.items()}
        else:
            assert math.isfinite(got) and got == math.ldexp(reference, degree * k)


@pytest.mark.parametrize("sides, k", [((1, 1, 2), 0.0), ((1, 1, 3), -45.0), ((3, 4, 5), 576.0)])
def test_k_invariant_of_raw_lengths_may_be_zero_or_negative(sides, k):
    assert k_invariant(sides) == k


# raw lengths at scales 1e-200 .. 1e200: squares that underflow give finite
# polynomials; squares whose polynomials overflow raise, never a NaN or inf
@pytest.mark.parametrize("scale", [10.0 ** k for k in range(-200, 201, 20)])
def test_raw_length_helpers_return_finite_numbers_or_raise(scale):
    cases = [(k_invariant, s) for s in ((3, 4, 5), (1, 1, 1), (1, 1, 2), (1, 1, 3))]
    cases += [(call, e) for e in ((3, 4, 5, 5, 6, 7), (1,) * 6, (1, 1, 1, 1, 1, 3))
              for call in (edge_polynomials, gram_volume_term)]
    for call, lengths in cases:
        try:
            value = call([scale * x for x in lengths])
        except GeometryError:
            continue
        values = value.values() if isinstance(value, dict) else (value,)
        assert all(map(math.isfinite, values)), (call.__name__, lengths, value)


@pytest.mark.parametrize("call, lengths", [(gram_volume_term, (1e100,) * 6),
                                           (edge_polynomials, (1e200,) * 6),
                                           (k_invariant, (1e200,) * 3)])
def test_raw_lengths_past_the_float_range_raise_naming_them(call, lengths):
    with pytest.raises(GeometryError, match="leaves? the floating-point range"):
        call(lengths)
    with pytest.raises(GeometryError, match=re.escape(repr(lengths))):
        call(lengths)


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
    # an infinite difference is never close, though inf <= RTOL * inf
    assert not _close(math.inf, 1.0)
    assert not _close(1.0, -math.inf)
    assert not _close(math.inf, math.inf)
    assert not _close(1e308, -1e308)  # the difference overflows


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
    r = vertex_foot_ratios(c)
    assert r["kap_a"] + r["kap_b"] + r["kap_c"] == pytest.approx(2.0)
    rec = sum(1.0 / (1.0 + r[k]) for k in ("lam_a", "lam_b", "lam_c"))
    assert rec == pytest.approx(1.0)
    assert fractional_ratio_determinant(
        r["lam_a"], r["lam_b"], r["lam_c"]) == pytest.approx(0.0, abs=1e-9)


simplex4 = st.tuples(
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.05, max_value=1.0),
)


@given(simplex4)
def test_foot_ratio_sum_tetra(raw):
    r = vertex_foot_ratios(Components(raw))
    assert sum(r["kap_" + v] for v in "abcd") == pytest.approx(3.0)


def test_foot_ratios_of_a_point_on_a_face_plane_raise_zero_component():
    # beta_a = 0: the point lies on face BCD, where AP/PL is unbounded
    with pytest.raises(ZeroComponent, match="component of A ~ 0"):
        vertex_foot_ratios(Components((0.0, 0.2, 0.3, 0.5)))


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
    res = concurrency_conditions(faces)["edge_residuals"]
    assert len(res) == 6
    assert max(res.values()) < 1e-12


def test_tampered_faces_detected():
    beta = Components((0.1, 0.2, 0.3, 0.4))
    faces = {f: face_components_from_tetra(beta, f) for f in FACES}
    v = faces["ABC"].as_tuple()
    faces["ABC"] = Components((v[0] * 1.3, v[1], v[2]))
    assert max(concurrency_conditions(faces)["edge_residuals"].values()) > 1e-3


def test_inconsistent_face_pair_raises():
    beta = Components((0.1, 0.2, 0.3, 0.4))
    f1 = face_components_from_tetra(beta, "BCD")
    bad = Components((0.5, 0.3, 0.2))
    with pytest.raises(InconsistentFaces):
        tetra_components_from_face_pair(f1, bad)


def test_an_escaping_point_names_the_ratio_denominator():
    # lambda_ac = 1 / lambda_ca = -2, so 1 + lambda_ab + lambda_ac is exactly 0
    with pytest.raises(DegenerateDenominator, match=r"^1 \+ lambda_ab \+ lambda_ac ~ 0"):
        components_from_ir3(IRVector3(1.0, -2.0, -0.5))


# Gate boundaries: each gate meets the float on each side of its threshold.
# Where the gated value can equal the threshold, the two inputs put it there
# and one float past it, so a gate whose `<=` turned into `<` fails; where no
# float input reaches it, they are the last input caught and the first let through.

@pytest.mark.parametrize("caught, passed", [
    ("0x1.fffffffffdcd1p-1", "0x1.fffffffffdcd0p-1"),
    ("0x1.0000000001197p+0", "0x1.0000000001198p+0"),
])
def test_pierce_gate_flips_between_adjacent_weights(caught, passed):
    # 1 - w is a multiple of 2^-53 next to 1, so it never equals ATOL itself
    caught, passed = float.fromhex(caught), float.fromhex(passed)
    assert math.nextafter(caught, passed) == passed
    assert abs(1.0 - caught) <= ATOL < abs(1.0 - passed)
    at, past = (Components((w, 1.0 - w, 0.0, 0.0)) for w in (caught, passed))
    assert (at.weights[0], past.weights[0]) == (caught, passed)
    with pytest.raises(UnitComponent, match="line through A is parallel to face BCD"):
        face_components_from_tetra(at, "BCD")
    assert face_components_from_tetra(past, "BCD").weights[0] == 1.0


@pytest.mark.parametrize("caught, passed", [
    ("0x1.fffffffffb9a2p-1", "0x1.fffffffffb9a1p-1"),
    ("0x1.000000000232fp+0", "0x1.0000000002330p+0"),
])
def test_reassembly_gate_flips_between_adjacent_products(caught, passed):
    # B's weight on BCD is 1, so the gated product is A's weight on CDA itself;
    # 1 - p is a multiple of 2^-53 next to 1, and ATOL * (1 + p) lands on none
    caught, passed = float.fromhex(caught), float.fromhex(passed)
    assert math.nextafter(caught, passed) == passed
    assert abs(1.0 - caught) <= ATOL * (1.0 + caught)
    assert abs(1.0 - passed) > ATOL * (1.0 + passed)
    bcd = Components((1.0, 0.5, -0.5))
    at, past = (Components((1.0 - p, 0.0, p)) for p in (caught, passed))
    assert (bcd.weights[0], at.weights[2], past.weights[2]) == (1.0, caught, passed)
    with pytest.raises(DegenerateDenominator, match="while reassembling"):
        tetra_components_from_face_pair(bcd, at)
    # past the gate the reassembled point reaches the round trip, which B's
    # weight near 1 stops
    with pytest.raises(UnitComponent, match="line through B is parallel to face CDA"):
        tetra_components_from_face_pair(bcd, past)


def test_face_pair_tolerance_holds_at_its_bound_and_not_past_it():
    # a point with exact face weights: BCD's sum to 1 and CDA's to 4
    e = 2.0 ** -31
    a, b, c, d = 2.0 - e / 2, -1.0 - e / 2, e, 2.0 - e / 2
    bcd = Components((b, c, d))
    beta = tetra_components_from_face_pair(bcd, Components((c, d, a)))
    back = face_components_from_tetra(beta, "CDA").weights
    # C's weight on CDA moved by about 4 * (ATOL + RTOL) and D's the other
    # way, A's kept: both faces reassemble to beta, and the largest round-trip
    # defect, C's, is the tolerance itself and then the next float
    d_moved = float.fromhex("0x1.ffffffedcd8e3p+0")
    at, past = (Components((float.fromhex(h), d_moved, a))
                for h in ("0x1.33271ce872210p-28", "0x1.33271ce872211p-28"))
    for given, defect in ((at, ATOL + RTOL), (past, math.nextafter(ATOL + RTOL, 1.0))):
        assert given.weights[2] == a / 4
        assert max(abs(x - y) for x, y in zip(back, given.weights)) == defect
    assert tetra_components_from_face_pair(bcd, at) == beta
    with pytest.raises(InconsistentFaces, match=r"^face CDA round-trip defect 1e-09: "):
        tetra_components_from_face_pair(bcd, past)


# ---------------------------------------------------------------- distance engine

def test_sqrt_clamp_window():
    assert _sqrt_clamped(-1e-15, 1.0) == 0.0
    with pytest.raises(NegativeSquaredDistance):
        _sqrt_clamped(-1e-3, 1.0)


TRI = validate_triangle(3, 4, 5)
TET = validate_tetrahedron(3, 4, 5, 5, 6, 7)
C3 = Components((0.2, 0.3, 0.5))
C4 = Components((0.1, 0.2, 0.3, 0.4))


# ids are fixed numbers, kept so the cases' names in earlier test reports stay
# valid; the comment on each case names the engine call, the arity of its
# weights (3w / 4w) and origin distances (3d / 4d), and the shape it is asked about
@pytest.mark.parametrize("call", [
    pytest.param(lambda: pair_sum((0.2, 0.3, 0.5), TET), id="411"),  # pair_sum-3w-tet
    pytest.param(lambda: pair_sum((0.1, 0.2, 0.3, 0.4), TRI), id="412"),  # pair_sum-4w-tri
    pytest.param(lambda: dist_between_centers(C4, C4, TRI), id="413"),  # between-4w-4w-tri
    pytest.param(lambda: dist_between_centers(C3, C3, TET), id="414"),  # between-3w-3w-tet
    pytest.param(lambda: dist_between_centers(C3, C4, TRI), id="415"),  # between-3w-4w-tri
    pytest.param(lambda: dist_between_centers(C4, C3, TET), id="416"),  # between-4w-3w-tet
    pytest.param(lambda: dist_origin_to_center((1.0, 1.0, 1.0, 1.0), C4, TRI),
                 id="417"),  # origin-4d-4w-tri
    pytest.param(lambda: dist_origin_to_center((1.0, 1.0, 1.0), C3, TET),
                 id="418"),  # origin-3d-3w-tet
    pytest.param(lambda: dist_origin_to_center((1.0, 1.0, 1.0, 1.0), C3, TRI),
                 id="419"),  # origin-4d-3w-tri
    pytest.param(lambda: dist_origin_to_center((1.0, 1.0, 1.0), C4, TET),
                 id="420"),  # origin-3d-4w-tet
    pytest.param(lambda: dist_vertex_to_center("A", C4, TRI), id="421"),  # vertex-4w-tri
    pytest.param(lambda: dist_vertex_to_center("D", C3, TET), id="422"),  # vertex-3w-tet
    pytest.param(lambda: dist_vertex_to_foot("A", C4, TRI), id="423"),  # foot-4w-tri
    pytest.param(lambda: dist_vertex_to_foot("D", C3, TET), id="424"),  # foot-3w-tet
    pytest.param(lambda: pair_table({"P": C3, "P'": C3}, TET), id="425"),  # pair_table-3w-tet
    pytest.param(lambda: pair_table({"P": C4, "P'": C4}, TRI), id="426"),  # pair_table-4w-tri
])
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
    pytest.param(lambda: concurrency_conditions({f: C4 for f in FACES}),
                 id="concurrency_conditions"),
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


# ------------------------------------------------------ one distance kernel

# every center kind of each arity, the tetrahedron's power family included
_KINDS = {3: CENTER_KINDS[3], 4: CENTER_KINDS[4] + (PowerIncenter(2.0), PowerIncenter(-0.5))}


@st.composite
def _simplices(draw):
    """A triangle with sides in the band, or the tetrahedron of four points
    in the unit cube, scaled by a few decades."""
    n = draw(st.sampled_from((3, 4)))
    scale = draw(st.sampled_from((1e-3, 0.3, 1.0, 7.0, 1e3)))
    if n == 3:
        lengths = [draw(st.floats(0.05, 1.0)) for _ in range(3)]
    else:
        pts = [[draw(st.floats(0.0, 1.0)) for _ in range(3)] for _ in range(4)]
        lengths = [math.dist(pts[i], pts[j]) for i, j in EDGES[4]]
    try:
        return (validate_triangle, validate_tetrahedron)[n - 3](*(scale * x for x in lengths))
    except GeometryError:
        reject()


# the equilateral triangle and the regular tetrahedron: their centers
# coincide, so the pairs take the zero and the grain-window paths
@given(_simplices())
@example(validate_triangle(0.3, 0.3, 0.3))
@example(validate_triangle(0.7, 0.7, 0.7))
@example(validate_triangle(1, 1, 1))
@example(validate_tetrahedron(*[1.0] * 6))
@example(validate_tetrahedron(*[0.3] * 6))
def test_pair_table_entries_equal_their_pairwise_distances_exactly(shape):
    comps = {}
    for kind in _KINDS[len(shape.E)]:
        try:
            comps[kind] = center_components(kind, shape)
        except GeometryError:
            pass  # an excenter at infinity, say; the table leaves it out
    table = pair_table(comps, shape)
    assert [rep.pair for rep in table] == list(combinations(comps, 2))
    for rep in table:
        d = dist_between_centers(comps[rep.pair[0]], comps[rep.pair[1]], shape)
        assert rep.distance == d and rep.squared_distance == d * d


def test_pair_distances_equal_their_table_entries_in_both_orders():
    # bit for bit, over the engine-digit shapes at every scale; a table that
    # raises (a pair sum past the float range) raises for the pairs too
    tables = 0
    for lengths, validate in _squares_shapes():
        shape = validate(*lengths)
        comps = {}
        for kind in CENTER_KINDS[shape._N]:
            try:
                comps[kind] = center_components(kind, shape)
            except GeometryError:
                pass
        try:
            table = {rep.pair: rep.distance for rep in pair_table(comps, shape)}
        except GeometryError:
            table = None
        for k1, k2 in combinations(comps, 2):
            one = outcome(lambda: dist_between_centers(comps[k1], comps[k2], shape))
            assert outcome(lambda: dist_between_centers(comps[k2], comps[k1], shape)) == one
            if table is not None:
                assert one == ("ok", repr(table[k1, k2])), (lengths, k1, k2)
        tables += table is not None
    assert tables > 900


@pytest.mark.parametrize("c1, c2, shape, message", [
    (None, C4, TRI, "components None are not a Components"),
    (C4, None, TRI, "4 weights given where 3 are needed"),
    (C3, (1, 2, 3), TRI, "components (1, 2, 3) are not a Components"),
    (C3, [1, 2, 3], TRI, "components [1, 2, 3] are not a Components"),
    ("x", C3, TET, "components 'x' are not a Components"),
    (C3, C3, TET, "3 weights given where 4 are needed"),
    (C3, C4, TRI, "4 weights given where 3 are needed"),
    (None, None, None, "shape None is neither a TriangleSides nor a TetraEdges"),
    (C3, C3, (3, 4, 5), "shape (3, 4, 5) is neither a TriangleSides nor a TetraEdges"),
])
def test_dist_between_centers_checks_the_shape_then_each_argument_in_order(c1, c2, shape,
                                                                             message):
    with pytest.raises(GeometryError) as info:
        dist_between_centers(c1, c2, shape)
    assert type(info.value) is GeometryError and str(info.value) == message


def test_a_grain_over_squares_whose_sum_overflows_clamps_to_zero():
    # the squares of 1e154 are finite, their sum is not: the window for a
    # negative square is then unbounded, and coincident points are at 0.0
    huge = validate_triangle(1e154, 1e154, 1e154)
    p = Components((0.33333333333333326, 0.3333333333333334, 0.33333333333333326))
    g = Components((1 / 3, 0.3333333333333334, 1 / 3))
    assert pair_sum(tuple(y - x for x, y in zip(g.weights, p.weights)), huge)[0] > 0.0
    assert dist_between_centers(g, p, huge) == dist_between_centers(p, g, huge) == 0.0


# ----------------------------------------- typed errors on the slow paths

# one weight that is not finite among others whose magnitudes overflow, and
# infinities of both signs (whose plain fsum raises a bare ValueError)
@pytest.mark.parametrize("weights", [(math.nan, 1e308, 1e308), (-math.inf, math.inf, 1.0)])
def test_weights_that_are_not_finite_are_named(weights):
    with pytest.raises(GeometryError, match="are not all finite"):
        Components(weights)


@pytest.mark.parametrize("weights", [(1e308, 1e308, 1.0), (1e308, -1e308, 1.0, 1.0)])
def test_weights_whose_magnitude_sum_overflows_raise_typed_errors(weights):
    with pytest.raises(GeometryError, match="a weight sum leaves the floating-point range"):
        Components(weights)


@pytest.mark.parametrize("weights", [(0.0, 0.0, 0.0), (1.0, -1.0, 0.5, -0.5)])
def test_weights_that_sum_to_zero_raise_degenerate_denominator(weights):
    with pytest.raises(DegenerateDenominator, match="sum to ~0"):
        Components(weights)


@pytest.mark.parametrize("ratios, name", [
    ((1.0, 0.0, 1.0), "lambda_bc"),
    ((math.nan, 1.0, 1.0), "lambda_ab"),
    ((1.0, 1.0, -math.inf), "lambda_ca"),
    ((1.0, -0.0, math.nan), "lambda_bc"),
])
def test_cevian_ratios_name_the_first_field_that_fails(ratios, name):
    with pytest.raises(DegenerateDenominator, match=f"^{name} = "):
        IRVector3(*ratios)


@pytest.mark.parametrize("ratios", [(1e200, 1e200, 1e-300), (1e300, 1e300, 1.0),
                                    (1e200, 1e200, 1e200)])
def test_cevian_ratios_whose_product_overflows_violate_ceva(ratios):
    # the product is inf, which the relative tolerance alone would pass
    with pytest.raises(CevaViolation, match="^ratio product inf != 1"):
        IRVector3(*ratios)


def _engine_ratios():
    """The cevian-ratio triples of every center on the engine-digit shapes:
    each triangle's, and each face's of every tetrahedron, where no weight
    vanishes."""
    out = []
    for shapes, validate, faces in ((ENGINE_TRIANGLES, validate_triangle, [(0, 1, 2, None)]),
                                    (ENGINE_TETRAHEDRA, validate_tetrahedron,
                                     FACE_INDICES.values())):
        for lengths in shapes:
            shape = validate(*lengths)
            for kind in CENTER_KINDS[shape._N]:
                try:
                    w = center_components(kind, shape).weights
                except GeometryError:
                    continue
                out.extend((w[v2] / w[v1], w[v3] / w[v2], w[v1] / w[v3])
                           for v1, v2, v3, _ in faces if min(map(abs, w)) > 1e-12)
    return out


def test_trusted_ratios_build_what_the_constructor_builds(monkeypatch):
    triples = _engine_ratios()
    assert len(triples) > 1000
    built = [IRVector3(*r) for r in triples]

    def refuse(*args):
        raise AssertionError("the trusted builder ran IRVector3.__init__")

    monkeypatch.setattr(IRVector3, "__init__", refuse)  # good ratios skip it
    for r, want in zip(triples, built):
        got = _ratios(*r)
        assert type(got) is IRVector3 and got == want and repr(got) == repr(want)
        assert all(type(v) is float for v in got.as_tuple())


# every triple of zero, +-inf, NaN and 1 but (1, 1, 1), a product of 8, and
# products that overflow to inf from finite factors
BAD_RATIOS = [r for r in product((0.0, math.inf, -math.inf, math.nan, 1.0), repeat=3)
              if r != (1.0, 1.0, 1.0)] + [
    (2.0, 2.0, 2.0), (1.0, -0.0, 1.0), (1e200, 1e200, 1e-300), (-1e300, -1e300, 1.0)]


@pytest.mark.parametrize("ratios", BAD_RATIOS)
def test_trusted_ratios_raise_what_the_constructor_raises(ratios):
    with pytest.raises(GeometryError) as want:
        IRVector3(*ratios)
    with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
        _ratios(*ratios)


@pytest.mark.parametrize("build, named", [
    (lambda: FaceAreas((1.0, 2.0), math.nan), "2 face areas given"),
    (lambda: FaceAreas((1.0, 2.0, 3.0, 4.0), math.nan), "area sum (nan,)"),
    (lambda: FaceAreas((1.0, 2.0, math.inf, 4.0), 10.0), "face areas (1.0, 2.0, inf, 4.0)"),
    (lambda: CircumAux("x", 1), "circumcenter weights 'x'"),
    (lambda: CircumAux((1, 2, 3, 4), "u"), "circumcenter weight sum ('u',)"),
    (lambda: DistanceReport(("G", "I"), math.nan, math.inf), "distances (nan, inf)"),
    (lambda: DistanceReport(("G", "I"), 4.0, -math.inf), "distances (4.0, -inf)"),
])
def test_value_holders_refuse_fields_that_are_not_finite_numbers(build, named):
    with pytest.raises(GeometryError, match=re.escape(named)):
        build()


@pytest.mark.parametrize("args, named", [
    ((None, 1.0, 1.0), "pair None is not a 2-tuple"),
    ((("G", "I", "Q"), 1.0, 1.0), "pair ('G', 'I', 'Q') is not a 2-tuple"),
    ((["G", "I"], 1.0, 1.0), "pair ['G', 'I'] is not a 2-tuple"),
    ((("G", ["I"]), 1.0, 1.0), "pair ('G', ['I']) is not a 2-tuple of hashable names"),
    ((("G", "I"), 4.0, 3.0), "distance 3.0 is not the nonnegative root of the squared "
                             "distance 4.0"),
    ((("G", "I"), 1.0, -1.0), "distance -1.0 is not the nonnegative root"),
    ((("G", "I"), 1e300, 1e160), "distance 1e+160 is not the nonnegative root"),
])
def test_distance_report_refuses_a_wrong_pair_or_distance(args, named):
    with pytest.raises(GeometryError, match=re.escape(named)):
        DistanceReport(*args)


@pytest.mark.parametrize("pair", [None, ("G",), ("G", ["I"]), "GI"])
def test_pair_distances_refuses_an_entry_with_a_wrong_pair(pair):
    # an entry filled without __init__, as pair_table fills its own
    rep = object.__new__(DistanceReport)
    rep.__dict__.update(pair=pair, squared_distance=1.0, distance=1.0)
    with pytest.raises(GeometryError, match="is not a 2-tuple"):
        pair_distances([DistanceReport(("G", "I"), 4.0, 2.0), rep])


@pytest.mark.parametrize("ratios", [(math.nan, 1.0, 1.0), (math.inf, 1.0, 1.0),
                                    (1.0, -math.inf, 1.0), (1e200, 1e200, 1e200),
                                    (-1e200, 1e200, 1e200)])
def test_ratio_determinant_outside_the_float_range_raises(ratios):
    with pytest.raises(GeometryError, match="give no finite determinant"):
        fractional_ratio_determinant(*ratios)


@pytest.mark.parametrize("dists, comps, sides", [
    ((1e200,) * 3, (2, -1, 0.5), (3, 4, 5)),  # squares that cancel past the range at 2**-3
    ((1e200,) * 3, (1, 1, 1), (3, 4, 5)),  # squares past the range at 2**-3
])
def test_origin_distances_far_from_a_small_shape_answer(dists, comps, sides):
    # the origin's distances and the shape share one scale, the origin's:
    # the answer is the one on the inputs scaled by 2**-m, times 2**m
    m = math.frexp(max(dists))[1]
    comps = Components(comps)
    got = dist_origin_to_center(dists, comps, validate_triangle(*sides))
    reference = dist_origin_to_center([math.ldexp(x, -m) for x in dists], comps,
                                      validate_triangle(*(math.ldexp(x, -m) for x in sides)))
    assert math.isfinite(got) and got == math.ldexp(reference, m)
    assert got == pytest.approx(1e200, rel=1e-12)


def test_origin_distances_with_finite_squares_on_the_unit_shape_answer():
    # its terms and their difference were past the float range at the user's
    # scale; on the unit shape they are not, and the answer is the one on the
    # lengths scaled by 2**-k, times 2**k
    sides, dists, k = (1e154,) * 3, (1.1e154, 0.0, 0.0), math.frexp(1e154)[1]
    comps = Components((2, -1, 0.5))
    got = dist_origin_to_center(dists, comps, validate_triangle(*sides))
    reference = dist_origin_to_center([math.ldexp(x, -k) for x in dists], comps,
                                      validate_triangle(*(math.ldexp(x, -k) for x in sides)))
    assert math.isfinite(got) and got == math.ldexp(reference, k)


def test_pair_terms_that_overflow_raise_typed_errors():
    huge = validate_triangle(1e150, 1e150, 1e150)
    far = Components((1e6, -1e6 + 1.0, 1.0))  # weights ~5e5: their distance is ~5e155
    g = Components((1.0, 1.0, 1.0))
    with pytest.raises(GeometryError, match="^a pair sum leaves the floating-point range$"):
        pair_sum((1e200, 1e200, 1.0), TRI)  # its terms overflow on the unit shape too
    # the squared distance, about 2.5e311, is past the float range; the distance is not
    with pytest.raises(GeometryError, match="a squared distance of the lengths .* leaves the "
                                            "floating-point range"):
        pair_table({"P": far, "G": g}, huge)
    k = math.frexp(1e150)[1]
    reference = dist_between_centers(far, g, validate_triangle(*(math.ldexp(1e150, -k),) * 3))
    assert dist_between_centers(far, g, huge) == math.ldexp(reference, k)


# weights, ratios, exponents and distances that are not numbers in the float
# range: a typed error names the input, where abs(), isfinite(), a product,
# a comparison or float() used to raise a bare TypeError or ValueError
@pytest.mark.parametrize("call, named", [
    (lambda: Components(("a", 1, 1)), "weights ('a', 1, 1) "),
    (lambda: Components([None, 1, 1]), "weights (None, 1, 1) "),
    (lambda: IRVector3("x", 1, 1), "cevian ratios ('x', 1, 1) "),
    (lambda: PowerIncenter("x"), "exponent 'x' "),
    (lambda: pair_sum(("a", 1, 1), TRI), "weights ('a', 1, 1) "),
    (lambda: Components((10 ** 400, 1, 1)), "are not numbers in the float range"),
    (lambda: IRVector3(1, 10 ** 400, 1), "are not numbers in the float range"),
    (lambda: PowerIncenter(10 ** 400), "is not a number in the float range"),
    (lambda: pair_sum((1, 1, 10 ** 400), TRI), "are not numbers in the float range"),
    (lambda: Components(5), "weights 5 "),
    (lambda: dist_origin_to_center(("a", 1, 1), C3, TRI), "vertex distances ('a', 1, 1) "),
    (lambda: projection_components(TET, ["a", 1, 1, 1], "ABC"),
     "squared vertex distances ['a', 1, 1, 1] "),
], ids=["Components-str", "Components-None", "IRVector3-str", "PowerIncenter-str",
        "pair_sum-str", "Components-huge-int", "IRVector3-huge-int", "PowerIncenter-huge-int",
        "pair_sum-huge-int", "Components-int", "dist_origin_to_center-str",
        "projection_components-str"])
def test_weights_ratios_and_exponents_that_are_not_numbers_raise_typed_errors(call, named):
    with pytest.raises(GeometryError, match=re.escape(named)):
        call()


def _fill_center_cache(shape):
    """Builds every named center of ``shape``, which fills its center cache."""
    kinds = CENTER_KINDS[len(shape.E)]
    comps = [center_components(kind, shape) for kind in kinds]
    assert list(vars(shape)["_centers"].values()) == comps and len(comps) == len(kinds)

import math
import re
import warnings

import numpy as np
import pytest

from cevian.core_model import (
    CENTER_KINDS,
    EDGES,
    FACES,
    FACE_INDICES,
    VERTICES,
    ExcenterDenominatorZero,
    GeometryError,
    ParallelSide,
    PowerIncenter,
    ThroughVertex,
    center_components,
    validate_tetrahedron,
    validate_triangle,
)
from cevian import coord_oracle as oracle
from cevian.tet_centers import projection_of_center
from cevian import verify


RIGHT = validate_triangle(3, 4, 5)
SCALENE = validate_triangle(4, 6, 7)
PYRAMID = validate_tetrahedron(3, 3, 3, 2, 2, 2)
IRREGULAR = validate_tetrahedron(3, 4, 5, 5, 6, 7)


def test_embedding_reproduces_side_lengths():
    pa, pb, pc = oracle.embed_triangle(SCALENE).vertices
    assert np.linalg.norm(pb - pc) == pytest.approx(4.0)
    assert np.linalg.norm(pc - pa) == pytest.approx(6.0)
    assert np.linalg.norm(pa - pb) == pytest.approx(7.0)
    assert pc[1] > 0  # canonical gauge: C in the upper half plane


def test_embedding_reproduces_edge_lengths():
    tet = oracle.embed_tetra(IRREGULAR)
    want = {("A", "B"): 3, ("A", "C"): 4, ("A", "D"): 5,
            ("B", "C"): 5, ("C", "D"): 6, ("D", "B"): 7}
    for (x, y), length in want.items():
        got = np.linalg.norm(tet.vertices[VERTICES.index(x)]
                             - tet.vertices[VERTICES.index(y)])
        assert got == pytest.approx(length, rel=1e-12)
    assert tet.vertices[3][2] > 0


def _dist_point_to_line(p, q1, q2):
    d = q2 - q1
    t = np.dot(p - q1, d) / np.dot(d, d)
    return float(np.linalg.norm(p - q1 - t * d))


def test_incenter_is_equidistant_from_sides():
    tri = oracle.embed_triangle(SCALENE)
    pa, pb, pc = tri.vertices
    inc = oracle.definitional_center(tri, "I")
    dists = [
        _dist_point_to_line(inc, pb, pc),
        _dist_point_to_line(inc, pc, pa),
        _dist_point_to_line(inc, pa, pb),
    ]
    assert max(dists) - min(dists) < 1e-12


def test_excenter_equidistant_but_outside():
    tri = oracle.embed_triangle(SCALENE)
    pa, pb, pc = tri.vertices
    ex = oracle.definitional_center(tri, "E_A")
    dists = [
        _dist_point_to_line(ex, pb, pc),
        _dist_point_to_line(ex, pc, pa),
        _dist_point_to_line(ex, pa, pb),
    ]
    assert max(dists) - min(dists) < 1e-12
    # opposite side of BC from A
    n = pa - (pb + pc) / 2
    assert np.dot(ex - pb, n) < 0


def test_circumcenter_equidistant_from_vertices():
    tri = oracle.embed_triangle(SCALENE)
    q = oracle.definitional_center(tri, "Q")
    d = [np.linalg.norm(q - v) for v in tri.vertices]
    assert max(d) - min(d) < 1e-12


def test_orthocenter_lies_on_altitudes():
    tri = oracle.embed_triangle(SCALENE)
    pa, pb, pc = tri.vertices
    h = oracle.definitional_center(tri, "H")
    assert abs(np.dot(h - pa, pc - pb)) < 1e-10
    assert abs(np.dot(h - pb, pa - pc)) < 1e-10


def test_right_triangle_landmarks():
    # with the right angle at C, the orthocenter IS C and the circumcenter
    # is the midpoint of the hypotenuse
    tri = oracle.embed_triangle(RIGHT)
    pa, pb, pc = tri.vertices
    h = oracle.definitional_center(tri, "H")
    assert np.linalg.norm(h - pc) < 1e-10
    q = oracle.definitional_center(tri, "Q")
    assert np.linalg.norm(q - (pa + pb) / 2) < 1e-10


def test_tetra_incenter_equidistant_from_faces():
    tet = oracle.embed_tetra(IRREGULAR)
    inc = oracle.definitional_center(tet, "I")
    normals, offsets, _ = tet.facets
    dists = [abs(float(np.dot(n, inc) - off)) for n, off in zip(normals, offsets)]
    assert max(dists) - min(dists) < 1e-12


def test_tetra_circumcenter_equidistant_from_vertices():
    tet = oracle.embed_tetra(IRREGULAR)
    q = oracle.definitional_center(tet, "Q")
    d = [np.linalg.norm(q - v) for v in tet.vertices]
    assert max(d) - min(d) < 1e-11


def test_tetra_excenter_sits_beyond_its_face():
    tet = oracle.embed_tetra(PYRAMID)
    ex = oracle.definitional_center(tet, "E_A")
    normals, offsets, _ = tet.facets
    # facet 0 is BCD, opposite A, and its inward normal points at A
    assert float(np.dot(normals[0], ex) - offsets[0]) < 0


def test_power_center_matches_area_weighted_mean():
    tet = oracle.embed_tetra(PYRAMID)
    areas = dict(zip("ABCD", tet.facets[2].tolist()))
    w = np.array([areas[v] ** 2 for v in "ABCD"])
    want = (w[:, None] * tet.vertices).sum(axis=0) / w.sum()
    got = oracle.definitional_center(tet, PowerIncenter(2))
    assert np.linalg.norm(got - want) < 1e-12


def test_point_from_components_centroid():
    tri = oracle.embed_triangle(SCALENE)
    g = oracle.point_from_components(tri, (1 / 3, 1 / 3, 1 / 3))
    assert np.allclose(g, sum(tri.vertices) / 3)


def test_frame_equation_residual_zero_at_realized_point():
    tet = oracle.embed_tetra(IRREGULAR)
    comps = (0.1, 0.2, 0.3, 0.4)
    p = oracle.point_from_components(tet, comps)
    assert oracle.frame_equation_residual(tet, comps, p) < 1e-12
    assert oracle.frame_equation_residual(tet, comps, p + 0.1) > 1e-3


def test_menelaus_product_is_minus_one():
    tri = oracle.embed_triangle(SCALENE)
    prod = oracle.menelaus_product(tri, np.array([1.7, 0.3]),
                                   np.array([0.5, 1.2]))
    assert prod == pytest.approx(-1.0, abs=1e-12)


def test_menelaus_rejects_parallel_and_vertex_lines():
    tri = oracle.embed_triangle(SCALENE)
    pa, pb, _ = tri.vertices
    with pytest.raises(ParallelSide):
        oracle.menelaus_product(tri, np.array([0.0, 1.0]), pb - pa)
    with pytest.raises(ThroughVertex):
        oracle.menelaus_product(tri, pa, np.array([0.3, 1.0]))


def test_projection_foot_is_orthogonal():
    tet = oracle.embed_tetra(IRREGULAR)
    _, pb, pc, pd = tet.vertices
    p = np.array([0.3, -0.7, 2.1])
    foot = oracle.projection_foot_oracle(tet, p, "BCD")
    normals, offsets, _ = tet.facets
    assert abs(float(np.dot(normals[0], foot) - offsets[0])) < 1e-12   # foot is on BCD
    drop = p - foot
    for u, v in ((pb, pc), (pc, pd)):
        assert abs(float(np.dot(drop, u - v))) < 1e-10


# ---------------------------------------------------------------- frames

def _random_tetras():
    rng = np.random.default_rng(5)
    for _ in range(20):
        yield oracle.EmbeddedSimplex(rng.uniform(-1.0, 1.0, size=(4, 3)))
    yield oracle.embed_tetra(IRREGULAR)
    # near-flat: D a hair above the base plane, on either side of it
    for height in (1e-6, -1e-9):
        yield oracle.EmbeddedSimplex([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                      [0.3, 0.9, 0.0], [0.4, 0.3, height]])


def _random_triangles():
    rng = np.random.default_rng(6)
    for _ in range(20):
        yield oracle.EmbeddedSimplex(rng.uniform(-1.0, 1.0, size=(3, 2)))
    yield oracle.embed_triangle(SCALENE)
    yield oracle.EmbeddedSimplex([[0.0, 0.0], [1.0, 0.0], [0.4, -1e-9]])


def _assert_facets_match_normals(emb):
    """Row i of ``emb.facets`` is the facet opposite vertex i, through the
    vertices i+1, ..., i+n-1 taken cyclically: its unit inward normal,
    offset and content against the edge perpendicular (n = 3) or the edge
    cross product (n = 4) computed here."""
    verts = emb.vertices
    n = len(verts)
    normals, offsets, contents = emb.facets
    for i, opp in enumerate(verts):
        p1, *others = (verts[(i + j) % n] for j in range(1, n))
        if n == 3:
            d = others[0] - p1
            raw, content = np.array([-d[1], d[0]]), float(np.linalg.norm(d))
        else:
            raw = np.cross(others[0] - p1, others[1] - p1)
            content = 0.5 * float(np.linalg.norm(raw))
        want = raw / np.linalg.norm(raw)
        if np.dot(want, opp - p1) < 0.0:
            want = -want
        assert np.linalg.norm(normals[i]) == pytest.approx(1.0, abs=1e-15)
        assert float(np.dot(normals[i], opp - p1)) > 0.0
        np.testing.assert_allclose(normals[i], want, rtol=0, atol=1e-15)
        assert offsets[i] == pytest.approx(float(np.dot(want, p1)), rel=1e-14, abs=1e-15)
        assert contents[i] == pytest.approx(content, rel=1e-14)


# one facet rule for both arities, run on the triangle and tetrahedron corpora
@pytest.mark.parametrize("tet", list(_random_tetras()))
def test_face_planes_match_cross_products(tet):
    _assert_facets_match_normals(tet)
    # the named faces read the same rows: face f is the facet opposite its
    # off-vertex, with its vertices in FACE_INDICES order
    for face, (*cyclic, _) in FACE_INDICES.items():
        np.testing.assert_array_equal(tet.face_vertices(face), tet.vertices[cyclic])
    assert oracle.oracle_face_areas(tet) == dict(zip("ABCD", tet.facets[2].tolist()))


@pytest.mark.parametrize("tri", list(_random_triangles()))
def test_side_lines_match_edge_normals(tri):
    _assert_facets_match_normals(tri)


def test_frames_cannot_go_stale():
    tri = oracle.embed_triangle(SCALENE)
    tet = oracle.embed_tetra(IRREGULAR)
    assert tet.facets is tet.facets and tri.facets is tri.facets
    # equal vertex arrays do not make equal simplices: arrays compare
    # elementwise, so equality and hashing are by identity
    twin = oracle.embed_tetra(IRREGULAR)
    assert tet == tet and tet != twin and len({tet, twin, tet}) == 2
    assert repr(tri) == f"EmbeddedSimplex(vertices={tri.vertices!r})"
    with pytest.raises(AttributeError, match="cannot assign to field"):
        tet.vertices = np.zeros((4, 3))
    with pytest.raises(AttributeError, match="cannot assign to field"):
        tri.vertices = np.zeros((3, 2))
    for array in (tet.vertices, tri.vertices, *tet.facets, *tri.facets, tet.facets[0][3]):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_simplex_is_a_triangle_or_a_tetrahedron():
    # a stack is one of triangles or of tetrahedra
    for shape in ((3, 3), (4, 2), (2, 1), (5, 4),
                  (2, 3, 3), (5, 4, 2), (7, 2, 1), (2, 2, 5, 4), (3,), ()):
        with pytest.raises(GeometryError):
            oracle.EmbeddedSimplex(np.zeros(shape))
    for shape in ((2, 3, 2), (5, 4, 3), (2, 2, 4, 3)):
        assert oracle.EmbeddedSimplex(np.ones(shape)).vertices.shape == shape


def test_flat_triangle_excenter_is_a_typed_error():
    # C a hair above AB: the contents' total minus twice |AB| vanishes, so
    # E_C escapes to infinity, as the gate already said for tetrahedra
    flat = [[0.0, 0.0], [1.0, 0.0], [0.5, 1e-9]]
    with pytest.raises(ExcenterDenominatorZero):
        oracle.definitional_center(oracle.EmbeddedSimplex(flat), "E_C")
    # in a stack, one such row is enough
    stack = oracle.EmbeddedSimplex([oracle.embed_triangle(SCALENE).vertices, flat])
    with pytest.raises(ExcenterDenominatorZero):
        oracle.definitional_center(stack, "E_C")


def test_ill_conditioned_systems_still_warn():
    flat_tri = oracle.EmbeddedSimplex([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-14]])
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        oracle.definitional_center(flat_tri, "I")
    flat_tet = oracle.EmbeddedSimplex([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                       [0.3, 0.9, 0.0], [0.4, 0.3, 1e-14]])
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        oracle.definitional_center(flat_tet, "I")
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        oracle.definitional_center(flat_tet, "Q")


# ---------------------------------------------------------------- stacks

def _bits(a):
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


def _verify_shapes(draw, offset, count):
    """The first ``count`` shapes verify draws for seed 42, in case order,
    each drawn as a block of one."""
    shapes, case = [], 0
    while len(shapes) < count:
        (shape,) = draw([np.random.default_rng([42, 2 * case + offset])])
        case += 1
        if shape is not None:
            shapes.append(shape)
    return shapes


@pytest.mark.parametrize("arity", [3, 4])
def test_stack_matches_each_simplex_bitwise(arity):
    if arity == 3:
        shapes = _verify_shapes(verify._random_triangles, 0, 500)
        embs = [oracle.embed_triangle(s) for s in shapes]
        kinds = list(CENTER_KINDS[3])
    else:
        shapes = _verify_shapes(verify._random_tetras, 1, 500)
        embs = [oracle.embed_tetra(e) for e in shapes]
        kinds = [*CENTER_KINDS[4], PowerIncenter(2.0), PowerIncenter(3)]
    stack = oracle.EmbeddedSimplex(np.stack([e.vertices for e in embs]))
    for part in range(3):
        assert _bits(stack.facets[part]) == _bits([e.facets[part] for e in embs])
    for kind in kinds:
        points = oracle.definitional_center(stack, kind)
        assert _bits(points) == _bits([oracle.definitional_center(e, kind) for e in embs])
        comps = [center_components(kind, s) for s in shapes]
        weights = np.array([c.as_tuple() for c in comps])
        realized = oracle.point_from_components(stack, weights)
        assert _bits(realized) == _bits(
            [oracle.point_from_components(e, c) for e, c in zip(embs, comps)])
        # ... and as the per-vertex loop adds them
        assert _bits(realized) == _bits(
            [sum(w * v for w, v in zip(c.as_tuple(), e.vertices)) for e, c in zip(embs, comps)])
        assert _bits(oracle.frame_equation_residual(stack, weights, points)) == _bits(
            [oracle.frame_equation_residual(e, c, p) for e, c, p in zip(embs, comps, points)])
        assert _bits(oracle.frame_equation_residual(stack, weights, points)) == _bits(
            [np.linalg.norm(sum(w * (v - p) for w, v in zip(c.as_tuple(), e.vertices)))
             for e, c, p in zip(embs, comps, points)])
        if isinstance(kind, PowerIncenter):
            loop = []
            for e in embs:
                w = [area ** kind.n for area in e.facets[2].tolist()]
                loop.append(sum(x * v for x, v in zip(w, e.vertices)) / sum(w))
            assert _bits(points) == _bits(loop)
        # distances round as np.linalg.norm of each difference
        assert _bits(oracle.distance(realized, points)) == _bits(
            [np.linalg.norm(r - p) for r, p in zip(realized, points)])
    incenters = oracle.definitional_center(stack, "I")
    assert _bits(oracle.facet_distances(stack, incenters)) == _bits(
        [[np.dot(n, p) - off for n, off in zip(*e.facets[:2])]
         for e, p in zip(embs, incenters)])
    if arity == 4:
        points = np.random.default_rng(1).uniform(-0.5, 1.5, size=(2, len(embs), 3))
        for face in FACES:
            assert _bits(oracle.projection_foot_oracle(stack, points, face)) == _bits(
                [[oracle.projection_foot_oracle(e, p, face) for e, p in zip(embs, row)]
                 for row in points])
            feet = [projection_of_center("I", e, face).as_tuple() for e in shapes]
            assert _bits(oracle.point_on_face(stack, face, feet)) == _bits(
                [sum(w * v for w, v in zip(c, e.face_vertices(face)))
                 for e, c in zip(embs, feet)])


def _transversal_alone(verts, p0, d):
    """One transversal solved on its own, row by row with np.linalg.norm,
    np.column_stack and np.linalg.solve: (its Menelaus product, None) or
    (None, the class of the error for the first check it fails)."""
    pa, pb, pc = verts
    if np.linalg.norm(d) == 0.0:
        return None, GeometryError
    product = 1.0
    scale = max(np.linalg.norm(pb - pa), np.linalg.norm(pc - pb))
    for p, q in ((pa, pb), (pb, pc), (pc, pa)):
        m = np.column_stack([q - p, -d])
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det) <= 1e-14 * np.linalg.norm(q - p) * np.linalg.norm(d):
            return None, ParallelSide
        t = np.linalg.solve(m, p0 - p)[0]
        if min(abs(t), abs(1.0 - t)) <= 1e-12 * max(1.0, scale):
            return None, ThroughVertex
        product *= t / (1.0 - t)
    return product, None


def _on_vertex_guard(verts, d):
    """Points on side AB next to A (at the origin) whose line along ``d``
    cuts AB at t exactly on the vertex guard's threshold, and at the next
    float above it; there one ulp of the longest side's norm decides the
    verdict."""
    pa, pb, pc = verts
    threshold = 1e-12 * max(1.0, max(np.linalg.norm(pb - pa), np.linalg.norm(pc - pb)))
    m = np.column_stack([pb - pa, -d])
    points = []
    for target in (threshold, np.nextafter(threshold, np.inf)):
        x = target * pb[0]
        for _ in range(64):
            t = np.linalg.solve(m, np.array([x, 0.0]))[0]
            if t == target:
                points.append(np.array([x, 0.0]))
                break
            x = np.nextafter(x, np.inf if t < target else -np.inf)
    return points


def test_stacked_transversals_match_each_line_alone_bitwise():
    rng = np.random.default_rng(2024)
    verts, points, dirs = [], [], []
    on_guard = 0
    for sides in _verify_shapes(verify._random_triangles, 0, 300):
        # sides up to 3, so the guard's scale is often the norm of BC
        tri = oracle.embed_triangle(validate_triangle(*(3.0 * x for x in sides.as_tuple())))
        perim = 3.0 * sides.perimeter
        lines = []
        ang = rng.uniform(0.0, math.pi)
        unit = np.array([math.cos(ang), math.sin(ang)])
        lines.append((rng.uniform(-1.0, 2.0, size=2) * perim, unit))
        lines += [(v, unit) for v in tri.vertices]                      # through a vertex
        lines += [(rng.uniform(-1.0, 2.0, size=2) * perim, q - p)       # parallel to a side
                  for p, q in zip(tri.vertices, np.roll(tri.vertices, -1, axis=0))]
        lines.append((rng.uniform(-1.0, 2.0, size=2) * perim, np.zeros(2)))
        # next to A along CA turned by 1e-3, so only AB's vertex guard is close
        ca = tri.vertices[0] - tri.vertices[2]
        turn = np.array([[math.cos(1e-3), -math.sin(1e-3)], [math.sin(1e-3), math.cos(1e-3)]])
        guarded = _on_vertex_guard(tri.vertices, turn @ ca)
        on_guard += len(guarded)
        lines += [(p, turn @ ca) for p in guarded]
        for p, d in lines:
            verts.append(tri.vertices)
            points.append(p)
            dirs.append(d)
    products, faults = oracle._transversals(np.array(verts), np.array(points), np.array(dirs))
    seen = set()
    for v, p, d, product, fault in zip(verts, points, dirs, products.tolist(), faults.tolist()):
        want, error = _transversal_alone(v, p, d)
        seen.add(error)
        assert (oracle._TRANSVERSAL_FAULTS[fault][0] if fault else None) is error
        tri = oracle.EmbeddedSimplex(v)
        if error is None:
            assert _bits(product) == _bits(want)
            assert _bits(oracle.menelaus_product(tri, p, d)) == _bits(want)
        else:
            with pytest.raises(error) as raised:
                oracle.menelaus_product(tri, p, d)
            assert type(raised.value) is error
    assert seen == {None, GeometryError, ParallelSide, ThroughVertex}
    assert on_guard > 100


def test_tetra_draws_measure_each_edge_as_numpy_norm_does():
    for case in range(2000):
        pts = np.random.default_rng([5, case]).uniform(0.0, 1.0, size=(4, 3))
        (edges,) = verify._random_tetras([np.random.default_rng([5, case])])
        if edges is not None:
            assert _bits(edges.as_tuple()) == _bits(
                [np.linalg.norm(pts[i] - pts[j]) for i, j in EDGES[4]])


@pytest.mark.parametrize("draw", [verify._random_triangles, verify._random_tetras],
                         ids=["tri", "tet"])
def test_a_block_draws_the_shapes_its_generators_draw_alone(draw):
    """verify draws a block's shapes at once; each case's shape is the one
    its generator gives as a block of one, bit for bit, skips included."""
    def rngs():
        return [np.random.default_rng([9, case]) for case in range(300)]

    block = draw(rngs())
    alone = [draw([rng])[0] for rng in rngs()]
    assert [s is None for s in block] == [s is None for s in alone]
    assert block.count(None) < 300
    assert [_bits(s.as_tuple()) for s in block if s is not None] == \
        [_bits(s.as_tuple()) for s in alone if s is not None]


def test_a_stack_warns_once_for_its_ill_conditioned_rows():
    rows = [[[0.0, 0.0], [1.0, 0.0], [0.5, 0.8]],
            [[0.0, 0.0], [1.0, 0.0], [0.5, 1e-14]],
            [[0.0, 0.0], [1.0, 0.0], [0.4, 0.9]]]
    with pytest.warns(RuntimeWarning, match="ill-conditioned") as caught:
        oracle.definitional_center(oracle.EmbeddedSimplex(rows), "I")
    assert len(caught) == 1
    # with two ill-conditioned rows, the one warning quotes the larger cond
    rows[2] = [[0.0, 0.0], [1.0, 0.0], [0.5, 1e-15]]
    with warnings.catch_warnings(record=True) as alone:
        warnings.simplefilter("always")
        for row in rows[1:]:
            oracle.definitional_center(oracle.EmbeddedSimplex(row), "I")
    quoted = [float(re.search(r"cond = ([^)]+)\)", str(w.message)).group(1)) for w in alone]
    assert quoted[0] != quoted[1]
    with pytest.warns(RuntimeWarning) as caught:
        oracle.definitional_center(oracle.EmbeddedSimplex(rows), "I")
    assert [str(w.message) for w in caught] == [str(alone[quoted.index(max(quoted))].message)]


def test_single_simplex_calls_check_their_arity():
    tet = oracle.embed_tetra(IRREGULAR)
    tri = oracle.embed_triangle(SCALENE)
    with pytest.raises(GeometryError):
        oracle.menelaus_product(tet, np.array([1.7, 0.3, 0.0]), np.array([0.5, 1.2, 0.0]))
    stack = oracle.EmbeddedSimplex(np.stack([tri.vertices, tri.vertices]))
    with pytest.raises(GeometryError):
        oracle.menelaus_product(stack, np.array([1.7, 0.3]), np.array([0.5, 1.2]))
    for face in ("ABC", "BCD"):
        with pytest.raises(GeometryError):
            oracle.projection_foot_oracle(tri, np.array([0.3, 0.2]), face)


# ------------------------------------------------- the condition-number filter

def _unfiltered_solve(matrix, rhs):
    """_solve with every system's exact condition number, as it read before
    its bound: cond, then the warning, then the solve."""
    m = np.asarray(matrix, dtype=float)
    cond = np.linalg.cond(m)
    ill = cond[cond > oracle._COND_LIMIT]
    if ill.size:
        warnings.warn(f"ill-conditioned center system (cond = {ill.max():.3g}); "
                      "result may lose precision", RuntimeWarning)
    return np.linalg.solve(m, np.asarray(rhs, dtype=float)[..., None])[..., 0]


def _solve_outcome(solve, matrix, rhs):
    """(the solution's bits or the raise, the warnings' messages)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = "ok", _bits(solve(matrix, rhs))
        except np.linalg.LinAlgError as exc:
            result = "LinAlgError", str(exc)
    return result, [(w.category, str(w.message)) for w in caught]


def _conditioned(rng, k, cond):
    """A k x k system with 2-norm condition number ``cond``."""
    q1, _ = np.linalg.qr(rng.standard_normal((k, k)))
    q2, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return (q1 * np.geomspace(1.0, 1.0 / cond, k)) @ q2.T


def _oracle_systems(monkeypatch, emb, kinds):
    """The (matrix, rhs) stacks the oracle solves for ``kinds`` on ``emb``."""
    seen = []
    monkeypatch.setattr(oracle, "_solve", lambda m, r: seen.append((m, r)) or
                        _unfiltered_solve(m, r))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for kind in kinds:
            oracle.definitional_center(emb, kind)
    monkeypatch.undo()
    return seen


def _filter_stacks(monkeypatch):
    rng = np.random.default_rng(2903)
    stacks = []
    for k in (2, 3, 4):
        stacks.append((rng.uniform(-1, 1, (64, k, k)), rng.uniform(-1, 1, (64, k))))
        # condition numbers on both sides of the limit and of the bound's margin
        conds = np.geomspace(1e9, 1e15, 40)
        stacks.append((np.array([_conditioned(rng, k, c) for c in conds]),
                       rng.uniform(-1, 1, (40, k))))
        for c in (1e11, 6.25e10, 1e12, 1.01e12, 1e13):  # one system alone
            stacks.append((_conditioned(rng, k, c), rng.uniform(-1, 1, k)))
    # near-flat triangles and tetrahedra, apex heights 1e-2 down to 1e-16
    heights = 10.0 ** -np.arange(2, 17)
    base = rng.uniform(0.1, 0.9, (len(heights), 2))
    tris = [[[0.0, 0.0], [1.0, 0.0], [x, h]] for (x, _), h in zip(base, heights)]
    tets = [[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.3, 0.9, 0.0], [x, y, h]]
            for (x, y), h in zip(base, heights)]
    stacks += _oracle_systems(monkeypatch, oracle.EmbeddedSimplex(tris), ("I", "Q", "H"))
    stacks += _oracle_systems(monkeypatch, oracle.EmbeddedSimplex(tets), ("I", "Q"))
    # an exactly singular system, alone and inside a stack
    singular = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 5.0]])
    stacks.append((singular, np.ones(3)))
    well = rng.uniform(-1, 1, (5, 3, 3))
    stacks.append((np.concatenate([well, singular[None]]), np.ones((6, 3))))
    return stacks


def test_the_condition_bound_warns_and_solves_as_every_cond_does(monkeypatch):
    """The filtered rule gives the same solutions, bit for bit, the same
    warning quoting the same largest cond, and the same raise."""
    stacks = _filter_stacks(monkeypatch)
    warned = raised = 0
    for m, rhs in stacks:
        want = _solve_outcome(_unfiltered_solve, m, rhs)
        assert _solve_outcome(oracle._solve, m, rhs) == want
        warned += bool(want[1])
        raised += want[0][0] != "ok"
    assert warned >= 10 and raised == 2
    # the exact cond of a system is the same whether taken in its stack or alone
    m = stacks[1][0]
    mask = np.arange(len(m)) % 3 == 0
    assert _bits(np.linalg.cond(m[mask])) == _bits(np.linalg.cond(m)[mask])


def test_well_conditioned_stacks_take_no_svd(monkeypatch):
    calls = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda m: calls.append(len(m)) or cond(m))
    rng = np.random.default_rng(2904)
    well = np.array([_conditioned(rng, 3, c) for c in (1.0, 1e3, 1e6)])
    oracle._solve(well, np.ones((3, 3)))
    assert calls == []
    ill = np.array([_conditioned(rng, 3, c) for c in (1.0, 1e13, 1e6)])
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        oracle._solve(ill, np.ones((3, 3)))
    assert calls == [1]  # the one system past the bound

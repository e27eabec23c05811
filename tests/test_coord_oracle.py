import dataclasses
import math

import numpy as np
import pytest

from cevian.core_model import (
    FACES,
    FACE_INDICES,
    VERTICES,
    ExcenterDenominatorZero,
    GeometryError,
    ParallelSide,
    PowerIncenter,
    ThroughVertex,
    validate_tetrahedron,
    validate_triangle,
)
from cevian import coord_oracle as oracle


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
    dists = []
    for face in ("BCD", "CDA", "DAB", "ABC"):
        n, off, _ = oracle._face_plane(tet, face)
        dists.append(abs(float(np.dot(n, inc) - off)))
    assert max(dists) - min(dists) < 1e-12


def test_tetra_circumcenter_equidistant_from_vertices():
    tet = oracle.embed_tetra(IRREGULAR)
    q = oracle.definitional_center(tet, "Q")
    d = [np.linalg.norm(q - v) for v in tet.vertices]
    assert max(d) - min(d) < 1e-11


def test_tetra_excenter_sits_beyond_its_face():
    tet = oracle.embed_tetra(PYRAMID)
    ex = oracle.definitional_center(tet, "E_A")
    n, off, _ = oracle._face_plane(tet, "BCD")  # inward normal points at A
    assert float(np.dot(n, ex) - off) < 0


def test_power_center_matches_area_weighted_mean():
    tet = oracle.embed_tetra(PYRAMID)
    areas = oracle.oracle_face_areas(tet)
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
    n, off, _ = oracle._face_plane(tet, "BCD")
    assert abs(float(np.dot(n, foot) - off)) < 1e-12   # foot is in the plane
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
    for face, (*cyclic, opp) in FACE_INDICES.items():
        np.testing.assert_array_equal(tet.face_vertices(face), tet.vertices[cyclic])
        n, off, area = oracle._face_plane(tet, face)
        assert (n.tolist(), off, area) == (tet.facets[0][opp].tolist(),
                                           tet.facets[1][opp], tet.facets[2][opp])
    assert oracle.oracle_face_areas(tet) == {
        "ABCD"[FACE_INDICES[f][3]]: oracle._face_plane(tet, f)[2] for f in FACES}


@pytest.mark.parametrize("tri", list(_random_triangles()))
def test_side_lines_match_edge_normals(tri):
    _assert_facets_match_normals(tri)


def test_frames_cannot_go_stale():
    tri = oracle.embed_triangle(SCALENE)
    tet = oracle.embed_tetra(IRREGULAR)
    assert tet.facets is tet.facets and tri.facets is tri.facets
    with pytest.raises(dataclasses.FrozenInstanceError):
        tet.vertices = np.zeros((4, 3))
    with pytest.raises(dataclasses.FrozenInstanceError):
        tri.vertices = np.zeros((3, 2))
    for array in (tet.vertices, tri.vertices, *tet.facets, *tri.facets,
                  oracle._face_plane(tet, "ABC")[0]):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_simplex_is_a_triangle_or_a_tetrahedron():
    for shape in ((3, 3), (4, 2), (2, 1), (5, 4)):
        with pytest.raises(GeometryError):
            oracle.EmbeddedSimplex(np.zeros(shape))


def test_flat_triangle_excenter_is_a_typed_error():
    # C a hair above AB: the contents' total minus twice |AB| vanishes, so
    # E_C escapes to infinity, as the gate already said for tetrahedra
    flat = oracle.EmbeddedSimplex([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-9]])
    with pytest.raises(ExcenterDenominatorZero):
        oracle.definitional_center(flat, "E_C")


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

import dataclasses
import math

import numpy as np
import pytest

from cevian.core_model import (
    FACES,
    FACE_INDICES,
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
    tri = oracle.embed_triangle(SCALENE)
    assert np.linalg.norm(tri.pb - tri.pc) == pytest.approx(4.0)
    assert np.linalg.norm(tri.pc - tri.pa) == pytest.approx(6.0)
    assert np.linalg.norm(tri.pa - tri.pb) == pytest.approx(7.0)
    assert tri.pc[1] > 0  # canonical gauge: C in the upper half plane


def test_embedding_reproduces_edge_lengths():
    tet = oracle.embed_tetra(IRREGULAR)
    want = {("A", "B"): 3, ("A", "C"): 4, ("A", "D"): 5,
            ("B", "C"): 5, ("C", "D"): 6, ("D", "B"): 7}
    for (x, y), length in want.items():
        got = np.linalg.norm(tet.vertex(x) - tet.vertex(y))
        assert got == pytest.approx(length, rel=1e-12)
    assert tet.pd[2] > 0


def _dist_point_to_line(p, q1, q2):
    d = q2 - q1
    t = np.dot(p - q1, d) / np.dot(d, d)
    return float(np.linalg.norm(p - q1 - t * d))


def test_incenter_is_equidistant_from_sides():
    tri = oracle.embed_triangle(SCALENE)
    inc = oracle.definitional_center(tri, "I")
    dists = [
        _dist_point_to_line(inc, tri.pb, tri.pc),
        _dist_point_to_line(inc, tri.pc, tri.pa),
        _dist_point_to_line(inc, tri.pa, tri.pb),
    ]
    assert max(dists) - min(dists) < 1e-12


def test_excenter_equidistant_but_outside():
    tri = oracle.embed_triangle(SCALENE)
    ex = oracle.definitional_center(tri, "E_A")
    dists = [
        _dist_point_to_line(ex, tri.pb, tri.pc),
        _dist_point_to_line(ex, tri.pc, tri.pa),
        _dist_point_to_line(ex, tri.pa, tri.pb),
    ]
    assert max(dists) - min(dists) < 1e-12
    # opposite side of BC from A
    n = tri.pa - (tri.pb + tri.pc) / 2
    assert np.dot(ex - tri.pb, n) < 0


def test_circumcenter_equidistant_from_vertices():
    tri = oracle.embed_triangle(SCALENE)
    q = oracle.definitional_center(tri, "Q")
    d = [np.linalg.norm(q - v) for v in tri.vertices()]
    assert max(d) - min(d) < 1e-12


def test_orthocenter_lies_on_altitudes():
    tri = oracle.embed_triangle(SCALENE)
    h = oracle.definitional_center(tri, "H")
    assert abs(np.dot(h - tri.pa, tri.pc - tri.pb)) < 1e-10
    assert abs(np.dot(h - tri.pb, tri.pa - tri.pc)) < 1e-10


def test_right_triangle_landmarks():
    # with the right angle at C, the orthocenter IS C and the circumcenter
    # is the midpoint of the hypotenuse
    tri = oracle.embed_triangle(RIGHT)
    h = oracle.definitional_center(tri, "H")
    assert np.linalg.norm(h - tri.pc) < 1e-10
    q = oracle.definitional_center(tri, "Q")
    assert np.linalg.norm(q - (tri.pa + tri.pb) / 2) < 1e-10


def test_tetra_incenter_equidistant_from_faces():
    tet = oracle.embed_tetra(IRREGULAR)
    inc = oracle.definitional_center4(tet, "I")
    dists = []
    for face in ("BCD", "CDA", "DAB", "ABC"):
        n, off, _ = oracle._face_plane(tet, face)
        dists.append(abs(float(np.dot(n, inc) - off)))
    assert max(dists) - min(dists) < 1e-12


def test_tetra_circumcenter_equidistant_from_vertices():
    tet = oracle.embed_tetra(IRREGULAR)
    q = oracle.definitional_center4(tet, "Q")
    d = [np.linalg.norm(q - v) for v in tet.vertices()]
    assert max(d) - min(d) < 1e-11


def test_tetra_excenter_sits_beyond_its_face():
    tet = oracle.embed_tetra(PYRAMID)
    ex = oracle.definitional_center4(tet, "E_A")
    n, off, _ = oracle._face_plane(tet, "BCD")  # inward normal points at A
    assert float(np.dot(n, ex) - off) < 0


def test_power_center_matches_area_weighted_mean():
    tet = oracle.embed_tetra(PYRAMID)
    areas = oracle.oracle_face_areas(tet)
    w = np.array([areas[v] ** 2 for v in "ABCD"])
    want = (w[:, None] * np.stack(tet.vertices())).sum(axis=0) / w.sum()
    got = oracle.definitional_center4(tet, PowerIncenter(2))
    assert np.linalg.norm(got - want) < 1e-12


def test_point_from_components_centroid():
    tri = oracle.embed_triangle(SCALENE)
    g = oracle.point_from_components(tri, (1 / 3, 1 / 3, 1 / 3))
    assert np.allclose(g, sum(tri.vertices()) / 3)


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
    with pytest.raises(ParallelSide):
        oracle.menelaus_product(tri, np.array([0.0, 1.0]), tri.pb - tri.pa)
    with pytest.raises(ThroughVertex):
        oracle.menelaus_product(tri, tri.pa, np.array([0.3, 1.0]))


def test_projection_foot_is_orthogonal():
    tet = oracle.embed_tetra(IRREGULAR)
    p = np.array([0.3, -0.7, 2.1])
    foot = oracle.projection_foot_oracle(tet, p, "BCD")
    n, off, _ = oracle._face_plane(tet, "BCD")
    assert abs(float(np.dot(n, foot) - off)) < 1e-12   # foot is in the plane
    drop = p - foot
    for u, v in ((tet.pb, tet.pc), (tet.pc, tet.pd)):
        assert abs(float(np.dot(drop, u - v))) < 1e-10


# ---------------------------------------------------------------- frames

def _random_tetras():
    rng = np.random.default_rng(5)
    for _ in range(20):
        yield oracle.EmbeddedTetra(*rng.uniform(-1.0, 1.0, size=(4, 3)))
    yield oracle.embed_tetra(IRREGULAR)
    # near-flat: D a hair above the base plane, on either side of it
    for height in (1e-6, -1e-9):
        yield oracle.EmbeddedTetra(np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]),
                                   np.array([0.3, 0.9, 0.0]), np.array([0.4, 0.3, height]))


@pytest.mark.parametrize("tet", list(_random_tetras()))
def test_face_planes_match_cross_products(tet):
    for face in FACES:
        v1, v2, v3 = tet.face_vertices(face)
        opp = tet.vertex("ABCD"[FACE_INDICES[face][3]])
        cross = np.cross(v2 - v1, v3 - v1)
        want = cross / np.linalg.norm(cross)
        if np.dot(want, opp - v1) < 0.0:
            want = -want
        n, off, area = oracle._face_plane(tet, face)
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-15)
        assert float(np.dot(n, opp - v1)) > 0.0
        np.testing.assert_allclose(n, want, rtol=0, atol=1e-15)
        assert off == pytest.approx(float(np.dot(want, v1)), rel=1e-14, abs=1e-15)
        assert area == pytest.approx(0.5 * float(np.linalg.norm(cross)), rel=1e-14)
    assert oracle.oracle_face_areas(tet) == {
        "ABCD"[FACE_INDICES[f][3]]: oracle._face_plane(tet, f)[2] for f in FACES}


def _random_triangles():
    rng = np.random.default_rng(6)
    for _ in range(20):
        yield oracle.EmbeddedTriangle(*rng.uniform(-1.0, 1.0, size=(3, 2)))
    yield oracle.embed_triangle(SCALENE)
    yield oracle.EmbeddedTriangle(np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                                  np.array([0.4, -1e-9]))


@pytest.mark.parametrize("tri", list(_random_triangles()))
def test_side_lines_match_edge_normals(tri):
    normals, offsets = tri.side_lines
    for row, (p1, p2, opp) in enumerate(((tri.pb, tri.pc, tri.pa),
                                         (tri.pc, tri.pa, tri.pb),
                                         (tri.pa, tri.pb, tri.pc))):
        d = p2 - p1
        want = np.array([-d[1], d[0]]) / np.linalg.norm(d)
        if np.dot(want, opp - p1) < 0.0:
            want = -want
        n = normals[row]
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-15)
        assert float(np.dot(n, opp - p1)) > 0.0
        np.testing.assert_allclose(n, want, rtol=0, atol=1e-15)
        assert offsets[row] == pytest.approx(float(np.dot(want, p1)), rel=1e-14, abs=1e-15)


def test_frames_cannot_go_stale():
    tri = oracle.embed_triangle(SCALENE)
    tet = oracle.embed_tetra(IRREGULAR)
    assert tet.planes is tet.planes and tri.side_lines is tri.side_lines
    with pytest.raises(dataclasses.FrozenInstanceError):
        tet.pa = np.zeros(3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        tri.pa = np.zeros(2)
    for array in (*tet.planes, *tri.side_lines, oracle._face_plane(tet, "ABC")[0]):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_ill_conditioned_systems_still_warn():
    flat_tri = oracle.EmbeddedTriangle(np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                                       np.array([0.5, 1e-14]))
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        oracle.definitional_center(flat_tri, "I")
    flat_tet = oracle.EmbeddedTetra(np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]),
                                    np.array([0.3, 0.9, 0.0]), np.array([0.4, 0.3, 1e-14]))
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        oracle.definitional_center4(flat_tet, "I")
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        oracle.definitional_center4(flat_tet, "Q")

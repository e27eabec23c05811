"""The tetrahedron's rational invariants as exact identities: _tet_rational
run on Fraction squared edges, where nothing rounds.

Each check below is a polynomial identity in the six squared edges, of
degree at most d = 4 once its denominators are cleared: the circumcenter
weights u_V have degree 3, so E.u has degree 4, and the bordered
Cayley-Menger determinant has degree 3.  Each squared edge is drawn
independently as n/m, with n uniform in [1, 2**60) and m in [1, 2**20), so
it takes any one value with probability at most 1/N, N = 2**60 - 1.  By the
Schwartz-Zippel lemma a nonzero polynomial of degree d then vanishes at a
draw with probability at most d/N = 4/(2**60 - 1) < 2**-57: a false identity
passes one draw with at most that chance.  The draws are not edge sets of
real tetrahedra in general, and need not be: a polynomial identity that
holds on the open set of realizable edge sets holds everywhere.

The standard library is all this file needs; the exact path runs without
numpy.
"""

import random
from fractions import Fraction

import pytest

from cevian.core_model import FACE_INDICES, _PAIRS, _tet_rational

DRAWS = 200


def _draws():
    """Seeded rational squared edges in _PAIRS order (AB, AC, AD, BC, DB, CD)."""
    rng = random.Random(41)
    return [tuple(Fraction(rng.randrange(1, 2 ** 60), rng.randrange(1, 2 ** 20))
                  for _ in range(6)) for _ in range(DRAWS)]


def _matrix(e):
    """The symmetric squared-edge matrix with a zero diagonal, from the pairs."""
    m = [[Fraction(0)] * 4 for _ in range(4)]
    for (i, j), x in zip(_PAIRS[4], e):
        m[i][j] = m[j][i] = x
    return m


def _det(rows):
    """The determinant of a square matrix of rationals, by exact Gaussian
    elimination on Fractions with a row swap wherever a pivot is zero."""
    a = [[Fraction(x) for x in row] for row in rows]
    n, det = len(a), Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
    return det


def _cayley_menger(m):
    """The squared-edge matrix bordered by a row and a column of ones, with
    a zero corner: its determinant is 288 * volume**2."""
    return [[0, 1, 1, 1, 1]] + [[1] + list(row) for row in m]


@pytest.fixture(scope="module")
def rational():
    return [(e, _tet_rational(e)) for e in _draws()]


def test_every_returned_value_is_a_fraction(rational):
    for e, (delta2, q2, t1, t2, t3, m, faces, u) in rational:
        values = [delta2, q2, t1, t2, t3, *u]
        values += [x for row in m for x in row]
        for face, (verts, squares, diffs, eight_sq) in faces.items():
            assert verts == FACE_INDICES[face]
            values += [*squares, *diffs, eight_sq]
        assert [type(x) for x in values] == [Fraction] * len(values), e


def test_the_matrix_is_the_squared_edges(rational):
    for e, (*_, m, _, _) in rational:
        assert [list(row) for row in m] == _matrix(e)


def test_the_circumcenter_weights_meet_its_definition(rational):
    # E.u = c*1: the weights' point is equidistant from the four vertices
    for e, (*_, u) in rational:
        rows = [sum(x * w for x, w in zip(row, u)) for row in _matrix(e)]
        assert rows == [rows[0]] * 4, e


def test_the_weights_sum_to_four_volume_terms(rational):
    for e, (_, _, t1, t2, t3, _, _, u) in rational:
        assert sum(u) == 4 * (t1 - t2 - t3), e


def test_the_volume_term_is_the_cayley_menger_determinant_over_8(rational):
    # 36 V^2 = 288 V^2 / 8
    for e, (_, _, t1, t2, t3, *_) in rational:
        assert t1 - t2 - t3 == _det(_cayley_menger(_matrix(e))) / 8, e


def test_the_determinant_of_the_regular_tetrahedron():
    # unit edges: V^2 = 1/72, so 288 V^2 = 4; this pins _det's sign and scale
    assert _det(_cayley_menger(_matrix((Fraction(1),) * 6))) == 4


def test_each_face_entry_is_eight_squared_areas(rational):
    # 8 area^2 = K/2, with K = (sum e)^2 - 2 sum e^2 = 16 area^2
    for e, (*_, m, faces, _) in rational:
        for face, ((v1, v2, v3, _), squares, diffs, eight_sq) in faces.items():
            assert squares == (m[v1][v2], m[v2][v3], m[v3][v1]), (e, face)
            s = sum(squares)
            assert diffs == tuple(s / 2 - x for x in squares), (e, face)
            assert eight_sq == (s * s - 2 * sum(x * x for x in squares)) / 2, (e, face)

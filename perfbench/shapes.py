"""Seeded shape generators.

The benchmark draws every input itself, from its seed, and hands the program
nothing but side or edge lengths.  The filters mirror the near-degeneracy
skips of ``cevian verify`` so that the timed corpora stay inside the band the
library certifies today; they are computed here from the generated points and
lengths, never through the library.
"""

from __future__ import annotations

import math
import random

BAND = (0.05, 1.0)       # side lengths drawn by `cevian verify`
MIN_ANGLE_DEG = 1.0      # verify skips flatter triangles
RIGHT_SHARE = 0.10       # share of right triangles in the library and CLI corpora
FACES = ("BCD", "CDA", "DAB", "ABC")


def min_angle_deg(a, b, c):
    angles = []
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        cosx = (y * y + z * z - x * x) / (2.0 * y * z)
        angles.append(math.degrees(math.acos(max(-1.0, min(1.0, cosx)))))
    return min(angles)


def band_triangle(rng):
    """Sides (a, b, c), a >= b >= c, drawn like verify draws them: a sorted
    uniform triple from the band, kept when strict and not flatter than 1
    degree."""
    while True:
        c, b, a = sorted(rng.uniform(*BAND) for _ in range(3))
        if c + b > a and min_angle_deg(a, b, c) >= MIN_ANGLE_DEG:
            return (a, b, c)


def right_triangle(rng):
    """A right triangle with legs in the band and the right angle at a random
    vertex.  The orthocenter's cevian ratios and the circumcenter's ratios do
    not exist for it, so ``center_ir`` must raise its typed errors."""
    x, y = rng.uniform(0.05, 0.7), rng.uniform(0.05, 0.7)
    legs_and_hyp = [x, y, math.hypot(x, y)]
    corner = rng.randrange(3)  # vertex with the right angle: its opposite side is the hypotenuse
    sides = [0.0, 0.0, 0.0]
    sides[corner] = legs_and_hyp[2]
    others = [i for i in range(3) if i != corner]
    sides[others[0]], sides[others[1]] = legs_and_hyp[0], legs_and_hyp[1]
    return tuple(sides), "ABC"[corner]


def _sub(p, q):
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2])


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _norm(u):
    return math.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])


def cube_tetra_points(rng):
    """Four uniform points of the unit cube whose tetrahedron passes verify's
    filters: not near-flat (36 V^2 >= 1e-6 delta2^3) and every escribed-sphere
    margin S - 2 S^X at least 1e-3 of the surface S."""
    while True:
        pts = [tuple(rng.random() for _ in range(3)) for _ in range(4)]
        edges = edges_of(pts)
        delta2 = 0.5 * sum(e * e for e in edges)
        u, v, w = (_sub(p, pts[0]) for p in pts[1:])
        c = _cross(v, w)
        six_vol = abs(u[0] * c[0] + u[1] * c[1] + u[2] * c[2])
        if six_vol * six_vol < 1e-6 * delta2 ** 3:
            continue
        areas = face_areas_of(pts)
        total = sum(areas)
        if min(total - 2.0 * s for s in areas) < 1e-3 * total:
            continue
        return pts


def edges_of(pts):
    """Edge lengths AB, AC, AD, BC, CD, DB of four points."""
    a, b, c, d = pts
    return tuple(_norm(_sub(p, q)) for p, q in ((a, b), (a, c), (a, d), (b, c), (c, d), (d, b)))


def face_areas_of(pts):
    """Areas of the faces opposite A, B, C, D."""
    out = []
    for i in range(4):
        p, q, r = (pts[j] for j in range(4) if j != i)
        out.append(0.5 * _norm(_cross(_sub(q, p), _sub(r, p))))
    return out


def tri_corpus(seed, count):
    """``count`` triangles: (sides, right-angle vertex or None)."""
    rng = random.Random(f"tri:{seed}")
    out = []
    for _ in range(count):
        if rng.random() < RIGHT_SHARE:
            out.append(right_triangle(rng))
        else:
            out.append((band_triangle(rng), None))
    return out


def tet_corpus(seed, count):
    """``count`` tetrahedra as edge-length 6-tuples."""
    rng = random.Random(f"tet:{seed}")
    return [edges_of(cube_tetra_points(rng)) for _ in range(count)]

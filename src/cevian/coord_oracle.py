"""Coordinate-based ground truth.

Rebuilds Cartesian coordinates from side/edge lengths in a fixed gauge and
computes every center, distance, area, and volume straight from its defining
property (vertex means, equidistance solves, perpendicularity systems).
Nothing here touches the closed-form length-only formulas, so agreement
between the two paths is a real certification and not a tautology.

Each embedded shape is immutable and carries its own frame: the triangle's
three inward side lines and the tetrahedron's four inward face planes (with
their areas).  A frame is built from the shape's coordinates on first use,
in one stacked computation, and then shared by every center solve,
projection and area that needs it; nothing is shared between shapes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core_model import (
    FACES,
    FACE_INDICES,
    Components,
    ExcenterDenominatorZero,
    GeometryError,
    NumericalCollapse,
    ParallelSide,
    PowerIncenter,
    TetraEdges,
    ThroughVertex,
    TriangleSides,
    canonical_face,
)

__all__ = [
    "EmbeddedTriangle",
    "EmbeddedTetra",
    "embed_triangle",
    "embed_tetra",
    "definitional_center",
    "definitional_center4",
    "point_from_components",
    "frame_equation_residual",
    "menelaus_product",
    "projection_foot_oracle",
]

_COND_LIMIT = 1e12

# Row i of a tetrahedron frame is face list(FACES)[i], the face opposite vertex
# i; _FACE_ROWS holds its vertex indices (A = 0 .. D = 3) in cyclic order.
_FACE_ROWS = np.array([FACE_INDICES[f][:3] for f in FACES])


def _rowdot(u, v):
    """Dot product of each row of u with the same row of v, rounded exactly
    as np.dot rounds one pair (a reduction along an axis rounds otherwise)."""
    return (u[:, None, :] @ v[:, :, None])[:, 0, 0]


def _inward_unit_normals(normals, base, inside):
    """Scale each row of ``normals`` to unit length and flip it to point from
    its row of ``base`` toward its row of ``inside``; also return the norms."""
    norms = np.sqrt(_rowdot(normals, normals))
    normals = normals / norms[:, None]
    normals[_rowdot(normals, inside - base) < 0.0] *= -1.0
    return normals, norms


def _frozen(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _solve(matrix, rhs):
    m = np.asarray(matrix, dtype=float)
    cond = np.linalg.cond(m)
    if cond > _COND_LIMIT:
        warnings.warn(
            f"ill-conditioned center system (cond = {cond:.3g}); "
            "result may lose precision",
            RuntimeWarning,
            stacklevel=3,
        )
    return np.linalg.solve(m, np.asarray(rhs, dtype=float))


@dataclass(frozen=True)
class EmbeddedTriangle:
    """Vertices in the canonical plane gauge: pa at the origin, pb on the
    positive x-axis, pc above it."""

    pa: np.ndarray
    pb: np.ndarray
    pc: np.ndarray

    def vertex(self, name: str) -> np.ndarray:
        return getattr(self, "p" + name.lower())

    def vertices(self):
        return (self.pa, self.pb, self.pc)

    @cached_property
    def side_lines(self):
        """(normals, offsets) of the side lines a = BC, b = CA, c = AB, one
        row each: unit normals pointing into the triangle, and offset =
        normal . (point on the side).  Read-only, built on first use."""
        verts = np.stack(self.vertices())
        p1 = np.roll(verts, -1, axis=0)  # B, C, A
        d = np.roll(verts, -2, axis=0) - p1  # C - B, A - C, B - A
        normals, _ = _inward_unit_normals(
            np.column_stack([-d[:, 1], d[:, 0]]), p1, verts)
        offsets = _rowdot(normals, p1)
        return _frozen(normals, offsets)


@dataclass(frozen=True)
class EmbeddedTetra:
    """Vertices in the canonical space gauge: pa at the origin, pb on the
    positive x-axis, pc in the z = 0 plane with positive y, pd above it."""

    pa: np.ndarray
    pb: np.ndarray
    pc: np.ndarray
    pd: np.ndarray

    def vertex(self, name: str) -> np.ndarray:
        return getattr(self, "p" + name.lower())

    def vertices(self):
        return (self.pa, self.pb, self.pc, self.pd)

    def face_vertices(self, face: str):
        key = canonical_face(face)
        return tuple(self.vertex(v) for v in FACES[key])

    @cached_property
    def planes(self):
        """(normals (4, 3), offsets (4,), areas (4,)) of the face planes, one
        row per face in FACES order: unit normals pointing at the opposite
        vertex, offset = normal . (point on the face), and area = half the
        norm of the edge cross product.  Read-only, built on first use."""
        verts = np.stack(self.vertices())
        v1, v2, v3 = np.moveaxis(verts[_FACE_ROWS], 1, 0)
        normals, norms = _inward_unit_normals(
            np.cross(v2 - v1, v3 - v1), v1, verts)
        offsets = _rowdot(normals, v1)
        return _frozen(normals, offsets, 0.5 * norms)


def embed_triangle(sides: TriangleSides) -> EmbeddedTriangle:
    """Place the triangle as pa = (0,0), pb = (c,0), pc in the upper half
    plane, so that |pb-pc| = a, |pc-pa| = b, |pa-pb| = c."""
    a, b, c = sides.a, sides.b, sides.c
    cx = (b * b + c * c - a * a) / (2.0 * c)
    cy2 = b * b - cx * cx
    if cy2 <= 0.0:
        raise NumericalCollapse(
            f"triangle ({a}, {b}, {c}) is numerically collinear in the embedding"
        )
    return EmbeddedTriangle(
        pa=np.array([0.0, 0.0]),
        pb=np.array([c, 0.0]),
        pc=np.array([cx, math.sqrt(cy2)]),
    )


def embed_tetra(edges: TetraEdges) -> EmbeddedTetra:
    """Place the tetrahedron with A at the origin, B on +x, C in z = 0 with
    positive y, and D solved from three sphere equations with positive z."""
    ab, ac, ad, bc, cd, db = edges.as_tuple()
    cx = (ac * ac + ab * ab - bc * bc) / (2.0 * ab)
    cy2 = ac * ac - cx * cx
    if cy2 <= 0.0:
        raise NumericalCollapse("base face ABC is numerically collinear")
    cy = math.sqrt(cy2)
    dx = (ab * ab + ad * ad - db * db) / (2.0 * ab)
    dy = (ad * ad - cd * cd + cx * cx + cy * cy - 2.0 * cx * dx) / (2.0 * cy)
    dz2 = ad * ad - dx * dx - dy * dy
    if dz2 <= 0.0:
        raise NumericalCollapse("apex height solved to a nonpositive square")
    return EmbeddedTetra(
        pa=np.array([0.0, 0.0, 0.0]),
        pb=np.array([ab, 0.0, 0.0]),
        pc=np.array([cx, cy, 0.0]),
        pd=np.array([dx, dy, math.sqrt(dz2)]),
    )


# --------------------------------------------------------------------------
# definitional centers, 2D

def _equidistant_point2(tri: EmbeddedTriangle, signs):
    """Solve for (x, y, rho) with signed distance sign_i * rho to each side
    line, normals pointing into the triangle.  Sides ordered a, b, c."""
    normals, offsets = tri.side_lines
    sol = _solve(np.column_stack([normals, np.negative(signs)]), offsets)
    return sol[:2], sol[2]


def definitional_center(tri: EmbeddedTriangle, kind: str) -> np.ndarray:
    """Classical triangle center from its defining property.

    G: vertex mean.  I: equidistant from the three side lines (inside).
    H: common point of two altitudes.  Q: equidistant from the vertices.
    E_A, E_B, E_C: equidistant from the side lines with the sign flipped on
    the side opposite the named vertex.
    """
    pa, pb, pc = tri.vertices()
    k = kind.upper()
    if k == "G":
        return (pa + pb + pc) / 3.0
    if k == "I":
        point, _ = _equidistant_point2(tri, (1.0, 1.0, 1.0))
        return point
    if k in ("E_A", "E_B", "E_C"):
        signs = [1.0, 1.0, 1.0]
        signs["E_A E_B E_C".split().index(k)] = -1.0
        point, _ = _equidistant_point2(tri, signs)
        return point
    if k == "Q":
        rows = [2.0 * (pb - pa), 2.0 * (pc - pa)]
        rhs = [np.dot(pb, pb) - np.dot(pa, pa), np.dot(pc, pc) - np.dot(pa, pa)]
        return _solve(rows, rhs)
    if k == "H":
        # altitude from A is perpendicular to BC, from B perpendicular to CA
        rows = [pc - pb, pa - pc]
        rhs = [np.dot(pa, pc - pb), np.dot(pb, pa - pc)]
        return _solve(rows, rhs)
    raise GeometryError(f"unknown triangle center kind {kind!r}")


# --------------------------------------------------------------------------
# definitional centers, 3D

def _face_plane(tet: EmbeddedTetra, face: str):
    """(unit inward normal, offset, area) of one face plane; the normal
    points toward the opposite vertex and offset = normal . (point on face)."""
    i = FACE_INDICES[canonical_face(face)][3]
    normals, offsets, areas = tet.planes
    return normals[i], float(offsets[i]), float(areas[i])


def oracle_face_areas(tet: EmbeddedTetra) -> dict:
    """Face areas from cross products, keyed by the opposite vertex."""
    return dict(zip("ABCD", tet.planes[2].tolist()))


def _equidistant_point3(tet: EmbeddedTetra, flipped_vertex=None):
    """Solve for (x, y, z, rho) equidistant from the four face planes; the
    signed distance to the face opposite ``flipped_vertex`` (if any) is
    -rho instead of +rho."""
    normals, offsets, _ = tet.planes
    signs = [-1.0 if opp == flipped_vertex else 1.0 for opp in "ABCD"]
    sol = _solve(np.column_stack([normals, np.negative(signs)]), offsets)
    return sol[:3], sol[3]


def definitional_center4(tet: EmbeddedTetra, kind) -> np.ndarray:
    """Tetrahedron center from its defining property.

    G: vertex mean.  I: equidistant from the four face planes, inside.
    Q: equidistant from the vertices.  E_A..E_D: equidistant from the face
    planes with the sign flipped on the face opposite the named vertex.
    A PowerIncenter(n) instance weights each vertex by the n-th power of
    the opposite face's area.
    """
    pa, pb, pc, pd = tet.vertices()
    if isinstance(kind, PowerIncenter):
        areas = oracle_face_areas(tet)
        weights = {v: areas[v] ** kind.n for v in "ABCD"}
        total = sum(weights.values())
        return sum(weights[v] * tet.vertex(v) for v in "ABCD") / total
    k = str(kind).upper()
    if k == "G":
        return (pa + pb + pc + pd) / 4.0
    if k == "I":
        point, _ = _equidistant_point3(tet)
        return point
    if k in ("E_A", "E_B", "E_C", "E_D"):
        vertex = k[-1]
        areas = oracle_face_areas(tet)
        surface = sum(areas.values())
        if surface - 2.0 * areas[vertex] <= 1e-12 * surface:
            raise ExcenterDenominatorZero(
                f"surface minus twice face area is not positive for {k}"
            )
        point, _ = _equidistant_point3(tet, flipped_vertex=vertex)
        return point
    if k == "Q":
        rows = [2.0 * (pb - pa), 2.0 * (pc - pa), 2.0 * (pd - pa)]
        rhs = [
            np.dot(pb, pb) - np.dot(pa, pa),
            np.dot(pc, pc) - np.dot(pa, pa),
            np.dot(pd, pd) - np.dot(pa, pa),
        ]
        return _solve(rows, rhs)
    raise GeometryError(f"unknown tetrahedron center kind {kind!r}")


# --------------------------------------------------------------------------
# frame algebra against coordinates

def _component_values(components):
    if isinstance(components, Components):
        return components.as_tuple()
    return tuple(float(v) for v in components)


def point_from_components(embedded, components) -> np.ndarray:
    """Weighted vertex mean: sum of component_V * vertex_V."""
    vals = _component_values(components)
    verts = embedded.vertices()
    if len(vals) != len(verts):
        raise GeometryError(
            f"{len(vals)} components do not fit a simplex with {len(verts)} vertices"
        )
    return sum(w * v for w, v in zip(vals, verts))


def frame_equation_residual(embedded, components, point) -> float:
    """Norm of sum of component_V * (vertex_V - point); zero exactly when
    the point realizes the components."""
    vals = _component_values(components)
    verts = embedded.vertices()
    if len(vals) != len(verts):
        raise GeometryError(
            f"{len(vals)} components do not fit a simplex with {len(verts)} vertices"
        )
    p = np.asarray(point, dtype=float)
    return float(np.linalg.norm(sum(w * (v - p) for w, v in zip(vals, verts))))


def menelaus_product(tri: EmbeddedTriangle, line_point, line_dir) -> float:
    """Product of the three signed section ratios a transversal line cuts on
    the side lines AB, BC, CA.  Equals -1 for every admissible line."""
    p0 = np.asarray(line_point, dtype=float)
    d = np.asarray(line_dir, dtype=float)
    if np.linalg.norm(d) == 0.0:
        raise GeometryError("line direction must be nonzero")
    pa, pb, pc = tri.vertices()
    product = 1.0
    scale = max(np.linalg.norm(pb - pa), np.linalg.norm(pc - pb))
    for p, q in ((pa, pb), (pb, pc), (pc, pa)):
        # p + t (q - p) = p0 + s d
        m = np.column_stack([q - p, -d])
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det) <= 1e-14 * np.linalg.norm(q - p) * np.linalg.norm(d):
            raise ParallelSide("transversal is parallel to a side line")
        t = np.linalg.solve(m, p0 - p)[0]
        if min(abs(t), abs(1.0 - t)) <= 1e-12 * max(1.0, scale):
            raise ThroughVertex("transversal passes through a vertex")
        product *= t / (1.0 - t)
    return product


def projection_foot_oracle(tet: EmbeddedTetra, point, face: str) -> np.ndarray:
    """Orthogonal projection of a point onto one face's plane."""
    n, off, _ = _face_plane(tet, face)
    p = np.asarray(point, dtype=float)
    return p - (np.dot(n, p) - off) * n

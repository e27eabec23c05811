"""Coordinate-based ground truth.

Rebuilds Cartesian coordinates from side/edge lengths in a fixed gauge and
computes every center, distance, area, and volume straight from its defining
property (vertex means, equidistance solves, perpendicularity systems).
Nothing here touches the closed-form length-only formulas, so agreement
between the two paths is a real certification and not a tautology.

A triangle and a tetrahedron are one immutable type, an n-vertex simplex in
n - 1 dimensions, and one center function serves both.  Each embedded
simplex carries its own facet frame: for the facet (side line or face
plane) opposite each vertex, its inward unit normal, offset and content
(side length or face area).  The frame is built from the coordinates on
first use, in one stacked computation, and then shared by every center
solve, projection and area that needs it; nothing is shared between shapes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core_model import (
    FACE_INDICES,
    VERTICES,
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
    parse_center,
)

__all__ = [
    "EmbeddedSimplex",
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

# Row i of an n-vertex frame is the facet opposite vertex i; _FACET_ROWS[n]
# holds its vertex indices in cyclic order i+1, ..., i+n-1, which for n = 4
# is the order of FACE_INDICES (row i is face list(FACES)[i]).
_FACET_ROWS = {n: np.array([[(i + j) % n for j in range(1, n)] for i in range(n)])
               for n in (3, 4)}


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


@dataclass(frozen=True, eq=False)
class EmbeddedSimplex:
    """A triangle in the plane or a tetrahedron in space: ``vertices`` holds
    one row per vertex, A, B, C (, D), stored read-only."""

    vertices: np.ndarray

    def __post_init__(self):
        verts = np.array(self.vertices, dtype=float)
        if verts.shape not in ((3, 2), (4, 3)):
            raise GeometryError(
                f"vertices of shape {verts.shape} embed neither a triangle "
                "(3, 2) nor a tetrahedron (4, 3)")
        verts.setflags(write=False)
        object.__setattr__(self, "vertices", verts)

    def face_vertices(self, face: str) -> np.ndarray:
        """A tetrahedron face's three vertices in its cyclic order."""
        return self.vertices[list(FACE_INDICES[canonical_face(face)][:3])]

    @cached_property
    def facets(self):
        """(normals, offsets, contents) of the facets, one row per facet,
        row i opposite vertex i: unit normals pointing into the simplex,
        offset = normal . (point on the facet), and the facet's content, a
        triangle's side length or a tetrahedron's face area (the norm of the
        edge product over (n - 2)!).  Read-only, built on first use."""
        verts = self.vertices
        n = len(verts)
        v1, *others = np.moveaxis(verts[_FACET_ROWS[n]], 1, 0)
        edges = [v - v1 for v in others]
        if n == 3:
            normals = np.column_stack([-edges[0][:, 1], edges[0][:, 0]])
        else:
            normals = np.cross(*edges)
        normals, norms = _inward_unit_normals(normals, v1, verts)
        return _frozen(normals, _rowdot(normals, v1), norms / math.factorial(n - 2))


def embed_triangle(sides: TriangleSides) -> EmbeddedSimplex:
    """Place the triangle as A = (0,0), B = (c,0), C in the upper half
    plane, so that |B-C| = a, |C-A| = b, |A-B| = c."""
    a, b, c = sides.a, sides.b, sides.c
    cx = (b * b + c * c - a * a) / (2.0 * c)
    cy2 = b * b - cx * cx
    if cy2 <= 0.0:
        raise NumericalCollapse(
            f"triangle ({a}, {b}, {c}) is numerically collinear in the embedding"
        )
    return EmbeddedSimplex([[0.0, 0.0], [c, 0.0], [cx, math.sqrt(cy2)]])


def embed_tetra(edges: TetraEdges) -> EmbeddedSimplex:
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
    return EmbeddedSimplex([[0.0, 0.0, 0.0], [ab, 0.0, 0.0], [cx, cy, 0.0],
                            [dx, dy, math.sqrt(dz2)]])


# --------------------------------------------------------------------------
# definitional centers

def _face_plane(tet: EmbeddedSimplex, face: str):
    """(unit inward normal, offset, area) of one face plane; the normal
    points toward the opposite vertex and offset = normal . (point on face)."""
    i = FACE_INDICES[canonical_face(face)][3]
    normals, offsets, areas = tet.facets
    return normals[i], float(offsets[i]), float(areas[i])


def oracle_face_areas(tet: EmbeddedSimplex) -> dict:
    """Face areas from cross products, keyed by the opposite vertex."""
    return dict(zip(VERTICES, tet.facets[2].tolist()))


def _equidistant_point(emb: EmbeddedSimplex, flipped=None) -> np.ndarray:
    """The point at one signed distance rho from every facet, with the sign
    flipped on the facet opposite vertex index ``flipped`` (if any)."""
    normals, offsets, _ = emb.facets
    signs = [-1.0 if i == flipped else 1.0 for i in range(len(offsets))]
    return _solve(np.column_stack([normals, np.negative(signs)]), offsets)[:-1]


def definitional_center(emb: EmbeddedSimplex, kind) -> np.ndarray:
    """Triangle or tetrahedron center from its defining property.

    G: vertex mean.  I: equidistant from the facets (side lines or face
    planes), inside.  E_X: equidistant from the facets with the sign flipped
    on the facet opposite X.  Q: equidistant from the vertices.  On a
    triangle, H: common point of two altitudes.  On a tetrahedron, a
    PowerIncenter(n) weights each vertex by the n-th power of the opposite
    face's area.  Kinds are named as ``core_model.parse_center`` reads them.
    """
    verts = emb.vertices
    n = len(verts)
    k = parse_center(kind, n)
    if isinstance(k, PowerIncenter):
        weights = [area ** k.n for area in emb.facets[2].tolist()]
        return sum(w * v for w, v in zip(weights, verts)) / sum(weights)
    if k == "G":
        return verts.sum(axis=0) / n
    if k == "I":
        return _equidistant_point(emb)
    if k == "Q":
        p0 = verts[0]
        return _solve([2.0 * (p - p0) for p in verts[1:]],
                      [np.dot(p, p) - np.dot(p0, p0) for p in verts[1:]])
    if k == "H":
        # altitude from A is perpendicular to BC, from B perpendicular to CA
        pa, pb, pc = verts
        return _solve([pc - pb, pa - pc], [np.dot(pa, pc - pb), np.dot(pb, pa - pc)])
    x = VERTICES.index(k[-1])
    contents = emb.facets[2].tolist()
    total = sum(contents)
    if total - 2.0 * contents[x] <= 1e-12 * total:
        raise ExcenterDenominatorZero(
            f"facet contents' total minus twice the one opposite {k[-1]} is "
            f"not positive for {k}"
        )
    return _equidistant_point(emb, flipped=x)


# the tetrahedron-only name, which perfbench's library workload still calls
definitional_center4 = definitional_center


# --------------------------------------------------------------------------
# frame algebra against coordinates

def _weights(embedded: EmbeddedSimplex, components) -> tuple:
    """The components as floats, one per vertex of ``embedded``."""
    if isinstance(components, Components):
        vals = components.as_tuple()
    else:
        vals = tuple(float(v) for v in components)
    if len(vals) != len(embedded.vertices):
        raise GeometryError(f"{len(vals)} components do not fit a simplex "
                            f"with {len(embedded.vertices)} vertices")
    return vals


def point_from_components(embedded: EmbeddedSimplex, components) -> np.ndarray:
    """Weighted vertex mean: sum of component_V * vertex_V."""
    return sum(w * v for w, v in zip(_weights(embedded, components), embedded.vertices))


def frame_equation_residual(embedded: EmbeddedSimplex, components, point) -> float:
    """Norm of sum of component_V * (vertex_V - point); zero exactly when
    the point realizes the components."""
    vals = _weights(embedded, components)
    p = np.asarray(point, dtype=float)
    return float(np.linalg.norm(sum(w * (v - p) for w, v in zip(vals, embedded.vertices))))


def menelaus_product(tri: EmbeddedSimplex, line_point, line_dir) -> float:
    """Product of the three signed section ratios a transversal line cuts on
    the side lines AB, BC, CA.  Equals -1 for every admissible line."""
    p0 = np.asarray(line_point, dtype=float)
    d = np.asarray(line_dir, dtype=float)
    if np.linalg.norm(d) == 0.0:
        raise GeometryError("line direction must be nonzero")
    pa, pb, pc = tri.vertices
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


def projection_foot_oracle(tet: EmbeddedSimplex, point, face: str) -> np.ndarray:
    """Orthogonal projection of a point onto one face's plane."""
    n, off, _ = _face_plane(tet, face)
    p = np.asarray(point, dtype=float)
    return p - (np.dot(n, p) - off) * n

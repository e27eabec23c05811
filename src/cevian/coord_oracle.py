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

Every function also takes a stack of simplices of one arity, vertices of
shape (..., n, n - 1), and answers for each as if it stood alone: one
stacked solve serves a block of shapes, and each value rounds exactly as
the single-simplex call rounds it.  A single simplex is the stack with no
leading dimension.
"""

from __future__ import annotations

import math
import warnings

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
    _cached,
    _Frozen,
    canonical_face,
    parse_center,
)

__all__ = [
    "EmbeddedSimplex",
    "embed_triangle",
    "embed_tetra",
    "definitional_center",
    "point_from_components",
    "point_on_face",
    "frame_equation_residual",
    "distance",
    "facet_distances",
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
    """Dot product of each row of u with the same row of v, over leading
    dimensions that broadcast, rounded exactly as np.dot rounds one pair (a
    reduction along an axis rounds otherwise)."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _norm(x):
    """Euclidean norm of each row of x, rounded as np.linalg.norm of one."""
    return np.sqrt(_rowdot(x, x))


def _vertex_sum(terms, axis):
    """Sum of ``terms`` over their vertex axis, added one vertex at a time
    as the sum of a Python list adds them (an axis sum or a matmul rounds
    otherwise)."""
    return sum(np.moveaxis(terms, axis, 0))


def _weighted_vertex_sum(weights, points):
    """Sum of weights[..., i] * points[..., i, :] over the vertices i."""
    return _vertex_sum(weights[..., None] * points, -2)


def _inward_unit_normals(normals, base, inside):
    """Scale each row of ``normals`` to unit length and flip it to point from
    its row of ``base`` toward its row of ``inside``; also return the norms."""
    norms = _norm(normals)
    normals = normals / norms[..., None]
    normals[_rowdot(normals, inside - base) < 0.0] *= -1.0
    return normals, norms


def _frozen(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _solve(matrix, rhs):
    """Solve every system of the stack; warn once, quoting the largest
    condition number, if any system's exceeds ``_COND_LIMIT``.  The SVD
    behind an exact condition number costs several solves, so it is taken
    only where the bound cond <= ||A||_F * ||inv(A)||_F exceeds a 16th of
    the limit (the margin covers the computed inverse's rounding), or of
    every system when the stack holds a singular one."""
    m = np.asarray(matrix, dtype=float)
    try:
        inv = np.linalg.inv(m)
        bound2 = (m * m).sum(axis=(-2, -1)) * (inv * inv).sum(axis=(-2, -1))
        suspect = ~(bound2 <= (_COND_LIMIT / 16) ** 2)  # a NaN bound is suspect too
    except np.linalg.LinAlgError:
        suspect = True  # m[True] is the whole stack
    if np.any(suspect):
        cond = np.linalg.cond(m[suspect])
        ill = cond[cond > _COND_LIMIT]
        if ill.size:
            warnings.warn(
                f"ill-conditioned center system (cond = {ill.max():.3g}); "
                "result may lose precision",
                RuntimeWarning,
                stacklevel=3,
            )
    return np.linalg.solve(m, np.asarray(rhs, dtype=float)[..., None])[..., 0]


class EmbeddedSimplex(_Frozen):
    """A triangle in the plane or a tetrahedron in space: ``vertices`` holds
    one row per vertex, A, B, C (, D), stored read-only.  Leading dimensions,
    if any, stack simplices of one arity.  Equality and hashing are by
    identity, since arrays compare elementwise."""

    __match_args__ = ("vertices",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, vertices):
        verts = np.array(vertices, dtype=float)
        if verts.shape[-2:] not in ((3, 2), (4, 3)):
            raise GeometryError(
                f"vertices of shape {verts.shape} embed neither triangles "
                "(..., 3, 2) nor tetrahedra (..., 4, 3)")
        verts.setflags(write=False)
        self.__dict__["vertices"] = verts

    def face_vertices(self, face: str) -> np.ndarray:
        """A tetrahedron face's three vertices in its cyclic order."""
        return self.vertices[..., list(FACE_INDICES[canonical_face(face)][:3]), :]

    @_cached
    def facets(self):
        """(normals, offsets, contents) of the facets, one row per facet,
        row i opposite vertex i: unit normals pointing into the simplex,
        offset = normal . (point on the facet), and the facet's content, a
        triangle's side length or a tetrahedron's face area (the norm of the
        edge product over (n - 2)!).  Read-only, built on first use."""
        verts = self.vertices
        n = verts.shape[-2]
        v1, *others = np.moveaxis(verts[..., _FACET_ROWS[n], :], -2, 0)
        edges = [v - v1 for v in others]
        if n == 3:
            normals = np.stack([-edges[0][..., 1], edges[0][..., 0]], axis=-1)
        else:
            normals = np.cross(*edges)
        normals, norms = _inward_unit_normals(normals, v1, verts)
        return _frozen(normals, _rowdot(normals, v1), norms / math.factorial(n - 2))


def embed_triangle(sides: TriangleSides) -> EmbeddedSimplex:
    """Place the triangle as A = (0,0), B = (c,0), C in the upper half
    plane, so that |B-C| = a, |C-A| = b, |A-B| = c."""
    return EmbeddedSimplex(_triangle_vertices(sides))


def _triangle_vertices(sides: TriangleSides) -> list:
    """embed_triangle's vertex rows, which a stack of triangles is built from."""
    a, b, c = sides.a, sides.b, sides.c
    cx = (b * b + c * c - a * a) / (2.0 * c)
    cy2 = b * b - cx * cx
    if cy2 <= 0.0:
        raise NumericalCollapse(
            f"triangle ({a}, {b}, {c}) is numerically collinear in the embedding"
        )
    return [[0.0, 0.0], [c, 0.0], [cx, math.sqrt(cy2)]]


def embed_tetra(edges: TetraEdges) -> EmbeddedSimplex:
    """Place the tetrahedron with A at the origin, B on +x, C in z = 0 with
    positive y, and D solved from three sphere equations with positive z."""
    return EmbeddedSimplex(_tetra_vertices(edges))


def _tetra_vertices(edges: TetraEdges) -> list:
    """embed_tetra's vertex rows, which a stack of tetrahedra is built from."""
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
    return [[0.0, 0.0, 0.0], [ab, 0.0, 0.0], [cx, cy, 0.0], [dx, dy, math.sqrt(dz2)]]


# --------------------------------------------------------------------------
# definitional centers

# not public: perfbench/ alone reads it; a test pins it to the facets' areas
def oracle_face_areas(tet: EmbeddedSimplex) -> dict:
    """Face areas from cross products, keyed by the opposite vertex (for a
    stack, each a nested list over the stack)."""
    return dict(zip(VERTICES, np.moveaxis(tet.facets[2], -1, 0).tolist()))


def _equidistant_point(emb: EmbeddedSimplex, flipped=None) -> np.ndarray:
    """The point at one signed distance rho from every facet, with the sign
    flipped on the facet opposite vertex index ``flipped`` (if any)."""
    normals, offsets, _ = emb.facets
    column = np.full(offsets.shape + (1,), -1.0)
    if flipped is not None:
        column[..., flipped, :] = 1.0
    return _solve(np.concatenate([normals, column], axis=-1), offsets)[..., :-1]


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
    n = verts.shape[-2]
    k = parse_center(kind, n)
    if isinstance(k, PowerIncenter):
        # Python's float power, which numpy's rounds otherwise
        areas = emb.facets[2]
        weights = np.reshape([a ** k.n for a in areas.ravel().tolist()], areas.shape)
        return _weighted_vertex_sum(weights, verts) / _vertex_sum(weights, -1)[..., None]
    if k == "G":
        return verts.sum(axis=-2) / n
    if k == "I":
        return _equidistant_point(emb)
    if k == "Q":
        squares = _rowdot(verts, verts)
        return _solve(2.0 * (verts[..., 1:, :] - verts[..., :1, :]),
                      squares[..., 1:] - squares[..., :1])
    if k == "H":
        # altitude from A is perpendicular to BC, from B perpendicular to CA
        pa, pb, pc = np.moveaxis(verts, -2, 0)
        rows = np.stack([pc - pb, pa - pc], axis=-2)
        return _solve(rows, _rowdot(np.stack([pa, pb], axis=-2), rows))
    x = VERTICES.index(k[-1])
    contents = emb.facets[2]
    total = _vertex_sum(contents, -1)
    if np.any(total - 2.0 * contents[..., x] <= 1e-12 * total):
        raise ExcenterDenominatorZero(
            f"facet contents' total minus twice the one opposite {k[-1]} is "
            f"not positive for {k}"
        )
    return _equidistant_point(emb, flipped=x)


# not public: the tetrahedron-only name, which perfbench/ alone reads
definitional_center4 = definitional_center


# --------------------------------------------------------------------------
# frame algebra against coordinates

def _weights(embedded: EmbeddedSimplex, components) -> np.ndarray:
    """The components as floats, one per vertex of ``embedded`` along the
    last axis; a ``Components`` or a sequence, or an array (..., n) of them
    that broadcasts against the stack."""
    if isinstance(components, Components):
        components = components.as_tuple()
    vals = np.asarray(components, dtype=float)
    n = embedded.vertices.shape[-2]
    if vals.shape[-1:] != (n,):
        raise GeometryError(f"components of shape {vals.shape} do not fit a "
                            f"simplex with {n} vertices")
    return vals


def point_from_components(embedded: EmbeddedSimplex, components) -> np.ndarray:
    """Weighted vertex mean: sum of component_V * vertex_V, in vertex order."""
    return _weighted_vertex_sum(_weights(embedded, components), embedded.vertices)


def point_on_face(tet: EmbeddedSimplex, face: str, components) -> np.ndarray:
    """The point with barycentric components (one per face vertex, in the
    face's cyclic order) on one face of a tetrahedron."""
    vals = np.asarray(components, dtype=float)
    if vals.shape[-1:] != (3,):
        raise GeometryError(f"components of shape {vals.shape} do not fit a face")
    return _weighted_vertex_sum(vals, tet.face_vertices(face))


def frame_equation_residual(embedded: EmbeddedSimplex, components, point):
    """Norm of sum of component_V * (vertex_V - point); zero exactly when
    the point realizes the components.  A float for a single simplex."""
    p = np.asarray(point, dtype=float)
    return _norm(_weighted_vertex_sum(_weights(embedded, components),
                                      embedded.vertices - p[..., None, :]))


def distance(p, q):
    """Distance between points p and q, row by row over leading dimensions
    that broadcast; a float for two single points."""
    return _norm(np.asarray(p, dtype=float) - np.asarray(q, dtype=float))


def facet_distances(emb: EmbeddedSimplex, point) -> np.ndarray:
    """Signed distance of the point from each facet (side line or face
    plane), positive inside, one per facet opposite each vertex."""
    normals, offsets, _ = emb.facets
    return _rowdot(normals, np.asarray(point, dtype=float)[..., None, :]) - offsets


# the checks a transversal can fail, in the order they are made: a zero
# direction, then for each side line AB, BC, CA in turn, parallel to it and
# through one of its ends; _transversals' fault codes index this tuple
_TRANSVERSAL_FAULTS = (
    None,
    (GeometryError, "line direction must be nonzero"),
    (ParallelSide, "transversal is parallel to a side line"),
    (ThroughVertex, "transversal passes through a vertex"),
)
_FAULT_ORDER = np.array([1, 2, 3, 2, 3, 2, 3])


def _transversals(vertices, points, dirs):
    """For each triangle of ``vertices`` (..., 3, 2) and its line through
    ``points`` (..., 2) along ``dirs`` (..., 2): the product of the three
    signed section ratios the line cuts on the side lines AB, BC, CA, and
    the code of the first check it fails (0 for an admissible line, whose
    product is -1 up to rounding).  A row's product is meaningless where its code is not 0.
    Each row rounds as it would alone: its norms as np.linalg.norm's and
    each side's 2x2 system by LAPACK, with rows too close to parallel for a
    solve swapped for the identity, so no singular system stops the stack."""
    edges = np.roll(vertices, -1, axis=-2) - vertices    # AB, BC, CA
    lengths = _norm(edges)
    dir_norm = _norm(dirs)
    # p + t (q - p) = p0 + s d, in the columns q - p and -d
    m = np.stack([edges, np.broadcast_to(-dirs[..., None, :], edges.shape)], axis=-1)
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    parallel = np.abs(det) <= 1e-14 * lengths * dir_norm[..., None]
    m[parallel] = np.eye(2)
    t = np.linalg.solve(m, (points[..., None, :] - vertices)[..., None])[..., 0, 0]
    scale = np.maximum(1.0, np.maximum(lengths[..., 0], lengths[..., 1]))
    vertex = np.minimum(np.abs(t), np.abs(1.0 - t)) <= 1e-12 * scale[..., None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratios = t / (1.0 - t)
        product = ratios[..., 0] * ratios[..., 1] * ratios[..., 2]
    failed = np.concatenate([(dir_norm == 0.0)[..., None],
                             np.stack([parallel, vertex], axis=-1).reshape(t.shape[:-1] + (6,))],
                            axis=-1)
    return product, np.where(failed.any(axis=-1), _FAULT_ORDER[failed.argmax(axis=-1)], 0)


def menelaus_product(tri: EmbeddedSimplex, line_point, line_dir) -> float:
    """Product of the three signed section ratios a transversal line cuts on
    the side lines AB, BC, CA of one triangle.  Equals -1 for every
    admissible line; raises the error of the first check an inadmissible
    line fails."""
    if tri.vertices.shape != (3, 2):
        raise GeometryError(f"the Menelaus product needs one triangle, not "
                            f"vertices of shape {tri.vertices.shape}")
    product, fault = _transversals(tri.vertices, np.asarray(line_point, dtype=float),
                                   np.asarray(line_dir, dtype=float))
    if fault:
        error, message = _TRANSVERSAL_FAULTS[fault]
        raise error(message)
    return float(product)


def projection_foot_oracle(tet: EmbeddedSimplex, point, face: str) -> np.ndarray:
    """Orthogonal projection of a point onto one face's plane; over a stack
    of tetrahedra, the points' leading dimensions broadcast against it."""
    if tet.vertices.shape[-2:] != (4, 3):
        raise GeometryError(f"faces are projected onto in tetrahedra, not in "
                            f"vertices of shape {tet.vertices.shape}")
    i = FACE_INDICES[canonical_face(face)][3]
    normals, offsets, _ = tet.facets
    n = normals[..., i, :]
    p = np.asarray(point, dtype=float)
    return p - (_rowdot(n, p) - offsets[..., i])[..., None] * n

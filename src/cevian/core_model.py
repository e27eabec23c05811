"""Shared data types, validation, the weight/ratio algebra, the center rule
and the distance engine.

A point P attached to a triangle ABC (or tetrahedron ABCD) is described by
its *components*: the unique weights summing to 1 such that

    OP = sum_V  component_V * OV        for any origin O.

These are normalized barycentric coordinates; everything downstream (center
formulas, distances, areas) is expressed through them.  The companion
description is the *cevian ratio* lambda_XY: for the foot M of the cevian
through P from the remaining vertex, lambda_XY = XM/MY as a signed ratio
along the side XY.  The two descriptions convert into each other by simple
quotients.  Distances are quadratic forms in the components over the shape's
squared-edge matrix E; see the engine at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, permutations

__all__ = [
    "GeometryError",
    "NonPositiveLength",
    "TriangleInequalityViolated",
    "FaceTriangleInequalityViolated",
    "NotRealizable",
    "DegenerateDenominator",
    "ZeroComponent",
    "UnitComponent",
    "InconsistentFaces",
    "NegativeSquaredDistance",
    "ExcenterDenominatorZero",
    "RightAngleOrthocenter",
    "CevaViolation",
    "NumericalCollapse",
    "ParallelSide",
    "ThroughVertex",
    "TriangleSides",
    "TetraEdges",
    "FaceAreas",
    "CircumAux",
    "Components",
    "IRVector3",
    "PowerIncenter",
    "CENTER_KINDS",
    "parse_center",
    "center_components",
    "VERTICES",
    "FACES",
    "FACE_INDICES",
    "validate_triangle",
    "validate_tetrahedron",
    "gram_volume_term",
    "edge_polynomials",
    "components_from_ir3",
    "ir_from_components3",
    "fractional_ratio_determinant",
    "vertex_foot_ratios3",
    "vertex_foot_ratios4",
    "face_components_from_tetra",
    "tetra_components_from_face_pair",
    "shared_edge_residuals",
    "concurrency_defect",
    "DistanceReport",
    "pair_sum",
    "dist_between_centers",
    "dist_origin_to_center",
    "dist_vertex_to_center",
    "dist_vertex_to_foot",
    "pair_table",
    "pair_distances",
    "FORM_PAIRS",
]


# --------------------------------------------------------------------------
# errors

class GeometryError(ValueError):
    """Base class for all typed geometry errors raised by this package."""


class NonPositiveLength(GeometryError):
    pass


class TriangleInequalityViolated(GeometryError):
    pass


class FaceTriangleInequalityViolated(GeometryError):
    pass


class NotRealizable(GeometryError):
    """Edge set does not embed as a nondegenerate tetrahedron."""


class DegenerateDenominator(GeometryError):
    """A conversion denominator vanished (point escaped to infinity)."""


class ZeroComponent(GeometryError):
    """A component is zero: the point lies on a side line, so cevian
    ratios through it are undefined."""


class UnitComponent(GeometryError):
    """A component equals one: the point sits at a vertex, so there is no
    cevian foot on the opposite side/face."""


class InconsistentFaces(GeometryError):
    """Per-face data does not belong to a single common point."""


class NegativeSquaredDistance(GeometryError):
    """A squared-distance formula evaluated significantly below zero,
    which signals unrealizable inputs."""


class ExcenterDenominatorZero(GeometryError):
    """An escribed-sphere weight denominator (surface minus twice one face)
    is not safely positive."""


class RightAngleOrthocenter(GeometryError):
    """Orthocenter cevian ratios have a pole at a right angle; use the
    component form, which is total."""


class CevaViolation(GeometryError):
    """Cevian ratio triple whose product is not 1 cannot come from
    concurrent cevians."""


class NumericalCollapse(GeometryError):
    """Coordinate reconstruction lost the last dimension."""


class ParallelSide(GeometryError):
    pass


class ThroughVertex(GeometryError):
    pass


# --------------------------------------------------------------------------
# tolerances: |x-y| <= ATOL + RTOL*max(|x|,|y|) counts as equal

ATOL = 1e-12
RTOL = 1e-9


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= ATOL + RTOL * max(abs(x), abs(y))


VERTICES = ("A", "B", "C", "D")

# Cyclic vertex order of each tetrahedron face, keyed by face name; the face
# "BCD" is the one opposite vertex A, and so on.
FACES = {
    "BCD": ("B", "C", "D"),
    "CDA": ("C", "D", "A"),
    "DAB": ("D", "A", "B"),
    "ABC": ("A", "B", "C"),
}

# The same faces by vertex index (A, B, C, D) = (0, 1, 2, 3): the face's three
# vertices in cyclic order, then its opposite vertex.  Faces run in FACES
# order, so the i-th face is the one opposite vertex i.  The closed forms read
# per-vertex values through this table; letters stay at the user boundary.
FACE_INDICES = {
    "BCD": (1, 2, 3, 0),
    "CDA": (2, 3, 0, 1),
    "DAB": (3, 0, 1, 2),
    "ABC": (0, 1, 2, 3),
}


def canonical_face(face: str) -> str:
    key = face.upper()
    if key not in FACES:
        raise GeometryError(f"unknown face {face!r}; expected one of {sorted(FACES)}")
    return key


# --------------------------------------------------------------------------
# length data

@dataclass(frozen=True)
class TriangleSides:
    """Side lengths a = BC, b = CA, c = AB (opposite the like-named vertex)."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name, v in (("a", self.a), ("b", self.b), ("c", self.c)):
            if not (v > 0) or not math.isfinite(v):
                raise NonPositiveLength(f"side {name} = {v!r} must be a positive finite length")
        a, b, c = self.a, self.b, self.c
        for lhs, pair in (((b + c - a), "b+c>a"), ((c + a - b), "c+a>b"), ((a + b - c), "a+b>c")):
            if not (lhs > 0):
                raise TriangleInequalityViolated(
                    f"triangle inequality {pair} fails for sides ({a}, {b}, {c})"
                )

    @cached_property
    def E(self) -> tuple:
        """Squared-edge matrix: E[i][j] = |V_i V_j|^2 for vertices (A, B, C)
        = (0, 1, 2), a symmetric tuple of tuples with a zero diagonal."""
        a2, b2, c2 = self.a * self.a, self.b * self.b, self.c * self.c
        return ((0.0, c2, b2), (c2, 0.0, a2), (b2, a2, 0.0))

    @cached_property
    def area(self) -> float:
        """sqrt(K)/4 with K = 16*Area^2 from E; a K that is not positive
        raises GeometryError on every access (a raise is not cached)."""
        e = self.E
        return _area(e[1][2], e[2][0], e[0][1])

    @cached_property
    def _centers(self) -> dict:
        """center_components' per-instance cache: Components by kind."""
        return {}

    @property
    def semiperimeter(self) -> float:
        return 0.5 * (self.a + self.b + self.c)

    @property
    def perimeter(self) -> float:
        return self.a + self.b + self.c

    def as_tuple(self):
        return (self.a, self.b, self.c)


def validate_triangle(a: float, b: float, c: float) -> TriangleSides:
    """Check positivity and the three strict triangle inequalities."""
    return TriangleSides(float(a), float(b), float(c))


def _k_invariant(a2: float, b2: float, c2: float) -> float:
    """(a^2+b^2+c^2)^2 - 2(a^4+b^4+c^4) on the squared sides: 16*Area^2."""
    return (a2 + b2 + c2) ** 2 - 2.0 * (a2 * a2 + b2 * b2 + c2 * c2)


def _area(a2: float, b2: float, c2: float) -> float:
    """The area sqrt(K)/4 of the triangle with the given squared sides."""
    k = _k_invariant(a2, b2, c2)
    if k <= 0.0:
        raise GeometryError(f"nonpositive squared-area invariant {k}")
    return 0.25 * math.sqrt(k)


_EDGE_NAMES = ("ab", "ac", "ad", "bc", "cd", "db")

# Each face's edges in the face's cyclic vertex order (V1V2, V2V3, V3V1).
_FACE_EDGE_NAMES = {
    "BCD": ("bc", "cd", "db"),
    "CDA": ("cd", "ad", "ac"),
    "DAB": ("ad", "ab", "db"),
    "ABC": ("ab", "bc", "ac"),
}


def edge_polynomials(edges) -> dict:
    """The symmetric edge polynomials behind the volume formula.

    Returns delta2 (half the sum of squared edges), q2 (half the sum of
    products of squared opposite-edge pairs), and t1, t2, t3 with
    t1 - t2 - t3 = 36 * volume**2.
    """
    ab, ac, ad, bc, cd, db = _six(edges)
    ab2, ac2, ad2 = ab * ab, ac * ac, ad * ad
    bc2, cd2, db2 = bc * bc, cd * cd, db * db
    delta2 = 0.5 * (ab2 + ac2 + ad2 + bc2 + cd2 + db2)
    # opposite edge pairs: AB-CD, AC-DB, AD-BC
    q2 = 0.5 * (ab2 * cd2 + ac2 * db2 + ad2 * bc2)
    t1 = q2 * delta2
    t2 = 0.5 * (
        ab2 * cd2 * (ab2 + cd2)
        + ac2 * db2 * (ac2 + db2)
        + ad2 * bc2 * (ad2 + bc2)
    )
    # one product of squared edges per face
    t3 = 0.25 * (
        bc2 * cd2 * db2  # BCD
        + cd2 * ad2 * ac2  # CDA
        + ad2 * ab2 * db2  # DAB
        + ab2 * bc2 * ac2  # ABC
    )
    return {"delta2": delta2, "q2": q2, "t1": t1, "t2": t2, "t3": t3}


def gram_volume_term(edges) -> float:
    """t1 - t2 - t3: positive iff the six lengths realize a tetrahedron.

    Equals 36 * V**2 for a realizable edge set.  A TetraEdges carries the
    value its volume gate computed; raw lengths are not validated here, and
    the caller interprets nonpositive values.
    """
    if isinstance(edges, TetraEdges):
        return edges.volume_term
    p = edge_polynomials(edges)
    return p["t1"] - p["t2"] - p["t3"]


def _six(edges):
    if isinstance(edges, TetraEdges):
        return edges.as_tuple()
    vals = tuple(float(v) for v in edges)
    if len(vals) != 6:
        raise GeometryError(f"expected six edge lengths, got {len(vals)}")
    return vals


@dataclass(frozen=True)
class FaceAreas:
    """Heron areas S^A..S^D of the four faces in vertex order, each at the
    index of the face's opposite vertex, plus their sum s (the total surface
    area)."""

    by_vertex: tuple
    s: float

    def opposite_sum(self, i: int) -> float:
        """T^X = s - 2*S^X for vertex index i: the other three areas minus
        this one."""
        return self.s - 2.0 * self.by_vertex[i]

    def as_dict(self) -> dict:
        return dict(zip(("s_a", "s_b", "s_c", "s_d"), self.by_vertex), s=self.s)


@dataclass(frozen=True)
class CircumAux:
    """Circumcenter weight polynomials U_A..U_D (degree 6 in the edges) in
    vertex order, and their sum u, which equals 144 * volume^2."""

    by_vertex: tuple
    u: float


@dataclass(frozen=True)
class TetraEdges:
    """Edge lengths of tetrahedron ABCD in the order AB, AC, AD, BC, CD, DB.

    Construction validates the lengths.  The invariants the center and
    metric formulas share are derived from the six lengths once per
    instance and then read by every caller: ``volume_term`` (set by the
    volume gate), and on first use the squared-edge matrix ``E``, the
    ``face_areas``, the circumcenter weights ``circum_aux`` and the centers'
    Components (see center_components).  None of them takes part in
    equality, hashing or repr.
    """

    ab: float
    ac: float
    ad: float
    bc: float
    cd: float
    db: float
    volume_term: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in _EDGE_NAMES:
            v = getattr(self, name)
            if not (v > 0) or not math.isfinite(v):
                raise NonPositiveLength(f"edge {name} = {v!r} must be a positive finite length")
        for face, names in _FACE_EDGE_NAMES.items():
            x, y, z = (getattr(self, n) for n in names)
            if not (x + y > z and y + z > x and z + x > y):
                raise FaceTriangleInequalityViolated(
                    f"face {face} edges ({x}, {y}, {z}) violate the triangle inequality"
                )
        polys = edge_polynomials(self.as_tuple())
        gram = polys["t1"] - polys["t2"] - polys["t3"]
        try:
            # scale-aware strict positivity gate: delta2**3 has the same units
            floor = ATOL * polys["delta2"] ** 3
        except OverflowError:
            floor = math.nan
        if not (math.isfinite(gram) and math.isfinite(floor)):
            raise GeometryError(f"edges {self.as_tuple()} overflow the volume gate")
        if not (gram > floor):
            raise NotRealizable(
                f"edge set does not realize a nondegenerate tetrahedron "
                f"(volume term {gram:.6g})"
            )
        object.__setattr__(self, "volume_term", gram)

    def as_tuple(self):
        return (self.ab, self.ac, self.ad, self.bc, self.cd, self.db)

    @cached_property
    def E(self) -> tuple:
        """Squared-edge matrix: E[i][j] = |V_i V_j|^2 for vertices
        (A, B, C, D) = (0, 1, 2, 3), a symmetric tuple of tuples with a zero
        diagonal."""
        ab, ac, ad, bc, cd, db = (x * x for x in self.as_tuple())
        return ((0.0, ab, ac, ad), (ab, 0.0, bc, db), (ac, bc, 0.0, cd), (ad, db, cd, 0.0))

    @cached_property
    def face_areas(self) -> FaceAreas:
        """The four face areas, each sqrt(K)/4 on the squares of the face's
        sides (a, b, c) = (V2V3, V3V1, V1V2), read from E.  A face whose K is
        not positive raises GeometryError on every access (a raise is not
        cached)."""
        e = self.E
        areas = [_area(e[v2][v3], e[v3][v1], e[v1][v2])
                 for v1, v2, v3, _ in FACE_INDICES.values()]
        return FaceAreas(tuple(areas), math.fsum(areas))

    @cached_property
    def circum_aux(self) -> CircumAux:
        """Circumcenter weights: for each vertex V with opposite face
        (X, Y, Z),

            u_V = sum over face edges e, with R the face vertex off e, of
                  (delta2f - e^2) * e^2 * VR^2   minus   XY^2*YZ^2*ZX^2,

        where delta2f is half the face's sum of squared edges.  u_V/u are
        the circumcenter's components, and u = 4*(t1 - t2 - t3) > 0.
        """
        e = self.E
        vals = []
        for v1, v2, v3, opp in FACE_INDICES.values():
            eo = e[opp]
            e12, e23, e31 = e[v1][v2], e[v2][v3], e[v3][v1]
            delta2f = 0.5 * (e12 + e23 + e31)
            vals.append(
                (delta2f - e12) * e12 * eo[v3]
                + (delta2f - e23) * e23 * eo[v1]
                + (delta2f - e31) * e31 * eo[v2]
                - e12 * e23 * e31
            )
        return CircumAux(tuple(vals), math.fsum(vals))

    @cached_property
    def _centers(self) -> dict:
        """center_components' per-instance cache: Components by kind."""
        return {}


def validate_tetrahedron(ab, ac, ad, bc, cd, db) -> TetraEdges:
    """Positivity, four face triangle inequalities, and the volume gate."""
    return TetraEdges(float(ab), float(ac), float(ad), float(bc), float(cd), float(db))


# --------------------------------------------------------------------------
# components and ratios

def _magnitude_sum(values, what: str) -> float:
    """fsum of |v| over ``values``, raising GeometryError where a term or
    the sum is not finite (fsum's bare OverflowError included).  A finite
    result bounds every partial sum of the values, so their own fsum cannot
    overflow."""
    try:
        total = math.fsum(map(abs, values))
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise GeometryError(f"{what} leaves the floating-point range")
    return total


def _normalized(values):
    if not all(map(math.isfinite, values)):
        raise GeometryError(f"weights {values} are not all finite")
    scale = _magnitude_sum(values, "a weight sum") + 1.0
    total = math.fsum(values)
    if abs(total) <= ATOL * scale:
        raise DegenerateDenominator(
            f"weights {values} sum to ~0 and cannot be normalized"
        )
    return tuple(v / total for v in values)


@dataclass(frozen=True)
class Components:
    """Normalized weights summing to 1, one per vertex in vertex order:
    (alpha_A, alpha_B, alpha_C) for a triangle, (beta_A, .., beta_D) for a
    tetrahedron.  For a face of a tetrahedron the three slots follow the
    face's cyclic vertex order.  Any other number of weights than 3 or 4
    raises GeometryError.
    """

    weights: tuple

    def __post_init__(self):
        vals = tuple(self.weights)
        if len(vals) not in (3, 4):
            raise GeometryError(f"components need 3 or 4 weights, got {len(vals)}")
        object.__setattr__(self, "weights", _normalized(vals))

    def as_tuple(self):
        return self.weights

    def checked(self, n: int) -> tuple:
        """The weights, after checking that there are n of them; every
        function that needs components of one arity reads them here."""
        if len(self.weights) != n:
            raise GeometryError(f"{len(self.weights)} weights given where {n} are needed")
        return self.weights


@dataclass(frozen=True)
class PowerIncenter:
    """Tetrahedron center with weights proportional to the n-th powers of the
    opposite-face areas.  n = 0 reduces to the centroid, n = 1 to the
    incenter; any finite real n is accepted."""

    n: float

    def __post_init__(self):
        if not math.isfinite(self.n):
            raise GeometryError("power-incenter exponent must be finite")

    def __str__(self):
        return f"power:{self.n:g}"


@dataclass(frozen=True)
class IRVector3:
    """Cevian ratios (lambda_ab, lambda_bc, lambda_ca) of one point.

    Entries must be finite and nonzero, and their product must be 1 (the
    concurrency condition for the three cevians).  Reciprocals give the
    opposite-direction ratios, e.g. lambda_ba = 1/lambda_ab.
    """

    lambda_ab: float
    lambda_bc: float
    lambda_ca: float

    def __post_init__(self):
        for name, v in zip(("lambda_ab", "lambda_bc", "lambda_ca"), self.as_tuple()):
            if not math.isfinite(v) or v == 0.0:
                raise DegenerateDenominator(
                    f"{name} = {v!r}: cevian ratio must be finite and nonzero"
                )
        prod = self.lambda_ab * self.lambda_bc * self.lambda_ca
        if not _close(prod, 1.0):
            raise CevaViolation(f"ratio product {prod!r} != 1")

    def as_tuple(self):
        return (self.lambda_ab, self.lambda_bc, self.lambda_ca)

    @property
    def lambda_ba(self) -> float:
        return 1.0 / self.lambda_ab

    @property
    def lambda_cb(self) -> float:
        return 1.0 / self.lambda_bc

    @property
    def lambda_ac(self) -> float:
        return 1.0 / self.lambda_ca


def components_from_ir3(ir: IRVector3) -> Components:
    """Components of the point with the given cevian ratios.

    alpha_a = 1 / (1 + lambda_ab + lambda_ac) and the other two follow by
    multiplying with the respective ratio.
    """
    lam_ab = ir.lambda_ab
    lam_ac = 1.0 / ir.lambda_ca
    denom = 1.0 + lam_ab + lam_ac
    if abs(denom) <= ATOL * (1.0 + abs(lam_ab) + abs(lam_ac)):
        raise DegenerateDenominator(
            "1 + lambda_ab + lambda_ac ~ 0: the point escapes to infinity"
        )
    return Components((1.0 / denom, lam_ab / denom, lam_ac / denom))


def ir_from_components3(c: Components) -> IRVector3:
    """Inverse of components_from_ir3: quotients of consecutive components."""
    aa, ab, ac = c.checked(3)
    for name, v in zip(("alpha_a", "alpha_b", "alpha_c"), (aa, ab, ac)):
        if abs(v) <= ATOL:
            raise ZeroComponent(f"{name} ~ 0: point on a side line, ratios undefined")
    return IRVector3(ab / aa, ac / ab, aa / ac)


def fractional_ratio_determinant(lam_al: float, lam_bm: float, lam_cn: float) -> float:
    """Defect of three vertex-to-foot ratios belonging to one common point.

    Vanishes exactly when some point P has AL, BM, CN as its three cevians
    with AP/PL = lam_al and so on.
    """
    return lam_al * lam_bm * lam_cn - (lam_al + lam_bm + lam_cn) - 2.0


def vertex_foot_ratios3(c: Components) -> dict:
    """Vertex-to-foot ratios along each cevian of the point with components c.

    kappa_al = AP/AL = 1 - alpha_a (position of P along the full cevian);
    lam_al = AP/PL = kappa/(1-kappa).  The three kappas always sum to 2.
    """
    out = {}
    for key, alpha in zip(("al", "bm", "cn"), c.checked(3)):
        if abs(alpha) <= ATOL:
            raise ZeroComponent(f"component for cevian {key} ~ 0")
        if _close(alpha, 1.0):
            raise UnitComponent(f"component for cevian {key} ~ 1: point at the vertex")
        kappa = 1.0 - alpha
        out["kap_" + key] = kappa
        out["lam_" + key] = kappa / alpha
    return out


def vertex_foot_ratios4(c: Components) -> dict:
    """kappa_x = 1 - beta_x for each vertex; the four kappas sum to 3."""
    out = {}
    for key, beta in zip(("a", "b", "c", "d"), c.checked(4)):
        if _close(beta, 1.0):
            raise UnitComponent(f"beta_{key} ~ 1: point at vertex {key.upper()}")
        out["kap_" + key] = 1.0 - beta
    return out


def face_components_from_tetra(beta: Components, face: str) -> Components:
    """Components, on one face, of where the vertex-to-point line pierces it.

    For face BCD (opposite A) the pierce point of line A-P has weights
    beta_x / (1 - beta_a) on the face vertices; the returned slots follow
    the face's cyclic vertex order.
    """
    key = canonical_face(face)
    w = beta.checked(4)
    *verts, opp = FACE_INDICES[key]
    denom = 1.0 - w[opp]
    if abs(denom) <= ATOL:
        name = VERTICES[opp]
        raise UnitComponent(
            f"beta_{name.lower()} ~ 1: line through {name} is parallel to face {key}"
        )
    return Components(w[v] / denom for v in verts)


def tetra_components_from_face_pair(
    alpha_on_face_of_a: Components,
    alpha_on_face_of_b: Components,
) -> Components:
    """Reassemble tetrahedron components from two face pierce points.

    ``alpha_on_face_of_a`` lives on face BCD (slots B, C, D) and
    ``alpha_on_face_of_b`` on face CDA (slots C, D, A).  The result is
    validated by splitting it back onto both faces; a mismatch raises
    InconsistentFaces, which means the two pierce points do not belong to a
    single common point.
    """
    a_b, a_c, a_d = alpha_on_face_of_a.checked(3)  # weights of B, C, D
    b_c, b_d, b_a = alpha_on_face_of_b.checked(3)  # weights of C, D, A
    denom = 1.0 - b_a * a_b
    if abs(denom) <= ATOL * (1.0 + abs(b_a * a_b)):
        raise DegenerateDenominator("1 - alpha_a*alpha_b ~ 0 while reassembling")
    kappa = (1.0 - b_a) / denom  # AP/AP_A along the cevian from A
    beta = Components((
        b_a * (1.0 - a_b) / denom,
        kappa * a_b,
        kappa * a_c,
        kappa * a_d,
    ))
    for face, given in (("BCD", alpha_on_face_of_a), ("CDA", alpha_on_face_of_b)):
        back = face_components_from_tetra(beta, face)
        worst = max(abs(x - y) for x, y in zip(back.as_tuple(), given.as_tuple()))
        if worst > ATOL + RTOL * 1.0:
            raise InconsistentFaces(
                f"face {face} round-trip defect {worst:.3g}: the two faces do not "
                f"share a common point"
            )
    return beta


# shared edges (as vertex indices x, y) between face pairs and whether the
# second face states the ratio in the opposite direction (so its reciprocal
# must be compared)
_SHARED_EDGES = (
    ("CD", (2, 3), "BCD", "CDA", False),
    ("DB", (3, 1), "BCD", "DAB", True),
    ("BC", (1, 2), "BCD", "ABC", False),
    ("DA", (3, 0), "CDA", "DAB", False),
    ("AC", (0, 2), "CDA", "ABC", True),
    ("AB", (0, 1), "DAB", "ABC", False),
)


def _face_ratio(face: str, comps: Components, x: int, y: int) -> float:
    """lambda_xy within the given face, from that face's components."""
    vals = dict(zip(FACE_INDICES[face][:3], comps.checked(3)))
    if abs(vals[x]) <= ATOL:
        raise DegenerateDenominator(f"component of {VERTICES[x]} on face {face} ~ 0")
    return vals[y] / vals[x]


def shared_edge_residuals(face_components: dict) -> dict:
    """Per-edge disagreement of the section ratios implied by four face points.

    ``face_components`` maps each face name to the 3-weight Components of a
    point on that face.  For every edge shared by two faces, both faces determine a
    ratio in which the respective point's cevian cuts that edge; all six
    pairs agree exactly when the four vertex-to-face-point lines pass
    through one common point.
    """
    comps = {canonical_face(k): v for k, v in face_components.items()}
    if sorted(comps) != sorted(FACES):
        raise GeometryError("need components for all four faces")
    out = {}
    for edge, (x, y), f1, f2, flip in _SHARED_EDGES:
        r1 = _face_ratio(f1, comps[f1], x, y)
        r2 = _face_ratio(f2, comps[f2], *((y, x) if flip else (x, y)))
        if flip:
            r2 = 1.0 / r2
        out[edge] = abs(r1 - r2)
    return out


def concurrency_defect(face_components: dict) -> float:
    """Largest shared-edge ratio disagreement; see shared_edge_residuals."""
    return max(shared_edge_residuals(face_components).values())


# --------------------------------------------------------------------------
# centers: one rule for both simplices
#
# G, I, the excenters E_X and the tetrahedron's power family are one rule on
# the shape's facet contents, the content of the facet opposite each vertex:
# the sides of a triangle, the face areas of a tetrahedron.  Only Q (and the
# triangle's H) have their own polynomial weights per shape, the bordered
# Cayley-Menger cofactors of M. Fiedler, Matrices and Graphs in Geometry, 2011.

CENTER_KINDS = {
    3: ("G", "I", "H", "Q", "E_A", "E_B", "E_C"),
    4: ("G", "I", "Q", "E_A", "E_B", "E_C", "E_D"),
}


def parse_center(token, n: int):
    """The center kind ``token`` names on an n-vertex simplex: one of
    CENTER_KINDS[n] in any case, or on a tetrahedron a PowerIncenter, given
    as one or as "power:<n>" (e.g. "power:2", "power:-0.5")."""
    if n == 4 and isinstance(token, PowerIncenter):
        return token
    k = str(token).upper()
    if k in CENTER_KINDS[n]:
        return k
    if n == 4 and k.startswith("POWER:"):
        try:
            return PowerIncenter(float(k.split(":", 1)[1]))
        except ValueError:
            raise GeometryError(f"bad power-center exponent in {token!r}") from None
    shape, power = ("triangle", "") if n == 3 else ("tetrahedron", " or power:<n>")
    raise GeometryError(f"unknown {shape} center {token!r}; "
                        f"expected one of {CENTER_KINDS[n]}{power}")


def _dots(sides: TriangleSides):
    """D_A = b^2 + c^2 - a^2 = 2bc*cos(A) (and cyclic): zero exactly at a
    right angle at A, negative when A is obtuse.  By the identity
    D_B*D_C + D_C*D_A + D_A*D_B = a^2*D_A + b^2*D_B + c^2*D_C = 16*Area^2 the
    H and Q weights never sum to zero, and unlike tangent or double-angle-sine
    ratios they stay finite at a right angle, where they become the vertex
    indicator / the hypotenuse midpoint."""
    e = sides.E
    a2, b2, c2 = e[1][2], e[2][0], e[0][1]
    return b2 + c2 - a2, c2 + a2 - b2, a2 + b2 - c2


def _build_center(k, shape, n: int) -> Components:
    """The Components of the parsed kind k on the n-vertex shape, uncached."""
    if k == "G":
        return Components((1.0,) * n)
    if k in ("Q", "H"):
        if n == 4:
            return Components(shape.circum_aux.by_vertex)
        da, db, dc = _dots(shape)
        if k == "H":
            return Components((db * dc, dc * da, da * db))
        e = shape.E
        return Components((e[1][2] * da, e[2][0] * db, e[0][1] * dc))
    contents = shape.face_areas.by_vertex if n == 4 else shape.as_tuple()
    if k == "I":
        return Components(contents)
    if isinstance(k, PowerIncenter):
        try:
            return Components(c ** k.n for c in contents)
        except OverflowError:
            raise GeometryError(f"the {k} weights overflow the float range") from None
    # excenter E_X: the sign flips at X, and the weights' sum, the total
    # content minus twice X's, must stay safely positive
    x = VERTICES.index(k[-1])
    total = math.fsum(contents)
    if total - 2.0 * contents[x] <= ATOL * total:
        raise ExcenterDenominatorZero(
            f"the facet contents' total minus twice the one opposite {k[-1]} is "
            f"not safely positive; the excenter {k} escapes to infinity"
        )
    return Components((-1.0 if i == x else 1.0) * c for i, c in enumerate(contents))


def center_components(kind, shape) -> Components:
    """Components (weights summing to 1) of a center, named as parse_center
    reads it, of a triangle or tetrahedron (the arity comes from
    ``shape.E``).  They are built on the first request and cached on the
    shape, so the same kind on the same shape is the same object; a raise is
    not cached."""
    n = len(shape.E)
    k = parse_center(kind, n)
    cache = shape._centers
    if k not in cache:
        cache[k] = _build_center(k, shape, n)
    return cache[k]


# --------------------------------------------------------------------------
# the distance engine
#
# One algebra for triangles and tetrahedra (the Cayley-Menger / Gram forms of
# M. Fiedler, Matrices and Graphs in Geometry, 2011).  With the shape's
# squared-edge matrix E and the pair sum
#
#     ps(w) = sum over vertex pairs i < j of w_i * w_j * E_ij = (1/2) w^T E w,
#
# the distance between the points with components beta and beta' is
# d^2 = -ps(beta' - beta), and an origin O with vertex distances o_i is at
# OP^2 = sum_i beta_i * o_i^2 - ps(beta) from the point beta.  The arity n
# (3 or 4) is the shape's; vertices are indices 0..n-1.

_PAIRS = {n: tuple(combinations(range(n), 2)) for n in (3, 4)}


@dataclass(frozen=True)
class DistanceReport:
    pair: tuple
    squared_distance: float
    distance: float


def _sqrt_clamped(sq: float, scale: float, grain: float = 0.0) -> float:
    """sqrt with a small negative window clamped to zero.

    ``scale`` is the magnitude of the terms that were subtracted to get
    ``sq``; anything below -atol*scale is a genuine inconsistency.  ``grain``
    widens the window by an absolute amount for callers whose inputs are
    themselves rounded (coincident centers produce squared distances that are
    pure noise, far below any relative window).
    """
    window = ATOL * max(scale, 1e-300) + grain
    if sq < -window:
        raise NegativeSquaredDistance(
            f"squared distance {sq:.6g} is negative beyond rounding (scale {scale:.6g})"
        )
    return math.sqrt(sq) if sq > 0.0 else 0.0


def pair_sum(weights, shape) -> tuple:
    """(ps(w), sum of |w_i * w_j * E_ij|) for a sequence of one weight per
    vertex of ``shape``; the second value is the scale any cancellation in
    the first is measured against."""
    e = shape.E
    if len(weights) != len(e):
        raise GeometryError(f"{len(weights)} weights given for a shape with {len(e)} vertices")
    terms = [weights[i] * weights[j] * e[i][j] for i, j in _PAIRS[len(e)]]
    scale = _magnitude_sum(terms, "a pair sum")
    return math.fsum(terms), scale


def _vertex_index(vertex: str, shape) -> int:
    key = str(vertex).upper()
    if key not in VERTICES[:len(shape.E)]:
        raise GeometryError(f"unknown vertex {vertex!r}")
    return VERTICES.index(key)


def _origin_distance(osq, weights, shape) -> float:
    """OP from the squared vertex distances ``osq`` of the origin O."""
    ps, ps_scale = pair_sum(weights, shape)
    if len(osq) != len(weights):
        raise GeometryError(f"{len(osq)} vertex distances given for a shape with "
                            f"{len(weights)} vertices")
    vertex = [w * o for w, o in zip(weights, osq)]
    return _sqrt_clamped(math.fsum(vertex) - ps, math.fsum(map(abs, vertex)) + ps_scale)


def dist_origin_to_center(dists, comps, shape) -> float:
    """Distance from an origin O, given only its distances to the shape's
    vertices (in vertex order), to the point realizing ``comps``.

    O may be any point in space; the formula only sees the distances.
    Raises NegativeSquaredDistance when the given distances are not
    realizable by any spatial point.
    """
    if not all(0.0 <= o < math.inf for o in dists):
        raise GeometryError(f"vertex distances {tuple(dists)} must be finite and nonnegative")
    return _origin_distance([o * o for o in dists], comps.checked(len(shape.E)), shape)


def dist_vertex_to_center(vertex: str, comps, shape) -> float:
    """Distance from a vertex ("A", "B", ...) to the point realizing ``comps``."""
    return _origin_distance(shape.E[_vertex_index(vertex, shape)],
                            comps.checked(len(shape.E)), shape)


def dist_vertex_to_foot(vertex: str, comps, shape) -> float:
    """Full cevian length from a vertex through the point to the opposite
    side or face: AL = AP / |1 - alpha_A| (and likewise)."""
    ap = dist_vertex_to_center(vertex, comps, shape)
    alpha = comps.as_tuple()[_vertex_index(vertex, shape)]
    if abs(1.0 - alpha) <= ATOL:
        raise UnitComponent(f"component at {vertex.upper()} ~ 1: cevian foot undefined")
    return ap / abs(1.0 - alpha)


def dist_between_centers(c1, c2, shape) -> float:
    """Distance between the points realizing two component vectors."""
    w1, w2 = c1.checked(len(shape.E)), c2.checked(len(shape.E))
    ps, scale = pair_sum([y - x for x, y in zip(w1, w2)], shape)
    # the deltas carry absolute rounding ~eps * (component magnitude); when
    # the centers coincide that noise is all that remains, so the window for
    # a negative square needs an absolute floor at its square
    grain = 0.0
    if ps > 0.0:
        grain = (8.0 * 2.3e-16 * max(map(abs, w1 + w2))) ** 2 * 0.5 * sum(map(sum, shape.E))
    return _sqrt_clamped(-ps, scale, grain)


def pair_table(comps: dict, shape) -> list:
    """A DistanceReport for every unordered pair of the named component
    vectors, in the mapping's order (21 pairs for seven centers)."""
    out = []
    for k1, k2 in combinations(comps, 2):
        d = dist_between_centers(comps[k1], comps[k2], shape)
        out.append(DistanceReport(pair=(k1, k2), squared_distance=d * d, distance=d))
    return out


def pair_distances(table) -> dict:
    """A pair table's distances keyed by each pair in both orders; swapping
    a pair negates both factors of every term, so the value is the same."""
    out = {}
    for rep in table:
        out[rep.pair] = out[rep.pair[::-1]] = rep.distance
    return out


# the center pair each transcribed distance form measures: a form's key is
# the two kind names joined ("IE_A", "QG", "E_AE_B", ...)
FORM_PAIRS = {k1 + k2: (k1, k2)
              for n in CENTER_KINDS for k1, k2 in permutations(CENTER_KINDS[n], 2)}

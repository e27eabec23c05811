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
from collections.abc import Mapping
from itertools import combinations, permutations
from operator import mul

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
    "EDGES",
    "validate_triangle",
    "validate_tetrahedron",
    "gram_volume_term",
    "edge_polynomials",
    "components_from_ir3",
    "ir_from_components3",
    "fractional_ratio_determinant",
    "vertex_foot_ratios",
    "face_components_from_tetra",
    "tetra_components_from_face_pair",
    "shared_edge_residuals",
    "DistanceReport",
    "pair_sum",
    "dist_between_centers",
    "dist_origin_to_center",
    "dist_vertex_to_center",
    "dist_vertex_to_foot",
    "dist_from_circumcenter",
    "circumradius",
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


# The vertex pair each length joins, by vertex count, in the order the shape
# lists its lengths: a triangle's sides a = BC, b = CA, c = AB, a
# tetrahedron's edges AB, AC, AD, BC, CD, DB.
EDGES = {3: ((1, 2), (2, 0), (0, 1)), 4: ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1))}


def canonical_face(face: str) -> str:
    key = str(face).upper()
    if key not in FACES:
        raise GeometryError(f"unknown face {face!r}; expected one of {sorted(FACES)}")
    return key


# --------------------------------------------------------------------------
# value types

class _Frozen:
    """Base of the immutable value types.  The fields, named in
    ``__match_args__`` and stored in the instance ``__dict__`` by each
    ``__init__``, define equality, hashing and repr (``Name(field=value,
    ...)``); attributes cannot be assigned or deleted.  Other ``__dict__``
    entries are per-instance caches (see _cached) and take no part."""

    __match_args__ = ()

    def _fields(self) -> tuple:
        d = self.__dict__
        return tuple([d[name] for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        args = ", ".join(f"{name}={v!r}" for name, v in zip(self.__match_args__, self._fields()))
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class _cached:
    """A cached attribute: the first read stores the method's value in the
    instance ``__dict__``, where every later read finds it before this
    descriptor.  A raise stores nothing.  Unlike functools' cached property
    it takes no lock (Python < 3.12 locks every first read)."""

    def __init__(self, method):
        self.method, self.name, self.__doc__ = method, method.__name__, method.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.method(obj)
        return value


# --------------------------------------------------------------------------
# length data

def _by_pair(n: int, values) -> tuple:
    """The symmetric n x n tuple of tuples, zero on the diagonal, holding
    each of ``values`` at the vertex pair EDGES[n] gives it."""
    m = [[0.0] * n for _ in range(n)]
    for (i, j), v in zip(EDGES[n], values):
        m[i][j] = m[j][i] = v
    return tuple(map(tuple, m))


class _Simplex(_Frozen):
    """What TriangleSides and TetraEdges share: their fields
    (``__match_args__``) are the lengths in EDGES[n] order, checked by one
    rule and squared into E by one rule, and each instance caches its
    centers and R."""

    def _check_lengths(self, noun: str, values):
        """Store each length as a positive finite float, or raise
        NonPositiveLength naming it; numeric strings are accepted."""
        d = self.__dict__
        for name, v in zip(self.__match_args__, values):
            x = _float(v)
            if not (x > 0) or not math.isfinite(x):
                raise NonPositiveLength(f"{noun} {name} = {v!r} must be a positive finite length")
            d[name] = x

    @_cached
    def E(self) -> tuple:
        """Squared-edge matrix: E[i][j] = |V_i V_j|^2 for vertices
        (A, B, ...) = (0, 1, ...), a symmetric tuple of tuples with a zero
        diagonal."""
        return _by_pair(self._N, [x * x for x in self.as_tuple()])

    @_cached
    def _pair_e(self) -> tuple:
        """E[i][j] for each vertex pair i < j in _PAIRS order (the kernels' e)."""
        return tuple(self.E[i][j] for i, j in _PAIRS[self._N])

    @_cached
    def _centers(self) -> dict:
        """center_components' per-instance cache: Components by kind."""
        return {}

    @_cached
    def _circumradius(self) -> float:
        """R, which circumradius reads: abc / (4 * area) for a triangle,
        sqrt(Crelle / volume term) for a tetrahedron."""
        if self._N == 3:
            return self.a * self.b * self.c / (4.0 * self.area)
        return math.sqrt(_crelle_product(self) / self.volume_term)


class TriangleSides(_Simplex):
    """Side lengths a = BC, b = CA, c = AB (opposite the like-named vertex)."""

    __match_args__ = ("a", "b", "c")
    _N = 3

    def __init__(self, a: float, b: float, c: float):
        self._check_lengths("side", (a, b, c))
        a, b, c = self.a, self.b, self.c
        for lhs, pair in (((b + c - a), "b+c>a"), ((c + a - b), "c+a>b"), ((a + b - c), "a+b>c")):
            if not (lhs > 0):
                raise TriangleInequalityViolated(
                    f"triangle inequality {pair} fails for sides ({a}, {b}, {c})"
                )

    @_cached
    def area(self) -> float:
        """sqrt(K)/4 with K = 16*Area^2 from E; a K that is not positive
        raises GeometryError on every access (a raise is not cached)."""
        e = self.E
        return _area(e[1][2], e[2][0], e[0][1])

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
    return TriangleSides(a, b, c)


def _k_invariant(a2: float, b2: float, c2: float) -> float:
    """(a^2+b^2+c^2)^2 - 2(a^4+b^4+c^4) on the squared sides: 16*Area^2."""
    s = a2 + b2 + c2  # s * s: float ** calls libm pow, which is not correctly rounded
    return s * s - 2.0 * (a2 * a2 + b2 * b2 + c2 * c2)


def _area(a2: float, b2: float, c2: float) -> float:
    """The area sqrt(K)/4 of the triangle with the given squared sides."""
    k = _k_invariant(a2, b2, c2)
    if k <= 0.0:
        raise GeometryError(f"nonpositive squared-area invariant {k}")
    return 0.25 * math.sqrt(k)


def edge_polynomials(edges) -> dict:
    """The symmetric edge polynomials behind the volume formula.

    Returns delta2 (half the sum of squared edges), q2 (half the sum of
    products of squared opposite-edge pairs), and t1, t2, t3 with
    t1 - t2 - t3 = 36 * volume**2.
    """
    ab, ac, ad, bc, cd, db = _lengths(edges, 4)
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


def _volume_term(edges) -> tuple:
    """(t1 - t2 - t3, delta2) of six lengths: the volume term and its scale."""
    p = edge_polynomials(edges)
    return p["t1"] - p["t2"] - p["t3"], p["delta2"]


def gram_volume_term(edges) -> float:
    """t1 - t2 - t3: positive iff the six lengths realize a tetrahedron.

    Equals 36 * V**2 for a realizable edge set.  A TetraEdges carries the
    value its volume gate computed; raw lengths are not validated here, and
    the caller interprets nonpositive values.
    """
    if isinstance(edges, TetraEdges):
        return edges.volume_term
    return _volume_term(edges)[0]


def _lengths(shape, n: int) -> tuple:
    """The lengths of an n-vertex shape, given as one or as a raw sequence
    of numbers, which is not otherwise checked."""
    vals = shape.as_tuple() if isinstance(shape, _Simplex) else _reals(shape, "lengths")
    if len(vals) != len(EDGES[n]):
        raise GeometryError(f"expected {len(EDGES[n])} lengths, got {len(vals)}")
    return vals


class FaceAreas(_Frozen):
    """Heron areas S^A..S^D of the four faces in vertex order, each at the
    index of the face's opposite vertex, plus their sum s (the total surface
    area)."""

    __match_args__ = ("by_vertex", "s")

    def __init__(self, by_vertex: tuple, s: float):
        d = self.__dict__
        d["by_vertex"], d["s"] = by_vertex, s

    def opposite_sum(self, i: int) -> float:
        """T^X = s - 2*S^X for vertex index i: the other three areas minus
        this one."""
        return self.s - 2.0 * self.by_vertex[i]

    def as_dict(self) -> dict:
        return dict(zip(("s_a", "s_b", "s_c", "s_d"), self.by_vertex), s=self.s)


class CircumAux(_Frozen):
    """Circumcenter weight polynomials U_A..U_D (degree 6 in the edges) in
    vertex order, and their sum u, which equals 144 * volume^2."""

    __match_args__ = ("by_vertex", "u")

    def __init__(self, by_vertex: tuple, u: float):
        d = self.__dict__
        d["by_vertex"], d["u"] = by_vertex, u


class TetraEdges(_Simplex):
    """Edge lengths of tetrahedron ABCD in the order AB, AC, AD, BC, CD, DB.

    Construction validates the lengths.  The invariants the center and
    metric formulas share are derived from the six lengths once per
    instance and then read by every caller: ``volume_term`` (set by the
    volume gate), and on first use the squared-edge matrix ``E``, the
    ``face_areas``, the faces' geometry and vertex feet, the circumcenter
    weights ``circum_aux``, R and the centers' Components (see
    center_components).  None of them takes part in equality, hashing or repr.
    """

    __match_args__ = ("ab", "ac", "ad", "bc", "cd", "db")
    _N = 4

    def __init__(self, ab: float, ac: float, ad: float, bc: float, cd: float, db: float):
        self._check_lengths("edge", (ab, ac, ad, bc, cd, db))
        length = _by_pair(4, self.as_tuple())
        for face, (v1, v2, v3, _) in FACE_INDICES.items():
            x, y, z = length[v1][v2], length[v2][v3], length[v3][v1]
            if not (x + y > z and y + z > x and z + x > y):
                raise FaceTriangleInequalityViolated(
                    f"face {face} edges ({x}, {y}, {z}) violate the triangle inequality"
                )
        gram, delta2 = _volume_term(self.as_tuple())
        try:
            # scale-aware strict positivity gate: delta2**3 has the same units
            floor = ATOL * delta2 ** 3
        except OverflowError:
            floor = math.nan
        if not (math.isfinite(gram) and math.isfinite(floor)):
            raise GeometryError(f"edges {self.as_tuple()} overflow the volume gate")
        if not (gram > floor):
            raise NotRealizable(
                f"edge set does not realize a nondegenerate tetrahedron "
                f"(volume term {gram:.6g})"
            )
        self.__dict__["volume_term"] = gram

    def as_tuple(self):
        return (self.ab, self.ac, self.ad, self.bc, self.cd, self.db)

    @_cached
    def face_areas(self) -> FaceAreas:
        """The four face areas, each sqrt(K)/4 on the squares of the face's
        sides (a, b, c) = (V2V3, V3V1, V1V2), read from E.  A face whose K is
        not positive raises GeometryError on every access (a raise is not
        cached)."""
        e = self.E
        areas = [_area(e[v2][v3], e[v3][v1], e[v1][v2])
                 for v1, v2, v3, _ in FACE_INDICES.values()]
        return FaceAreas(tuple(areas), math.fsum(areas))

    @_cached
    def _faces(self) -> dict:
        """By face name: its vertex indices (V1, V2, V3, opposite), squared
        edges (V1V2, V2V3, V3V1), their half sum delta2f, and 8 * area^2."""
        e, out = self.E, {}
        for face, verts in FACE_INDICES.items():
            v1, v2, v3, _ = verts
            e12, e23, e31 = e[v1][v2], e[v2][v3], e[v3][v1]
            delta2f = 0.5 * (e12 + e23 + e31)
            # identity: sum of (delta2f - e^2)*e^2 over the face edges = 8*area^2
            eight_sq = (delta2f - e12) * e12 + (delta2f - e23) * e23 + (delta2f - e31) * e31
            out[face] = verts, (e12, e23, e31), delta2f, eight_sq
        return out

    @_cached
    def _feet(self) -> dict:
        """tet_centers' vertex feet by canonical face name."""
        return {}

    @_cached
    def circum_aux(self) -> CircumAux:
        """Circumcenter weights: for each vertex V with opposite face
        (X, Y, Z),

            u_V = sum over face edges e, with R the face vertex off e, of
                  (delta2f - e^2) * e^2 * VR^2   minus   XY^2*YZ^2*ZX^2,

        where delta2f is half the face's sum of squared edges.  u_V/u are
        the circumcenter's components, and u = 4*(t1 - t2 - t3) > 0.
        """
        vals = []
        for (v1, v2, v3, opp), (e12, e23, e31), delta2f, _ in self._faces.values():
            eo = self.E[opp]
            vals.append(
                (delta2f - e12) * e12 * eo[v3]
                + (delta2f - e23) * e23 * eo[v1]
                + (delta2f - e31) * e31 * eo[v2]
                - e12 * e23 * e31
            )
        return CircumAux(tuple(vals), math.fsum(vals))


def _crelle_product(edges: TetraEdges) -> float:
    """q*(q - AB*CD)*(q - BC*AD)*(q - CA*BD), with q the half-sum of the
    three opposite-edge products; it equals 36*V^2*R^2 (Crelle)."""
    m1, m2, m3 = edges.ab * edges.cd, edges.bc * edges.ad, edges.ac * edges.db
    q = 0.5 * (m1 + m2 + m3)
    return q * (q - m1) * (q - m2) * (q - m3)


def validate_tetrahedron(ab, ac, ad, bc, cd, db) -> TetraEdges:
    """Positivity, four face triangle inequalities, and the volume gate."""
    return TetraEdges(ab, ac, ad, bc, cd, db)


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
    try:  # the magnitude sum is the finiteness test too; its failure names the fault
        scale = _magnitude_sum(values, "a weight sum") + 1.0
    except GeometryError:
        if not all(map(math.isfinite, values)):
            raise GeometryError(f"weights {values} are not all finite") from None
        raise
    total = math.fsum(values)
    if abs(total) <= ATOL * scale:
        raise DegenerateDenominator(f"weights {values} sum to ~0 and cannot be normalized")
    if len(values) == 3:  # written out: a comprehension builds a frame per call
        a, b, c = values
        return a / total, b / total, c / total
    a, b, c, d = values
    return a / total, b / total, c / total, d / total


class Components(_Frozen):
    """Normalized weights summing to 1, one per vertex in vertex order:
    (alpha_A, alpha_B, alpha_C) for a triangle, (beta_A, .., beta_D) for a
    tetrahedron.  For a face of a tetrahedron the three slots follow the
    face's cyclic vertex order.  Any other number of weights than 3 or 4,
    or weights that are not numbers in the float range, raise GeometryError.
    """

    __match_args__ = ("weights",)

    def __init__(self, weights):
        vals = _sequence(weights, "weights")  # read once: the messages show what was read
        if len(vals) not in (3, 4):
            raise GeometryError(f"components need 3 or 4 weights, got {len(vals)}")
        self.__dict__["weights"] = _normalized(_reals(vals, "weights"))

    def as_tuple(self):
        return self.weights

    def checked(self, n: int) -> tuple:
        """The weights, after checking that there are n of them."""
        return _components(self, n)


class PowerIncenter(_Frozen):
    """Tetrahedron center with weights proportional to the n-th powers of the
    opposite-face areas.  n = 0 reduces to the centroid, n = 1 to the
    incenter; any finite real n is accepted."""

    __match_args__ = ("n",)

    def __init__(self, n: float):
        x = _float(n)
        if not math.isfinite(x):
            raise GeometryError(f"power-incenter exponent {n!r} is not a number in the "
                                "float range")
        self.__dict__["n"] = n if isinstance(n, (int, float)) else x  # "2" is read as 2.0

    def __str__(self):
        return f"power:{self.n:g}"


class IRVector3(_Frozen):
    """Cevian ratios (lambda_ab, lambda_bc, lambda_ca) of one point.

    Entries must be finite and nonzero numbers in the float range, and their
    product must be 1 (the concurrency condition for the three cevians).
    Reciprocals give the opposite-direction ratios, e.g. lambda_ba =
    1/lambda_ab.
    """

    __match_args__ = ("lambda_ab", "lambda_bc", "lambda_ca")

    def __init__(self, lambda_ab: float, lambda_bc: float, lambda_ca: float):
        a, b, c = vals = lambda_ab, lambda_bc, lambda_ca
        if not type(a) is type(b) is type(c) is float:  # the engine's own ratios are floats
            a, b, c = vals = _reals(vals, "cevian ratios")
        d = self.__dict__
        d["lambda_ab"], d["lambda_bc"], d["lambda_ca"] = vals
        if not (a and b and c and math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
            name, v = next((name, v) for name, v in zip(self.__match_args__, vals)
                           if not (v and math.isfinite(v)))
            raise DegenerateDenominator(f"{name} = {v!r}: cevian ratio must be finite "
                                        "and nonzero")
        prod = a * b * c
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


# --------------------------------------------------------------------------
# argument coercers: each public function of the closed-form modules passes
# every argument through the one of its kind first (canonical_face and
# parse_center for face names and center kinds), which returns it in the form
# the code reads or raises GeometryError naming it.  Internal calls skip them.

def _float(v) -> float:
    """float(v), which reads numbers and numeric strings, or NaN for anything
    else; every range check rejects NaN, so the caller's own names the input."""
    try:
        return float(v)
    except (TypeError, ValueError, OverflowError):
        return math.nan


def _sequence(values, what: str) -> tuple:
    """``values`` read once into a tuple, or GeometryError naming them."""
    try:
        return tuple(values)
    except TypeError:
        raise GeometryError(f"{what} {values!r} are not a sequence of numbers") from None


def _reals(values, what: str, n=None) -> tuple:
    """The floats of ``values``, one per vertex of an n-vertex shape when n is
    given; NaN and the infinities pass, for the caller's range check to name."""
    try:
        vals = tuple(map(float, values))
    except (TypeError, ValueError, OverflowError):
        raise GeometryError(f"{what} {values!r} are not numbers in the float range") from None
    if n is not None and len(vals) != n:
        raise GeometryError(f"{len(vals)} {what} given for a shape with {n} vertices")
    return vals


def _instance(value, cls, what: str):
    """``value`` itself if it is a ``cls``, or GeometryError naming it."""
    if isinstance(value, cls):
        return value
    raise GeometryError(f"{what} {value!r} is not a {cls.__name__}")


_SHAPES = {None: (TriangleSides, TetraEdges), 3: TriangleSides, 4: TetraEdges}


def _shape(shape, n=None):
    """``shape`` itself if it is a TriangleSides or a TetraEdges, with n
    vertices when n is given; GeometryError for any other argument."""
    if isinstance(shape, _SHAPES[n]):
        return shape
    raise GeometryError(f"shape {shape!r} is " + (f"not a {_SHAPES[n].__name__}" if n else
                                                  "neither a TriangleSides nor a TetraEdges"))


def _comps(weights) -> Components:
    """The engine's own 3 or 4 float weights as Components, without the argument check."""
    comps = object.__new__(Components)
    comps.__dict__["weights"] = _normalized(tuple(weights))
    return comps


def _components(comps, n=None) -> tuple:
    """The weights of the Components ``comps``, n of them when n is given;
    every function that needs components reads them here."""
    if not isinstance(comps, Components):
        raise GeometryError(f"components {comps!r} are not a Components")
    w = comps.weights
    if n is not None and len(w) != n:
        raise GeometryError(f"{len(w)} weights given where {n} are needed")
    return w


def components_from_ir3(ir: IRVector3) -> Components:
    """Components of the point with the given cevian ratios.

    alpha_a = 1 / (1 + lambda_ab + lambda_ac) and the other two follow by
    multiplying with the respective ratio.
    """
    lam_ab, _, lam_ca = _instance(ir, IRVector3, "cevian ratios").as_tuple()
    lam_ac = 1.0 / lam_ca
    denom = 1.0 + lam_ab + lam_ac
    if abs(denom) <= ATOL * (1.0 + abs(lam_ab) + abs(lam_ac)):
        raise DegenerateDenominator(
            "1 + lambda_ab + lambda_ac ~ 0: the point escapes to infinity"
        )
    return _comps((1.0 / denom, lam_ab / denom, lam_ac / denom))


def _facet_ratios(weights, v1: int, v2: int, v3: int) -> IRVector3:
    """The cevian ratios (w2/w1, w3/w2, w1/w3) on the triangle (V1, V2, V3)
    of the point with the given weights, one per vertex; ZeroComponent when
    one of the three vanishes."""
    for v in (v1, v2, v3):
        if abs(weights[v]) <= ATOL:
            raise ZeroComponent(f"component of {VERTICES[v]} ~ 0: the point lies on the "
                                f"facet opposite {VERTICES[v]}, cevian ratios undefined")
    return IRVector3(weights[v2] / weights[v1], weights[v3] / weights[v2],
                     weights[v1] / weights[v3])


def ir_from_components3(c: Components) -> IRVector3:
    """Inverse of components_from_ir3: quotients of consecutive components."""
    return _facet_ratios(_components(c, 3), 0, 1, 2)


def fractional_ratio_determinant(lam_al: float, lam_bm: float, lam_cn: float) -> float:
    """Defect of three vertex-to-foot ratios belonging to one common point.

    Vanishes exactly when some point P has AL, BM, CN as its three cevians
    with AP/PL = lam_al and so on.
    """
    lam_al, lam_bm, lam_cn = _reals((lam_al, lam_bm, lam_cn), "vertex-to-foot ratios")
    return lam_al * lam_bm * lam_cn - (lam_al + lam_bm + lam_cn) - 2.0


def vertex_foot_ratios(c: Components) -> dict:
    """Vertex-to-foot ratios along the cevian from each vertex X through the
    point with components c to its foot L on the opposite side or face:
    kap_x = XP/XL = 1 - w_X (the point's position along the full cevian) and
    lam_x = XP/PL = kap_x / w_X, keyed by the lowercase vertex letter.  The
    kappas sum to n - 1 over the n vertices.  ZeroComponent when the point
    lies on a facet, UnitComponent when it sits at a vertex.
    """
    out = {}
    for v, w in zip(VERTICES, _components(c)):
        if abs(w) <= ATOL:
            raise ZeroComponent(f"component of {v} ~ 0: the point lies on the facet "
                                f"opposite {v}, vertex-to-foot ratios undefined")
        if _close(w, 1.0):
            raise UnitComponent(f"component of {v} ~ 1: point at the vertex")
        kappa = 1.0 - w
        out["kap_" + v.lower()] = kappa
        out["lam_" + v.lower()] = kappa / w
    return out


def face_components_from_tetra(beta: Components, face: str) -> Components:
    """Components, on one face, of where the vertex-to-point line pierces it.

    For face BCD (opposite A) the pierce point of line A-P has weights
    beta_x / (1 - beta_a) on the face vertices; the returned slots follow
    the face's cyclic vertex order.
    """
    key = canonical_face(face)
    w = _components(beta, 4)
    v1, v2, v3, opp = FACE_INDICES[key]
    denom = 1.0 - w[opp]
    if abs(denom) <= ATOL:
        name = VERTICES[opp]
        raise UnitComponent(
            f"beta_{name.lower()} ~ 1: line through {name} is parallel to face {key}"
        )
    return _comps((w[v1] / denom, w[v2] / denom, w[v3] / denom))


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
    a_b, a_c, a_d = given_a = _components(alpha_on_face_of_a, 3)  # weights of B, C, D
    b_c, b_d, b_a = given_b = _components(alpha_on_face_of_b, 3)  # weights of C, D, A
    denom = 1.0 - b_a * a_b
    if abs(denom) <= ATOL * (1.0 + abs(b_a * a_b)):
        raise DegenerateDenominator("1 - alpha_a*alpha_b ~ 0 while reassembling")
    kappa = (1.0 - b_a) / denom  # AP/AP_A along the cevian from A
    beta = _comps((
        b_a * (1.0 - a_b) / denom,
        kappa * a_b,
        kappa * a_c,
        kappa * a_d,
    ))
    for face, given in (("BCD", given_a), ("CDA", given_b)):
        back = face_components_from_tetra(beta, face)
        worst = max(abs(x - y) for x, y in zip(back.as_tuple(), given))
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


def _face_ratio(face: str, weights: tuple, x: int, y: int) -> float:
    """lambda_xy within the given face, from that face's component weights."""
    vals = dict(zip(FACE_INDICES[face][:3], weights))
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
    comps = {canonical_face(k): _components(v, 3)
             for k, v in _instance(face_components, Mapping, "face components").items()}
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
    if n != 3 and n != 4:
        raise GeometryError(f"a simplex has 3 or 4 vertices, not {n!r}")
    if n == 4 and isinstance(token, PowerIncenter):
        return token
    k = str(token).upper()
    if k in CENTER_KINDS[n]:
        return k
    if n == 4 and k.startswith("POWER:"):
        return PowerIncenter(k.split(":", 1)[1])
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
        return _comps((1.0,) * n)
    if k in ("Q", "H"):
        if n == 4:
            return _comps(shape.circum_aux.by_vertex)
        da, db, dc = _dots(shape)
        if k == "H":
            return _comps((db * dc, dc * da, da * db))
        e = shape.E
        return _comps((e[1][2] * da, e[2][0] * db, e[0][1] * dc))
    contents = shape.face_areas.by_vertex if n == 4 else shape.as_tuple()
    if k == "I":
        return _comps(contents)
    if isinstance(k, PowerIncenter):
        try:
            return _comps(c ** k.n for c in contents)
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
    weights = list(contents)
    weights[x] = -weights[x]
    return _comps(weights)


def center_components(kind, shape) -> Components:
    """Components (weights summing to 1) of a center, named as parse_center
    reads it, of a triangle or tetrahedron.  They are built on the first
    request and cached on the shape, so the same kind on the same shape is
    the same object; a raise is not cached."""
    cache, n = _shape(shape)._centers, shape._N
    k = kind if isinstance(kind, str) and kind in cache else parse_center(kind, n)
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


# The pair-sum kernels: (ps(d), sum of |terms|) with terms (d_i * d_j) * E_ij
# in _PAIRS order, for d = v - w (v itself by default) and e = shape._pair_e.
# Written out per arity: on Python 3.11 a comprehension builds a frame per
# call, which cost more than the arithmetic; a test pins them to the generic
# form.  Magnitudes go first, so an infinite term raises before fsum meets
# -inf + inf.
def _pair_sum3(e, v, w=(0, 0, 0)) -> tuple:
    d0, d1, d2 = v[0] - w[0], v[1] - w[1], v[2] - w[2]
    t = d0 * d1 * e[0], d0 * d2 * e[1], d1 * d2 * e[2]
    scale = _magnitude_sum(t, "a pair sum")
    return math.fsum(t), scale


def _pair_sum4(e, v, w=(0, 0, 0, 0)) -> tuple:
    d0, d1, d2, d3 = v[0] - w[0], v[1] - w[1], v[2] - w[2], v[3] - w[3]
    t = (d0 * d1 * e[0], d0 * d2 * e[1], d0 * d3 * e[2],
         d1 * d2 * e[3], d1 * d3 * e[4], d2 * d3 * e[5])
    scale = _magnitude_sum(t, "a pair sum")
    return math.fsum(t), scale


_PAIR_SUMS = {3: _pair_sum3, 4: _pair_sum4}


class DistanceReport(_Frozen):
    __match_args__ = ("pair", "squared_distance", "distance")

    def __init__(self, pair: tuple, squared_distance: float, distance: float):
        d = self.__dict__
        d["pair"], d["squared_distance"], d["distance"] = pair, squared_distance, distance


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
    n = _shape(shape)._N
    w = _sequence(weights, "weights")
    # ints multiply exactly, as in the generic form; other numbers as their floats
    w = tuple([v if type(v) is int else x for v, x in zip(w, _reals(w, "weights", n))])
    try:
        return _pair_sum(w, shape)
    except OverflowError:  # a product of ints past the float range
        raise GeometryError(f"weights {weights!r} are not numbers in the float range") from None


def _pair_sum(weights, shape) -> tuple:
    """pair_sum of numbers already read, one per vertex of the shape."""
    return _PAIR_SUMS[shape._N](shape._pair_e, weights)


def _vertex_index(vertex: str, shape) -> int:
    key = str(vertex).upper()
    n = _shape(shape)._N
    if key not in VERTICES[:n]:
        raise GeometryError(f"unknown vertex {vertex!r}")
    return VERTICES.index(key)


def _origin_distance(osq, weights, shape) -> float:
    """OP from the squared vertex distances ``osq`` of the origin O."""
    ps, ps_scale = _pair_sum(weights, shape)
    vertex = list(map(mul, weights, osq))
    return _sqrt_clamped(math.fsum(vertex) - ps, math.fsum(map(abs, vertex)) + ps_scale)


def dist_origin_to_center(dists, comps, shape) -> float:
    """Distance from an origin O, given only its distances to the shape's
    vertices (in vertex order), to the point realizing ``comps``.

    O may be any point in space; the formula only sees the distances.
    Raises NegativeSquaredDistance when the given distances are not
    realizable by any spatial point.
    """
    n = _shape(shape)._N
    osq = [o * o for o in _reals(dists, "vertex distances", n) if 0.0 <= o < math.inf]
    if len(osq) != n:
        raise GeometryError(f"vertex distances {dists!r} must be finite and nonnegative numbers")
    return _origin_distance(osq, _components(comps, n), shape)


def circumradius(shape) -> float:
    """The circumradius R of a triangle or tetrahedron, cached on the shape."""
    return _shape(shape)._circumradius


def dist_from_circumcenter(comps, shape) -> float:
    """Distance from the circumcenter, the origin at distance R from every
    vertex, to the point realizing ``comps``: QP^2 = R^2 - ps(comps)."""
    return dist_origin_to_center((circumradius(shape),) * shape._N, comps, shape)


def dist_vertex_to_center(vertex: str, comps, shape) -> float:
    """Distance from a vertex ("A", "B", ...) to the point realizing ``comps``."""
    i = _vertex_index(vertex, shape)
    return _origin_distance(shape.E[i], _components(comps, shape._N), shape)


def dist_vertex_to_foot(vertex: str, comps, shape) -> float:
    """Full cevian length from a vertex through the point to the opposite
    side or face: AL = AP / |1 - alpha_A| (and likewise)."""
    ap = dist_vertex_to_center(vertex, comps, shape)
    alpha = comps.as_tuple()[_vertex_index(vertex, shape)]
    if abs(1.0 - alpha) <= ATOL:
        raise UnitComponent(f"component at {vertex.upper()} ~ 1: cevian foot undefined")
    return ap / abs(1.0 - alpha)


def _pair_distance(w1, w2, shape, kernel) -> float:
    """The distance between the points with the given weights, one per
    vertex of the shape, whose pair-sum kernel is ``kernel``."""
    ps, scale = kernel(shape._pair_e, w2, w1)
    if ps < 0.0:  # a positive square passes any window
        return math.sqrt(-ps)
    # the deltas carry absolute rounding ~eps * (component magnitude); when
    # the centers coincide that noise is all that remains, so the window for
    # a negative square needs an absolute floor at its square
    grain = 0.0
    if ps > 0.0:
        grain = (8.0 * 2.3e-16 * max(map(abs, w1 + w2))) ** 2 * 0.5 * sum(map(sum, shape.E))
    return _sqrt_clamped(-ps, scale, grain)


def dist_between_centers(c1, c2, shape) -> float:
    """Distance between the points realizing two component vectors."""
    n = _shape(shape)._N
    return _pair_distance(_components(c1, n), _components(c2, n), shape, _PAIR_SUMS[n])


def pair_table(comps: dict, shape) -> list:
    """A DistanceReport for every unordered pair of the named component
    vectors, in the mapping's order (21 pairs for seven centers)."""
    n = _shape(shape)._N
    w = {k: _components(c, n) for k, c in _instance(comps, Mapping, "components").items()}
    kernel, table = _PAIR_SUMS[n], []
    for k1, k2 in combinations(w, 2):
        d = _pair_distance(w[k1], w[k2], shape, kernel)
        table.append(DistanceReport((k1, k2), d * d, d))
    return table


def pair_distances(table) -> dict:
    """A pair table's distances keyed by each pair in both orders; swapping
    a pair negates both factors of every term, so the value is the same."""
    out = {}
    for rep in _sequence(table, "pair table"):
        _instance(rep, DistanceReport, "pair table entry")
        out[rep.pair] = out[rep.pair[::-1]] = rep.distance
    return out


# the center pair each transcribed distance form measures: a form's key is
# the two kind names joined ("IE_A", "QG", "E_AE_B", ...)
FORM_PAIRS = {k1 + k2: (k1, k2)
              for n in CENTER_KINDS for k1, k2 in permutations(CENTER_KINDS[n], 2)}

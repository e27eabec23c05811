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
import sys
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
    # an infinite difference passes the relative test (inf <= inf) but is
    # never close
    d = abs(x - y)
    return d <= ATOL + RTOL * max(abs(x), abs(y)) and d != math.inf


VERTICES = ("A", "B", "C", "D")

# Each tetrahedron face by vertex index (A, B, C, D) = (0, 1, 2, 3): the
# face's three vertices in cyclic order, then its opposite vertex.  The i-th
# face is the one opposite vertex i: the face "BCD" is opposite A, and so on.
# The closed forms read per-vertex values through this table; letters stay at
# the user boundary.
FACE_INDICES = {
    "BCD": (1, 2, 3, 0),
    "CDA": (2, 3, 0, 1),
    "DAB": (3, 0, 1, 2),
    "ABC": (0, 1, 2, 3),
}

# The same faces' cyclic vertex orders by letter: a face's name spells them.
FACES = {face: tuple(face) for face in FACE_INDICES}


# The vertex pair each length joins, by vertex count, in the order the shape
# lists its lengths: a triangle's sides a = BC, b = CA, c = AB, a
# tetrahedron's edges AB, AC, AD, BC, CD, DB.
EDGES = {3: ((1, 2), (2, 0), (0, 1)), 4: ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1))}


def canonical_face(face: str) -> str:
    if type(face) is str and face in FACES:  # already canonical; an unhashable face reads below
        return face
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
    entries, set by a constructor or cached on first use (see _cached), take
    no part.  A constructor sets every entry it can form without raising;
    _cached keeps only the values whose build can raise."""

    __match_args__ = ()

    def _fields(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self.__match_args__))

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

class _Simplex(_Frozen):
    """What TriangleSides and TetraEdges share: their fields
    (``__match_args__``) are the lengths in EDGES[n] order, checked by one
    rule.  The closed forms run on the *unit shape*: the lengths times
    2**-k (``_u``), with k (``_k``) the binary exponent of the longest, so
    that the longest of them is in [0.5, 1).  Scaling by a power of two is
    exact, so each value of degree d in the lengths is its unit-shape value
    times 2**(d*k), which _scaled applies once, at the output.  Every private
    invariant is on the unit shape: the squared-edge matrix ``_E`` (_E[i][j]
    = |V_i V_j|^2 for vertices (A, B, ...) = (0, 1, ...), a symmetric tuple
    of tuples with a zero diagonal), ``_pair_e``, _E[i][j] for each vertex
    pair i < j in _PAIRS order (the kernels' e), and each cache.  The public
    ``E`` is _E at the user's scale, each length squared once, x * x.  Each
    constructor sets ``_centers``, center_components' cache of Components by
    kind, to a dict of its own."""

    def _check_lengths(self, noun: str, values) -> tuple:
        """Store each length as a positive finite float, or raise
        NonPositiveLength naming it; numeric strings are accepted.  Sets
        ``_k`` and ``_u`` and returns the unit lengths."""
        d = self.__dict__
        for name, v in zip(self.__match_args__, values):
            x = _float(v)
            if not (x > 0) or not math.isfinite(x):
                raise NonPositiveLength(f"{noun} {name} = {v!r} must be a positive finite length")
            d[name] = x
        d["_k"], d["_u"] = _unit_lengths(self.as_tuple())
        return d["_u"]


def _unit_lengths(lengths) -> tuple:
    """(k, the lengths times 2**-k), k the binary exponent of the longest
    magnitude (0 when every length is zero or one is not finite)."""
    k = math.frexp(max(map(abs, lengths)))[1]
    return k, tuple([math.ldexp(x, -k) for x in lengths]) if k else tuple(lengths)


def _scaled(values, degree: int, k: int, what: str, lengths):
    """Unit-shape values, each of the given degree in the lengths, at the
    user's scale: each times 2**(degree*k), which is exact, as a sequence.
    GeometryError names ``what`` and the ``lengths`` (a shape or a raw
    sequence) when a value that is not zero lands outside the normal floats,
    where it would lose digits silently or overflow, or is not finite.  It
    takes a sequence, since a call costs more than scaling a value, and at
    k = 0, where the unit shape is the user's, it only checks the values."""
    tiny, inf, out = sys.float_info.min, math.inf, values if not k else []
    for v in values:
        if k:
            try:
                y = math.ldexp(v, degree * k)
            except OverflowError:
                break
            out.append(y)
        else:
            y = v
        # a normal float of either sign, or a zero that was one
        if not (tiny <= y < inf or -inf < y <= -tiny or v == 0.0):
            break
    else:
        return out
    lengths = lengths.as_tuple() if isinstance(lengths, _Simplex) else lengths
    raise GeometryError(f"{what} of the lengths {lengths} leaves the floating-point range")


class TriangleSides(_Simplex):
    """Side lengths a = BC, b = CA, c = AB (opposite the like-named vertex)."""

    __match_args__ = ("a", "b", "c")
    _N = 3

    def __init__(self, a: float, b: float, c: float):
        ua, ub, uc = self._check_lengths("side", (a, b, c))
        a, b, c = self.a, self.b, self.c
        for lhs, pair in (((b + c - a), "b+c>a"), ((c + a - b), "c+a>b"), ((a + b - c), "a+b>c")):
            if not (lhs > 0):
                raise TriangleInequalityViolated(
                    f"triangle inequality {pair} fails for sides ({a}, {b}, {c})"
                )
        d = self.__dict__
        d["E"] = e = ((0.0, c * c, b * b), (c * c, 0.0, a * a), (b * b, a * a, 0.0))
        a2, b2, c2 = ua * ua, ub * ub, uc * uc
        d["_E"] = ((0.0, c2, b2), (c2, 0.0, a2), (b2, a2, 0.0)) if self._k else e
        d["_pair_e"] = (c2, b2, a2)
        # D_A = b^2 + c^2 - a^2 = 2bc*cos(A) (and cyclic): zero exactly at a
        # right angle at A, negative when A is obtuse.  By the identity
        # D_B*D_C + D_C*D_A + D_A*D_B = a^2*D_A + b^2*D_B + c^2*D_C = 16*Area^2
        # the H and Q weights never sum to zero, and unlike tangent or
        # double-angle-sine ratios they stay finite at a right angle, where
        # they become the vertex indicator / the hypotenuse midpoint.
        d["_dots"] = (b2 + c2 - a2, c2 + a2 - b2, a2 + b2 - c2)
        d["perimeter"], d["semiperimeter"], d["_centers"] = a + b + c, 0.5 * (a + b + c), {}

    @_cached
    def _area(self) -> float:
        """The unit shape's area sqrt(K)/4, with K = 16*Area^2 from the
        squared sides; a K that is not positive raises GeometryError on
        every access (a raise is not cached)."""
        c2, b2, a2 = self._pair_e
        return _heron(a2, b2, c2)

    @_cached
    def area(self) -> float:
        """The area sqrt(K)/4 (see _area) at the user's scale."""
        return _scaled((self._area,), 2, self._k, "the area", self)[0]

    @_cached
    def _circumradius(self) -> float:
        """The unit shape's R = abc / (4 * area), which circumradius reads."""
        a, b, c = self._u
        return a * b * c / (4.0 * self._area)

    def as_tuple(self):
        return (self.a, self.b, self.c)


def validate_triangle(a: float, b: float, c: float) -> TriangleSides:
    """Check positivity and the three strict triangle inequalities."""
    return TriangleSides(a, b, c)


def _k_invariant(a2: float, b2: float, c2: float) -> float:
    """(a^2+b^2+c^2)^2 - 2(a^4+b^4+c^4) on the squared sides: 16*Area^2."""
    s = a2 + b2 + c2  # s * s: float ** calls libm pow, which is not correctly rounded
    return s * s - 2.0 * (a2 * a2 + b2 * b2 + c2 * c2)


def _heron(a2: float, b2: float, c2: float) -> float:
    """The area sqrt(K)/4 of the triangle with the given squared sides."""
    k = _k_invariant(a2, b2, c2)
    if k <= 0.0:
        raise GeometryError(f"nonpositive squared-area invariant {k}")
    return 0.25 * math.sqrt(k)


def _edge_polynomials(ab2, ac2, ad2, bc2, cd2, db2) -> tuple:
    """(delta2, q2, t1, t2, t3) of the six squared edges; see edge_polynomials."""
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
    return delta2, q2, t1, t2, t3


def _unit_polynomials(edges) -> tuple:
    """(k, the lengths, _edge_polynomials of the unit lengths)."""
    k, lengths, (ab, ac, ad, bc, cd, db) = _lengths(edges, 4)
    return k, lengths, _edge_polynomials(ab * ab, ac * ac, ad * ad, bc * bc, cd * cd, db * db)


def edge_polynomials(edges) -> dict:
    """The symmetric edge polynomials behind the volume formula.

    Returns delta2 (half the sum of squared edges), q2 (half the sum of
    products of squared opposite-edge pairs), and t1, t2, t3 with
    t1 - t2 - t3 = 36 * volume**2; GeometryError names the lengths when one
    of them leaves the floating-point range.
    """
    k, lengths, polys = _unit_polynomials(edges)
    return {name: _scaled((v,), degree, k, f"the edge polynomial {name}", lengths)[0]
            for name, degree, v in zip(("delta2", "q2", "t1", "t2", "t3"), (2, 4, 6, 6, 6), polys)}


def gram_volume_term(edges) -> float:
    """t1 - t2 - t3: positive iff the six lengths realize a tetrahedron.

    Equals 36 * V**2 for a realizable edge set.  A TetraEdges carries the
    value its volume gate computed; raw lengths are not validated here, and
    the caller interprets nonpositive values.  GeometryError names lengths
    whose volume term leaves the floating-point range.
    """
    if isinstance(edges, TetraEdges):
        return edges.volume_term
    k, lengths, (_, _, t1, t2, t3) = _unit_polynomials(edges)
    return _scaled((t1 - t2 - t3,), 6, k, "the volume term", lengths)[0]


def _lengths(shape, n: int) -> tuple:
    """(k, the lengths, the unit lengths; see _unit_lengths) of an n-vertex
    shape, given as one or as a raw sequence of numbers, which is not
    otherwise checked."""
    vals = shape.as_tuple() if isinstance(shape, _Simplex) else _reals(shape, "lengths")
    if len(vals) != len(EDGES[n]):
        raise GeometryError(f"expected {len(EDGES[n])} lengths, got {len(vals)}")
    k, unit = _unit_lengths(vals)
    return k, vals, unit


class FaceAreas(_Frozen):
    """Heron areas S^A..S^D of the four faces in vertex order, each at the
    index of the face's opposite vertex, plus their sum s (the total surface
    area)."""

    __match_args__ = ("by_vertex", "s")

    def __init__(self, by_vertex: tuple, s: float):
        d = self.__dict__
        d["by_vertex"] = _reals(by_vertex, "face areas", 4, finite=True)
        (d["s"],) = _reals((s,), "face area sum", finite=True)

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
        d["by_vertex"] = _reals(by_vertex, "circumcenter weights", 4, finite=True)
        (d["u"],) = _reals((u,), "circumcenter weight sum", finite=True)


class TetraEdges(_Simplex):
    """Edge lengths of tetrahedron ABCD in the order AB, AC, AD, BC, CD, DB.

    Construction validates the lengths.  The invariants the center and
    metric formulas share are derived from the six unit lengths once per
    instance and read by every caller: the constructor sets ``E``, ``_E``,
    ``_pair_e``, the volume gate's ``_delta2`` and ``_volume_term``, each
    face's geometry ``_faces``, the circumcenter weights ``_circum_aux``, the
    Crelle product ``_crelle`` and R, and empty caches for the centers'
    Components (see center_components) and tet_centers' vertex feet
    ``_feet``; the values whose build can raise come on first use: the face
    areas ``_face_areas``, R^2 along the circumcenter's components
    ``_q_pair_sum``, and the user-scale ``volume_term``, ``face_areas`` and
    ``circum_aux``.  None of them takes part in equality, hashing or repr.
    """

    __match_args__ = ("ab", "ac", "ad", "bc", "cd", "db")
    _N = 4

    def __init__(self, ab: float, ac: float, ad: float, bc: float, cd: float, db: float):
        uab, uac, uad, ubc, ucd, udb = self._check_lengths("edge", (ab, ac, ad, bc, cd, db))
        ab, ac, ad, bc, cd, db = self.as_tuple()
        # each face's (V1V2, V2V3, V3V1) in FACE_INDICES order
        for face, x, y, z in (("BCD", bc, cd, db), ("CDA", cd, ad, ac), ("DAB", ad, ab, db),
                              ("ABC", ab, bc, ac)):
            if not (x + y > z and y + z > x and z + x > y):
                raise FaceTriangleInequalityViolated(
                    f"face {face} edges ({x}, {y}, {z}) violate the triangle inequality"
                )
        ab2, ac2, ad2, bc2, cd2, db2 = (uab * uab, uac * uac, uad * uad, ubc * ubc, ucd * ucd,
                                        udb * udb)
        delta2, _, t1, t2, t3 = _edge_polynomials(ab2, ac2, ad2, bc2, cd2, db2)
        gram = t1 - t2 - t3
        # strict positivity gate relative to the shape: delta2**3 has the same degree
        if not (gram > ATOL * delta2 ** 3):
            raise NotRealizable(
                f"edge set does not realize a nondegenerate tetrahedron "
                f"(volume term {gram:.6g} on the unit shape)"
            )
        d = self.__dict__
        d["E"] = e = ((0.0, ab * ab, ac * ac, ad * ad), (ab * ab, 0.0, bc * bc, db * db),
                      (ac * ac, bc * bc, 0.0, cd * cd), (ad * ad, db * db, cd * cd, 0.0))
        if self._k:  # else the unit shape is the user's
            e = ((0.0, ab2, ac2, ad2), (ab2, 0.0, bc2, db2), (ac2, bc2, 0.0, cd2),
                 (ad2, db2, cd2, 0.0))
        d["_E"] = e
        d["_pair_e"] = (ab2, ac2, ad2, bc2, db2, cd2)
        d["_delta2"], d["_volume_term"] = delta2, gram
        # by face name: its vertex indices (V1, V2, V3, opposite), squared
        # edges e^2 (V1V2, V2V3, V3V1), each one's delta2f - e^2, with delta2f
        # their half sum, and the sum of (delta2f - e^2)*e^2, which is 8*area^2
        d["_faces"] = faces = {}
        # circumcenter weights: for each vertex V with opposite face (X, Y, Z),
        #     u_V = sum over face edges e, with R the face vertex off e, of
        #           (delta2f - e^2) * e^2 * VR^2   minus   XY^2*YZ^2*ZX^2;
        # u_V/u are the circumcenter's components, and u = 4*(t1 - t2 - t3) > 0
        u = [0.0] * 4
        for face, verts in FACE_INDICES.items():
            v1, v2, v3, opp = verts
            e12, e23, e31 = e[v1][v2], e[v2][v3], e[v3][v1]
            delta2f = 0.5 * (e12 + e23 + e31)
            f12, f23, f31 = delta2f - e12, delta2f - e23, delta2f - e31
            faces[face] = (verts, (e12, e23, e31), (f12, f23, f31),
                           f12 * e12 + f23 * e23 + f31 * e31)
            eo = e[opp]
            u[opp] = (f12 * e12 * eo[v3] + f23 * e23 * eo[v1] + f31 * e31 * eo[v2]
                      - e12 * e23 * e31)
        d["_circum_aux"] = CircumAux(tuple(u), math.fsum(u))
        # Crelle's q(q - AB*CD)(q - BC*AD)(q - CA*BD) = 36*V^2*R^2, with 2q
        # = AB*CD + BC*AD + CA*BD
        m1, m2, m3 = uab * ucd, ubc * uad, uac * udb
        q = 0.5 * (m1 + m2 + m3)
        d["_crelle"] = crelle = q * (q - m1) * (q - m2) * (q - m3)
        d["_circumradius"] = math.sqrt(crelle / gram)
        d["_centers"], d["_feet"] = {}, {}

    def as_tuple(self):
        return (self.ab, self.ac, self.ad, self.bc, self.cd, self.db)

    @_cached
    def volume_term(self) -> float:
        """t1 - t2 - t3 = 36 * volume**2 at the user's scale."""
        return _scaled((self._volume_term,), 6, self._k, "the volume term", self)[0]

    @_cached
    def _face_areas(self) -> FaceAreas:
        """The unit shape's four face areas in FACE_INDICES order, each
        sqrt(K)/4 on the squares of the face's sides (a, b, c) = (V2V3, V3V1,
        V1V2).  A face whose K is not positive raises GeometryError on every
        access (a raise is not cached)."""
        e01, e02, e03, e12, e13, e23 = self._pair_e
        areas = (_heron(e23, e13, e12), _heron(e03, e02, e23), _heron(e01, e13, e03),
                 _heron(e12, e02, e01))
        return FaceAreas(areas, math.fsum(areas))

    @_cached
    def face_areas(self) -> FaceAreas:
        """The face areas (see _face_areas) at the user's scale."""
        fa = self._face_areas
        *areas, s = _scaled(fa.by_vertex + (fa.s,), 2, self._k, "a face area or their sum", self)
        return FaceAreas(areas, s)

    @_cached
    def circum_aux(self) -> CircumAux:
        """The circumcenter weights (see the constructor), of degree 6 in
        the edges, at the user's scale."""
        aux = self._circum_aux
        *weights, u = _scaled(aux.by_vertex + (aux.u,), 6, self._k,
                              "a circumcenter weight or their sum", self)
        return CircumAux(weights, u)

    @_cached
    def _q_pair_sum(self) -> float:
        """ps(beta_Q), the unit shape's R^2 along the circumcenter-component route."""
        return _pair_sum(center_components("Q", self).weights, self)[0]


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
    # written out per arity: a comprehension builds a frame per call.  The
    # magnitude sum stays inline, not through _magnitude_sum: this runs 12-24
    # times per report, and the helper's call frame cost about 110 ns (25 %)
    # a call on Python 3.11 on a Xeon
    if len(values) == 3:
        a, b, c = values
        magnitudes = abs(a), abs(b), abs(c)
    else:
        a, b, c, d = values
        magnitudes = abs(a), abs(b), abs(c), abs(d)
    try:  # the magnitude sum is the finiteness test too; its failure names the fault
        scale = math.fsum(magnitudes)
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        if not all(map(math.isfinite, values)):
            raise GeometryError(f"weights {values} are not all finite")
        raise GeometryError("a weight sum leaves the floating-point range")
    total = math.fsum(values)
    if abs(total) <= ATOL * scale:
        raise DegenerateDenominator(f"weights {values} sum to ~0 and cannot be normalized")
    if len(values) == 3:
        return a / total, b / total, c / total
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
        a, b, c = vals = _reals((lambda_ab, lambda_bc, lambda_ca), "cevian ratios")
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


def _ratios(a: float, b: float, c: float) -> IRVector3:
    """The engine's own float ratios as an IRVector3: a Ceva product within ATOL + RTOL of 1
    (so every factor is finite and nonzero) skips __init__'s checks, any other meets them."""
    if abs(a * b * c - 1.0) <= ATOL + RTOL:
        ir = object.__new__(IRVector3)
        d = ir.__dict__
        d["lambda_ab"], d["lambda_bc"], d["lambda_ca"] = a, b, c
        return ir
    return IRVector3(a, b, c)


# --------------------------------------------------------------------------
# argument coercers: each public function of the closed-form modules reads every argument
# once, through the one of its kind (canonical_face and parse_center for face names and center
# kinds, which return a canonical name as it is), which returns it in the form the code reads
# or raises GeometryError naming it.  Internal calls skip them.

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


def _reals(values, what: str, n=None, finite=False) -> tuple:
    """The floats of ``values``, one per vertex of an n-vertex shape when n is
    given.  NaN and the infinities pass, for the caller's range check to name,
    unless ``finite``: then they are refused as values that are not numbers."""
    try:
        vals = tuple(map(float, values))
        if finite and not all(map(math.isfinite, vals)):
            raise ValueError  # the message below names them
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


def _pair(pair) -> tuple:
    """``pair`` itself if it is a 2-tuple of hashable names, or GeometryError
    naming it."""
    if isinstance(pair, tuple) and len(pair) == 2:
        try:
            hash(pair)
            return pair
        except TypeError:
            pass
    raise GeometryError(f"pair {pair!r} is not a 2-tuple of hashable names")


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
    return _ratios(weights[v2] / weights[v1], weights[v3] / weights[v2],
                   weights[v1] / weights[v3])


def ir_from_components3(c: Components) -> IRVector3:
    """Inverse of components_from_ir3: quotients of consecutive components."""
    return _facet_ratios(_components(c, 3), 0, 1, 2)


def fractional_ratio_determinant(lam_al: float, lam_bm: float, lam_cn: float) -> float:
    """Defect of three vertex-to-foot ratios belonging to one common point.

    Vanishes exactly when some point P has AL, BM, CN as its three cevians
    with AP/PL = lam_al and so on.
    """
    vals = lam_al, lam_bm, lam_cn = _reals((lam_al, lam_bm, lam_cn), "vertex-to-foot ratios")
    det = lam_al * lam_bm * lam_cn - (lam_al + lam_bm + lam_cn) - 2.0
    if not math.isfinite(det):  # so is every non-finite input's
        raise GeometryError(f"vertex-to-foot ratios {vals!r} give no finite determinant")
    return det


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
    return _pierce(_components(beta, 4), key)


def _pierce(weights, face: str) -> Components:
    """face_components_from_tetra of four weights already read, on a canonical face name."""
    v1, v2, v3, opp = FACE_INDICES[face]
    denom = 1.0 - weights[opp]
    if abs(denom) <= ATOL:
        name = VERTICES[opp]
        raise UnitComponent(
            f"beta_{name.lower()} ~ 1: line through {name} is parallel to face {face}"
        )
    return _comps((weights[v1] / denom, weights[v2] / denom, weights[v3] / denom))


def _reassembled(given_a: tuple, given_b: tuple) -> Components:
    """The tetrahedron components whose pierce points on faces BCD and CDA
    have the weights ``given_a`` (of B, C, D) and ``given_b`` (of C, D, A),
    not checked against either face."""
    a_b, a_c, a_d = given_a
    b_a = given_b[2]  # the weight of A on face CDA
    denom = 1.0 - b_a * a_b
    if abs(denom) <= ATOL * (1.0 + abs(b_a * a_b)):
        raise DegenerateDenominator("1 - alpha_a*alpha_b ~ 0 while reassembling")
    kappa = (1.0 - b_a) / denom  # AP/AP_A along the cevian from A
    return _comps((b_a * (1.0 - a_b) / denom, kappa * a_b, kappa * a_c, kappa * a_d))


def _roundtrip_defect(beta: Components, face: str, given: tuple) -> float:
    """The largest gap between the weights ``given`` on a canonical face and beta's pierce
    point there."""
    back = _pierce(beta.weights, face).weights
    return max(abs(x - y) for x, y in zip(back, given))


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
    given_a, given_b = _components(alpha_on_face_of_a, 3), _components(alpha_on_face_of_b, 3)
    beta = _reassembled(given_a, given_b)
    for face, given in (("BCD", given_a), ("CDA", given_b)):
        worst = _roundtrip_defect(beta, face, given)
        if worst > ATOL + RTOL:
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
    verts = FACE_INDICES[face]
    wx = weights[verts.index(x)]
    if abs(wx) <= ATOL:
        raise DegenerateDenominator(f"component of {VERTICES[x]} on face {face} ~ 0")
    return weights[verts.index(y)] / wx


def _edge_residuals(face_components) -> tuple:
    """The weights of four face points, read once from ``face_components`` (face name to the
    3-weight Components of a point on that face) and keyed by canonical face name, and the
    per-edge disagreement of the section ratios they imply: for every edge shared by two faces,
    both faces determine a ratio in which the respective point's cevian cuts that edge, and all
    six pairs agree exactly when the four vertex-to-face-point lines pass through one point."""
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
    return comps, out


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
    if type(token) is str and token in CENTER_KINDS[n]:  # already canonical
        return token
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


def _build_center(k, shape, n: int) -> Components:
    """The Components of the parsed kind k on the n-vertex shape, uncached."""
    if k == "G":
        return _comps((1.0,) * n)
    if k in ("Q", "H"):
        if n == 4:
            return _comps(shape._circum_aux.by_vertex)
        da, db, dc = shape._dots
        if k == "H":
            return _comps((db * dc, dc * da, da * db))
        c2, b2, a2 = shape._pair_e
        return _comps((a2 * da, b2 * db, c2 * dc))
    contents = shape._face_areas.by_vertex if n == 4 else shape._u
    if k == "I":
        return _comps(contents)
    if isinstance(k, PowerIncenter):
        # (S_X / S_ref)**n, S_ref the largest content for n >= 0 and the
        # smallest for n < 0: every power is at most 1 and the largest is
        # exactly 1, so the weights neither overflow nor sum to zero
        a, b, c, d = contents  # PowerIncenter is the tetrahedron's alone
        n = k.n
        ref = max(contents) if n >= 0 else min(contents)
        return _comps(((a / ref) ** n, (b / ref) ** n, (c / ref) ** n, (d / ref) ** n))
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


# The pair-term kernels, the one place the pair rule is written: the terms
# (d_i * d_j) * E_ij of d = w2 - w1 in _PAIRS order, with e = shape._pair_e.
# _pair_sum reads them from _ORIGIN, whose int zeros leave every weight's
# bits as they are (x - 0 is x for every float and int), and pair_table
# for each pair.  Written out per arity: on Python 3.11 a comprehension
# builds a frame per call, which cost more than the arithmetic; a test pins
# them to the generic form.
def _pair_terms3(e, w1, w2) -> tuple:
    d0, d1, d2 = w2[0] - w1[0], w2[1] - w1[1], w2[2] - w1[2]
    return d0 * d1 * e[0], d0 * d2 * e[1], d1 * d2 * e[2]


def _pair_terms4(e, w1, w2) -> tuple:
    d0, d1, d2, d3 = w2[0] - w1[0], w2[1] - w1[1], w2[2] - w1[2], w2[3] - w1[3]
    return (d0 * d1 * e[0], d0 * d2 * e[1], d0 * d3 * e[2],
            d1 * d2 * e[3], d1 * d3 * e[4], d2 * d3 * e[5])


_PAIR_TERMS = {3: _pair_terms3, 4: _pair_terms4}
_ORIGIN = {3: (0, 0, 0), 4: (0, 0, 0, 0)}


class DistanceReport(_Frozen):
    """The distance between the two points ``pair`` names, a 2-tuple of
    hashable names, with its square: finite, the distance nonnegative and
    its square close to the squared distance."""

    __match_args__ = ("pair", "squared_distance", "distance")

    def __init__(self, pair: tuple, squared_distance: float, distance: float):
        d = self.__dict__
        d["pair"] = _pair(pair)
        sq, dist = d["squared_distance"], d["distance"] = _reals(
            (squared_distance, distance), "distances", finite=True)
        if not (dist >= 0.0 and _close(sq, dist * dist)):
            raise GeometryError(f"distance {dist!r} is not the nonnegative root of the "
                                f"squared distance {sq!r}")


def _sqrt_clamped(sq: float, scale: float, grain: float = 0.0) -> float:
    """sqrt with a small negative window clamped to zero.

    ``scale`` is the magnitude of the terms that were subtracted to get
    ``sq``; anything below -atol*scale is a genuine inconsistency.  ``grain``
    widens the window by an absolute amount for callers whose inputs are
    themselves rounded (coincident centers produce squared distances that are
    pure noise, far below any relative window).
    """
    window = ATOL * scale + grain
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
        ps, scale = _pair_sum(w, shape)
    except OverflowError:  # a product of ints past the float range
        raise GeometryError(f"weights {weights!r} are not numbers in the float range") from None
    return tuple(_scaled((ps, scale), 2, shape._k, "a pair sum", shape))


def _pair_sum(weights, shape) -> tuple:
    """pair_sum on the unit shape of numbers already read, one per vertex of
    the shape."""
    n = shape._N
    t = _PAIR_TERMS[n](shape._pair_e, _ORIGIN[n], weights)
    scale = _magnitude_sum(t, "a pair sum")  # first: an infinite term raises before fsum
    return math.fsum(t), scale


def _vertex_index(vertex: str, shape) -> int:
    key = str(vertex).upper()
    n = _shape(shape)._N
    if key not in VERTICES[:n]:
        raise GeometryError(f"unknown vertex {vertex!r}")
    return VERTICES.index(key)


def _origin_distance(osq, weights, shape, shift=0) -> float:
    """OP on the unit shape from the squared vertex distances ``osq`` of the
    origin O there; with ``shift``, on the unit shape times 2**(shift/2),
    whose pair sum is the unit shape's times 2**shift."""
    ps, ps_scale = _pair_sum(weights, shape)
    ps, ps_scale = math.ldexp(ps, shift), math.ldexp(ps_scale, shift)
    vertex = list(map(mul, weights, osq))
    scale = _magnitude_sum(vertex, "a weighted squared vertex-distance sum") + ps_scale
    sq = math.fsum(vertex) - ps
    if not math.isfinite(sq):
        raise GeometryError("a squared distance leaves the floating-point range")
    return _sqrt_clamped(sq, scale)


def dist_origin_to_center(dists, comps, shape) -> float:
    """Distance from an origin O, given only its distances to the shape's
    vertices (in vertex order), to the point realizing ``comps``.

    O may be any point in space; the formula only sees the distances.
    Raises NegativeSquaredDistance when the given distances are not
    realizable by any spatial point.
    """
    n, k = _shape(shape)._N, shape._k
    o = [x for x in _reals(dists, "vertex distances", n) if 0.0 <= x < math.inf]
    if len(o) != n:
        raise GeometryError(f"vertex distances {dists!r} must be finite and nonnegative numbers")
    w = _components(comps, n)
    # one scale 2**-j for the origin and the shape: the larger of theirs
    top = max(o)
    j = max(k, math.frexp(top)[1]) if top else k
    osq = [x * x for x in _scaled(o, -1, j, "a vertex distance on the unit shape", shape)]
    return _scaled((_origin_distance(osq, w, shape, 2 * (k - j)),), 1, j, "a distance",
                   shape)[0]


def circumradius(shape) -> float:
    """The circumradius R of a triangle or tetrahedron, cached on the shape."""
    return _scaled((_shape(shape)._circumradius,), 1, shape._k, "the circumradius", shape)[0]


def dist_from_circumcenter(comps, shape) -> float:
    """Distance from the circumcenter, the origin at distance R from every
    vertex, to the point realizing ``comps``: QP^2 = R^2 - ps(comps)."""
    r = _shape(shape)._circumradius
    qp = _origin_distance((r * r,) * shape._N, _components(comps, shape._N), shape)
    return _scaled((qp,), 1, shape._k, "a distance", shape)[0]


def dist_vertex_to_center(vertex: str, comps, shape) -> float:
    """Distance from a vertex ("A", "B", ...) to the point realizing ``comps``."""
    i = _vertex_index(vertex, shape)
    ap = _origin_distance(shape._E[i], _components(comps, shape._N), shape)
    return _scaled((ap,), 1, shape._k, "a distance", shape)[0]


def dist_vertex_to_foot(vertex: str, comps, shape) -> float:
    """Full cevian length from a vertex through the point to the opposite
    side or face: AL = AP / |1 - alpha_A| (and likewise)."""
    i, w = _vertex_index(vertex, shape), _components(comps, shape._N)
    ap = _origin_distance(shape._E[i], w, shape)
    if abs(1.0 - w[i]) <= ATOL:
        raise UnitComponent(f"component at {VERTICES[i]} ~ 1: cevian foot undefined")
    return _scaled((ap / abs(1.0 - w[i]),), 1, shape._k, "a distance", shape)[0]


def _windowed(slacks: dict, scale: float) -> dict:
    """The inequality slacks ``slacks`` (name -> (slack, c), c the scalar
    that clears the slack's denominators, the slack c*c times a squared
    distance) with rounding noise in [-ATOL*c*c*scale, 0) read as 0.0; -0.0
    and anything below the window stay as they are."""
    out = {}
    for name, (value, c) in slacks.items():
        out[name] = 0.0 if -ATOL * (c * c) * scale <= value < 0.0 else value
    return out


def _slack_report(slacks: dict, degrees: dict, shape) -> dict:
    """The shape's unit-shape inequality slacks ``slacks`` (name -> (slack,
    c)), each of the degree ``degrees`` names, through the window at
    max(_pair_e), at the user's scale."""
    out = _windowed(slacks, max(shape._pair_e))
    for name, value in out.items():
        (out[name],) = _scaled((value,), degrees[name], shape._k, f"the {name} slack", shape)
    return out


def _user_slacks(slacks: dict, degrees: dict, shape) -> dict:
    """The shape's unit-shape inequality slacks ``slacks`` (name -> (slack,
    c)) as they are computed, each of the degree ``degrees`` names, at the
    user's scale, with its factor f = c*c: a slack is f times a squared
    distance, so f is of degree two less."""
    return {name: (_scaled((v,), degrees[name], shape._k, f"the {name} slack", shape)[0],
                   _scaled((c * c,), degrees[name] - 2, shape._k, f"the {name} factor",
                           shape)[0])
            for name, (v, c) in slacks.items()}


def _clamped_pair_root(ps, scale, w1, w2, shape) -> float:
    """The distance between the points with weights ``w1`` and ``w2``, one
    per vertex of the shape, from the pair sum ``(ps, scale)`` of their
    difference when ps >= 0: the square -ps is zero or negative, so the
    distance is 0.0 inside the rounding window.  A negative ps is a positive
    square, which passes any window; the callers take its root themselves."""
    # the deltas carry absolute rounding ~eps * (component magnitude); when
    # the centers coincide that noise is all that remains, so the window for
    # a negative square needs an absolute floor at its square (times half E's sum)
    grain = 0.0
    if ps > 0.0:
        grain = (8.0 * 2.3e-16 * max(map(abs, w1 + w2))) ** 2 * math.fsum(shape._pair_e)
    return _sqrt_clamped(-ps, scale, grain)


def dist_between_centers(c1, c2, shape) -> float:
    """Distance between the points realizing two component vectors: the
    entry of their two-point pair_table, with its argument checks."""
    return _scaled(_pair_roots({0: c1, 1: c2}, shape)[1], 1, shape._k, "a distance", shape)[0]


def _pair_roots(comps: dict, shape) -> tuple:
    """The unordered pairs (k1, k2) of the named component vectors, in the
    mapping's order, and each one's distance on the unit shape, with their
    argument checks."""
    n = _shape(shape)._N
    w = {k: _components(c, n) for k, c in _instance(comps, Mapping, "components").items()}
    e, terms, fsum, sqrt = shape._pair_e, _PAIR_TERMS[n], math.fsum, math.sqrt
    pairs, roots = [], []
    # the magnitude sum, which only the clamp path reads, is fsum'd there alone
    for (k1, w1), (k2, w2) in combinations(w.items(), 2):
        t = terms(e, w1, w2)
        ps = fsum(t)
        pairs.append((k1, k2))
        roots.append(sqrt(-ps) if ps < 0.0
                     else _clamped_pair_root(ps, fsum(map(abs, t)), w1, w2, shape))
    return pairs, roots


def pair_table(comps: dict, shape) -> list:
    """A DistanceReport for every unordered pair of the named component
    vectors, in the mapping's order (21 pairs for seven centers)."""
    pairs, roots = _pair_roots(comps, shape)
    k, new, table = shape._k, object.__new__, []
    squares = _scaled(list(map(mul, roots, roots)), 2, k, "a squared distance", shape)
    for pair, d, sq in zip(pairs, _scaled(roots, 1, k, "a distance", shape), squares):
        rep = new(DistanceReport)  # the engine's own floats: skip __init__'s call frame
        rd = rep.__dict__
        rd["pair"], rd["squared_distance"], rd["distance"] = pair, sq, d
        table.append(rep)
    return table


def pair_distances(table) -> dict:
    """A pair table's distances keyed by each pair in both orders; swapping
    a pair negates both factors of every term, so the value is the same."""
    out = {}
    for rep in _sequence(table, "pair table"):
        pair = _pair(_instance(rep, DistanceReport, "pair table entry").pair)
        out[pair] = out[pair[::-1]] = rep.distance
    return out


# not public: cli and verify alone read it.  The center pair each transcribed
# distance form measures: a form's key is the two kind names joined ("IE_A",
# "QG", "E_AE_B", ...)
FORM_PAIRS = {k1 + k2: (k1, k2)
              for n in CENTER_KINDS for k1, k2 in permutations(CENTER_KINDS[n], 2)}

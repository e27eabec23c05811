"""Edge-length-only tetrahedron metrics: volume, inradius, circumradius,
center-pair distances, and inequality slacks.

The same engine design as for triangles: with pair sum

    ps4(beta) = sum over vertex pairs of beta_X * beta_Y * XY^2,

the distance from an origin with vertex distances (oa..od) to the point
realizing beta is sqrt(sum beta_X*oX^2 - ps4), center-pair distances
evaluate the quadratic on component differences, and distances from the
circumcenter are sqrt(R^2 - ps4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .core_model import (
    Components4,
    DEFAULT_TOL,
    GeometryError,
    NegativeSquaredDistance,
    TetraEdges,
    UnitComponent,
    component_difference,
    gram_volume_term,
)
from .tet_centers import TET_CENTER_KINDS, tet_center_components

__all__ = [
    "TetDistanceReport",
    "TetMetricsSummary",
    "volume",
    "inradius",
    "circumradius",
    "circumradius_forms",
    "crelle_check",
    "metrics_summary",
    "dist_origin_to_center4",
    "dist_between_centers4",
    "dist_vertex4",
    "dist_foot4",
    "dist_circum4",
    "center_pair_table4",
    "tet_inequality_slacks",
    "transcribed_closed_forms4",
]

_VERTS = "ABCD"
_PAIRS = tuple(combinations(_VERTS, 2))


@dataclass(frozen=True)
class TetDistanceReport:
    pair: tuple
    squared_distance: float
    distance: float


@dataclass(frozen=True)
class TetMetricsSummary:
    volume: float
    inradius: float
    circumradius: float
    crelle_residual: float


def volume(edges: TetraEdges) -> float:
    """V = sqrt(t1 - t2 - t3) / 6."""
    return math.sqrt(gram_volume_term(edges)) / 6.0


def inradius(edges: TetraEdges) -> float:
    """r = sqrt(t1 - t2 - t3) / (2*S) — equivalently 3V/S."""
    return math.sqrt(gram_volume_term(edges)) / (2.0 * edges.face_areas.s)


def _opposite_products(edges: TetraEdges):
    return (edges.ab * edges.cd, edges.bc * edges.ad, edges.ac * edges.db)


def circumradius(edges: TetraEdges) -> float:
    """R^2 = q*(q - AB*CD)*(q - BC*AD)*(q - CA*BD) / (t1 - t2 - t3),
    with q the half-sum of the three opposite-edge products."""
    m1, m2, m3 = _opposite_products(edges)
    q = 0.5 * (m1 + m2 + m3)
    num = q * (q - m1) * (q - m2) * (q - m3)
    return math.sqrt(num / gram_volume_term(edges))


def circumradius_forms(edges: TetraEdges) -> dict:
    """The circumradius along three algebraically distinct routes, for
    cross-certification:

      component_pair_sum   : R^2 = ps4(beta_Q)
      component_half_sum   : R^2 = (1/8) * sum (beta_X + beta_Y) * XY^2
      opposite_edge_product: the q-product over the volume term
    """
    beta = tet_center_components("Q", edges).as_tuple()
    by = dict(zip(_VERTS, beta))
    ps = 0.0
    half = 0.0
    for x, y in _PAIRS:
        sq = edges.squared[x, y]
        ps += by[x] * by[y] * sq
        half += (by[x] + by[y]) * sq
    return {
        "component_pair_sum": math.sqrt(ps),
        "component_half_sum": math.sqrt(half / 8.0),
        "opposite_edge_product": circumradius(edges),
    }


def crelle_check(edges: TetraEdges) -> float:
    """Relative residual of 36*V^2*R^2 = q*(q-AB*CD)(q-BC*AD)(q-CA*BD).

    R^2 is taken from the circumcenter-component route, so the two sides
    really are independent pipelines and the residual is a genuine
    consistency measurement, not an algebraic tautology.
    """
    m1, m2, m3 = _opposite_products(edges)
    q = 0.5 * (m1 + m2 + m3)
    rhs = q * (q - m1) * (q - m2) * (q - m3)
    r2 = circumradius_forms(edges)["component_pair_sum"] ** 2
    lhs = gram_volume_term(edges) * r2
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


def metrics_summary(edges: TetraEdges) -> TetMetricsSummary:
    return TetMetricsSummary(
        volume=volume(edges),
        inradius=inradius(edges),
        circumradius=circumradius(edges),
        crelle_residual=crelle_check(edges),
    )


# --------------------------------------------------------------------------
# the distance engine

def _sqrt_clamped(sq: float, scale: float, grain: float = 0.0) -> float:
    window = DEFAULT_TOL.atol * max(scale, 1e-300) + grain
    if sq < -window:
        raise NegativeSquaredDistance(
            f"squared distance {sq:.6g} is negative beyond rounding (scale {scale:.6g})"
        )
    return math.sqrt(sq) if sq > 0.0 else 0.0


def _pair_terms(vals, edges: TetraEdges):
    by = dict(zip(_VERTS, vals))
    sq = edges.squared
    return [by[x] * by[y] * sq[x, y] for x, y in _PAIRS]


def dist_origin_to_center4(oa: float, ob: float, oc: float, od: float,
                           comps: Components4, edges: TetraEdges) -> float:
    """Distance from an origin with the given vertex distances to the point
    realizing ``comps``."""
    beta = comps.as_tuple()
    osq = (oa * oa, ob * ob, oc * oc, od * od)
    vertex_part = math.fsum(b * o for b, o in zip(beta, osq))
    terms = _pair_terms(beta, edges)
    scale = math.fsum(abs(b) * o for b, o in zip(beta, osq)) + math.fsum(
        abs(t) for t in terms
    )
    return _sqrt_clamped(vertex_part - math.fsum(terms), scale)


def dist_between_centers4(c1: Components4, c2: Components4,
                          edges: TetraEdges) -> float:
    """Distance between the points realizing two component vectors."""
    delta = component_difference(c1, c2).values
    terms = _pair_terms(delta, edges)
    # absolute floor for coincident centers, where the deltas are pure
    # rounding noise (~eps * component magnitude) and so is every term
    m = max(abs(v) for v in c1.as_tuple() + c2.as_tuple())
    grain = (8.0 * 2.3e-16 * m) ** 2 * sum(e * e for e in edges.as_tuple())
    return _sqrt_clamped(-math.fsum(terms), math.fsum(abs(t) for t in terms),
                         grain)


_VERTEX_DISTS4 = {
    "A": lambda e: (0.0, e.ab, e.ac, e.ad),
    "B": lambda e: (e.ab, 0.0, e.bc, e.db),
    "C": lambda e: (e.ac, e.bc, 0.0, e.cd),
    "D": lambda e: (e.ad, e.db, e.cd, 0.0),
}


def dist_vertex4(vertex: str, comps: Components4, edges: TetraEdges) -> float:
    """Distance from a vertex to the point realizing ``comps``."""
    key = vertex.upper()
    if key not in _VERTEX_DISTS4:
        raise GeometryError(f"unknown vertex {vertex!r}")
    return dist_origin_to_center4(*_VERTEX_DISTS4[key](edges), comps, edges)


def dist_foot4(vertex: str, comps: Components4, edges: TetraEdges) -> float:
    """Length of the full cevian from a vertex through the point to the
    opposite face: AP_A = AP / |1 - beta_A| (and likewise)."""
    key = vertex.upper()
    beta = dict(zip(_VERTS, comps.as_tuple()))[key]
    if abs(1.0 - beta) <= DEFAULT_TOL.atol:
        raise UnitComponent(f"component at {key} ~ 1: face foot undefined")
    return dist_vertex4(key, comps, edges) / abs(1.0 - beta)


def dist_circum4(comps: Components4, edges: TetraEdges) -> float:
    """Distance from the circumcenter: QP^2 = R^2 - ps4(beta)."""
    r2 = circumradius(edges) ** 2
    terms = _pair_terms(comps.as_tuple(), edges)
    scale = r2 + math.fsum(abs(t) for t in terms)
    return _sqrt_clamped(r2 - math.fsum(terms), scale)


def center_pair_table4(edges: TetraEdges) -> list:
    """All 21 unordered center-pair distances over (G, I, Q, E_A..E_D)."""
    comps = {k: tet_center_components(k, edges) for k in TET_CENTER_KINDS}
    out = []
    for k1, k2 in combinations(TET_CENTER_KINDS, 2):
        d = dist_between_centers4(comps[k1], comps[k2], edges)
        out.append(TetDistanceReport(pair=(k1, k2), squared_distance=d * d, distance=d))
    return out


def tet_inequality_slacks(edges: TetraEdges) -> dict:
    """Slack of each center-pair inequality; all zero exactly for the
    regular tetrahedron (when the centers coincide).

    QG and QI are R^2 minus the respective pair sums.  GI, GQ, IQ are the
    cleared-denominator inner sums: 16*S^2*GI^2, 16*U^2*GQ^2, and
    S^2*U^2*IQ^2.
    """
    r2 = circumradius(edges) ** 2
    fa = edges.face_areas
    aux = edges.circum_aux
    s_by = {v: fa.of(v) for v in _VERTS}
    u_by = {v: aux.of(v) for v in _VERTS}
    sq = edges.squared

    def pair_sum(w):
        return math.fsum(w[x] * w[y] * sq[x, y] for x, y in _PAIRS)

    qg = r2 - math.fsum(e * e for e in edges.as_tuple()) / 16.0
    qi = r2 - pair_sum(s_by) / fa.s ** 2
    gi = -pair_sum({v: 4.0 * s_by[v] - fa.s for v in _VERTS})
    gq = -pair_sum({v: 4.0 * u_by[v] - aux.u for v in _VERTS})
    iq = -pair_sum({v: fa.s * u_by[v] - s_by[v] * aux.u for v in _VERTS})
    return {"QG": qg, "QI": qi, "GI": gi, "GQ": gq, "IQ": iq}


def transcribed_closed_forms4(edges: TetraEdges) -> dict:
    """Independently transcribed center-pair distance formulas (regression
    guards for the generic engine): QG, QI, GI, GQ, IQ, and the families
    GE_X, IE_X, QE_X, E_XE_Y, all in terms of face areas S^X, their
    complements T^X = S - 2*S^X, and the circumcenter weights U_X."""
    fa = edges.face_areas
    aux = edges.circum_aux
    s = {v: fa.of(v) for v in _VERTS}
    t = {v: fa.opposite_sum(v) for v in _VERTS}
    u = {v: aux.of(v) for v in _VERTS}
    stot, utot = fa.s, aux.u
    e2 = edges.squared
    r2 = circumradius(edges) ** 2

    def root(x):
        return math.sqrt(x) if x > 0.0 else 0.0

    out = {
        "QG": 0.25 * root(16.0 * r2 - math.fsum(e * e for e in edges.as_tuple())),
        "QI": root(r2 - math.fsum(s[x] * s[y] * e2[x, y] for x, y in _PAIRS) / stot ** 2),
        "GI": root(-math.fsum((s[x] - stot / 4.0) * (s[y] - stot / 4.0) * e2[x, y]
                              for x, y in _PAIRS)) / stot,
        "GQ": root(-math.fsum((4.0 * u[x] - utot) * (4.0 * u[y] - utot) * e2[x, y]
                              for x, y in _PAIRS)) / (4.0 * utot),
        "IQ": root(-math.fsum((stot * u[x] - s[x] * utot) * (stot * u[y] - s[y] * utot)
                              * e2[x, y] for x, y in _PAIRS)) / (stot * utot),
    }
    for x in _VERTS:
        others = [v for v in _VERTS if v != x]
        inc = math.fsum(s[x] * s[y] * e2[x, y] for y in others)
        non = math.fsum(s[y] * s[z] * e2[y, z] for y, z in combinations(others, 2))
        ge = math.fsum((4.0 * s[x] + t[x]) * (4.0 * s[y] - t[x]) * e2[x, y]
                       for y in others)
        ge -= math.fsum((4.0 * s[y] - t[x]) * (4.0 * s[z] - t[x]) * e2[y, z]
                        for y, z in combinations(others, 2))
        out[f"GE_{x}"] = root(ge) / (4.0 * t[x])
        out[f"IE_{x}"] = root((stot ** 2 - t[x] ** 2) * inc
                              - (stot - t[x]) ** 2 * non) / (stot * t[x])
        out[f"QE_{x}"] = root(r2 - (non - inc) / t[x] ** 2)
    for x, y in _PAIRS:
        z, w = (v for v in _VERTS if v not in (x, y))
        acc = s[x] * s[y] * (t[x] + t[y]) ** 2 * e2[x, y]
        acc -= (t[x] ** 2 - t[y] ** 2) * (s[x] * s[z] * e2[x, z]
                                          + s[x] * s[w] * e2[x, w])
        acc += (t[x] ** 2 - t[y] ** 2) * (s[y] * s[z] * e2[y, z]
                                          + s[y] * s[w] * e2[y, w])
        acc -= (t[x] - t[y]) ** 2 * s[z] * s[w] * e2[z, w]
        out[f"E_{x}E_{y}"] = root(acc) / (t[x] * t[y])
    return out

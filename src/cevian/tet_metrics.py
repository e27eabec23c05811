"""Edge-length-only tetrahedron metrics: volume, inradius, the three
circumradius forms, center-pair distances, and inequality slacks.

The distances come from the engine in core_model, the same one the triangle
metrics use: with pair sum

    ps4(beta) = sum over vertex pairs of beta_X * beta_Y * XY^2,

the distance from an origin with vertex distances (oa..od) to the point
realizing beta is sqrt(sum beta_X*oX^2 - ps4), center-pair distances
evaluate -ps4 on component differences, and distances from the
circumcenter are sqrt(R^2 - ps4).
"""

from __future__ import annotations

import math
from itertools import combinations

from .core_model import (
    TetraEdges,
    VERTICES,
    _Frozen,
    _PAIRS,
    _crelle_product,
    _shape,
    circumradius,
    gram_volume_term,
    pair_sum,
    pair_table,
)
from .tet_centers import TET_CENTER_KINDS, tet_center_components

__all__ = [
    "TetMetricsSummary",
    "volume",
    "inradius",
    "circumradius_forms",
    "crelle_check",
    "metrics_summary",
    "center_pair_table4",
    "tet_inequality_slacks",
    "transcribed_closed_forms4",
]


class TetMetricsSummary(_Frozen):
    __match_args__ = ("volume", "inradius", "circumradius", "crelle_residual")

    def __init__(self, volume: float, inradius: float, circumradius: float,
                 crelle_residual: float):
        d = self.__dict__
        d["volume"], d["inradius"], d["circumradius"] = volume, inradius, circumradius
        d["crelle_residual"] = crelle_residual


def volume(edges: TetraEdges) -> float:
    """V = sqrt(t1 - t2 - t3) / 6."""
    return math.sqrt(gram_volume_term(edges)) / 6.0


def inradius(edges: TetraEdges) -> float:
    """r = sqrt(t1 - t2 - t3) / (2*S) — equivalently 3V/S."""
    return math.sqrt(_shape(edges, 4).volume_term) / (2.0 * edges.face_areas.s)


def circumradius_forms(edges: TetraEdges) -> dict:
    """The circumradius along three algebraically distinct routes, for
    cross-certification:

      component_pair_sum   : R^2 = ps4(beta_Q)
      component_half_sum   : R^2 = (1/8) * sum (beta_X + beta_Y) * XY^2
      opposite_edge_product: the q-product over the volume term
    """
    beta = tet_center_components("Q", _shape(edges, 4)).as_tuple()
    e = edges.E
    half = sum((beta[i] + beta[j]) * e[i][j] for i, j in _PAIRS[4])
    return {
        "component_pair_sum": math.sqrt(pair_sum(beta, edges)[0]),
        "component_half_sum": math.sqrt(half / 8.0),
        "opposite_edge_product": circumradius(edges),
    }


def crelle_check(edges: TetraEdges) -> float:
    """Relative residual of 36*V^2*R^2 = q*(q-AB*CD)(q-BC*AD)(q-CA*BD).

    R^2 is taken from the circumcenter-component route, so the two sides
    really are independent pipelines and the residual is a genuine
    consistency measurement, not an algebraic tautology.
    """
    rhs = _crelle_product(edges)
    r2 = pair_sum(tet_center_components("Q", edges).as_tuple(), edges)[0]
    lhs = gram_volume_term(edges) * r2
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


def metrics_summary(edges: TetraEdges) -> TetMetricsSummary:
    return TetMetricsSummary(
        volume=volume(edges),
        inradius=inradius(edges),
        circumradius=circumradius(edges),
        crelle_residual=crelle_check(edges),
    )


def center_pair_table4(edges: TetraEdges) -> list:
    """All 21 unordered center-pair distances over (G, I, Q, E_A..E_D)."""
    return pair_table({k: tet_center_components(k, edges) for k in TET_CENTER_KINDS}, edges)


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
    s_by, u_by = fa.by_vertex, aux.by_vertex

    qg = r2 - math.fsum(e * e for e in edges.as_tuple()) / 16.0
    qi = r2 - pair_sum(s_by, edges)[0] / fa.s ** 2
    gi = -pair_sum([4.0 * s - fa.s for s in s_by], edges)[0]
    gq = -pair_sum([4.0 * u - aux.u for u in u_by], edges)[0]
    iq = -pair_sum([fa.s * u - s * aux.u for s, u in zip(s_by, u_by)], edges)[0]
    return {"QG": qg, "QI": qi, "GI": gi, "GQ": gq, "IQ": iq}


def transcribed_closed_forms4(edges: TetraEdges) -> dict:
    """Independently transcribed center-pair distance formulas (regression
    guards for the generic engine): QG, QI, GI, GQ, IQ, and the families
    GE_X, IE_X, QE_X, E_XE_Y, all in terms of face areas S^X, their
    complements T^X = S - 2*S^X, and the circumcenter weights U_X."""
    fa = edges.face_areas
    aux = edges.circum_aux
    s, u = fa.by_vertex, aux.by_vertex
    t = [fa.opposite_sum(x) for x in range(4)]
    stot, utot = fa.s, aux.u
    e2 = edges.E
    r2 = circumradius(edges) ** 2

    def root(x):
        return math.sqrt(x) if x > 0.0 else 0.0

    out = {
        "QG": 0.25 * root(16.0 * r2 - math.fsum(e * e for e in edges.as_tuple())),
        "QI": root(r2 - math.fsum(s[x] * s[y] * e2[x][y] for x, y in _PAIRS[4]) / stot ** 2),
        "GI": root(-math.fsum((s[x] - stot / 4.0) * (s[y] - stot / 4.0) * e2[x][y]
                              for x, y in _PAIRS[4])) / stot,
        "GQ": root(-math.fsum((4.0 * u[x] - utot) * (4.0 * u[y] - utot) * e2[x][y]
                              for x, y in _PAIRS[4])) / (4.0 * utot),
        "IQ": root(-math.fsum((stot * u[x] - s[x] * utot) * (stot * u[y] - s[y] * utot)
                              * e2[x][y] for x, y in _PAIRS[4])) / (stot * utot),
    }
    for x, name in enumerate(VERTICES):
        others = [v for v in range(4) if v != x]
        inc = math.fsum(s[x] * s[y] * e2[x][y] for y in others)
        non = math.fsum(s[y] * s[z] * e2[y][z] for y, z in combinations(others, 2))
        ge = math.fsum((4.0 * s[x] + t[x]) * (4.0 * s[y] - t[x]) * e2[x][y]
                       for y in others)
        ge -= math.fsum((4.0 * s[y] - t[x]) * (4.0 * s[z] - t[x]) * e2[y][z]
                        for y, z in combinations(others, 2))
        out[f"GE_{name}"] = root(ge) / (4.0 * t[x])
        out[f"IE_{name}"] = root((stot ** 2 - t[x] ** 2) * inc
                                 - (stot - t[x]) ** 2 * non) / (stot * t[x])
        out[f"QE_{name}"] = root(r2 - (non - inc) / t[x] ** 2)
    for x, y in _PAIRS[4]:
        z, w = (v for v in range(4) if v not in (x, y))
        acc = s[x] * s[y] * (t[x] + t[y]) ** 2 * e2[x][y]
        acc -= (t[x] ** 2 - t[y] ** 2) * (s[x] * s[z] * e2[x][z]
                                          + s[x] * s[w] * e2[x][w])
        acc += (t[x] ** 2 - t[y] ** 2) * (s[y] * s[z] * e2[y][z]
                                          + s[y] * s[w] * e2[y][w])
        acc -= (t[x] - t[y]) ** 2 * s[z] * s[w] * e2[z][w]
        out[f"E_{VERTICES[x]}E_{VERTICES[y]}"] = root(acc) / (t[x] * t[y])
    return out

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
import sys

from .core_model import (
    CENTER_KINDS,
    GeometryError,
    TetraEdges,
    VERTICES,
    _Frozen,
    _PAIRS,
    _pair_sum,
    _reals,
    _shape,
    _windowed,
    center_components,
    circumradius,
    pair_table,
)

__all__ = [
    "TetMetricsSummary",
    "volume",
    "inradius",
    "circumradius_forms",
    "crelle_check",
    "metrics_summary",
    "tet_inequality_slacks",
    "transcribed_closed_forms4",
]


class TetMetricsSummary(_Frozen):
    """A tetrahedron's volume, inradius, circumradius and Crelle residual,
    each a finite float."""

    __match_args__ = ("volume", "inradius", "circumradius", "crelle_residual")

    def __init__(self, volume: float, inradius: float, circumradius: float,
                 crelle_residual: float):
        d = self.__dict__
        d["volume"], d["inradius"], d["circumradius"], d["crelle_residual"] = _reals(
            (volume, inradius, circumradius, crelle_residual), "tetrahedron metrics",
            finite=True)


def volume(edges: TetraEdges) -> float:
    """V = sqrt(t1 - t2 - t3) / 6."""
    return math.sqrt(_shape(edges, 4).volume_term) / 6.0


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
    beta = center_components("Q", _shape(edges, 4)).as_tuple()
    b0, b1, b2, b3 = beta
    e01, e02, e03, e12, e13, e23 = edges._pair_e
    # added left to right: builtin sum() rounds differently from Python 3.12 on
    half = ((b0 + b1) * e01 + (b0 + b2) * e02 + (b0 + b3) * e03
            + (b1 + b2) * e12 + (b1 + b3) * e13 + (b2 + b3) * e23)
    return {
        "component_pair_sum": math.sqrt(edges._q_pair_sum),
        "component_half_sum": math.sqrt(half / 8.0),
        "opposite_edge_product": circumradius(edges),
    }


def crelle_check(edges: TetraEdges) -> float:
    """Relative residual of 36*V^2*R^2 = q*(q-AB*CD)(q-BC*AD)(q-CA*BD).

    R^2 is taken from the circumcenter-component route, so the two sides
    really are independent pipelines and the residual is a genuine
    consistency measurement, not an algebraic tautology.
    """
    rhs = _shape(edges, 4)._crelle
    lhs = edges.volume_term * edges._q_pair_sum
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


def metrics_summary(edges: TetraEdges) -> TetMetricsSummary:
    return TetMetricsSummary(
        volume=volume(edges),
        inradius=inradius(edges),
        circumradius=circumradius(edges),
        crelle_residual=crelle_check(edges),
    )


# not public: perfbench/ alone reads it
def center_pair_table4(edges: TetraEdges) -> list:
    """All 21 unordered center-pair distances over (G, I, Q, E_A..E_D)."""
    _shape(edges, 4)
    return pair_table({k: center_components(k, edges) for k in CENTER_KINDS[4]}, edges)


def tet_inequality_slacks(edges: TetraEdges) -> dict:
    """Slack of each center-pair inequality; all zero exactly for the
    regular tetrahedron (when the centers coincide).

    QG and QI are R^2 minus the respective pair sums.  GI, GQ, IQ are the
    cleared-denominator inner sums: 16*S^2*GI^2, 16*U^2*GQ^2, and
    S^2*U^2*IQ^2.  A slack in [-ATOL*f*max(E), 0), with f its factor (1 for
    QG and QI), is rounding noise and reads 0.0; ``verify`` certifies the
    slacks before this window.  GeometryError where IQ's terms, of degree 18
    in the lengths and the first to fall below the normal floats, would lose
    digits silently.
    """
    slacks = _tet_inequality_slacks(edges)
    return _windowed(slacks, max(edges._pair_e))


def _tet_inequality_slacks(edges: TetraEdges) -> dict:
    """``tet_inequality_slacks`` before the rounding window, each with its
    factor: name -> (slack, f)."""
    r2 = circumradius(_shape(edges, 4)) ** 2
    fa = edges.face_areas
    aux = edges.circum_aux
    s0, s1, s2, s3 = s_by = fa.by_vertex
    u0, u1, u2, u3 = aux.by_vertex
    stot, utot, e = fa.s, aux.u, edges._pair_e
    if _below_normal(e, stot * utot):
        raise GeometryError(f"the inequality slacks of edges {edges.as_tuple()} leave the "
                            f"floating-point range")

    qg = r2 - math.fsum(e) / 16.0  # the squared edges: fsum is correctly rounded
    qi = r2 - _pair_sum(s_by, edges)[0] / stot ** 2
    gi = -_pair_sum((4.0 * s0 - stot, 4.0 * s1 - stot, 4.0 * s2 - stot, 4.0 * s3 - stot), edges)[0]
    gq = -_pair_sum((4.0 * u0 - utot, 4.0 * u1 - utot, 4.0 * u2 - utot, 4.0 * u3 - utot), edges)[0]
    iq = -_pair_sum((stot * u0 - s0 * utot, stot * u1 - s1 * utot,
                     stot * u2 - s2 * utot, stot * u3 - s3 * utot), edges)[0]
    su = stot * utot
    return {"QG": (qg, 1.0), "QI": (qi, 1.0), "GI": (gi, 16.0 * stot * stot),
            "GQ": (gq, 16.0 * utot * utot), "IQ": (iq, su * su)}


def _below_normal(e, su) -> bool:
    """Whether IQ's cleared sum, of degree 18 in the lengths and the first of
    a tetrahedron's to fall below the normal floats, has terms there: its
    weights S*U_X - S_X*U are of scale S*U, so its terms are of scale
    max(e) * (S*U)^2, taken from the inputs and never from the weights, which
    cancel to the exact zeros of coincident centers."""
    return max(e) * su * su < sys.float_info.min


# The transcribed forms' index tables: each vertex x with the other three in
# increasing order, and each vertex pair x < y with the other two, z < w.
_OTHERS = tuple((x,) + tuple(v for v in range(4) if v != x) for x in range(4))
_SPLITS = tuple((x, y) + tuple(v for v in range(4) if v not in (x, y)) for x, y in _PAIRS[4])


def transcribed_closed_forms4(edges: TetraEdges) -> dict:
    """Independently transcribed center-pair distance formulas (regression
    guards for the generic engine): QG, QI, GI, GQ, IQ, and the families
    GE_X, IE_X, QE_X, E_XE_Y, all in terms of face areas S^X, their
    complements T^X = S - 2*S^X, and the circumcenter weights U_X.  Their
    terms grow as the 18th power of the lengths, so past about 1e16, below
    about 1e-17 (where they would fall below the normal floats and lose
    digits silently) or where a denominator underflows, a form raises
    GeometryError."""
    fa = _shape(edges, 4).face_areas
    aux = edges.circum_aux
    r2 = circumradius(edges) ** 2
    try:
        out = _transcribed_forms4(edges, fa, aux, r2)
    except (ArithmeticError, ValueError):  # fsum's overflow or -inf + inf, a zero denominator
        out = None
    if (out is None or not all(map(math.isfinite, out.values()))
            or _below_normal(edges._pair_e, fa.s * aux.u)):
        raise GeometryError(f"a transcribed form of edges {edges.as_tuple()} leaves the "
                            f"floating-point range")
    return out


def _transcribed_forms4(edges, fa, aux, r2) -> dict:
    """transcribed_closed_forms4's values, which may raise or be infinite."""
    s, u = fa.by_vertex, aux.by_vertex
    stot, utot = fa.s, aux.u
    s0, s1, s2, s3 = s
    u0, u1, u2, u3 = u
    t = (stot - 2.0 * s0, stot - 2.0 * s1, stot - 2.0 * s2, stot - 2.0 * s3)  # T^X
    e2 = edges.E
    e01, e02, e03, e12, e13, e23 = edges._pair_e

    def root(x):
        return math.sqrt(x) if x > 0.0 else 0.0

    # fsum over tuple literals, not generators: fsum is correctly rounded, so
    # the terms' order cannot move a bit, and a generator builds a frame per call
    g0, g1, g2, g3 = s0 - stot / 4.0, s1 - stot / 4.0, s2 - stot / 4.0, s3 - stot / 4.0
    q0, q1, q2, q3 = 4.0 * u0 - utot, 4.0 * u1 - utot, 4.0 * u2 - utot, 4.0 * u3 - utot
    h0, h1, h2, h3 = (stot * u0 - s0 * utot, stot * u1 - s1 * utot,
                      stot * u2 - s2 * utot, stot * u3 - s3 * utot)
    out = {
        "QG": 0.25 * root(16.0 * r2 - math.fsum((e01, e02, e03, e12, e13, e23))),
        "QI": root(r2 - math.fsum((s0 * s1 * e01, s0 * s2 * e02, s0 * s3 * e03, s1 * s2 * e12,
                                   s1 * s3 * e13, s2 * s3 * e23)) / stot ** 2),
        "GI": root(-math.fsum((g0 * g1 * e01, g0 * g2 * e02, g0 * g3 * e03, g1 * g2 * e12,
                               g1 * g3 * e13, g2 * g3 * e23))) / stot,
        "GQ": root(-math.fsum((q0 * q1 * e01, q0 * q2 * e02, q0 * q3 * e03, q1 * q2 * e12,
                               q1 * q3 * e13, q2 * q3 * e23))) / (4.0 * utot),
        "IQ": root(-math.fsum((h0 * h1 * e01, h0 * h2 * e02, h0 * h3 * e03, h1 * h2 * e12,
                               h1 * h3 * e13, h2 * h3 * e23))) / (stot * utot),
    }
    for x, y, z, w in _OTHERS:
        name, sx, sy, sz, sw, tx, ex = VERTICES[x], s[x], s[y], s[z], s[w], t[x], e2[x]
        eyz, eyw, ezw = e2[y][z], e2[y][w], e2[z][w]
        inc = math.fsum((sx * sy * ex[y], sx * sz * ex[z], sx * sw * ex[w]))
        non = math.fsum((sy * sz * eyz, sy * sw * eyw, sz * sw * ezw))
        gx, gy, gz, gw = 4.0 * sx + tx, 4.0 * sy - tx, 4.0 * sz - tx, 4.0 * sw - tx
        ge = math.fsum((gx * gy * ex[y], gx * gz * ex[z], gx * gw * ex[w]))
        ge -= math.fsum((gy * gz * eyz, gy * gw * eyw, gz * gw * ezw))
        out[f"GE_{name}"] = root(ge) / (4.0 * tx)
        out[f"IE_{name}"] = root((stot ** 2 - tx ** 2) * inc
                                 - (stot - tx) ** 2 * non) / (stot * tx)
        out[f"QE_{name}"] = root(r2 - (non - inc) / tx ** 2)
    for x, y, z, w in _SPLITS:
        acc = s[x] * s[y] * (t[x] + t[y]) ** 2 * e2[x][y]
        acc -= (t[x] ** 2 - t[y] ** 2) * (s[x] * s[z] * e2[x][z]
                                          + s[x] * s[w] * e2[x][w])
        acc += (t[x] ** 2 - t[y] ** 2) * (s[y] * s[z] * e2[y][z]
                                          + s[y] * s[w] * e2[y][w])
        acc -= (t[x] - t[y]) ** 2 * s[z] * s[w] * e2[z][w]
        out[f"E_{VERTICES[x]}E_{VERTICES[y]}"] = root(acc) / (t[x] * t[y])
    return out

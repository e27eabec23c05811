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

from .core_model import (
    CENTER_KINDS,
    GeometryError,
    TetraEdges,
    VERTICES,
    _Frozen,
    _PAIRS,
    _pair_sum,
    _reals,
    _scaled,
    _shape,
    _slack_report,
    _user_slacks,
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
    v = math.sqrt(_shape(edges, 4)._volume_term) / 6.0
    return _scaled((v,), 3, edges._k, "the volume", edges)[0]


def inradius(edges: TetraEdges) -> float:
    """r = sqrt(t1 - t2 - t3) / (2*S) — equivalently 3V/S."""
    r = math.sqrt(_shape(edges, 4)._volume_term) / (2.0 * edges._face_areas.s)
    return _scaled((r,), 1, edges._k, "the inradius", edges)[0]


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
    pair_sum, half_sum = _scaled((math.sqrt(edges._q_pair_sum), math.sqrt(half / 8.0)), 1,
                                 edges._k, "a circumradius form", edges)
    return {
        "component_pair_sum": pair_sum,
        "component_half_sum": half_sum,
        "opposite_edge_product": circumradius(edges),
    }


def crelle_check(edges: TetraEdges) -> float:
    """Relative residual of 36*V^2*R^2 = q*(q-AB*CD)(q-BC*AD)(q-CA*BD).

    R^2 is taken from the circumcenter-component route, so the two sides
    really are independent pipelines and the residual is a genuine
    consistency measurement, not an algebraic tautology.
    """
    rhs = _shape(edges, 4)._crelle
    lhs = edges._volume_term * edges._q_pair_sum
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


def metrics_summary(edges: TetraEdges) -> TetMetricsSummary:
    return TetMetricsSummary(
        volume=volume(edges),
        inradius=inradius(edges),
        circumradius=circumradius(edges),
        crelle_residual=crelle_check(edges),
    )


# not public: perfbench/ alone reads it, and test_center_rule, which replays
# its reports
def center_pair_table4(edges: TetraEdges) -> list:
    """All 21 unordered center-pair distances over (G, I, Q, E_A..E_D)."""
    _shape(edges, 4)
    return pair_table({k: center_components(k, edges) for k in CENTER_KINDS[4]}, edges)


def tet_inequality_slacks(edges: TetraEdges) -> dict:
    """Slack of each center-pair inequality; all zero exactly for the
    regular tetrahedron (when the centers coincide).

    QG and QI are R^2 minus the respective pair sums.  GI, GQ, IQ are the
    cleared-denominator inner sums c^2*d^2, with c = 4*S, 4*U and S*U.  A
    slack in [-ATOL*c^2*max(E), 0), with c 1 for QG and QI, is rounding noise
    and reads 0.0; ``verify`` certifies the slacks before this window.
    """
    return _slack_report(_unit_slacks(_shape(edges, 4)), _SLACK_DEGREES, edges)


def _tet_inequality_slacks(edges: TetraEdges) -> dict:
    """``tet_inequality_slacks`` before the rounding window, each with its
    factor: name -> (slack, f), f = c^2."""
    return _user_slacks(_unit_slacks(_shape(edges, 4)), _SLACK_DEGREES, edges)


# each slack's degree in the lengths
_SLACK_DEGREES = {"QG": 2, "QI": 2, "GI": 6, "GQ": 14, "IQ": 18}


def _unit_slacks(edges: TetraEdges) -> dict:
    """The slacks on the unit shape before the rounding window, each with
    the scalar c that clears its denominators: name -> (slack, c), the
    slack c^2 times the pair's squared distance."""
    r2 = edges._circumradius ** 2
    fa = edges._face_areas
    aux = edges._circum_aux
    s0, s1, s2, s3 = s_by = fa.by_vertex
    u0, u1, u2, u3 = aux.by_vertex
    stot, utot, e = fa.s, aux.u, edges._pair_e

    qg = r2 - math.fsum(e) / 16.0  # the squared edges: fsum is correctly rounded
    qi = r2 - _pair_sum(s_by, edges)[0] / stot ** 2
    gi = -_pair_sum((4.0 * s0 - stot, 4.0 * s1 - stot, 4.0 * s2 - stot, 4.0 * s3 - stot), edges)[0]
    gq = -_pair_sum((4.0 * u0 - utot, 4.0 * u1 - utot, 4.0 * u2 - utot, 4.0 * u3 - utot), edges)[0]
    iq = -_pair_sum((stot * u0 - s0 * utot, stot * u1 - s1 * utot,
                     stot * u2 - s2 * utot, stot * u3 - s3 * utot), edges)[0]
    return {"QG": (qg, 1.0), "QI": (qi, 1.0), "GI": (gi, 4.0 * stot),
            "GQ": (gq, 4.0 * utot), "IQ": (iq, stot * utot)}


def _root(x):
    return math.sqrt(x) if x > 0.0 else 0.0


# The transcribed forms' index tables: each vertex x with the other three in
# increasing order, and each vertex pair x < y with the other two, z < w.
_OTHERS = tuple((x,) + tuple(v for v in range(4) if v != x) for x in range(4))
_SPLITS = tuple((x, y) + tuple(v for v in range(4) if v not in (x, y)) for x, y in _PAIRS[4])


def transcribed_closed_forms4(edges: TetraEdges) -> dict:
    """Independently transcribed center-pair distance formulas (regression
    guards for the generic engine): the families GE_X, IE_X, QE_X, E_XE_Y,
    in terms of face areas S^X, their complements T^X = S - 2*S^X, and the
    circumcenter weights U_X; QG, QI, GI, GQ and IQ are the roots of their
    inequality slacks over the clearing scalar c.  A form whose denominator
    rounds to zero raises GeometryError."""
    _shape(edges, 4)
    try:
        out = _transcribed_forms4(edges)
    except ZeroDivisionError:
        raise GeometryError(f"a transcribed form of edges {edges.as_tuple()} has a zero "
                            f"denominator") from None
    return dict(zip(out, _scaled(out.values(), 1, edges._k, "a transcribed form", edges)))


def _transcribed_forms4(edges) -> dict:
    """transcribed_closed_forms4's values on the unit shape."""
    out = {}
    for name, (slack, c) in _unit_slacks(edges).items():
        out[name] = _root(slack) / c
    fa, r2, e2 = edges._face_areas, edges._circumradius ** 2, edges._E
    s, stot = fa.by_vertex, fa.s
    t = (stot - 2.0 * s[0], stot - 2.0 * s[1], stot - 2.0 * s[2], stot - 2.0 * s[3])  # T^X

    # fsum over tuple literals, not generators: fsum is correctly rounded, so
    # the terms' order cannot move a bit, and a generator builds a frame per call
    for x, y, z, w in _OTHERS:
        name, sx, sy, sz, sw, tx, ex = VERTICES[x], s[x], s[y], s[z], s[w], t[x], e2[x]
        eyz, eyw, ezw = e2[y][z], e2[y][w], e2[z][w]
        inc = math.fsum((sx * sy * ex[y], sx * sz * ex[z], sx * sw * ex[w]))
        non = math.fsum((sy * sz * eyz, sy * sw * eyw, sz * sw * ezw))
        gx, gy, gz, gw = 4.0 * sx + tx, 4.0 * sy - tx, 4.0 * sz - tx, 4.0 * sw - tx
        ge = math.fsum((gx * gy * ex[y], gx * gz * ex[z], gx * gw * ex[w]))
        ge -= math.fsum((gy * gz * eyz, gy * gw * eyw, gz * gw * ezw))
        out[f"GE_{name}"] = _root(ge) / (4.0 * tx)
        out[f"IE_{name}"] = _root((stot ** 2 - tx ** 2) * inc
                                  - (stot - tx) ** 2 * non) / (stot * tx)
        out[f"QE_{name}"] = _root(r2 - (non - inc) / tx ** 2)
    for x, y, z, w in _SPLITS:
        acc = s[x] * s[y] * (t[x] + t[y]) ** 2 * e2[x][y]
        acc -= (t[x] ** 2 - t[y] ** 2) * (s[x] * s[z] * e2[x][z]
                                          + s[x] * s[w] * e2[x][w])
        acc += (t[x] ** 2 - t[y] ** 2) * (s[y] * s[z] * e2[y][z]
                                          + s[y] * s[w] * e2[y][w])
        acc -= (t[x] - t[y]) ** 2 * s[z] * s[w] * e2[z][w]
        out[f"E_{VERTICES[x]}E_{VERTICES[y]}"] = _root(acc) / (t[x] * t[y])
    return out

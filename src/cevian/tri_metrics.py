"""Edge-length-only triangle metrics.

The distances come from the engine in core_model and are re-exported here:
for a point with components alpha, with the pair sum

    ps(alpha) = alpha_b*alpha_c*a^2 + alpha_c*alpha_a*b^2 + alpha_a*alpha_b*c^2,

the distance from any origin O with vertex distances (oa, ob, oc) is
OP^2 = alpha_a*oa^2 + alpha_b*ob^2 + alpha_c*oc^2 - ps(alpha), the distance
between two component vectors is -ps of their difference, and the
circumcenter distance is QP^2 = R^2 - ps(alpha).  This module holds the
triangle-specific metrics; a handful of algebraically simple closed forms
are transcribed separately as independent regression guards.
"""

from __future__ import annotations

import math

from .core_model import (
    GeometryError,
    TriangleSides,
    _dots,
    _k_invariant,
    dist_between_centers,
    dist_origin_to_center,
    dist_vertex_to_center,
    dist_vertex_to_foot,
    pair_sum,
    pair_table,
)
from .tri_centers import TRI_CENTER_KINDS, center_components

__all__ = [
    "area_determinant",
    "k_invariant",
    "circumradius",
    "dist_origin_to_center",
    "dist_between_centers",
    "dist_vertex_to_center",
    "dist_vertex_to_foot",
    "dist_circumcenter_to_center",
    "center_pair_table",
    "ict_areas",
    "ict_altitudes",
    "inequality_slacks",
    "transcribed_closed_forms",
]


def _triple(sides):
    if isinstance(sides, TriangleSides):
        return sides.as_tuple()
    vals = tuple(float(v) for v in sides)
    if len(vals) != 3:
        raise GeometryError(f"expected three side lengths, got {len(vals)}")
    return vals


def k_invariant(sides) -> float:
    """(a^2+b^2+c^2)^2 - 2(a^4+b^4+c^4); equals 16*Area^2.

    Accepts raw length triples as well: it is a polynomial, defined (and
    zero or negative) even for degenerate inputs like (1, 1, 2).
    """
    a, b, c = _triple(sides)
    return _k_invariant(a * a, b * b, c * c)


def area_determinant(sides: TriangleSides) -> float:
    """Triangle area as sqrt(K)/4, agreeing with Heron's formula; the
    TriangleSides computes it once and caches it."""
    return sides.area


def circumradius(sides: TriangleSides) -> float:
    """R = abc / (4 * Area)."""
    a, b, c = sides.as_tuple()
    return a * b * c / (4.0 * sides.area)


def dist_circumcenter_to_center(comps, sides: TriangleSides) -> float:
    """Distance from the circumcenter, the origin at distance R from every
    vertex: QP^2 = R^2 - ps(alpha)."""
    r = circumradius(sides)
    return dist_origin_to_center((r, r, r), comps, sides)


def center_pair_table(sides: TriangleSides) -> list:
    """All 21 unordered center-pair distances, in the fixed kind order
    (G, I, H, Q, E_A, E_B, E_C)."""
    return pair_table({k: center_components(k, sides) for k in TRI_CENTER_KINDS}, sides)


def ict_areas(comps, sides: TriangleSides) -> dict:
    """Areas of the three sub-triangles a point cuts off: the area over side
    AB is |alpha_c| * Area (and cyclic).  For interior points they sum to
    the full area."""
    aa, ab, ac = comps.checked(3)
    s = sides.area
    return {"s_abp": abs(ac) * s, "s_bcp": abs(aa) * s, "s_cap": abs(ab) * s}


def ict_altitudes(comps, sides: TriangleSides) -> dict:
    """Distances from the realized point to the three side lines:
    h over AB = 2*|alpha_c|*Area/c (and cyclic)."""
    aa, ab, ac = comps.checked(3)
    s = sides.area
    a, b, c = sides.as_tuple()
    return {
        "h_ab": 2.0 * abs(ac) * s / c,
        "h_bc": 2.0 * abs(aa) * s / a,
        "h_ca": 2.0 * abs(ab) * s / b,
    }


def inequality_slacks(sides: TriangleSides) -> dict:
    """Slack of each center-pair inequality, all zero exactly when the
    triangle is equilateral.

    QG, QI, QH are R^2 minus the respective pair sums (the squared distance
    from the circumcenter, directly).  GI, GH, IH are the cleared-denominator
    inner sums: 36*p^2*GI^2, 9*K^2*GH^2, and (2*p*K)^2*IH^2.
    """
    a, b, c = sides.as_tuple()
    a2, b2, c2 = a * a, b * b, c * c
    p = sides.semiperimeter
    k = k_invariant(sides)
    r2 = circumradius(sides) ** 2
    da, db, dc = _dots(sides)

    qg = r2 - (a2 + b2 + c2) / 9.0
    qi = r2 - a * b * c / (2.0 * p)
    qh = r2 - pair_sum(center_components("H", sides).as_tuple(), sides)[0]
    gi = -pair_sum([3.0 * x - 2.0 * p for x in (a, b, c)], sides)[0]
    gh = -pair_sum([3.0 * db * dc - k, 3.0 * dc * da - k, 3.0 * da * db - k], sides)[0]
    ih = -pair_sum([2.0 * p * db * dc - a * k, 2.0 * p * dc * da - b * k,
                    2.0 * p * da * db - c * k], sides)[0]

    return {"QG": qg, "QI": qi, "QH": qh, "GI": gi, "GH": gh, "IH": ih}


def transcribed_closed_forms(sides: TriangleSides) -> dict:
    """Independently transcribed distance formulas, kept as regression
    guards for the generic engine:

      IE_A   = a*sqrt(bc / (p(p-a)))          (and cyclic)
      E_AE_B = c*sqrt(ab / ((p-a)(p-b)))      (and cyclic)
      QG^2   = R^2 - (a^2+b^2+c^2)/9
      QI^2   = R^2 - abc/(2p)
    """
    a, b, c = sides.as_tuple()
    p = sides.semiperimeter
    r2 = circumradius(sides) ** 2
    return {
        "IE_A": a * math.sqrt(b * c / (p * (p - a))),
        "IE_B": b * math.sqrt(c * a / (p * (p - b))),
        "IE_C": c * math.sqrt(a * b / (p * (p - c))),
        "E_AE_B": c * math.sqrt(a * b / ((p - a) * (p - b))),
        "E_BE_C": a * math.sqrt(b * c / ((p - b) * (p - c))),
        "E_CE_A": b * math.sqrt(c * a / ((p - c) * (p - a))),
        "QG": math.sqrt(max(r2 - (a * a + b * b + c * c) / 9.0, 0.0)),
        "QI": math.sqrt(max(r2 - a * b * c / (2.0 * p), 0.0)),
    }

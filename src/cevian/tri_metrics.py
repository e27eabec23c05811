"""Edge-length-only triangle metrics.

The distances come from the engine in core_model: for a point with
components alpha, with the pair sum

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
    CENTER_KINDS,
    TriangleSides,
    _components,
    _k_invariant,
    _lengths,
    _pair_sum,
    _shape,
    _windowed,
    center_components,
    circumradius,
    pair_table,
)

__all__ = [
    "k_invariant",
    "ict_areas",
    "ict_altitudes",
    "inequality_slacks",
    "transcribed_closed_forms",
]


def k_invariant(sides) -> float:
    """(a^2+b^2+c^2)^2 - 2(a^4+b^4+c^4); equals 16*Area^2.

    Accepts raw length triples as well: it is a polynomial, defined (and
    zero or negative) even for degenerate inputs like (1, 1, 2).
    GeometryError names the lengths when K leaves the floating-point range.
    """
    a, b, c = lengths = _lengths(sides, 3)
    return _k_invariant(a * a, b * b, c * c, lengths)


# not public: perfbench/ alone reads area_determinant and center_pair_table
def area_determinant(sides: TriangleSides) -> float:
    """Triangle area sqrt(K)/4, the cached ``sides.area``."""
    return _shape(sides, 3).area


def center_pair_table(sides: TriangleSides) -> list:
    """All 21 unordered center-pair distances, in the fixed kind order
    (G, I, H, Q, E_A, E_B, E_C)."""
    _shape(sides, 3)
    return pair_table({k: center_components(k, sides) for k in CENTER_KINDS[3]}, sides)


def ict_areas(comps, sides: TriangleSides) -> dict:
    """Areas of the three sub-triangles a point cuts off: the area over side
    AB is |alpha_c| * Area (and cyclic).  For interior points they sum to
    the full area."""
    aa, ab, ac = _components(comps, 3)
    s = _shape(sides, 3).area
    return {"s_abp": abs(ac) * s, "s_bcp": abs(aa) * s, "s_cap": abs(ab) * s}


def ict_altitudes(comps, sides: TriangleSides) -> dict:
    """Distances from the realized point to the three side lines:
    h over AB = 2*|alpha_c|*Area/c (and cyclic)."""
    aa, ab, ac = _components(comps, 3)
    s = _shape(sides, 3).area
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
    inner sums: 36*p^2*GI^2, 9*K^2*GH^2, and (2*p*K)^2*IH^2.  A slack in
    [-ATOL*f*max(E), 0), with f its factor (1 for QG, QI, QH), is rounding
    noise and reads 0.0; ``verify`` certifies the slacks before this window.
    """
    slacks = _inequality_slacks(sides)
    return _windowed(slacks, max(sides._pair_e))


def _inequality_slacks(sides: TriangleSides) -> dict:
    """``inequality_slacks`` before the rounding window, each with its
    factor: name -> (slack, f)."""
    a, b, c = _shape(sides, 3).as_tuple()
    c2, b2, a2 = sides._pair_e
    p = sides.semiperimeter
    k = _k_invariant(a2, b2, c2)
    r2 = circumradius(sides) ** 2
    da, db, dc = sides._dots

    qg = r2 - (a2 + b2 + c2) / 9.0
    qi = r2 - a * b * c / (2.0 * p)
    qh = r2 - _pair_sum(center_components("H", sides).as_tuple(), sides)[0]
    gi = -_pair_sum((3.0 * a - 2.0 * p, 3.0 * b - 2.0 * p, 3.0 * c - 2.0 * p), sides)[0]
    gh = -_pair_sum((3.0 * db * dc - k, 3.0 * dc * da - k, 3.0 * da * db - k), sides)[0]
    ih = -_pair_sum((2.0 * p * db * dc - a * k, 2.0 * p * dc * da - b * k,
                     2.0 * p * da * db - c * k), sides)[0]

    pk = 2.0 * p * k
    return {"QG": (qg, 1.0), "QI": (qi, 1.0), "QH": (qh, 1.0),
            "GI": (gi, 36.0 * p * p), "GH": (gh, 9.0 * k * k), "IH": (ih, pk * pk)}


def transcribed_closed_forms(sides: TriangleSides) -> dict:
    """Independently transcribed distance formulas, kept as regression
    guards for the generic engine:

      IE_A   = a*sqrt(bc / (p(p-a)))          (and cyclic)
      E_AE_B = c*sqrt(ab / ((p-a)(p-b)))      (and cyclic)
      QG^2   = R^2 - (a^2+b^2+c^2)/9
      QI^2   = R^2 - abc/(2p)
    """
    a, b, c = _shape(sides, 3).as_tuple()
    c2, b2, a2 = sides._pair_e
    p = sides.semiperimeter
    r2 = circumradius(sides) ** 2
    return {
        "IE_A": a * math.sqrt(b * c / (p * (p - a))),
        "IE_B": b * math.sqrt(c * a / (p * (p - b))),
        "IE_C": c * math.sqrt(a * b / (p * (p - c))),
        "E_AE_B": c * math.sqrt(a * b / ((p - a) * (p - b))),
        "E_BE_C": a * math.sqrt(b * c / ((p - b) * (p - c))),
        "E_CE_A": b * math.sqrt(c * a / ((p - c) * (p - a))),
        "QG": math.sqrt(max(r2 - (a2 + b2 + c2) / 9.0, 0.0)),
        "QI": math.sqrt(max(r2 - a * b * c / (2.0 * p), 0.0)),
    }

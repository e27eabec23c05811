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
    _scaled,
    _shape,
    _slack_report,
    _transcribed,
    center_components,
    circumradius as _circumradius,
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
    k, lengths, (a, b, c) = _lengths(sides, 3)
    return _scaled((_k_invariant(a * a, b * b, c * c),), 4, k, "the squared-area invariant",
                   lengths)[0]


# not public: perfbench/ alone reads area_determinant, center_pair_table and
# core_model's circumradius as this module's, and test_center_rule, which
# replays its reports
circumradius = _circumradius


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
    s, k = _shape(sides, 3)._area, sides._k
    s_abp, s_bcp, s_cap = _scaled((abs(ac) * s, abs(aa) * s, abs(ab) * s), 2, k,
                                  "a sub-triangle area", sides)
    return {"s_abp": s_abp, "s_bcp": s_bcp, "s_cap": s_cap}


def ict_altitudes(comps, sides: TriangleSides) -> dict:
    """Distances from the realized point to the three side lines:
    h over AB = 2*|alpha_c|*Area/c (and cyclic)."""
    aa, ab, ac = _components(comps, 3)
    s, k = _shape(sides, 3)._area, sides._k
    a, b, c = sides._u
    h_ab, h_bc, h_ca = _scaled((2.0 * abs(ac) * s / c, 2.0 * abs(aa) * s / a,
                                2.0 * abs(ab) * s / b), 1, k, "an altitude", sides)
    return {"h_ab": h_ab, "h_bc": h_bc, "h_ca": h_ca}


def inequality_slacks(sides: TriangleSides) -> dict:
    """Slack of each center-pair inequality, all zero exactly when the
    triangle is equilateral.

    QG, QI, QH are R^2 minus the respective pair sums (the squared distance
    from the circumcenter, directly).  GI, GH, IH are the cleared-denominator
    inner sums c^2*d^2, with c = 6*p, 3*K and 2*p*K.  A slack in
    [-ATOL*c^2*max(E), 0), with c 1 for QG, QI, QH, is rounding noise and
    reads 0.0; ``verify`` fails exactly the slacks below that window.
    """
    return _slack_report(_shape(sides, 3))


def transcribed_closed_forms(sides: TriangleSides) -> dict:
    """Independently transcribed distance formulas, kept as regression
    guards for the generic engine:

      IE_A   = a*sqrt(bc / (p(p-a)))          (and cyclic)
      E_AE_B = c*sqrt(ab / ((p-a)(p-b)))      (and cyclic)
      QG^2   = R^2 - (a^2+b^2+c^2)/9
      QI^2   = R^2 - abc/(2p)
    """
    return _transcribed(_transcribed_forms, _shape(sides, 3))


def _transcribed_forms(sides) -> dict:
    """transcribed_closed_forms's values on the unit shape."""
    a, b, c = sides._u
    c2, b2, a2 = sides._pair_e
    p = 0.5 * (a + b + c)
    r2 = sides._circumradius ** 2
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

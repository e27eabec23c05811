"""Cevian ratios and relations of the seven classical triangle centers:
centroid G, incenter I, orthocenter H, circumcenter Q, and the excenters E_A,
E_B, E_C, from the side lengths alone.  Their components come from the rule
core_model shares with the tetrahedron (center_components, re-exported).
"""

from __future__ import annotations

import math

from .core_model import (
    ATOL,
    CENTER_KINDS,
    IRVector3,
    RightAngleOrthocenter,
    TriangleSides,
    _dots,
    _pair_sum,
    _shape,
    center_components,
    ir_from_components3,
    parse_center,
)

__all__ = [
    "TRI_CENTER_KINDS",
    "center_ir",
    "center_components",
    "excenter_segment_ratio",
    "euler_relation",
]

TRI_CENTER_KINDS = CENTER_KINDS[3]


def center_ir(kind: str, sides: TriangleSides) -> IRVector3:
    """Cevian ratios (lambda_ab, lambda_bc, lambda_ca) of the requested center.

    The orthocenter's ratios have a pole at a right angle and raise
    RightAngleOrthocenter there; center_components is total and should be
    preferred near that regime.  The circumcenter of a right triangle sits on
    a side line, so its ratios raise ZeroComponent.
    """
    k = parse_center(kind, 3)
    a, b, c = _shape(sides, 3).as_tuple()
    if k == "G":
        return IRVector3(1.0, 1.0, 1.0)
    if k == "H":
        da, db, dc = _dots(sides)
        scale = a * a + b * b + c * c
        for name, d in (("A", da), ("B", db), ("C", dc)):
            if abs(d) <= ATOL * scale:
                raise RightAngleOrthocenter(
                    f"right angle at {name}: orthocenter ratios are undefined"
                )
        return IRVector3(da / db, db / dc, dc / da)
    if k != "Q":
        # I and E_X: quotients of the weights (a, b, c), negated at X for E_X
        wa, wb, wc = (-w if k == f"E_{v}" else w for v, w in zip("ABC", (a, b, c)))
        return IRVector3(wb / wa, wc / wb, wa / wc)
    # circumcenter: quotient of the component weights (ZeroComponent at a
    # right angle, where Q lies on the hypotenuse)
    return ir_from_components3(center_components("Q", sides))


def excenter_segment_ratio(sides: TriangleSides) -> float:
    """Ratio AI : AE_A along the bisector from A: (b+c-a)/(a+b+c).

    A, I, and E_A are collinear (same cevian from A), and the incenter sits
    this fraction of the way to the opposite excenter.  Always in (0, 1);
    equals 1/3 exactly for the equilateral triangle.
    """
    a, b, c = _shape(sides, 3).as_tuple()
    return (b + c - a) / (a + b + c)


def euler_relation(sides: TriangleSides) -> dict:
    """The centroid splits the orthocenter-circumcenter segment 2:1.

    Returns
    -------
    dict with
      gh_over_gq : signed ratio of the displacement G->H to G->Q, fitted in
        component space; -2 for every triangle (reported as exactly -2.0
        when the centers coincide, i.e. equilateral).
      collinearity_residual : distance from H to the line through G and Q,
        in length units; 0 up to rounding.
    """
    g = center_components("G", _shape(sides, 3))
    h = center_components("H", sides)
    q = center_components("Q", sides)
    d_gh = [y - x for x, y in zip(g.as_tuple(), h.as_tuple())]
    d_gq = [y - x for x, y in zip(g.as_tuple(), q.as_tuple())]
    denom = math.fsum(x * x for x in d_gq)
    if denom <= 1e-28 or max(abs(x) for x in d_gq) <= 1e-14:
        return {"gh_over_gq": -2.0, "collinearity_residual": 0.0}
    ratio = math.fsum(x * y for x, y in zip(d_gh, d_gq)) / denom
    # residual: length of H's deviation from the line through G and Q.  The
    # deviation lives in component space (it sums to zero), so the same
    # quadratic form that measures center-pair distances converts it to a
    # length; Heron on the three nearly-collinear distances would lose half
    # the precision instead.
    sq = -_pair_sum([x - ratio * y for x, y in zip(d_gh, d_gq)], sides)[0]
    residual = math.sqrt(sq) if sq > 0.0 else 0.0
    return {"gh_over_gq": ratio, "collinearity_residual": residual}

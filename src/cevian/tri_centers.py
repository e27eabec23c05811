"""Cevian ratios and relations of the seven classical triangle centers:
centroid G, incenter I, orthocenter H, circumcenter Q, and the excenters E_A,
E_B, E_C, from the side lengths alone.  Their components come from the rule
core_model shares with the tetrahedron, core_model.center_components.
"""

from __future__ import annotations

import math

from .core_model import (
    ATOL,
    CENTER_KINDS,
    IRVector3,
    RightAngleOrthocenter,
    TriangleSides,
    _facet_ratios,
    _pair_sum,
    _ratios,
    _scaled,
    _shape,
    center_components,
    parse_center,
)

__all__ = [
    "center_ir",
    "excenter_segment_ratio",
    "euler_relation",
]

# not public: perfbench/ alone reads this and tri_centers.center_components,
# and test_center_rule, which replays its reports
TRI_CENTER_KINDS = CENTER_KINDS[3]


def center_ir(kind: str, sides: TriangleSides) -> IRVector3:
    """Cevian ratios (lambda_ab, lambda_bc, lambda_ca) of the requested center.

    The orthocenter's ratios have a pole at a right angle and raise
    RightAngleOrthocenter there; center_components is total and should be
    preferred near that regime.  The circumcenter of a right triangle sits on
    a side line, so its ratios raise ZeroComponent.
    """
    k = parse_center(kind, 3)
    a, b, c = _shape(sides, 3)._u
    if k == "G":
        return _ratios(1.0, 1.0, 1.0)
    if k == "H":
        da, db, dc = sides._dots
        c2, b2, a2 = sides._pair_e
        scale = a2 + b2 + c2
        for name, d in (("A", da), ("B", db), ("C", dc)):
            if abs(d) <= ATOL * scale:
                raise RightAngleOrthocenter(
                    f"right angle at {name}: orthocenter ratios are undefined"
                )
        return _ratios(da / db, db / dc, dc / da)
    if k != "Q":
        # I and E_X: quotients of the weights (a, b, c), negated at X for E_X
        if k == "E_A":
            a = -a
        elif k == "E_B":
            b = -b
        elif k == "E_C":
            c = -c
        return _ratios(b / a, c / b, a / c)
    # circumcenter: quotient of the component weights (ZeroComponent at a
    # right angle, where Q lies on the hypotenuse)
    return _facet_ratios(center_components("Q", sides).weights, 0, 1, 2)


def excenter_segment_ratio(sides: TriangleSides) -> float:
    """Ratio AI : AE_A along the bisector from A: (b+c-a)/(a+b+c).

    A, I, and E_A are collinear (same cevian from A), and the incenter sits
    this fraction of the way to the opposite excenter.  Always in (0, 1);
    equals 1/3 exactly for the equilateral triangle.
    """
    a, b, c = _shape(sides, 3)._u
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
    g0, g1, g2 = center_components("G", _shape(sides, 3)).weights
    h0, h1, h2 = center_components("H", sides).weights
    q0, q1, q2 = center_components("Q", sides).weights
    # written on 3-tuples: a generator or comprehension builds a frame per call
    u0, u1, u2 = h0 - g0, h1 - g1, h2 - g2  # G->H
    v0, v1, v2 = q0 - g0, q1 - g1, q2 - g2  # G->Q
    denom = math.fsum((v0 * v0, v1 * v1, v2 * v2))
    if denom <= 1e-28 or max(abs(v0), abs(v1), abs(v2)) <= 1e-14:
        return {"gh_over_gq": -2.0, "collinearity_residual": 0.0}
    ratio = math.fsum((u0 * v0, u1 * v1, u2 * v2)) / denom
    # residual: length of H's deviation from the line through G and Q.  The
    # deviation lives in component space (it sums to zero), so the same
    # quadratic form that measures center-pair distances converts it to a
    # length; Heron on the three nearly-collinear distances would lose half
    # the precision instead.
    sq = -_pair_sum((u0 - ratio * v0, u1 - ratio * v1, u2 - ratio * v2), sides)[0]
    residual = math.sqrt(sq) if sq > 0.0 else 0.0
    return {"gh_over_gq": ratio,
            "collinearity_residual": _scaled((residual,), 1, sides._k, "a distance", sides)[0]}

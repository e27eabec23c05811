"""Closed-form cevian ratios and components for the seven classical triangle
centers: centroid G, incenter I, orthocenter H, circumcenter Q, and the three
excenters E_A, E_B, E_C.  Everything is a function of the side lengths alone.
"""

from __future__ import annotations

import math

from .core_model import (
    Components,
    DEFAULT_TOL,
    GeometryError,
    IRVector3,
    RightAngleOrthocenter,
    TriangleSides,
    components_from_ir3,
    ir_from_components3,
    pair_sum,
)

__all__ = [
    "TRI_CENTER_KINDS",
    "center_ir",
    "center_components",
    "excenter_segment_ratio",
    "euler_relation",
    "components_via_ratios",
]

TRI_CENTER_KINDS = ("G", "I", "H", "Q", "E_A", "E_B", "E_C")


def _kind(kind: str) -> str:
    k = str(kind).upper()
    if k not in TRI_CENTER_KINDS:
        raise GeometryError(f"unknown center kind {kind!r}; expected one of {TRI_CENTER_KINDS}")
    return k


def _dots(sides: TriangleSides):
    """The three quantities D_A = b^2 + c^2 - a^2 (and cyclic).

    D_A is 2bc*cos(A), so it vanishes exactly at a right angle at A and goes
    negative when A is obtuse.  They satisfy the polynomial identity
    D_B*D_C + D_C*D_A + D_A*D_B = a^2*D_A + b^2*D_B + c^2*D_C = 16*Area^2,
    which is what makes the orthocenter/circumcenter weights below total.
    """
    e = sides.E
    a2, b2, c2 = e[1][2], e[2][0], e[0][1]
    return b2 + c2 - a2, c2 + a2 - b2, a2 + b2 - c2


def center_components(kind: str, sides: TriangleSides) -> Components:
    """Components (weights summing to 1) of the requested center.

    Parameters
    ----------
    kind : one of "G", "I", "H", "Q", "E_A", "E_B", "E_C"
    sides : TriangleSides

    Notes
    -----
    The orthocenter and circumcenter use the polynomial weight forms
    (D_B*D_C, D_C*D_A, D_A*D_B) and (a^2*D_A, b^2*D_B, c^2*D_C): unlike the
    tangent/double-angle-sine ratios they stay finite at right angles, where
    they degrade gracefully to the vertex indicator / hypotenuse midpoint.
    """
    k = _kind(kind)
    a, b, c = sides.as_tuple()
    if k == "G":
        return Components((1.0, 1.0, 1.0))
    if k == "I":
        return Components((a, b, c))
    if k == "H":
        da, db, dc = _dots(sides)
        return Components((db * dc, dc * da, da * db))
    if k == "Q":
        da, db, dc = _dots(sides)
        return Components((a * a * da, b * b * db, c * c * dc))
    # excenters: sign flip at the named vertex
    signs = {"E_A": (-1, 1, 1), "E_B": (1, -1, 1), "E_C": (1, 1, -1)}[k]
    return Components((signs[0] * a, signs[1] * b, signs[2] * c))


def center_ir(kind: str, sides: TriangleSides) -> IRVector3:
    """Cevian ratios (lambda_ab, lambda_bc, lambda_ca) of the requested center.

    The orthocenter's ratios have a pole at a right angle and raise
    RightAngleOrthocenter there; center_components is total and should be
    preferred near that regime.  The circumcenter of a right triangle sits on
    a side line, so its ratios raise ZeroComponent.
    """
    k = _kind(kind)
    a, b, c = sides.as_tuple()
    if k == "G":
        return IRVector3(1.0, 1.0, 1.0)
    if k == "I":
        return IRVector3(b / a, c / b, a / c)
    if k == "H":
        da, db, dc = _dots(sides)
        scale = a * a + b * b + c * c
        for name, d in (("A", da), ("B", db), ("C", dc)):
            if abs(d) <= DEFAULT_TOL.atol * scale:
                raise RightAngleOrthocenter(
                    f"right angle at {name}: orthocenter ratios are undefined"
                )
        return IRVector3(da / db, db / dc, dc / da)
    if k == "E_A":
        return IRVector3(-b / a, c / b, -a / c)
    if k == "E_B":
        return IRVector3(-b / a, -c / b, a / c)
    if k == "E_C":
        return IRVector3(b / a, -c / b, -a / c)
    # circumcenter: quotient of the component weights (ZeroComponent at a
    # right angle, where Q lies on the hypotenuse)
    return ir_from_components3(center_components("Q", sides))


def excenter_segment_ratio(sides: TriangleSides) -> float:
    """Ratio AI : AE_A along the bisector from A: (b+c-a)/(a+b+c).

    A, I, and E_A are collinear (same cevian from A), and the incenter sits
    this fraction of the way to the opposite excenter.  Always in (0, 1);
    equals 1/3 exactly for the equilateral triangle.
    """
    a, b, c = sides.as_tuple()
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
    g = center_components("G", sides)
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
    sq = -pair_sum([x - ratio * y for x, y in zip(d_gh, d_gq)], sides)[0]
    residual = math.sqrt(sq) if sq > 0.0 else 0.0
    return {"gh_over_gq": ratio, "collinearity_residual": residual}


def components_via_ratios(kind: str, sides: TriangleSides) -> Components:
    """Same components, derived through the cevian-ratio route (for
    cross-checking; raises wherever center_ir does)."""
    return components_from_ir3(center_ir(kind, sides))

"""Per-face cevian-ratio tensors of tetrahedron centers, projection
components onto faces, and concurrency certification, from the six edges.

The centers are G, I (weights = opposite-face areas), Q (polynomial weights
U_X), the escribed-sphere centers E_A..E_D and the power family with weights
(S^X)^n for any real n.  Their components come from the rule core_model
shares with the triangle, core_model.center_components.
"""

from __future__ import annotations

from .core_model import (
    ATOL,
    RTOL,
    CENTER_KINDS,
    Components,
    FACES,
    FACE_INDICES,
    FaceAreas,
    GeometryError,
    TetraEdges,
    _comps,
    _edge_residuals,
    _facet_ratios,
    _ratios,
    _reals,
    _reassembled,
    _roundtrip_defect,
    _scaled,
    _shape,
    canonical_face,
    center_components,
    parse_center,
)

__all__ = [
    "tet_center_ir_tensor",
    "projection_components",
    "projection_of_center",
    "concurrency_conditions",
]

_PROJECTED = ("Q", "G", "I")

# not public: perfbench/ alone reads these two and face_areas, and
# test_center_rule, which replays its reports
TET_CENTER_KINDS = CENTER_KINDS[4]
tet_center_components = center_components


def face_areas(edges: TetraEdges) -> FaceAreas:
    """The cached ``edges.face_areas``."""
    return _shape(edges, 4).face_areas


def tet_center_ir_tensor(kind, edges: TetraEdges) -> dict:
    """Per-face cevian ratios of a center: for each face (V1, V2, V3) in
    cyclic order, the triple (beta_V2/beta_V1, beta_V3/beta_V2,
    beta_V1/beta_V3).

    Defined for any center with no vanishing component (G, I, and the
    excenters always qualify); ZeroComponent otherwise.
    """
    a, b, c, d = beta = center_components(kind, _shape(edges, 4)).weights
    if abs(a) <= ATOL or abs(b) <= ATOL or abs(c) <= ATOL or abs(d) <= ATOL:
        # the per-face check names the vertex the face order meets first
        for v1, v2, v3, _ in FACE_INDICES.values():
            _facet_ratios(beta, v1, v2, v3)
    # written out in FACE_INDICES order: a comprehension builds a frame per call
    return {"BCD": _ratios(c / b, d / c, b / d), "CDA": _ratios(d / c, a / d, c / a),
            "DAB": _ratios(a / d, b / a, d / b), "ABC": _ratios(b / a, c / b, a / c)}


def projection_components(edges: TetraEdges, sq_dists, face: str) -> Components:
    """Components, within one face, of the orthogonal projection of a point
    P onto that face's plane.

    ``sq_dists`` holds P's squared distances to the four vertices, in vertex
    order A, B, C, D (the one to the face's opposite vertex is not used).
    P may be anywhere in space; slots follow the face's cyclic vertex order.
    """
    edges, sq = _shape(edges, 4), _reals(sq_dists, "squared vertex distances")
    if len(sq) != 4:
        raise GeometryError(f"expected 4 squared vertex distances, got {len(sq)}")
    sq = _scaled(sq, -2, edges._k, "a squared vertex distance on the unit shape", edges)
    return _point_foot(edges, sq, canonical_face(face))


def _point_foot(edges: TetraEdges, sq, face: str) -> Components:
    """projection_components of arguments already read, the squared
    distances on the unit shape, on a canonical face name."""
    (v1, v2, v3, _), (e12, e23, e31), (f12, f23, f31), eight_sq = edges._faces[face]
    d1, d2, d3 = sq[v1], sq[v2], sq[v3]
    n1 = f23 * e23 + f31 * (d3 - d1) + f12 * (d2 - d1)
    n2 = f31 * e31 + f12 * (d1 - d2) + f23 * (d3 - d2)
    n3 = f12 * e12 + f23 * (d2 - d3) + f31 * (d1 - d3)
    return _comps((n1 / eight_sq, n2 / eight_sq, n3 / eight_sq))


def vertex_projection_components(edges: TetraEdges, face: str) -> Components:
    """Projection of the face's opposite vertex onto the face (the foot of
    the altitude from it), built once per face and cached on the edge set."""
    key = canonical_face(face)
    return _vertex_foot(_shape(edges, 4), key)


def _vertex_foot(edges: TetraEdges, face: str) -> Components:
    """vertex_projection_components of a TetraEdges, on a canonical face name."""
    feet = edges._feet
    if face not in feet:
        feet[face] = _point_foot(edges, edges._E[FACE_INDICES[face][3]], face)
    return feet[face]


def projection_of_center(kind, edges: TetraEdges, face: str) -> Components:
    """Closed-form components of a center's orthogonal projection onto a face.

    Q projects to the face's own circumcenter; G and I reduce affinely to
    the opposite vertex's projection: the projection of sum(beta_V * V) is
    sum over face vertices plus beta_W * (projection of W).
    """
    k = parse_center(kind, 4)
    if k not in _PROJECTED:
        raise GeometryError(
            f"projection closed form available for Q, G, I only, not {kind!r}"
        )
    return _center_foot(k, _shape(edges, 4), canonical_face(face))


def _center_foot(k: str, edges: TetraEdges, face: str) -> Components:
    """projection_of_center of a parsed kind among _PROJECTED and a TetraEdges, on a
    canonical face name."""
    (v1, v2, v3, opp), (e12, e23, e31), (f12, f23, f31), eight_sq = edges._faces[face]
    if k == "Q":
        return _comps((f23 * e23 / eight_sq, f31 * e31 / eight_sq, f12 * e12 / eight_sq))
    f1, f2, f3 = _vertex_foot(edges, face).weights
    if k == "G":
        return _comps(((1.0 + f1) / 4.0, (1.0 + f2) / 4.0, (1.0 + f3) / 4.0))
    fa = edges._face_areas
    s, total = fa.by_vertex, fa.s
    own = s[opp]  # the face's own area is the one opposite its off-vertex
    return _comps(((s[v1] + own * f1) / total, (s[v2] + own * f2) / total,
                   (s[v3] + own * f3) / total))


def concurrency_conditions(face_components: dict) -> dict:
    """Check whether four per-face points come from one common point.

    For each edge shared by two faces, both face points imply a section
    ratio on that edge; the six disagreements are the report's residuals.
    When all six pass the tolerance, the common point's Components are
    reassembled from faces BCD and CDA, and its largest round-trip defect
    over all four decides: well-formed face points get an answer, not a raise.

    Returns a dict with "edge_residuals", "max_residual", "concurrent",
    "components" (None unless concurrent), and "roundtrip_defect".
    """
    comps, residuals = _edge_residuals(face_components)  # the one read of the mapping
    max_residual = max(residuals.values())
    concurrent = max_residual <= ATOL + RTOL
    report = {
        "edge_residuals": residuals,
        "max_residual": max_residual,
        "concurrent": concurrent,
        "components": None,
        "roundtrip_defect": None,
    }
    if not concurrent:
        return report
    beta = _reassembled(comps["BCD"], comps["CDA"])
    worst = max(_roundtrip_defect(beta, face, comps[face]) for face in FACES)
    report["roundtrip_defect"] = worst
    report["concurrent"] = worst <= ATOL + RTOL
    report["components"] = beta if report["concurrent"] else None
    return report

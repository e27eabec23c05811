"""Per-face cevian-ratio tensors of tetrahedron centers, projection
components onto faces, and concurrency certification, from the six edges.

The centers are G, I (weights = opposite-face areas), Q (polynomial weights
U_X), the escribed-sphere centers E_A..E_D and the power family with weights
(S^X)^n for any real n.  Their components come from the rule core_model
shares with the triangle (center_components, here tet_center_components).
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
    _facet_ratios,
    canonical_face,
    center_components as tet_center_components,
    face_components_from_tetra,
    parse_center,
    shared_edge_residuals,
    tetra_components_from_face_pair,
)

__all__ = [
    "TET_CENTER_KINDS",
    "face_areas",
    "tet_center_components",
    "tet_center_ir_tensor",
    "projection_components",
    "projection_of_center",
    "concurrency_conditions",
]

TET_CENTER_KINDS = CENTER_KINDS[4]


def face_areas(edges: TetraEdges) -> FaceAreas:
    """The cached ``edges.face_areas``; kept for perfbench."""
    return edges.face_areas


def tet_center_ir_tensor(kind, edges: TetraEdges) -> dict:
    """Per-face cevian ratios of a center: for each face (V1, V2, V3) in
    cyclic order, the triple (beta_V2/beta_V1, beta_V3/beta_V2,
    beta_V1/beta_V3).

    Defined for any center with no vanishing component (G, I, and the
    excenters always qualify); ZeroComponent otherwise.
    """
    beta = tet_center_components(kind, edges).as_tuple()
    return {face: _facet_ratios(beta, *verts[:3]) for face, verts in FACE_INDICES.items()}


def projection_components(edges: TetraEdges, sq_dists, face: str) -> Components:
    """Components, within one face, of the orthogonal projection of a point
    P onto that face's plane.

    ``sq_dists`` holds P's squared distances to the four vertices, in vertex
    order A, B, C, D (the one to the face's opposite vertex is not used).
    P may be anywhere in space; slots follow the face's cyclic vertex order.
    """
    try:
        sq = [float(d) for d in sq_dists]
    except (TypeError, ValueError, OverflowError):
        raise GeometryError(f"squared vertex distances {sq_dists!r} are not numbers "
                            "in the float range") from None
    if len(sq) != 4:
        raise GeometryError(f"expected 4 squared vertex distances, got {len(sq)}")
    (v1, v2, v3, _), (e12, e23, e31), delta2f, eight_sq = edges._faces[canonical_face(face)]
    d1, d2, d3 = sq[v1], sq[v2], sq[v3]
    n1 = (delta2f - e23) * e23 + (delta2f - e31) * (d3 - d1) + (delta2f - e12) * (d2 - d1)
    n2 = (delta2f - e31) * e31 + (delta2f - e12) * (d1 - d2) + (delta2f - e23) * (d3 - d2)
    n3 = (delta2f - e12) * e12 + (delta2f - e23) * (d2 - d3) + (delta2f - e31) * (d1 - d3)
    return Components((n1 / eight_sq, n2 / eight_sq, n3 / eight_sq))


def vertex_projection_components(edges: TetraEdges, face: str) -> Components:
    """Projection of the face's opposite vertex onto the face (the foot of
    the altitude from it), built once per face and cached on the edge set."""
    key = canonical_face(face)
    feet = edges._feet
    if key not in feet:
        feet[key] = projection_components(edges, edges.E[FACE_INDICES[key][3]], key)
    return feet[key]


def projection_of_center(kind, edges: TetraEdges, face: str) -> Components:
    """Closed-form components of a center's orthogonal projection onto a face.

    Q projects to the face's own circumcenter; G and I reduce affinely to
    the opposite vertex's projection: the projection of sum(beta_V * V) is
    sum over face vertices plus beta_W * (projection of W).
    """
    k = parse_center(kind, 4)
    if k not in ("Q", "G", "I"):
        raise GeometryError(
            f"projection closed form available for Q, G, I only, not {kind!r}"
        )
    (v1, v2, v3, opp), (e12, e23, e31), delta2f, eight_sq = edges._faces[canonical_face(face)]
    if k == "Q":
        return Components((
            (delta2f - e23) * e23 / eight_sq,
            (delta2f - e31) * e31 / eight_sq,
            (delta2f - e12) * e12 / eight_sq,
        ))
    f1, f2, f3 = vertex_projection_components(edges, face).as_tuple()
    if k == "G":
        return Components(((1.0 + f1) / 4.0, (1.0 + f2) / 4.0, (1.0 + f3) / 4.0))
    fa = edges.face_areas
    s, total = fa.by_vertex, fa.s
    own = s[opp]  # the face's own area is the one opposite its off-vertex
    return Components(((s[v1] + own * f1) / total, (s[v2] + own * f2) / total,
                       (s[v3] + own * f3) / total))


def concurrency_conditions(face_components: dict) -> dict:
    """Check whether four per-face points come from one common point.

    For each edge shared by two faces, both face points imply a section
    ratio on that edge; the six disagreements are the report's residuals.
    When all six pass the tolerance, the common point's Components are
    reassembled from two faces and round-tripped through all four.

    Returns a dict with "edge_residuals", "max_residual", "concurrent",
    "components" (None unless concurrent), and "roundtrip_defect".
    """
    comps = {canonical_face(k): v for k, v in face_components.items()}
    residuals = shared_edge_residuals(comps)
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
    beta = tetra_components_from_face_pair(comps["BCD"], comps["CDA"])
    worst = max(abs(x - y) for face in FACES for x, y in
                zip(face_components_from_tetra(beta, face).as_tuple(), comps[face].as_tuple()))
    report["roundtrip_defect"] = worst
    report["concurrent"] = worst <= ATOL + RTOL
    report["components"] = beta if report["concurrent"] else None
    return report

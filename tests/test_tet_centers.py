import math
from collections.abc import Mapping

import numpy as np
import pytest

from cevian.core_model import (
    ATOL,
    RTOL,
    CircumAux,
    Components,
    DegenerateDenominator,
    FACES,
    FaceAreas,
    GeometryError,
    InconsistentFaces,
    PowerIncenter,
    ZeroComponent,
    face_components_from_tetra,
    parse_center,
    tetra_components_from_face_pair,
    validate_tetrahedron,
)
from cevian import coord_oracle as oracle
from cevian.tet_centers import (
    TET_CENTER_KINDS,
    concurrency_conditions,
    face_areas,
    projection_components,
    projection_of_center,
    tet_center_components,
    tet_center_ir_tensor,
    vertex_projection_components,
)
from cevian.tet_metrics import inradius, volume

REGULAR = validate_tetrahedron(1, 1, 1, 1, 1, 1)
# pyramid: equilateral base BCD with side 2, apex A at slant length 3
PYRAMID = validate_tetrahedron(3, 3, 3, 2, 2, 2)
IRREGULAR = validate_tetrahedron(3, 4, 5, 5, 6, 7)

SQRT3 = math.sqrt(3.0)
SQRT8 = 2.0 * math.sqrt(2.0)


def test_parse_center_tokens():
    assert parse_center("G", 4) == "G"
    assert parse_center("e_a", 4) == "E_A"
    p = parse_center("power:2", 4)
    assert isinstance(p, PowerIncenter) and p.n == 2.0
    with pytest.raises(GeometryError):
        parse_center("nope", 4)


def test_pyramid_face_areas():
    fa = face_areas(PYRAMID)
    assert fa.by_vertex[0] == pytest.approx(SQRT3, rel=1e-12)   # base BCD
    for i in (1, 2, 3):
        assert fa.by_vertex[i] == pytest.approx(SQRT8, rel=1e-12)
    assert fa.s == pytest.approx(SQRT3 + 3 * SQRT8, rel=1e-12)


def test_regular_centers_coincide_at_quarter_point():
    for kind in ("G", "I", "Q", PowerIncenter(2)):
        comps = tet_center_components(kind, REGULAR)
        assert comps.as_tuple() == pytest.approx((0.25,) * 4, abs=1e-15)


def test_power_family_interpolates_centroid_and_incenter():
    for kind, same_as in ((PowerIncenter(0), "G"), (PowerIncenter(1), "I")):
        got = tet_center_components(kind, PYRAMID).as_tuple()
        want = tet_center_components(same_as, PYRAMID).as_tuple()
        assert got == pytest.approx(want, abs=1e-15)


def test_pyramid_incenter_components():
    s = SQRT3 + 3 * SQRT8
    want = (SQRT3 / s, SQRT8 / s, SQRT8 / s, SQRT8 / s)
    assert tet_center_components("I", PYRAMID).as_tuple() == pytest.approx(
        want, rel=1e-14)


def test_pyramid_circumcenter_components_exact():
    got = tet_center_components("Q", PYRAMID).as_tuple()
    assert got == pytest.approx((19 / 46, 9 / 46, 9 / 46, 9 / 46), rel=1e-14)


def test_face_areas_and_circum_aux_are_the_cached_invariants():
    edges = validate_tetrahedron(3, 4, 5, 5, 6, 7)
    assert face_areas(edges) is face_areas(edges) is edges.face_areas
    assert edges.circum_aux is edges.circum_aux
    assert isinstance(face_areas(edges), FaceAreas)
    assert isinstance(edges.circum_aux, CircumAux)
    # nothing is shared between equal instances
    assert face_areas(validate_tetrahedron(3, 4, 5, 5, 6, 7)) is not edges.face_areas


def test_circum_aux_values_and_volume_link():
    aux = PYRAMID.circum_aux
    assert aux.by_vertex[0] == pytest.approx(152.0, rel=1e-12)
    for i in (1, 2, 3):
        assert aux.by_vertex[i] == pytest.approx(72.0, rel=1e-12)
    assert aux.u == pytest.approx(368.0, rel=1e-12)
    assert aux.u == pytest.approx(144.0 * volume(PYRAMID) ** 2, rel=1e-12)


def test_excenter_sign_pattern():
    for x, idx in (("A", 0), ("B", 1), ("C", 2), ("D", 3)):
        comps = tet_center_components(f"E_{x}", IRREGULAR).as_tuple()
        assert comps[idx] < 0
        assert all(v > 0 for i, v in enumerate(comps) if i != idx)
        assert sum(comps) == pytest.approx(1.0)


@pytest.mark.parametrize("edges", [REGULAR, PYRAMID, IRREGULAR])
@pytest.mark.parametrize("kind",
                         list(TET_CENTER_KINDS) + [PowerIncenter(2)])
def test_components_realize_definitional_centers(edges, kind):
    tet = oracle.embed_tetra(edges)
    comps = tet_center_components(kind, edges)
    realized = oracle.point_from_components(tet, comps)
    want = oracle.definitional_center(tet, kind)
    assert np.linalg.norm(realized - want) <= 1e-9 * max(edges.as_tuple())


def test_ir_tensor_quotients_and_ceva():
    tensor = tet_center_ir_tensor("I", IRREGULAR)
    assert set(tensor) == set(FACES)
    beta = tet_center_components("I", IRREGULAR).weights
    for face, ir in tensor.items():
        v1, v2, v3 = ("ABCD".index(v) for v in FACES[face])
        assert ir.lambda_ab == pytest.approx(beta[v2] / beta[v1])
        prod = ir.lambda_ab * ir.lambda_bc * ir.lambda_ca
        assert prod == pytest.approx(1.0, abs=1e-12)


def test_ir_tensor_of_a_center_on_a_face_is_a_typed_error():
    # AB = AC = AD = sqrt(2) over an equilateral BCD of side sqrt(3): A sits
    # at height 1 over BCD's circumcenter, which is then the tetrahedron's
    edges = validate_tetrahedron(*[math.sqrt(2.0)] * 3, *[math.sqrt(3.0)] * 3)
    assert abs(tet_center_components("Q", edges).weights[0]) < 1e-15
    with pytest.raises(ZeroComponent, match="component of A"):
        tet_center_ir_tensor("Q", edges)


def test_face_components_match_ir_route():
    beta = tet_center_components("I", IRREGULAR)
    for face in FACES:
        direct = face_components_from_tetra(beta, face)
        assert sum(direct.as_tuple()) == pytest.approx(1.0)


# ------------------------------------------------------------- projections

def test_projection_of_random_point_matches_oracle():
    tet = oracle.embed_tetra(IRREGULAR)
    rng = np.random.default_rng(7)
    for _ in range(25):
        p = rng.uniform(-1.0, 2.0, size=3)
        sq = [float(np.sum((p - v) ** 2)) for v in tet.vertices]
        for face in FACES:
            c3 = projection_components(IRREGULAR, sq, face)
            foot = sum(w * vv for w, vv in
                       zip(c3.as_tuple(), tet.face_vertices(face)))
            want = oracle.projection_foot_oracle(tet, p, face)
            assert np.linalg.norm(foot - want) < 1e-10


def test_projection_needs_four_squared_distances():
    for sq in ((), (1.0, 2.0, 3.0), (1.0, 2.0, 3.0, 4.0, 5.0)):
        with pytest.raises(GeometryError, match="4 squared vertex distances"):
            projection_components(IRREGULAR, sq, "BCD")
    # the opposite vertex's slot is read for its length, not its value
    assert (projection_components(IRREGULAR, (1.0, 2.0, 3.0, 4.0), "ABC")
            == projection_components(IRREGULAR, (1.0, 2.0, 3.0, 99.0), "ABC"))


def test_vertex_projection_matches_oracle():
    tet = oracle.embed_tetra(PYRAMID)
    c3 = vertex_projection_components(PYRAMID, "BCD")
    foot = sum(w * v for w, v in zip(c3.as_tuple(), tet.face_vertices("BCD")))
    want = oracle.projection_foot_oracle(tet, tet.vertices[0], "BCD")
    assert np.linalg.norm(foot - want) < 1e-12
    # the apex of this pyramid drops onto the centroid of the regular base
    assert c3.as_tuple() == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)


def test_circumcenter_projects_to_face_circumcenter():
    c3 = projection_of_center("Q", IRREGULAR, "ABC")
    # face ABC's sides a = BC, b = CA, c = AB
    a2, b2, c2 = (x * x for x in (IRREGULAR.bc, IRREGULAR.ac, IRREGULAR.ab))
    w = (a2 * (b2 + c2 - a2), b2 * (c2 + a2 - b2), c2 * (a2 + b2 - c2))
    want = tuple(x / sum(w) for x in w)
    assert c3.as_tuple() == pytest.approx(want, rel=1e-12)


def test_incenter_projection_sits_at_inradius():
    tet = oracle.embed_tetra(IRREGULAR)
    inc = oracle.point_from_components(
        tet, tet_center_components("I", IRREGULAR))
    for face in FACES:
        c3 = projection_of_center("I", IRREGULAR, face)
        foot = sum(w * v for w, v in
                   zip(c3.as_tuple(), tet.face_vertices(face)))
        assert np.linalg.norm(inc - foot) == pytest.approx(
            inradius(IRREGULAR), rel=1e-10)


def test_centroid_projection_formula():
    # the centroid's foot on a face has components (1 + w)/4 in terms of the
    # opposite vertex's foot components w
    for face in FACES:
        w = vertex_projection_components(IRREGULAR, face).as_tuple()
        got = projection_of_center("G", IRREGULAR, face).as_tuple()
        assert got == pytest.approx(tuple((1.0 + x) / 4.0 for x in w),
                                    rel=1e-12)


# ------------------------------------------------------------- concurrency

def test_consistent_face_points_reassemble():
    beta = tet_center_components(PowerIncenter(2), IRREGULAR)
    faces = {f: face_components_from_tetra(beta, f) for f in FACES}
    rep = concurrency_conditions(faces)
    assert rep["concurrent"]
    assert rep["max_residual"] < 1e-12
    assert rep["components"].as_tuple() == pytest.approx(beta.as_tuple(),
                                                         abs=1e-12)
    assert rep["roundtrip_defect"] < 1e-12


def test_perturbed_face_points_rejected():
    beta = tet_center_components("I", IRREGULAR)
    faces = {f: face_components_from_tetra(beta, f) for f in FACES}
    v = faces["BCD"].as_tuple()
    faces["BCD"] = Components((v[0] * 1.05, v[1], v[2]))
    rep = concurrency_conditions(faces)
    assert not rep["concurrent"]
    assert rep["max_residual"] > 1e-3


def test_face_points_within_the_edge_tolerance_get_an_answer():
    # all six edge residuals pass, but the point reassembled from BCD and CDA
    # misses CDA by 1.4e-09: the four-face round trip answers "not
    # concurrent", where the face-pair check used to raise InconsistentFaces
    beta = Components((80.0, -34.0, 95.0, -140.0))
    faces = {f: face_components_from_tetra(beta, f) for f in FACES}
    b, c, d = faces["BCD"].weights
    faces["BCD"] = Components((b + 2e-10, c - 2e-10, d))
    rep = concurrency_conditions(faces)
    assert 8e-10 < rep["max_residual"] <= ATOL + RTOL
    assert rep["concurrent"] is False and rep["components"] is None
    assert rep["roundtrip_defect"] == pytest.approx(1.4e-9, rel=0.01)
    # the face pair keeps its own check and message
    with pytest.raises(InconsistentFaces, match=r"^face CDA round-trip defect 1\.4e-09: "):
        tetra_components_from_face_pair(faces["BCD"], faces["CDA"])


class _SecondReadTuples(Mapping):
    """Face points whose first items() gives their Components and every later
    one only the bare weight tuples."""

    def __init__(self, faces):
        self.faces, self.reads = faces, 0

    def __getitem__(self, face):
        return self.faces[face]

    def __iter__(self):
        return iter(self.faces)

    def __len__(self):
        return len(self.faces)

    def items(self):
        self.reads += 1
        if self.reads == 1:
            return self.faces.items()
        return {f: c.weights for f, c in self.faces.items()}.items()


def test_concurrency_reads_the_face_mapping_once():
    beta = tet_center_components("I", IRREGULAR)
    faces = {f: face_components_from_tetra(beta, f) for f in FACES}
    assert concurrency_conditions(_SecondReadTuples(faces)) == concurrency_conditions(dict(faces))


def _faces(a, b, c, d):
    """The face points, as given weights, of the point with weights (a, b, c, d) on A..D."""
    return {"BCD": Components((b, c, d)), "CDA": Components((c, d, a)),
            "DAB": Components((d, a, b)), "ABC": Components((a, b, c))}


# Gate boundaries: the float at each tolerance and the next one past it, so
# that a gate whose `<=` turned into `<` fails.

@pytest.mark.parametrize("caught", [ATOL, -ATOL])
def test_face_ratio_gate_holds_at_atol_and_not_past_it(caught):
    passed = math.nextafter(caught, math.copysign(math.inf, caught))
    faces = {f: Components((1, 1, 1)) for f in FACES}
    at, past = (Components((w, 0.5, 0.5 - w)) for w in (caught, passed))
    assert (at.weights[0], past.weights[0]) == (caught, passed)
    with pytest.raises(DegenerateDenominator, match="component of A on face ABC ~ 0"):
        concurrency_conditions({**faces, "ABC": at})
    assert concurrency_conditions({**faces, "ABC": past})["concurrent"] is False


def test_concurrency_residual_gate_holds_at_its_bound_and_not_past_it():
    # B and C tiny, and every face's weights sum exactly to 1 or 2
    b = 1.25 * 2.0 ** -29
    faces = _faces(1.0 + b, b, b / 2, 1.0 - 1.5 * b)
    assert max(concurrency_conditions(faces)["edge_residuals"].values()) == 0.0
    # A's weight on ABC moved so that the AB residual is the tolerance itself
    # and then the next float
    at, past = (concurrency_conditions({**faces, "ABC": Components((float.fromhex(h), b, b / 2))})
                for h in ("0x1.c1108f5cc2064p+0", "0x1.c1108f5cc2065p+0"))
    assert at["max_residual"] == at["edge_residuals"]["AB"] == ATOL + RTOL
    assert past["max_residual"] == math.nextafter(ATOL + RTOL, 1.0)
    assert at["roundtrip_defect"] is not None  # the residual gate let it through
    assert past["roundtrip_defect"] is None and past["concurrent"] is False


def test_concurrency_roundtrip_gate_holds_at_its_bound_and_not_past_it():
    e = 0.75 * 2.0 ** -31
    a, b, c, d = 2.0 - e / 2, -1.0 - e / 2, e, 2.0 - e / 2
    faces = _faces(a, b, c, d)
    # C's weight on ABC moved by about ATOL + RTOL and A's the other way: the
    # residuals stay within the tolerance, and the largest round-trip defect,
    # C's, is the tolerance itself and then the next float
    a_moved = float.fromhex("0x1.fffffffaf3639p+0")
    at, past = (concurrency_conditions({**faces, "ABC": Components((a_moved, b, float.fromhex(h)))})
                for h in ("0x1.73271ce872210p-30", "0x1.73271ce872211p-30"))
    assert max(at["max_residual"], past["max_residual"]) <= ATOL + RTOL
    assert at["roundtrip_defect"] == ATOL + RTOL
    assert past["roundtrip_defect"] == math.nextafter(ATOL + RTOL, 1.0)
    assert at["concurrent"] is True and at["components"] is not None
    assert past["concurrent"] is False and past["components"] is None

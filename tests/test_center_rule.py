"""The center rule shared by triangles and tetrahedra, and the per-shape
center cache: one build per kind and shape, typed errors, finite weights."""

import math

import pytest

from cevian.core_model import (
    CENTER_KINDS,
    Components,
    ExcenterDenominatorZero,
    FACES,
    GeometryError,
    PowerIncenter,
    VERTICES,
    center_components,
    parse_center,
    validate_tetrahedron,
    validate_triangle,
)

SHAPES = [validate_triangle(3, 4, 5), validate_triangle(4.3, 5.1, 6.7),
          validate_tetrahedron(3, 4, 5, 5, 6, 7), validate_tetrahedron(3, 3, 3, 2, 2, 2)]


@pytest.mark.parametrize("shape", SHAPES)
def test_same_kind_on_same_shape_is_the_same_object(shape):
    n = len(shape.E)
    for kind in CENTER_KINDS[n]:
        first = center_components(kind, shape)
        assert center_components(kind.lower(), shape) is first
        assert center_components(kind, shape) is first
    if n == 4:
        power = center_components("power:2", shape)
        assert center_components(PowerIncenter(2), shape) is power
    # an equal shape built anew shares nothing
    fresh = type(shape)(*shape.as_tuple())
    assert center_components("I", fresh) is not center_components("I", shape)
    assert center_components("I", fresh) == center_components("I", shape)


@pytest.mark.parametrize("shape", SHAPES)
def test_facet_content_rule_on_both_shapes(shape):
    """G, I and E_X are one rule on the facet contents: the sides of a
    triangle, the face areas of a tetrahedron."""
    n = len(shape.E)
    contents = shape.face_areas.by_vertex if n == 4 else shape.as_tuple()
    assert center_components("G", shape) == Components((1.0,) * n)
    assert center_components("I", shape) == Components(contents)
    for x in range(n):
        flipped = tuple(-c if i == x else c for i, c in enumerate(contents))
        assert center_components(f"E_{VERTICES[x]}", shape) == Components(flipped)


def test_triangles_have_no_power_centers():
    sides = validate_triangle(3, 4, 5)
    for token in ("power:2", PowerIncenter(2)):
        with pytest.raises(GeometryError, match="unknown triangle center"):
            center_components(token, sides)
    with pytest.raises(GeometryError, match="unknown tetrahedron center"):
        parse_center("H", 4)


def test_needle_excenter_uses_the_shared_guard():
    needle = validate_triangle(2, 1, 1.0000000000009)
    for _ in range(2):
        with pytest.raises(ExcenterDenominatorZero):
            center_components("E_A", needle)
    assert "E_A" not in vars(needle)["_centers"]   # a raise is not cached
    assert center_components("E_B", needle).weights[1] < 0.0


@pytest.mark.parametrize("token", ["power:1000", "POWER:1e5", PowerIncenter(400)])
def test_power_overflow_is_a_typed_error(token):
    edges = validate_tetrahedron(3, 4, 5, 5, 6, 7)
    for _ in range(2):
        with pytest.raises(GeometryError, match="overflow"):
            center_components(token, edges)
    assert vars(edges).get("_centers", {}) == {}


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_components_reject_non_finite_weights(n, bad):
    for i in range(n):
        weights = [1.0] * n
        weights[i] = bad
        with pytest.raises(GeometryError, match="not all finite"):
            Components(weights)


# ------------------------------------------------------------ build counts

def _counted(tally, key, fn):
    """``fn``, counting its calls in ``tally[key]``."""
    def wrapper(*args):
        tally[key] += 1
        return fn(*args)
    return wrapper


@pytest.fixture
def counts(monkeypatch):
    """Counts of center builds and of triangle-area evaluations."""
    import cevian.core_model as cm

    tally = {"centers": 0, "areas": 0}
    monkeypatch.setattr(cm, "_build_center", _counted(tally, "centers", cm._build_center))
    monkeypatch.setattr(cm, "_area", _counted(tally, "areas", cm._area))
    return tally


FULL_TRI = ["tri", "--sides", "4.3", "5.1", "6.7", "--centers", "all", "--distances", "all",
            "--metrics", "--inequalities", "--areas"]
FULL_TET = ["tet", "--edges", "3", "4", "5", "5", "6", "7", "--centers", "all",
            "--distances", "all", "--metrics", "--inequalities", "--project", "ABC"]


def test_full_cli_reports_build_each_center_once(counts, capsys):
    from cevian.cli import main

    assert main(FULL_TRI) == 0
    assert counts == {"centers": 7, "areas": 1}
    counts.update(centers=0, areas=0)
    assert main(FULL_TET) == 0
    assert counts["centers"] == 7
    assert main(FULL_TET[:8] + ["--distances", "G:power:2,E_A:power:2"]) == 0
    assert counts["centers"] == 7 + 3
    capsys.readouterr()


def test_library_triangle_report_builds_each_center_once(counts):
    from cevian import tri_centers, tri_metrics

    sides = validate_triangle(4.3, 5.1, 6.7)
    for kind in CENTER_KINDS[3]:
        comps = tri_centers.center_components(kind, sides)
        tri_centers.center_ir(kind, sides)
        tri_metrics.ict_areas(comps, sides)
        tri_metrics.ict_altitudes(comps, sides)
    tri_metrics.center_pair_table(sides)
    tri_metrics.transcribed_closed_forms(sides)
    tri_metrics.inequality_slacks(sides)
    tri_metrics.area_determinant(sides)
    tri_metrics.circumradius(sides)
    tri_centers.euler_relation(sides)
    assert counts == {"centers": 7, "areas": 1}


def test_library_tetrahedron_report_builds_each_center_once(counts):
    from cevian import tet_centers, tet_metrics

    edges = validate_tetrahedron(3, 4, 5, 5, 6, 7)
    for kind in CENTER_KINDS[4] + (PowerIncenter(2.0),):
        tet_centers.tet_center_components(kind, edges)
        tet_centers.tet_center_ir_tensor(kind, edges)
    tet_metrics.center_pair_table4(edges)
    tet_metrics.metrics_summary(edges)
    tet_metrics.circumradius_forms(edges)
    tet_metrics.tet_inequality_slacks(edges)
    tet_metrics.transcribed_closed_forms4(edges)
    for face in FACES:
        tet_centers.vertex_projection_components(edges, face)
        for kind in "QGI":
            tet_centers.projection_of_center(kind, edges, face)
    assert counts["centers"] == 8


# ------------------------------------------------- face and circumradius caches

def test_full_reports_compute_each_vertex_foot_and_r_once(monkeypatch):
    """A full report asks for R and the faces' vertex feet again and again
    (the projections of G and I are affine in the foot); each shape builds
    them once."""
    import cevian.core_model as cm
    from cevian import tet_centers, tet_metrics, tri_centers, tri_metrics

    tally = {"feet": 0, "R": 0}
    monkeypatch.setattr(tet_centers, "_point_foot",
                        _counted(tally, "feet", tet_centers._point_foot))
    r_cache = cm._Simplex._circumradius  # the cached attribute's descriptor
    monkeypatch.setattr(r_cache, "method", _counted(tally, "R", r_cache.method))

    edges = validate_tetrahedron(3, 4, 5, 5, 6, 7)
    for kind in CENTER_KINDS[4] + (PowerIncenter(2.0),):
        tet_centers.tet_center_ir_tensor(kind, edges)
    tet_metrics.center_pair_table4(edges)
    tet_metrics.metrics_summary(edges)
    tet_metrics.circumradius_forms(edges)
    tet_metrics.tet_inequality_slacks(edges)
    tet_metrics.transcribed_closed_forms4(edges)
    cm.dist_from_circumcenter(center_components("I", edges), edges)
    for face in FACES:
        tet_centers.vertex_projection_components(edges, face)
        for kind in "QGI":
            tet_centers.projection_of_center(kind, edges, face)
    assert tally == {"feet": 4, "R": 1}

    tally.update(feet=0, R=0)
    sides = validate_triangle(4.3, 5.1, 6.7)
    tri_metrics.center_pair_table(sides)
    tri_metrics.transcribed_closed_forms(sides)
    tri_metrics.inequality_slacks(sides)
    tri_metrics.circumradius(sides)
    cm.dist_from_circumcenter(center_components("I", sides), sides)
    tri_centers.euler_relation(sides)
    assert tally == {"feet": 0, "R": 1}


def test_full_tet_reports_take_the_circumcenter_pair_sum_once(monkeypatch, capsys):
    """circumradius_forms and crelle_check both read R^2 = ps(beta_Q); a
    full report, through the library or `cevian tet --metrics`, forms it once."""
    import cevian.core_model as cm
    from cevian import cli, tet_metrics

    lengths = (3, 4, 5, 5, 6, 7)
    beta = center_components("Q", validate_tetrahedron(*lengths)).weights
    calls = []
    kernel = cm._PAIR_TERMS[4]  # _pair_sum reads it from the origin, pair_table per pair

    def counted(e, w1, w2):
        calls.append(w1 is cm._ORIGIN[4] and tuple(w2) == beta)
        return kernel(e, w1, w2)

    monkeypatch.setitem(cm._PAIR_TERMS, 4, counted)
    edges = validate_tetrahedron(*lengths)
    tet_metrics.center_pair_table4(edges)
    tet_metrics.metrics_summary(edges)
    tet_metrics.circumradius_forms(edges)
    tet_metrics.tet_inequality_slacks(edges)
    tet_metrics.crelle_check(edges)
    assert calls.count(True) == 1

    calls.clear()
    argv = ["tet", "--edges", *map(str, lengths), "--centers", "all", "--distances", "all",
            "--metrics", "--inequalities"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert calls.count(True) == 1


def test_face_caches_are_keyed_by_canonical_face_name():
    from cevian import tet_centers

    edges = validate_tetrahedron(3, 4, 5, 5, 6, 7)
    foot = tet_centers.vertex_projection_components(edges, "abc")
    assert tet_centers.vertex_projection_components(edges, "ABC") is foot
    assert tet_centers.projection_of_center("g", edges, "Abc") == \
        tet_centers.projection_of_center("G", edges, "ABC")
    assert list(vars(edges)["_feet"]) == ["ABC"]
    assert sorted(vars(edges)["_faces"]) == sorted(FACES)
    # the caches take no part in equality, hashing or repr, and an equal
    # shape built anew, or rebuilt from its lengths, shares none of them
    fresh = validate_tetrahedron(3, 4, 5, 5, 6, 7)
    assert edges == fresh and hash(edges) == hash(fresh) and repr(edges) == repr(fresh)
    assert "_feet" not in repr(edges) and "_faces" not in repr(edges)
    copy = type(edges)(*edges.as_tuple())
    assert vars(copy)["_feet"] == {} and vars(copy)["_feet"] is not vars(edges)["_feet"]
    assert vars(copy)["_faces"] == vars(edges)["_faces"]
    assert vars(copy)["_faces"] is not vars(edges)["_faces"]
    assert tet_centers.vertex_projection_components(copy, "ABC") is not foot
    assert tet_centers.vertex_projection_components(copy, "ABC") == foot

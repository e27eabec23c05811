"""The center rule shared by triangles and tetrahedra, and the per-shape
center cache: one build per kind and shape, typed errors, finite weights."""

import dataclasses
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
    fresh = dataclasses.replace(shape)
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

@pytest.fixture
def counts(monkeypatch):
    """Counts of center builds and of triangle-area evaluations."""
    import cevian.core_model as cm

    tally = {"centers": 0, "areas": 0}

    def counted(key, fn):
        def wrapper(*args):
            tally[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cm, "_build_center", counted("centers", cm._build_center))
    monkeypatch.setattr(cm, "_area", counted("areas", cm._area))
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

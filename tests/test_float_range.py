"""The library over the whole float range: every public function of the four
shape modules and every distance function of the engine, on a few shapes at
every power of ten from 1e-320 to 1e308, gives finite floats or raises
GeometryError.  Never a bare exception, an infinity or a NaN (README,
"Numerical notes")."""

import inspect
import math
import time

import pytest

from cevian import core_model, tet_centers, tet_metrics, tri_centers, tri_metrics
from cevian.core_model import (
    CENTER_KINDS,
    FACES,
    GeometryError,
    PowerIncenter,
    center_components,
    face_components_from_tetra,
    validate_tetrahedron,
    validate_triangle,
)

SCALES = [10.0 ** k for k in range(-320, 309)]
TRIANGLES = [(5.6, 7.28, 10.64), (3, 4, 5), (1, 1, 1), (0.01, 1, 1)]
TETRAHEDRA = [(3, 4, 5, 5, 6, 7), (1, 1, 1, 1, 1, 1), (3, 3, 3, 2, 2, 2)]

# the engine's distance functions, beside the four shape modules' __all__
CORE = ("center_components", "pair_sum", "pair_table", "pair_distances", "circumradius",
        "dist_between_centers", "dist_origin_to_center", "dist_vertex_to_center",
        "dist_vertex_to_foot", "dist_from_circumcenter")


def floats(value):
    """Every float ``value`` holds, through containers and value types."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for v in value.values():
            yield from floats(v)
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from floats(v)
    elif isinstance(value, core_model._Frozen):
        for name in value.__match_args__:
            yield from floats(getattr(value, name))
    else:
        assert value is None or isinstance(value, (bool, int, str)), value


def _centers(shape, kinds):
    """The centers by kind that the shape has, leaving out those that raise
    (the sweep calls center_components itself, and reports what it raises)."""
    out = {}
    for kind in kinds:
        try:
            out[kind] = center_components(kind, shape)
        except Exception:
            pass
    return out


def calls(shape):
    """(function name, call) for every function the sweep covers, on one
    shape and the centers it has."""
    n = len(shape.E)
    kinds = CENTER_KINDS[n] + ((PowerIncenter(2.0),) if n == 4 else ())
    centers = _centers(shape, kinds)
    out = [("center_components", lambda k=k: center_components(k, shape)) for k in kinds]
    out += [("pair_table", lambda: core_model.pair_table(centers, shape)),
            ("pair_distances", lambda: core_model.pair_distances(
                core_model.pair_table(centers, shape))),
            ("circumradius", lambda: core_model.circumradius(shape))]
    for c in centers.values():
        out += [("pair_sum", lambda c=c: core_model.pair_sum(c.weights, shape)),
                ("dist_from_circumcenter", lambda c=c: core_model.dist_from_circumcenter(c, shape)),
                ("dist_origin_to_center",
                 lambda c=c: core_model.dist_origin_to_center(shape.E[0], c, shape)),
                ("dist_vertex_to_center",
                 lambda c=c: core_model.dist_vertex_to_center("B", c, shape)),
                ("dist_vertex_to_foot", lambda c=c: core_model.dist_vertex_to_foot("A", c, shape))]
    for c1, c2 in zip(centers.values(), list(centers.values())[1:]):
        out.append(("dist_between_centers",
                    lambda c1=c1, c2=c2: core_model.dist_between_centers(c1, c2, shape)))
    if n == 3:
        out += [("center_ir", lambda k=k: tri_centers.center_ir(k, shape)) for k in kinds]
        out += [("ict_areas", lambda c=c: tri_metrics.ict_areas(c, shape))
                for c in centers.values()]
        out += [("ict_altitudes", lambda c=c: tri_metrics.ict_altitudes(c, shape))
                for c in centers.values()]
        out += [(name, lambda f=getattr(module, name): f(shape))
                for module, names in ((tri_centers, ("excenter_segment_ratio", "euler_relation")),
                                      (tri_metrics, ("k_invariant", "inequality_slacks",
                                                     "transcribed_closed_forms")))
                for name in names]
        return out
    out += [("tet_center_ir_tensor", lambda k=k: tet_centers.tet_center_ir_tensor(k, shape))
            for k in kinds]
    for face in FACES:
        out += [("projection_components",
                 lambda face=face: tet_centers.projection_components(shape, shape.E[1], face))]
        out += [("projection_of_center",
                 lambda k=k, face=face: tet_centers.projection_of_center(k, shape, face))
                for k in "QGI"]
    out += [("concurrency_conditions", lambda c=c: tet_centers.concurrency_conditions(
        {face: face_components_from_tetra(c, face) for face in FACES}))
            for c in centers.values()]
    out += [(name, lambda f=getattr(tet_metrics, name): f(shape))
            for name in ("volume", "inradius", "circumradius_forms", "crelle_check",
                         "metrics_summary", "tet_inequality_slacks", "transcribed_closed_forms4")]
    return out


def _public_functions(module):
    return {name for name in module.__all__ if inspect.isfunction(getattr(module, name))}


def sweep():
    """(every function name called, the problems found, the shapes built)."""
    called, problems, built = set(), [], 0
    for lengths, validate in ([(t, validate_triangle) for t in TRIANGLES]
                              + [(t, validate_tetrahedron) for t in TETRAHEDRA]):
        for s in SCALES:
            try:
                shape = validate(*(x * s for x in lengths))
            except GeometryError:
                continue
            built += 1
            for name, call in calls(shape):
                called.add(name)
                try:
                    bad = [x for x in floats(call()) if not math.isfinite(x)]
                except GeometryError:
                    continue
                except Exception as exc:  # a bare exception is a finding
                    problems.append((name, lengths, s, f"{type(exc).__name__}: {exc}"))
                    continue
                if bad:
                    problems.append((name, lengths, s, bad))
    return called, problems, built


def test_every_function_over_the_float_range_gives_finite_floats_or_a_typed_error():
    t0 = time.perf_counter()
    called, problems, built = sweep()
    elapsed = time.perf_counter() - t0
    assert problems == []
    want = set(CORE).union(*map(_public_functions,
                                (tri_centers, tri_metrics, tet_centers, tet_metrics)))
    assert called == want
    assert built > 600  # every shape at most scales, not only at a few
    assert elapsed < 10.0  # about 2 s on a 2-vCPU x86 machine, with room for slow CI


@pytest.mark.parametrize("lengths", TETRAHEDRA)
def test_a_crelle_product_past_the_float_range_raises_on_r(lengths):
    # inside the volume gate, but the product of four squared edge products
    # overflows at 1e40 and underflows past the normal floats at 1e-45
    for s in (1e40, 1e-45):
        edges = validate_tetrahedron(*(x * s for x in lengths))
        for read in (core_model.circumradius, tet_metrics.crelle_check,
                     tet_metrics.metrics_summary):
            with pytest.raises(GeometryError, match="^the Crelle product of edges .* leaves "
                                                    "the floating-point range$"):
                read(edges)


# the parent raised a bare ValueError (fsum's -inf + inf) at 3e16 and 1e30, and
# a ZeroDivisionError at 1e-45, where R now raises first
@pytest.mark.parametrize("s, message", [(3e16, "a transcribed form"), (1e30, "a transcribed form"),
                                        (1e-45, "the Crelle product")])
def test_transcribed_forms_past_the_float_range_raise_a_typed_error(s, message):
    edges = validate_tetrahedron(*(x * s for x in (3, 4, 5, 5, 6, 7)))
    with pytest.raises(GeometryError, match=f"^{message} of edges .* leaves the floating-point "
                                            f"range$"):
        tet_metrics.transcribed_closed_forms4(edges)

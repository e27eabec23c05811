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


# --------------------------------------------------------------------------
# the scale sweep: a value of degree d in the lengths is s^d times its value
# at s = 1 at every power of ten s where the shape validates, or it raises
# GeometryError.  Where a value's terms fall below the normal floats they
# keep fewer digits with no error (an area 4e-4 off at 1e-81, a tetrahedron's
# IQ 0.0 at 1e-20), which a finite-or-raise check cannot see.

SWEEP_TRIANGLES = [(4.3, 5.1, 6.7), (3, 4, 5.5), (1, 1, 1.9)]
# the last is a disphenoid: its G, I and Q coincide, so its QG..IQ are 0 at s = 1
SWEEP_TETRAHEDRA = [(3, 4, 5, 5, 6, 7), (3, 3, 3, 2, 2, 2), (4, 5, 6, 6, 4, 5)]
TRI_SLACK_DEGREES = {"QG": 2, "QI": 2, "QH": 2, "GI": 4, "GH": 10, "IH": 12}
TET_SLACK_DEGREES = {"QG": 2, "QI": 2, "GI": 6, "GQ": 14, "IQ": 18}
LN10 = math.log(10.0)


def _degrees(value, degree):
    """(name, degree, value) for each value a call returns: a dict's
    entries, of the degree ``degree`` gives for each name (or of one degree
    for all), or a single value."""
    if isinstance(value, dict):
        return [(name, degree if isinstance(degree, int) else degree[name], v)
                for name, v in value.items()]
    return [("", degree, value)]


def scaled_values(lengths, s):
    """(call name, [(name, degree, value)] or None where it raises
    GeometryError) for every swept call on ``lengths`` times ``s``; None
    where the shape does not validate."""
    try:
        if len(lengths) == 3:
            shape = validate_triangle(*(x * s for x in lengths))
            calls = [("area", lambda: shape.area, 2),
                     ("circumradius", lambda: tri_metrics.circumradius(shape), 1),
                     ("k_invariant", lambda: tri_metrics.k_invariant(shape), 4),
                     ("transcribed_closed_forms",
                      lambda: tri_metrics.transcribed_closed_forms(shape), 1),
                     ("inequality_slacks", lambda: tri_metrics.inequality_slacks(shape),
                      TRI_SLACK_DEGREES)]
        else:
            shape = validate_tetrahedron(*(x * s for x in lengths))
            calls = [("transcribed_closed_forms4",
                      lambda: tet_metrics.transcribed_closed_forms4(shape), 1),
                     ("tet_inequality_slacks", lambda: tet_metrics.tet_inequality_slacks(shape),
                      TET_SLACK_DEGREES)]
    except GeometryError:
        return None
    out = []
    for name, call, degree in calls:
        try:
            out.append((name, _degrees(call(), degree)))
        except GeometryError:
            out.append((name, None))
    return out


def scale_problems(lengths, k, values, reference):
    """Where ``values`` at s = 10^k is not s^degree times ``reference``, the
    values at s = 1, within 1e-9 relative.  A value whose reference is 0, a
    coincidence, is rounding noise at other scales: it must be within 1e-9
    of its scale (s * max(lengths))^degree instead, and a distance (degree
    1), the root of such noise, within sqrt(1e-9) of it."""
    problems = []
    for (call, got), (_, want) in zip(values, reference):
        for (name, degree, v), (_, _, v1) in zip(got or (), want):
            shift = degree * k * LN10
            if v1 == 0.0:
                tol = math.log(1e-9) / (2 if degree == 1 else 1)
                bound = tol + shift + degree * math.log(max(lengths))
                ok = v == 0.0 or math.log(abs(v)) <= bound
            else:
                ok = (v != 0.0 and (v > 0.0) == (v1 > 0.0)
                      and abs(math.log(abs(v)) - math.log(abs(v1)) - shift) <= 1e-9)
            if not ok:
                problems.append((call, name, k, v, v1))
    return problems


@pytest.mark.parametrize("lengths", SWEEP_TRIANGLES + SWEEP_TETRAHEDRA)
def test_every_scaled_value_scales_with_its_degree_or_raises(lengths):
    reference = scaled_values(lengths, 1.0)
    returned = dict.fromkeys([name for name, _ in reference], 0)
    problems = []
    for k in range(-320, 309):
        values = scaled_values(lengths, 10.0 ** k)
        for name, got in values or ():
            returned[name] += got is not None
        problems += scale_problems(lengths, k, values or (), reference)
    assert problems == []
    # each call gives values over a band of scales, not only at a few
    assert min(returned.values()) >= 25, returned

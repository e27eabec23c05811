"""The library over the whole float range: every public function of the four
shape modules and every distance function of the engine, on a few shapes at
every power of ten from 1e-320 to 1e308, gives finite floats or raises
GeometryError.  Never a bare exception, an infinity or a NaN (README,
"Numerical notes")."""

import inspect
import math
import random
import time

import pytest
from hypothesis import example, given, reject, settings, strategies as st

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


def problems_of(shape, called):
    """(function name, what it gave) for every call the sweep covers on
    ``shape`` that gives a float that is not finite or raises anything but
    GeometryError; adds each function name to ``called``."""
    problems = []
    for name, call in calls(shape):
        called.add(name)
        try:
            bad = [x for x in floats(call()) if not math.isfinite(x)]
        except GeometryError:
            continue
        except Exception as exc:  # a bare exception is a finding
            problems.append((name, f"{type(exc).__name__}: {exc}"))
            continue
        if bad:
            problems.append((name, bad))
    return problems


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
            problems += [(name, lengths, s, what) for name, what in problems_of(shape, called)]
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


def _nudged(x, steps, toward):
    for _ in range(steps):
        x = math.nextafter(x, toward)
    return x


def test_needles_and_caps_give_finite_floats_or_a_typed_error():
    # c = a - b nudged up by 1 to 3 ulps (a needle where a ~ b, else a cap),
    # and c = a + b nudged down as far (a cap whose angle at C is near 180
    # degrees): p minus a side can round to 0.0 although the triangle
    # inequality holds, and the transcribed forms divide by it
    rng = random.Random(8)
    called, problems, built = set(), [], 0
    for _ in range(600):
        b, a = sorted((rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)))
        steps = rng.randint(1, 3)
        c = _nudged(a + b, steps, 0.0) if rng.random() < 0.5 else _nudged(a - b, steps, math.inf)
        try:
            shape = validate_triangle(a, b, c)
        except GeometryError:
            continue
        built += 1
        problems += [(name, (a, b, c), what) for name, what in problems_of(shape, called)]
    assert problems == []
    assert called == set(CORE).union(*map(_public_functions, (tri_centers, tri_metrics)))
    assert built > 400


def _with_unit_reference(lengths, s):
    """The tetrahedron of ``lengths`` times s, the one of those lengths
    times 2**-k with k the binary exponent of the longest, and k."""
    scaled = [x * s for x in lengths]
    k = math.frexp(max(scaled))[1]
    return (validate_tetrahedron(*scaled),
            validate_tetrahedron(*(math.ldexp(x, -k) for x in scaled)), k)


@pytest.mark.parametrize("lengths", TETRAHEDRA)
def test_a_crelle_product_past_the_float_range_answers_on_r(lengths):
    # the product of four squared edge products overflowed at 1e40 and fell
    # below the normal floats at 1e-45 at the user's scale, and R raised; on
    # the unit shape it does neither, so R, of degree 1, and every value that
    # reads it answer: the value on the unit shape times 2**(degree*k)
    for s in (1e40, 1e-45):
        edges, unit, k = _with_unit_reference(lengths, s)
        assert core_model.circumradius(edges) == math.ldexp(core_model.circumradius(unit), k)
        assert tet_metrics.crelle_check(edges) == tet_metrics.crelle_check(unit)
        got, want = tet_metrics.metrics_summary(edges), tet_metrics.metrics_summary(unit)
        assert got == tet_metrics.TetMetricsSummary(
            math.ldexp(want.volume, 3 * k), math.ldexp(want.inradius, k),
            math.ldexp(want.circumradius, k), want.crelle_residual)


# the forms' terms, of the 18th power of the lengths, left the float range
# at 3e16, 1e30 and 1e-45 at the user's scale, and the forms raised; each
# form is a distance, of degree 1, and the unit shape's times 2**k
@pytest.mark.parametrize("s", [3e16, 1e30, 1e-45])
def test_transcribed_forms_past_the_float_range_answer_from_the_unit_shape(s):
    edges, unit, k = _with_unit_reference((3, 4, 5, 5, 6, 7), s)
    want = tet_metrics.transcribed_closed_forms4(unit)
    assert tet_metrics.transcribed_closed_forms4(edges) == {
        name: math.ldexp(v, k) for name, v in want.items()}


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
                     ("circumradius", lambda: core_model.circumradius(shape), 1),
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


# --------------------------------------------------------------------------
# the one scale rule: the closed forms run on the unit shape, the lengths
# times 2**-k with k the binary exponent of the longest, and each public value
# of degree d is its unit value times 2**(d*k).  So multiplying every length
# by 2**j leaves every weight's bits alone and multiplies every value by
# exactly 2**(d*j), or raises exactly where that product leaves the normal
# floats.

# (name, call, degree): a dict's values or a value type's fields all have the
# degree given, or the degree their key maps to (a dict or a function)
_TRI_VALUES = [
    ("area", lambda t: t.area, 2),
    ("circumradius", core_model.circumradius, 1),
    ("k_invariant", tri_metrics.k_invariant, 4),
    ("transcribed_closed_forms", tri_metrics.transcribed_closed_forms, 1),
    ("inequality_slacks", tri_metrics.inequality_slacks, TRI_SLACK_DEGREES),
    ("ict_areas", lambda t: tri_metrics.ict_areas(center_components("I", t), t), 2),
    ("ict_altitudes", lambda t: tri_metrics.ict_altitudes(center_components("H", t), t), 1),
    ("collinearity_residual",
     lambda t: tri_centers.euler_relation(t)["collinearity_residual"], 1),
]
_TET_VALUES = [
    ("volume", tet_metrics.volume, 3),
    ("inradius", tet_metrics.inradius, 1),
    ("volume_term", lambda e: e.volume_term, 6),
    ("face_areas", lambda e: e.face_areas, 2),
    ("circum_aux", lambda e: e.circum_aux, 6),
    ("circumradius_forms", tet_metrics.circumradius_forms, 1),
    ("transcribed_closed_forms4", tet_metrics.transcribed_closed_forms4, 1),
    ("tet_inequality_slacks", tet_metrics.tet_inequality_slacks, TET_SLACK_DEGREES),
]
_SHARED_VALUES = [
    # one raise for the table: each pair's distance, of degree 1, and its square
    ("pair_table", lambda s: {(r.pair, d): v for r in _table(s)
                              for d, v in ((1, r.distance), (2, r.squared_distance))},
     lambda key: key[1]),
    ("dist_from_circumcenter",
     lambda s: core_model.dist_from_circumcenter(center_components("G", s), s), 1),
    ("dist_vertex_to_center",
     lambda s: core_model.dist_vertex_to_center("A", center_components("I", s), s), 1),
]


def _table(shape):
    return core_model.pair_table(_centers(shape, CENTER_KINDS[len(shape.E)]), shape)


def _outcome(call, shape):
    """name -> value of what ``call(shape)`` returns, or the GeometryError."""
    try:
        value = call(shape)
    except GeometryError as exc:
        return exc
    if isinstance(value, dict):
        return dict(value)
    if isinstance(value, core_model._Frozen):
        return {f"{name}{i}": v for name in value.__match_args__
                for i, v in enumerate(floats(getattr(value, name)))}
    return {"": value}


def _landed(value, shift):
    """``value`` * 2**shift, or None where that leaves the normal floats."""
    try:
        out = math.ldexp(value, shift)
    except OverflowError:
        return None
    return out if value == 0.0 or abs(out) >= 2.2250738585072014e-308 else None


@st.composite
def _band_shapes(draw):
    """The lengths of a triangle with sides in the band, or of four points in
    the unit cube, and a power-of-two exponent from -500 to 500."""
    if draw(st.booleans()):
        lengths = [draw(st.floats(0.05, 1.0)) for _ in range(3)]
        validate = validate_triangle
    else:
        pts = [[draw(st.floats(0.0, 1.0)) for _ in range(3)] for _ in range(4)]
        lengths = [math.dist(pts[i], pts[j]) for i, j in core_model.EDGES[4]]
        validate = validate_tetrahedron
    try:
        validate(*lengths)
    except GeometryError:
        reject()
    return validate, lengths, draw(st.integers(-500, 500))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_band_shapes())
@example((validate_triangle, [0.3, 0.4, 0.55], 400))
@example((validate_triangle, [0.3, 0.4, 0.55], -480))
@example((validate_tetrahedron, [0.3, 0.3, 0.3, 0.2, 0.2, 0.2], 200))
@example((validate_tetrahedron, [0.3, 0.3, 0.3, 0.2, 0.2, 0.2], -500))
@example((validate_triangle, [0.3, 0.3, 0.3000001], -500))  # near-coincident centers
@example((validate_tetrahedron, [0.5] * 6, -500))  # coincident centers
def test_a_power_of_two_scale_keeps_every_weight_and_scales_every_value_exactly(case):
    validate, lengths, j = case
    base, scaled = validate(*lengths), validate(*(math.ldexp(x, j) for x in lengths))
    n = len(base.E)
    kinds = CENTER_KINDS[n] + ((PowerIncenter(2.0), PowerIncenter(-0.5)) if n == 4 else ())
    for kind in kinds:
        want = _outcome(lambda s: center_components(kind, s).weights, base)
        got = _outcome(lambda s: center_components(kind, s).weights, scaled)
        if isinstance(want, GeometryError):
            assert type(got) is type(want), kind
        else:
            assert got == want, kind  # bit for bit
    for name, call, degree in (_TRI_VALUES if n == 3 else _TET_VALUES) + _SHARED_VALUES:
        want, got = _outcome(call, base), _outcome(call, scaled)
        if isinstance(want, GeometryError):
            assert type(got) is type(want), name
            continue
        landed = {key: _landed(v, j * (degree if isinstance(degree, int) else
                                       degree(key) if callable(degree) else degree[key]))
                  for key, v in want.items()}
        if None in landed.values():
            assert isinstance(got, GeometryError), (name, j)
            assert "leaves the floating-point range" in str(got)
        else:
            assert got == landed, (name, j)


# weights that stay normal floats at every 2**j below: zero, or of magnitude 1e-6 to 1e6
_WEIGHT = st.floats(-1e6, 1e6).filter(lambda x: x == 0.0 or abs(x) >= 1e-6)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(_WEIGHT, min_size=3, max_size=4), st.integers(-500, 500))
@example([1.0, 1.0, 1.0], -43)  # all below 1e-12, which an absolute floor refused
@example([0.5, -0.5, 0.0, -0.0], 500)  # a sum that cancels is refused at every scale
def test_caller_weights_normalize_to_the_same_bits_at_every_power_of_two(w, j):
    # the normalization floor is relative to the weights' magnitudes
    scaled = [math.ldexp(x, j) for x in w]
    try:
        want = core_model.Components(w).weights
    except GeometryError as exc:
        with pytest.raises(type(exc)):
            core_model.Components(scaled)
        return
    assert core_model.Components(scaled).weights == want

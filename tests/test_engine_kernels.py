"""The straight-line pair-term and normalization kernels against the generic
definitions they replaced, bit for bit.

The reference functions below are the comprehension forms of pair_sum,
the pair distance, pair_table and Components' normalization as core_model
wrote them before the kernels, on the unit shape, with each public value
scaled to the user's once, as core_model scales it; every result is compared
by repr, and every raise by class and message, over seeded weights with
mixed signs, -0.0, subnormals, ints and values whose products overflow.
"""

import math
import random
from itertools import combinations

import pytest

from cevian import core_model
from cevian.core_model import (
    ATOL,
    CENTER_KINDS,
    Components,
    DegenerateDenominator,
    DistanceReport,
    FACE_INDICES,
    GeometryError,
    NotRealizable,
    _sqrt_clamped,
    center_components,
    dist_between_centers,
    dist_origin_to_center,
    face_components_from_tetra,
    pair_sum,
    pair_table,
    validate_tetrahedron,
    validate_triangle,
)
from cevian.tet_centers import projection_of_center, vertex_projection_components

# --------------------------------------------------------------------------
# the generic definitions, as the engine wrote them before its kernels


def ref_magnitude_sum(values, what):
    try:
        total = math.fsum(map(abs, values))
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise GeometryError(f"{what} leaves the floating-point range")
    return total


def ref_normalized(values):
    try:
        scale = ref_magnitude_sum(values, "a weight sum")
    except GeometryError:
        if not all(map(math.isfinite, values)):
            raise GeometryError(f"weights {values} are not all finite") from None
        raise
    total = math.fsum(values)
    if abs(total) <= ATOL * scale:
        raise DegenerateDenominator(f"weights {values} sum to ~0 and cannot be normalized")
    return tuple([v / total for v in values])


def ref_components(weights):
    vals = tuple(weights)
    try:
        return ref_normalized(vals)
    except (TypeError, OverflowError):
        raise GeometryError(f"weights {vals!r} are not numbers in the float range") from None


def ref_scaled(value, degree, shape, what):
    return core_model._scaled((value,), degree, shape._k, what, shape)[0]


def ref_unit_pair_sum(weights, shape):
    n = len(shape._E)
    entries = [(i, j, shape._E[i][j]) for i, j in combinations(range(n), 2)]
    try:
        if len(weights) != n:
            raise GeometryError(f"{len(weights)} weights given for a shape with "
                                f"{n} vertices")
        terms = [weights[i] * weights[j] * e for i, j, e in entries]
        scale = ref_magnitude_sum(terms, "a pair sum")
        return math.fsum(terms), scale
    except (TypeError, OverflowError):
        raise GeometryError(f"weights {weights!r} are not numbers in the float range") from None


def ref_pair_sum(weights, shape):
    ps, scale = ref_unit_pair_sum(weights, shape)
    return ref_scaled(ps, 2, shape, "a pair sum"), ref_scaled(scale, 2, shape, "a pair sum")


def ref_pair_distance(w1, w2, shape):
    """The distance on the unit shape."""
    ps, scale = ref_unit_pair_sum([y - x for x, y in zip(w1, w2)], shape)
    if ps < 0.0:
        return math.sqrt(-ps)
    grain = 0.0
    if ps > 0.0:
        grain = (8.0 * 2.3e-16 * max(map(abs, w1 + w2))) ** 2 * 0.5 * sum(map(sum, shape._E))
    return _sqrt_clamped(-ps, scale, grain)


def ref_dist_between_centers(w1, w2, shape):
    return ref_scaled(ref_pair_distance(w1, w2, shape), 1, shape, "a distance")


def ref_pair_table(comps, shape):
    n = len(shape.E)
    w = {k: c.weights for k, c in comps.items()}
    assert all(len(v) == n for v in w.values())
    return [DistanceReport((k1, k2), ref_scaled(d * d, 2, shape, "a squared distance"),
                           ref_scaled(d, 1, shape, "a distance"))
            for k1, k2 in combinations(w, 2) for d in (ref_pair_distance(w[k1], w[k2], shape),)]


# --------------------------------------------------------------------------
# seeded inputs

SPECIALS = [0.0, -0.0, 1, -3, 7, 2 ** 53 + 1, -(10 ** 20), 5e-324, -1e-310,
            2.2250738585072014e-308, 1e154, -1.3e154, 1e-160, 0.1, -0.7, 1 / 3,
            1.7e308, -1e300, 12345.678]


def _weight(rng):
    if rng.random() < 0.3:
        return rng.choice(SPECIALS)
    return rng.choice((-1.0, 1.0)) * rng.random() * 10.0 ** rng.randint(-200, 200)


def _weights(rng, n, count):
    return [tuple(_weight(rng) for _ in range(n)) for _ in range(count)]


TRIANGLES = [validate_triangle(*s) for s in
             ((3, 4, 5), (1, 1, 1), (0.31, 0.52, 0.64), (1e-100, 1e-100, 1.5e-100),
              (2e100, 3e100, 4e100))]
TETRAHEDRA = [validate_tetrahedron(*e) for e in
              ((3, 4, 5, 5, 6, 7), (1,) * 6, (0.7, 0.8, 0.9, 0.75, 0.85, 0.95),
               (3e-50, 4e-50, 5e-50, 5e-50, 6e-50, 7e-50), (3e50, 4e50, 5e50, 5e50, 6e50, 7e50))]
SHAPES = {3: TRIANGLES, 4: TETRAHEDRA}


def outcome(call):
    """What ``call()`` gives: ("ok", repr of the result), or the class and
    message of whatever it raises."""
    try:
        return "ok", repr(call())
    except Exception as exc:  # bare exceptions must match the reference too
        return type(exc).__name__, str(exc)


# --------------------------------------------------------------------------
# the kernels against the reference


@pytest.mark.parametrize("n", [3, 4])
def test_pair_sum_matches_the_generic_form_bitwise(n):
    rng = random.Random(1600 + n)
    seen = set()
    for shape in SHAPES[n]:
        for w in _weights(rng, n, 400):
            got, want = outcome(lambda: pair_sum(w, shape)), outcome(lambda: ref_pair_sum(w, shape))
            assert got == want, (w, shape)
            seen.add(got[0])
    assert seen == {"ok", "GeometryError"}


@pytest.mark.parametrize("n", [3, 4])
def test_pair_distance_matches_the_generic_form_bitwise(n):
    rng = random.Random(1610 + n)
    kernel = core_model._PAIR_TERMS[n]

    def engine(w1, w2, shape):
        # the two steps pair_table takes for each pair, on raw weights: the
        # terms, with the range check pair_sum makes of a caller's, then the root
        t = kernel(shape._pair_e, w1, w2)
        scale = core_model._magnitude_sum(t, "a pair sum")
        ps = math.fsum(t)
        if ps < 0.0:
            return math.sqrt(-ps)
        return core_model._clamped_pair_root(ps, scale, w1, w2, shape)

    for shape in SHAPES[n]:
        for w1, w2 in zip(_weights(rng, n, 300), _weights(rng, n, 300)):
            got = outcome(lambda: engine(w1, w2, shape))
            assert got == outcome(lambda: ref_pair_distance(w1, w2, shape)), (w1, w2, shape)


@pytest.mark.parametrize("n", [3, 4])
def test_components_match_the_generic_normalization_bitwise(n):
    rng = random.Random(1620 + n)
    seen = set()
    # the floor is relative: tiny weights normalize, and weights that cancel do not
    for w in _weights(rng, n, 3000) + [(1, 2, 3, 4)[:n], (0.0, -0.0, 1e-300, 5e-324)[:n],
                                       (0.5, -0.5, 0.0, -0.0)[:n]]:
        got = outcome(lambda: Components(w).weights)
        assert got == outcome(lambda: ref_components(w)), w
        seen.add(got[0])
    assert seen == {"ok", "GeometryError", "DegenerateDenominator"}


def _centers(shape):
    """The shape's centers by kind, leaving out those that raise (a right
    triangle's Q ratios, say)."""
    out = {}
    for kind in CENTER_KINDS[len(shape.E)]:
        try:
            out[kind] = center_components(kind, shape)
        except GeometryError:
            pass
    return out


def _component_sets(rng, n, count):
    """Component vectors from seeded weights, keeping those that normalize."""
    out = []
    for w in _weights(rng, n, count):
        try:
            out.append(Components(w))
        except GeometryError:
            pass
    return out


@pytest.mark.parametrize("n", [3, 4])
def test_pair_table_and_dist_between_centers_match_the_generic_forms_bitwise(n):
    rng = random.Random(1630 + n)
    for shape in SHAPES[n]:
        comps = _component_sets(rng, n, 200)
        for table in (_centers(shape), dict(zip(map(str, range(7)), comps[:7]))):
            got = outcome(lambda: [repr(r) for r in pair_table(table, shape)])
            assert got == outcome(lambda: [repr(r) for r in ref_pair_table(table, shape)])
        for c1, c2 in zip(comps, comps[1:]):
            got = outcome(lambda: dist_between_centers(c1, c2, shape))
            assert got == outcome(lambda: ref_dist_between_centers(c1.weights, c2.weights, shape))


def test_excenters_pierce_points_and_projections_match_the_generic_forms_bitwise():
    rng = random.Random(1640)
    for _ in range(60):
        p = [[rng.random() for _ in range(3)] for _ in range(4)]
        try:
            edges = validate_tetrahedron(*(math.dist(p[i], p[j]) for i, j in
                                           ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1))))
        except GeometryError:
            continue
        areas = edges._face_areas  # the unit shape's, which the center rule reads
        for x in range(4):
            want = outcome(lambda: ref_components((-1.0 if i == x else 1.0) * c
                                                  for i, c in enumerate(areas.by_vertex)))
            got = outcome(lambda: center_components("E_" + "ABCD"[x], edges).weights)
            assert got == want
        for face, (v1, v2, v3, opp) in FACE_INDICES.items():
            for kind in CENTER_KINDS[4]:
                w = center_components(kind, edges).weights
                want = outcome(lambda: ref_components(w[v] / (1.0 - w[opp]) for v in (v1, v2, v3)))
                assert outcome(lambda: face_components_from_tetra(
                    center_components(kind, edges), face).weights) == want
            foot = vertex_projection_components(edges, face).weights
            assert outcome(lambda: projection_of_center("G", edges, face).weights) == \
                outcome(lambda: ref_components((1.0 + f) / 4.0 for f in foot))
            s, own = areas.by_vertex, areas.by_vertex[opp]
            assert outcome(lambda: projection_of_center("I", edges, face).weights) == \
                outcome(lambda: ref_components((s[v] + own * f) / areas.s
                                               for v, f in zip((v1, v2, v3), foot)))


# --------------------------------------------------------------------------
# the typed errors keep their messages

TRI, TET = TRIANGLES[0], TETRAHEDRA[0]
RANGE = "a pair sum leaves the floating-point range"


@pytest.mark.parametrize("call, message", [
    (lambda: pair_sum((1e200, 1e200, 1.0), TRI), RANGE),  # a term overflows
    (lambda: pair_sum((1e154, 1e154, 1e154, 1e154), TET), RANGE),  # terms 1e308 * 9..49 are inf
    # finite terms on the unit shape whose pair sum is past the float range
    (lambda: pair_sum((1e154,) * 3, validate_triangle(1, 1, 1)),
     "a pair sum of the lengths (1.0, 1.0, 1.0) leaves the floating-point range"),
    (lambda: pair_sum((1e154,) * 4, validate_tetrahedron(*(1,) * 6)),
     "a pair sum of the lengths (1.0, 1.0, 1.0, 1.0, 1.0, 1.0) leaves the floating-point "
     "range"),
    (lambda: pair_sum((math.nan, 1.0, 1.0), TRI), RANGE),
    (lambda: pair_sum((math.inf, 1.0, 1.0, 1.0), TET), RANGE),
    (lambda: pair_sum((math.inf, -math.inf, 1.0), TRI), RANGE),  # fsum would meet -inf + inf
    (lambda: pair_sum((10 ** 400, 1, 1), TRI),
     "weights (" + str(10 ** 400) + ", 1, 1) are not numbers in the float range"),
    (lambda: pair_sum(("a", 1, 1), TRI), "weights ('a', 1, 1) are not numbers in the float range"),
    (lambda: pair_sum((1.0, 1.0), TRI), "2 weights given for a shape with 3 vertices"),
    (lambda: Components((math.nan, 1.0, 1.0)), "weights (nan, 1.0, 1.0) are not all finite"),
    (lambda: Components((math.inf, -math.inf, 1.0)), "weights (inf, -inf, 1.0) are not all finite"),
    (lambda: Components((1e308, 1e308, 1.0, 1.0)), "a weight sum leaves the floating-point range"),
    (lambda: Components((1.0, -1.0, 0.0)),
     "weights (1.0, -1.0, 0.0) sum to ~0 and cannot be normalized"),
])
def test_overflow_nan_and_inf_raise_typed_errors_with_their_messages(call, message):
    with pytest.raises(GeometryError) as info:
        call()
    assert str(info.value) == message


# distances whose true value is in the float range, though their squares or
# their terms at the user's scale are not: each is its value on the shape
# scaled by 2**-k, times 2**k, exactly
@pytest.mark.parametrize("lengths, call, k", [
    ((1.0, 1.0, 1.0), lambda s, x: dist_origin_to_center(
        (1.25e154 * x,) * 3, Components((0.9, 0.9, -0.8)), s), 600),
    ((1e150, 1e150, 1.5e150), lambda s, x: dist_between_centers(
        Components((1e11, -1e11, 1.0)), Components((-1e11, 1e11, 1.0)), s), 600),
    # an origin far from a small shape: its squared distances were past the
    # range on the shape's unit scale, and are not on the origin's
    ((1.0, 1.0, 1.0), lambda s, x: dist_origin_to_center(
        (1e200 * x,) * 3, Components((0.9, 0.9, -0.8)), s), 600),
])
def test_distances_in_the_float_range_answer_from_their_scaled_value(lengths, call, k):
    got = call(validate_triangle(*lengths), 1.0)
    reference = call(validate_triangle(*(math.ldexp(x, -k) for x in lengths)),
                     math.ldexp(1.0, -k))
    assert math.isfinite(got) and got > 0.0 and got == math.ldexp(reference, k)


# --------------------------------------------------------------------------
# the unit shape: pair tables need no range check


def _near_cancelling(n):
    """Components whose weights come close to the largest magnitude
    _normalized lets through: sums just past its threshold."""
    out = []
    for tail in ((1.0,), (0.5, 0.5), (1.0, -0.25)):
        if len(tail) > n - 2:
            continue
        pad = (0.0,) * (n - 2 - len(tail))
        lo, hi = 1.0, 1e13  # bisect on x for the last (x, -x, *tail) that normalizes
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            try:
                Components((mid, -mid, *tail, *pad))
                lo = mid
            except DegenerateDenominator:
                hi = mid
        out += [Components((lo, -lo, *tail, *pad)), Components((-lo, lo, *tail, *pad))]
    return out


def test_a_positive_pair_sum_is_clamped_inside_its_magnitude_window():
    """A flat triangle and two points along its near-null direction: the
    pair sum of their difference is positive rounding noise, above the
    absolute grain but inside ATOL times the terms' magnitude sum."""
    shape = validate_triangle(1.0, 0.44334566017365495, 1.4433456601736498)
    c1 = Components((0.1813999870815699, 0.44394617331135594, 0.37465383960707405))
    c2 = Components((0.18207091718076385, 0.44424362725911354, 0.37368545556012267))
    ps, scale = pair_sum([y - x for x, y in zip(c1.weights, c2.weights)], shape)
    assert 1e-25 < ps <= ATOL * scale
    table = pair_table({"P": c1, "R": c2}, shape)
    assert [repr(r) for r in table] == [repr(r) for r in ref_pair_table({"P": c1, "R": c2}, shape)]
    assert table[0].distance == 0.0


@pytest.mark.parametrize("n", [3, 4])
def test_pair_tables_never_range_check_their_terms(n, monkeypatch):
    # the terms are on the unit shape, where every squared length is below 1
    # and every Components weight below 1/ATOL, so no sum of six can overflow
    checks = []
    magnitude_sum = core_model._magnitude_sum
    monkeypatch.setattr(core_model, "_magnitude_sum",
                        lambda *args: checks.append(args[1]) or magnitude_sum(*args))
    shapes = SHAPES[n] + [validate_triangle(1e141, 1.3e141, 1.5e141) if n == 3 else
                          validate_tetrahedron(*(1e100 * x for x in (3, 4, 5, 5, 6, 7)))]
    for shape in shapes:
        assert max(shape._pair_e) < 1.0
        extreme = _near_cancelling(n)
        for table in (_centers(shape), dict(enumerate(extreme))):
            checks.clear()
            assert outcome(lambda: pair_table(table, shape))[0] in ("ok", "GeometryError")
            assert checks == []


def test_the_volume_gate_takes_every_power_of_two_scale_alike():
    """The gate runs on the unit shape, so a tetrahedron and every
    power-of-two multiple of it, from 2**-1000 to 2**1000, have the same
    unit invariants, bit for bit, and the same verdict."""
    rng = random.Random(2902)
    bases = [e.as_tuple() for e in TETRAHEDRA[:3]]
    while len(bases) < 40:
        p = [[rng.random() for _ in range(3)] for _ in range(4)]
        if rng.random() < 0.3:  # a needle: one vertex far off
            p[3] = [c * 1e3 for c in p[3]]
        lengths = tuple(math.dist(p[i], p[j]) for i, j in
                        ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1)))
        if outcome(lambda: validate_tetrahedron(*lengths))[0] == "ok":
            bases.append(lengths)
    bases.append((1.0, 1.0, 1.0, 1.0, 1.0, 1.7))  # near flat
    for base in bases:
        unit = validate_tetrahedron(*base)
        want = [repr(vars(unit)[name]) for name in ("_pair_e", "_volume_term", "_faces")]
        for k in range(-1000, 1001, 50):
            edges = validate_tetrahedron(*(math.ldexp(x, k) for x in base))
            assert [repr(vars(edges)[name]) for name in ("_pair_e", "_volume_term",
                                                         "_faces")] == want, (base, k)
    # past the float range for delta2 ** 3 at the user's scale, which used to raise
    assert validate_tetrahedron(*(1.38e51,) * 6)._volume_term > 0.0
    with pytest.raises(NotRealizable):
        validate_tetrahedron(*(1e200 * x for x in (1, 1, 1, 1, 1, math.sqrt(3.0))))


@pytest.mark.parametrize("n", [3, 4])
def test_components_weights_stay_below_one_over_atol(n):
    rng = random.Random(2903 + n)
    extreme = _near_cancelling(n)
    assert max(max(map(abs, c.weights)) for c in extreme) > 0.4 / ATOL
    for c in extreme + _component_sets(rng, n, 400):
        assert max(map(abs, c.weights)) < 1.0 / ATOL

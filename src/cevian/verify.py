"""Randomized certification of every closed form against the coordinate
oracle, run as ``cevian verify --seed N --cases N --scope tri|tet|all``.

Case i draws its triangle from ``np.random.default_rng([seed, 2*i])`` and its
tetrahedron from ``np.random.default_rng([seed, 2*i + 1])``, so a case's
checks do not depend on the cases before it.  Each check lands in one suite,
which keeps its worst residual/threshold ratio; the run passes iff every
suite does.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np

from .core_model import (
    CENTER_KINDS,
    FACES,
    FORM_PAIRS,
    GeometryError,
    PowerIncenter,
    center_components,
    edge_polynomials,
    face_components_from_tetra,
    fractional_ratio_determinant,
    pair_distances,
    pair_table,
    validate_tetrahedron,
    validate_triangle,
    vertex_foot_ratios3,
)
from . import coord_oracle as oracle
from . import tri_centers, tri_metrics, tet_centers, tet_metrics


class _Suite:
    """Tracks the worst residual/threshold ratio seen by one test family."""

    def __init__(self, name):
        self.name = name
        self.checks = 0
        self.max_residual = 0.0
        self.worst_ratio = 0.0
        self.fail_instance = None

    def check(self, residual, threshold, instance):
        self.checks += 1
        residual = float(residual)
        if residual > self.max_residual:
            self.max_residual = residual
        ratio = residual / threshold if threshold > 0 else math.inf
        if ratio > self.worst_ratio:
            self.worst_ratio = ratio
            if ratio > 1.0 and self.fail_instance is None:
                self.fail_instance = tuple(round(v, 17) for v in instance)

    @property
    def passed(self):
        return self.worst_ratio <= 1.0


def _min_angle(a, b, c):
    angles = []
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        cosx = (y * y + z * z - x * x) / (2.0 * y * z)
        angles.append(math.acos(max(-1.0, min(1.0, cosx))))
    return min(angles)


def _random_triangle(rng):
    """Sorted uniform triples, rejected until they satisfy the strict
    triangle inequality; returns None for instances the near-degeneracy
    filter (min angle < 1 degree) skips."""
    for _ in range(1000):
        t = np.sort(rng.uniform(0.05, 1.0, size=3))
        if t[0] + t[1] <= t[2]:
            continue
        try:
            sides = validate_triangle(t[2], t[1], t[0])
        except GeometryError:
            continue
        if _min_angle(*sides.as_tuple()) < math.radians(1.0):
            return None
        return sides
    return None


def _random_tetra(rng):
    """Distances among four uniform points in the unit cube (always
    realizable); returns None for near-flat instances and for instances
    whose smallest opposite-face-area margin S - 2*S^X is below 1e-3 of the
    total surface (the corresponding excenter recedes toward infinity and no
    fixed relative tolerance is certifiable there)."""
    pts = rng.uniform(0.0, 1.0, size=(4, 3))
    d = lambda i, j: float(np.linalg.norm(pts[i] - pts[j]))
    lengths = (d(0, 1), d(0, 2), d(0, 3), d(1, 2), d(2, 3), d(3, 1))
    polys = edge_polynomials(lengths)
    if polys["t1"] - polys["t2"] - polys["t3"] < 1e-6 * polys["delta2"] ** 3:
        return None
    try:
        edges = validate_tetrahedron(*lengths)
    except GeometryError:
        return None
    fa = tet_centers.face_areas(edges)
    if min(fa.opposite_sum(x) for x in range(4)) < 1e-3 * fa.s:
        return None
    return edges


def _circum_components_det(edges):
    """Circumcenter components via the 4x4 replaced-column determinant route
    (independent of the polynomial weights)."""
    ab2, ac2, ad2, bc2, cd2, db2 = (x * x for x in edges.as_tuple())
    m = np.array([
        [1.0, 1.0, 1.0, 1.0],
        [ab2, -ab2, bc2 - ac2, db2 - ad2],
        [ac2 - ab2, bc2, -bc2, cd2 - db2],
        [ad2 - ac2, db2 - bc2, cd2, -cd2],
    ])
    total = np.linalg.det(m)
    rhs = np.array([1.0, 0.0, 0.0, 0.0])
    out = []
    for col in range(4):
        mc = m.copy()
        mc[:, col] = rhs
        out.append(np.linalg.det(mc) / total)
    return out


# per arity: the transcribed distance forms and the inequality slacks
_SHAPE_FORMS = {
    3: (tri_metrics.transcribed_closed_forms, tri_metrics.inequality_slacks),
    4: (tet_metrics.transcribed_closed_forms4, tet_metrics.tet_inequality_slacks),
}


def _verify_shared(shape, emb, scale, degree, allowance, suites, rtol, atol):
    """Fill the suites both halves share (centers, distances, closed forms,
    inequalities) for a triangle or tetrahedron and its embedding.

    ``scale`` is the shape's length scale (a triangle's perimeter, a
    tetrahedron's longest edge) and ``degree`` the degree of its inequality
    slacks.  ``allowance`` maps an excenter to its condition allowance
    (kinds it omits get 1.0): a check on a pair of centers widens by the
    product of theirs.  Returns the components and oracle points by kind,
    the pair distances and the transcribed forms, for the half's own checks.
    """
    n = len(shape.E)
    half = "tri" if n == 3 else "tet"
    inst = shape.as_tuple()
    tol_len = atol + rtol * scale
    allow = {k: allowance.get(k, 1.0) for k in CENTER_KINDS[n]}
    forms_of, slacks_of = _SHAPE_FORMS[n]

    comps, points = {}, {}
    for k in CENTER_KINDS[n]:
        comps[k] = center_components(k, shape)
        points[k] = oracle.definitional_center(emb, k)
        realized = oracle.point_from_components(emb, comps[k])
        suites[half + ".centers"].check(
            float(np.linalg.norm(realized - points[k])), tol_len * allow[k], inst)

    table = pair_table(comps, shape)
    for rep in table:
        k1, k2 = rep.pair
        want = float(np.linalg.norm(points[k1] - points[k2]))
        suites[half + ".distances"].check(abs(rep.distance - want),
                                          tol_len * (allow[k1] * allow[k2]), inst)

    # compared on squared distances: near coincident centers the root turns
    # one ulp under the radical into ~sqrt(eps), which no relative tolerance
    # on the roots can absorb
    forms = forms_of(shape)
    dist = pair_distances(table)
    for key, form in forms.items():
        k1, k2 = FORM_PAIRS[key]
        d2 = dist[k1, k2] ** 2
        f2 = form ** 2
        suites[half + ".closed_forms"].check(
            abs(d2 - f2),
            (1e-9 * max(d2, f2) + 1e-13 * scale * scale) * (allow[k1] * allow[k2]) ** 2,
            inst)

    # the slacks carry lengths to powers up to ``degree``
    for slack in slacks_of(shape).values():
        suites[half + ".inequalities"].check(
            max(0.0, -slack), 1e-12 * max(1.0, scale ** degree), inst)
    return comps, points, dist, forms


def _verify_triangle_case(rng, suites, rtol, atol):
    sides = _random_triangle(rng)
    if sides is None:
        return False
    inst = sides.as_tuple()
    perim = sides.perimeter
    tol_len = atol + rtol * perim
    tri = oracle.embed_triangle(sides)
    comps, points, _, _ = _verify_shared(sides, tri, perim, 4, {}, suites, rtol, atol)
    for k, c in comps.items():
        suites["tri.centers"].check(
            oracle.frame_equation_residual(tri, c, points[k]), tol_len, inst)

    # identity family: cevian ratio products, kappa sums, reciprocal sums,
    # the three-ratio determinant, the Euler collinearity, Menelaus
    for k in ("G", "I", "E_A"):
        ir = tri_centers.center_ir(k, sides)
        suites["tri.identities"].check(
            abs(ir.lambda_ab * ir.lambda_bc * ir.lambda_ca - 1.0), 1e-9, inst)
    try:
        ratios = vertex_foot_ratios3(comps["I"])
    except GeometryError:
        pass
    else:
        suites["tri.identities"].check(
            abs(ratios["kap_al"] + ratios["kap_bm"] + ratios["kap_cn"] - 2.0),
            1e-9, inst)
        suites["tri.identities"].check(
            abs(sum(1.0 / (1.0 + ratios[k]) for k in ("lam_al", "lam_bm", "lam_cn"))
                - 1.0), 1e-9, inst)
        suites["tri.identities"].check(
            abs(fractional_ratio_determinant(
                ratios["lam_al"], ratios["lam_bm"], ratios["lam_cn"])), 1e-9, inst)
    euler = tri_centers.euler_relation(sides)
    suites["tri.identities"].check(abs(euler["gh_over_gq"] + 2.0), 1e-9, inst)
    suites["tri.identities"].check(euler["collinearity_residual"], tol_len, inst)
    for _ in range(8):
        p0 = rng.uniform(-1.0, 2.0, size=2) * perim
        ang = rng.uniform(0.0, math.pi)
        try:
            prod = oracle.menelaus_product(tri, p0, np.array([math.cos(ang),
                                                              math.sin(ang)]))
        except GeometryError:
            continue
        suites["tri.identities"].check(abs(prod + 1.0), 1e-9, inst)
        break
    return True


def _verify_tetra_case(rng, suites, rtol, atol):
    edges = _random_tetra(rng)
    if edges is None:
        return False
    inst = edges.as_tuple()
    emax = max(inst)
    tol_len = atol + rtol * emax
    tet = oracle.embed_tetra(edges)
    verts = tet.vertices

    # excenter checks get a condition allowance: E_X sits ~S/T^X edge lengths
    # out, so every fixed-precision path loses accuracy proportionally
    fa = tet_centers.face_areas(edges)
    kappa = {f"E_{x}": max(1.0, fa.s / fa.opposite_sum(i)) for i, x in enumerate("ABCD")}
    comps, points, dist, forms = _verify_shared(edges, tet, emax, 6, kappa, suites,
                                                rtol, atol)
    power = PowerIncenter(2.0)
    c2 = center_components(power, edges)
    suites["tet.centers"].check(
        float(np.linalg.norm(oracle.point_from_components(tet, c2)
                             - oracle.definitional_center(tet, power))), tol_len, inst)

    # circumcenter: polynomial weights vs determinant route vs oracle solve
    beta_poly = comps["Q"].as_tuple()
    beta_det = _circum_components_det(edges)
    for x, y in zip(beta_poly, beta_det):
        suites["tet.circumcenter"].check(abs(x - y),
                                         1e-8 * max(abs(x), abs(y), 0.05), inst)
    q_oracle = points["Q"]
    suites["tet.circumcenter"].check(
        float(np.linalg.norm(oracle.point_from_components(tet, comps["Q"])
                             - q_oracle)) / emax, 1e-8, inst)

    # metric formulas vs coordinate geometry
    vol = tet_metrics.volume(edges)
    vol_oracle = abs(float(np.linalg.det(np.column_stack(verts[1:] - verts[0])))) / 6.0
    suites["tet.metrics"].check(abs(vol - vol_oracle) / vol_oracle, 1e-9, inst)
    r = tet_metrics.inradius(edges)
    icenter = points["I"]
    normals, offsets, _ = tet.facets
    dists = [abs(float(np.dot(nrm, icenter) - off))
             for nrm, off in zip(normals, offsets)]
    suites["tet.metrics"].check(abs(r - min(dists)) / r, 1e-9, inst)
    rr = tet_metrics.circumradius(edges)
    rr_oracle = float(np.linalg.norm(q_oracle - verts[0]))
    suites["tet.metrics"].check(abs(rr - rr_oracle) / rr_oracle, 1e-9, inst)
    suites["tet.metrics"].check(tet_metrics.crelle_check(edges), 1e-9, inst)
    aux = edges.circum_aux
    suites["tet.metrics"].check(abs(aux.u - 144.0 * vol * vol) / aux.u, 1e-9, inst)

    # centroid-incenter: transcribed form vs engine vs oracle
    gi_engine = dist["G", "I"]
    gi_oracle = float(np.linalg.norm(points["G"] - points["I"]))
    suites["tet.GI"].check(
        abs(forms["GI"] ** 2 - gi_engine ** 2),
        1e-9 * max(gi_engine, forms["GI"]) ** 2 + 1e-13 * emax * emax, inst)
    suites["tet.GI"].check(abs(gi_engine - gi_oracle), tol_len, inst)

    # projections: random spatial point + the three center closed forms; each
    # closed-form foot is realized from its face components
    on_face = lambda c3, face: sum(
        w * v for w, v in zip(c3.as_tuple(), tet.face_vertices(face)))
    pt = rng.uniform(-0.5, 1.5, size=3)
    sq = [float(np.sum((pt - v) ** 2)) for v in verts]
    feet = [(pt, face, tet_centers.projection_components(edges, sq, face)) for face in FACES]
    for kind in ("Q", "G", "I"):
        cpt = oracle.point_from_components(tet, comps[kind])
        feet += [(cpt, face, tet_centers.projection_of_center(kind, edges, face))
                 for face in FACES]
    for p, face, c3 in feet:
        want = oracle.projection_foot_oracle(tet, p, face)
        suites["tet.projections"].check(
            float(np.linalg.norm(on_face(c3, face) - want)) / emax, 1e-8, inst)
    # incenter's projection sits at distance r from the incenter
    ifoot = on_face(tet_centers.projection_of_center("I", edges, "ABC"), "ABC")
    suites["tet.projections"].check(
        abs(float(np.linalg.norm(points["I"] - ifoot)) - r) / r, 1e-8, inst)

    # concurrency: the power center's four face points reassemble to it
    face_data = {f: face_components_from_tetra(c2, f) for f in FACES}
    rep = tet_centers.concurrency_conditions(face_data)
    suites["tet.concurrency"].check(rep["max_residual"], 1e-9, inst)
    if rep["components"] is None:
        suites["tet.concurrency"].check(1.0, 1e-12, inst)
    else:
        suites["tet.concurrency"].check(
            max(abs(x - y) for x, y in zip(rep["components"].as_tuple(),
                                           c2.as_tuple())), 1e-9, inst)
    return True


# each half of the run: its name, its generator's stream offset, the case
# runner and the suites it fills
_HALVES = (
    ("tri", 0, _verify_triangle_case, ("tri.centers", "tri.distances", "tri.closed_forms",
                                       "tri.identities", "tri.inequalities")),
    ("tet", 1, _verify_tetra_case, ("tet.centers", "tet.circumcenter", "tet.metrics",
                                    "tet.GI", "tet.distances", "tet.closed_forms",
                                    "tet.projections", "tet.inequalities",
                                    "tet.concurrency")),
)


def cmd_verify(args) -> bool:
    """Run the suites ``args`` selects, print one line per suite and the
    verdict, and return whether every suite passed."""
    halves = [h for h in _HALVES if args.scope in (h[0], "all")]
    suites = {n: _Suite(n) for h in halves for n in h[3]}
    ran = {"tri": 0, "tet": 0}
    total_skips = 0

    start = time.monotonic()
    for case in range(args.cases):
        for half, offset, run_case, _ in halves:
            rng = np.random.default_rng([args.seed, 2 * case + offset])
            if run_case(rng, suites, args.rtol, args.atol):
                ran[half] += 1
            else:
                total_skips += 1
    elapsed = time.monotonic() - start

    for s in suites.values():
        print(f"suite {s.name:<20} checks {s.checks:>7}  "
              f"max_residual {s.max_residual:.3e}  status {'PASS' if s.passed else 'FAIL'}")
        if not s.passed and s.fail_instance is not None:
            print(f"  first failing instance lengths: {s.fail_instance}")
    all_pass = all(s.passed for s in suites.values())
    verdict = "PASS" if all_pass else "FAIL"
    print(f"verify: {verdict} seed={args.seed} cases={args.cases} "
          f"scope={args.scope} ran tri={ran['tri']} tet={ran['tet']} "
          f"skipped={total_skips}")
    print(f"elapsed: {elapsed:.1f}s", file=sys.stderr)
    return all_pass

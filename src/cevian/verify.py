"""Randomized certification of every closed form against the coordinate
oracle, run as ``cevian verify --seed N --cases N --scope tri|tet|all``.

Case i draws its triangle from ``np.random.default_rng([seed, 2*i])`` and its
tetrahedron from ``np.random.default_rng([seed, 2*i + 1])``, so a case's
checks do not depend on the cases before it.  Each check lands in one suite,
which keeps its worst residual/threshold ratio; the run passes iff every
suite does.

Each half runs in blocks of ``_BLOCK`` consecutive cases: the block's shapes
are drawn and their closed forms built case by case, the oracle answers for
the whole block in one stacked call per center kind or check site, and the
checks are then made case by case, in the order a case-by-case run makes
them, so every suite sees the same residuals in the same order.

Blocks are independent, so they run in forked worker processes, one per CPU
the process may use, each into fresh suites; the parent folds those into the
run's suites in block order, which records what a case-by-case run records.
With one CPU, no ``fork``, or a profiler or tracer set (so that it sees every
call), the blocks run in-process instead.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import sys
import time
from itertools import combinations, starmap

import numpy as np
# numpy.random is not loaded by ``import numpy``; imported here, the forked
# workers inherit it instead of each importing it again
from numpy.random import default_rng

from .core_model import (
    CENTER_KINDS,
    EDGES,
    FACES,
    FORM_PAIRS,
    GeometryError,
    PowerIncenter,
    center_components,
    circumradius,
    face_components_from_tetra,
    fractional_ratio_determinant,
    pair_distances,
    pair_table,
    validate_tetrahedron,
    validate_triangle,
    vertex_foot_ratios,
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

    def fold(self, later):
        """Take in the checks of ``later``, a suite of the same family fed
        the checks that follow this one's.  The first ratio above 1 a suite
        sees is always a new worst, so the earliest failing instance is the
        first one either suite recorded."""
        self.checks += later.checks
        self.max_residual = max(self.max_residual, later.max_residual)
        self.worst_ratio = max(self.worst_ratio, later.worst_ratio)
        if self.fail_instance is None:
            self.fail_instance = later.fail_instance


def _min_angle(sides):
    a, b, c = sides.as_tuple()
    angles = []
    for dx, y, z in zip(sides._dots, (b, c, a), (c, a, b)):  # D_X = y^2 + z^2 - x^2
        angles.append(math.acos(max(-1.0, min(1.0, dx / (2.0 * y * z)))))
    return min(angles)


def _random_triangle(rng):
    """Sorted uniform triples, rejected until they satisfy the strict
    triangle inequality; returns None for instances the near-degeneracy
    filter (min angle < 1 degree) skips."""
    for _ in range(1000):
        t = np.sort(rng.uniform(0.05, 1.0, size=3))
        try:
            sides = validate_triangle(t[2], t[1], t[0])
        except GeometryError:
            continue
        if _min_angle(sides) < math.radians(1.0):
            return None
        return sides
    return None


# the tetrahedron's edges in EDGES[4] order: their first ends, then their second
_EDGE_ENDS = np.array(EDGES[4]).T


def _random_tetra(rng):
    """Distances among four uniform points in the unit cube (always
    realizable); returns None for near-flat instances and for instances
    whose smallest opposite-face-area margin S - 2*S^X is below 1e-3 of the
    total surface (the corresponding excenter recedes toward infinity and no
    fixed relative tolerance is certifiable there)."""
    pts = rng.uniform(0.0, 1.0, size=(4, 3))
    try:
        edges = validate_tetrahedron(*oracle.distance(*pts[_EDGE_ENDS]).tolist())
    except GeometryError:
        return None
    if edges.volume_term < 1e-6 * edges._delta2 ** 3:
        return None
    fa = edges.face_areas
    if min(fa.opposite_sum(x) for x in range(4)) < 1e-3 * fa.s:
        return None
    return edges


def _circum_systems(edges) -> np.ndarray:
    """The 4x4 replaced-column determinant route to the circumcenter
    components: the system matrix, then the matrix with column c replaced by
    the right-hand side, for c = 0..3."""
    ab2, ac2, ad2, bc2, db2, cd2 = edges._pair_e
    m = np.array([
        [1.0, 1.0, 1.0, 1.0],
        [ab2, -ab2, bc2 - ac2, db2 - ad2],
        [ac2 - ab2, bc2, -bc2, cd2 - db2],
        [ad2 - ac2, db2 - bc2, cd2, -cd2],
    ])
    systems = np.array([m] * 5)
    for col in range(4):
        systems[col + 1, :, col] = (1.0, 0.0, 0.0, 0.0)
    return systems


def _det_ratios(dets) -> list:
    """Cramer's rule: each replaced-column determinant over the system's."""
    return [d / dets[0] for d in dets[1:]]


def _circum_components_det(edges):
    """Circumcenter components via the 4x4 replaced-column determinant route
    (independent of the polynomial weights)."""
    return _det_ratios(np.linalg.det(_circum_systems(edges)).tolist())


# cases per stacked oracle call: enough to amortize numpy's per-call cost,
# few enough that a block's arrays stay small
_BLOCK = 128

# per arity: the transcribed distance forms and the inequality slacks
_SHAPE_FORMS = {
    3: (tri_metrics.transcribed_closed_forms, tri_metrics.inequality_slacks),
    4: (tet_metrics.transcribed_closed_forms4, tet_metrics.tet_inequality_slacks),
}


class _BlockCenters:
    """Both sides of the shared center checks for a block of shapes of one
    arity and their stacked embedding.

    ``comps`` holds each case's closed-form components by kind.  By kind,
    over the block: the ``weights`` (N, n), the definitional ``points`` and
    the ``realized`` points (N, d) as arrays, and the ``errors`` between the
    two as a list; by pair of kinds, the definitional centers' ``distances``
    as a list.
    """

    def __init__(self, shapes, emb):
        kinds = CENTER_KINDS[emb.vertices.shape[-2]]
        self.comps = [{k: center_components(k, s) for k in kinds} for s in shapes]
        self.weights = {k: np.array([c[k].as_tuple() for c in self.comps]) for k in kinds}
        self.points = {k: oracle.definitional_center(emb, k) for k in kinds}
        self.realized = {k: oracle.point_from_components(emb, self.weights[k])
                         for k in kinds}
        self.errors = {k: oracle.distance(self.realized[k], self.points[k]).tolist()
                       for k in kinds}
        self.distances = {(k1, k2): oracle.distance(self.points[k1], self.points[k2]).tolist()
                          for k1, k2 in combinations(kinds, 2)}


def _stacked(embs) -> oracle.EmbeddedSimplex:
    """One embedding holding the block's simplices."""
    return oracle.EmbeddedSimplex(np.stack([e.vertices for e in embs]))


def _verify_shared(shape, centers, case, scale, degree, allowance, suites, rtol, atol):
    """Fill the suites both halves share (centers, distances, closed forms,
    inequalities) for case ``case`` of a block: its triangle or tetrahedron
    and the block's ``_BlockCenters``.

    ``scale`` is the shape's length scale (a triangle's perimeter, a
    tetrahedron's longest edge) and ``degree`` the degree of its inequality
    slacks.  ``allowance`` maps an excenter to its condition allowance
    (kinds it omits get 1.0): a check on a pair of centers widens by the
    product of theirs.  Returns the pair distances and the transcribed
    forms, for the half's own checks.
    """
    n = len(shape.E)
    half = "tri" if n == 3 else "tet"
    inst = shape.as_tuple()
    tol_len = atol + rtol * scale
    allow = {k: allowance.get(k, 1.0) for k in CENTER_KINDS[n]}
    forms_of, slacks_of = _SHAPE_FORMS[n]

    for k in CENTER_KINDS[n]:
        suites[half + ".centers"].check(centers.errors[k][case], tol_len * allow[k], inst)

    table = pair_table(centers.comps[case], shape)
    for rep in table:
        k1, k2 = rep.pair
        want = centers.distances[k1, k2][case]
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
    return dist, forms


def _menelaus_products(shapes, rngs, emb) -> list:
    """Each case's Menelaus product, or None: a case draws transversal lines
    from its own generator until one is admissible, at most 8.  Round r
    draws the next line of every case still pending, in case order, and one
    stacked oracle call answers them all; as no other draw follows a case's
    lines, each case draws exactly the lines it would draw alone."""
    products = [None] * len(shapes)
    pending = list(range(len(shapes)))
    for _ in range(8):
        if not pending:
            break
        points, dirs = [], []
        for case in pending:
            rng = rngs[case]
            points.append(rng.uniform(-1.0, 2.0, size=2) * shapes[case].perimeter)
            ang = rng.uniform(0.0, math.pi)
            dirs.append((math.cos(ang), math.sin(ang)))
        prods, faults = oracle._transversals(emb.vertices[pending], np.array(points),
                                             np.array(dirs))
        faults = faults.tolist()
        for case, prod, fault in zip(pending, prods.tolist(), faults):
            if not fault:
                products[case] = prod
        pending = [case for case, fault in zip(pending, faults) if fault]
    return products


def _verify_triangle_block(shapes, rngs, suites, rtol, atol):
    kinds = CENTER_KINDS[3]
    emb = _stacked([oracle.embed_triangle(s) for s in shapes])
    centers = _BlockCenters(shapes, emb)
    frame = {k: oracle.frame_equation_residual(emb, centers.weights[k],
                                               centers.points[k]).tolist()
             for k in kinds}
    products = _menelaus_products(shapes, rngs, emb)

    for case, sides in enumerate(shapes):
        inst = sides.as_tuple()
        perim = sides.perimeter
        tol_len = atol + rtol * perim
        _verify_shared(sides, centers, case, perim, 4, {}, suites, rtol, atol)
        for k in kinds:
            suites["tri.centers"].check(frame[k][case], tol_len, inst)

        # identity family: cevian ratio products, kappa sums, reciprocal sums,
        # the three-ratio determinant, the Euler collinearity, Menelaus
        for k in ("G", "I", "E_A"):
            ir = tri_centers.center_ir(k, sides)
            suites["tri.identities"].check(
                abs(ir.lambda_ab * ir.lambda_bc * ir.lambda_ca - 1.0), 1e-9, inst)
        try:
            ratios = vertex_foot_ratios(centers.comps[case]["I"])
        except GeometryError:
            pass
        else:
            suites["tri.identities"].check(
                abs(ratios["kap_a"] + ratios["kap_b"] + ratios["kap_c"] - 2.0),
                1e-9, inst)
            suites["tri.identities"].check(
                abs(1.0 / (1.0 + ratios["lam_a"]) + 1.0 / (1.0 + ratios["lam_b"])
                    + 1.0 / (1.0 + ratios["lam_c"]) - 1.0), 1e-9, inst)
            suites["tri.identities"].check(
                abs(fractional_ratio_determinant(
                    ratios["lam_a"], ratios["lam_b"], ratios["lam_c"])), 1e-9, inst)
        euler = tri_centers.euler_relation(sides)
        suites["tri.identities"].check(abs(euler["gh_over_gq"] + 2.0), 1e-9, inst)
        suites["tri.identities"].check(euler["collinearity_residual"], tol_len, inst)
        # the product of the case's first admissible transversal, if any
        if products[case] is not None:
            suites["tri.identities"].check(abs(products[case] + 1.0), 1e-9, inst)


# the points the projection checks drop onto every face: a random point in
# space, then the realized Q, G and I
_PROJECTED = tet_centers._PROJECTED


def _projection_errors(shapes, emb, centers, pts):
    """For a block of tetrahedra: per face, the distances between each
    closed-form foot, realized from its face components, and the oracle's
    projection, one list per projected point (``pts``, then the realized
    ``_PROJECTED`` centers); and each case's distance from its incenter to
    its closed-form foot on ABC."""
    sq = ((pts[:, None, :] - emb.vertices) ** 2).sum(axis=-1).tolist()
    sources = np.stack([pts] + [centers.realized[k] for k in _PROJECTED])
    face_comps = {face: np.empty(sources.shape) for face in FACES}
    for case, edges in enumerate(shapes):
        for face, fc in face_comps.items():
            fc[0, case] = tet_centers.projection_components(edges, sq[case], face).as_tuple()
            for j, kind in enumerate(_PROJECTED, 1):
                fc[j, case] = tet_centers.projection_of_center(kind, edges, face).as_tuple()
    feet = {face: oracle.point_on_face(emb, face, fc) for face, fc in face_comps.items()}
    errors = {face: oracle.distance(feet[face],
                                    oracle.projection_foot_oracle(emb, sources, face)).tolist()
              for face in FACES}
    ifoot = feet["ABC"][1 + _PROJECTED.index("I")]
    return errors, oracle.distance(centers.points["I"], ifoot).tolist()


def _verify_tetra_block(shapes, rngs, suites, rtol, atol):
    emb = _stacked([oracle.embed_tetra(e) for e in shapes])
    verts = emb.vertices
    # each case's draw after its shape: the point the projections drop
    pts = np.array([rng.uniform(-0.5, 1.5, size=3) for rng in rngs])
    centers = _BlockCenters(shapes, emb)
    power = PowerIncenter(2.0)
    c2 = [center_components(power, e) for e in shapes]
    power_err = oracle.distance(
        oracle.point_from_components(emb, [c.as_tuple() for c in c2]),
        oracle.definitional_center(emb, power)).tolist()
    dets = np.linalg.det(np.stack([_circum_systems(e) for e in shapes])).tolist()
    signed_vol6 = np.linalg.det(np.swapaxes(verts[:, 1:] - verts[:, :1], -1, -2)).tolist()
    incenter_dists = oracle.facet_distances(emb, centers.points["I"]).tolist()
    rr_oracle = oracle.distance(centers.points["Q"], verts[:, 0]).tolist()
    foot_err, ifoot_dist = _projection_errors(shapes, emb, centers, pts)

    for case, edges in enumerate(shapes):
        inst = edges.as_tuple()
        emax = max(inst)
        tol_len = atol + rtol * emax

        # excenter checks get a condition allowance: E_X sits ~S/T^X edge
        # lengths out, so every fixed-precision path loses accuracy
        # proportionally
        fa = edges.face_areas
        kappa = {f"E_{x}": max(1.0, fa.s / fa.opposite_sum(i)) for i, x in enumerate("ABCD")}
        dist, forms = _verify_shared(edges, centers, case, emax, 6, kappa, suites, rtol, atol)
        suites["tet.centers"].check(power_err[case], tol_len, inst)

        # circumcenter: polynomial weights vs determinant route vs oracle solve
        beta_poly = centers.comps[case]["Q"].as_tuple()
        beta_det = _det_ratios(dets[case])
        for x, y in zip(beta_poly, beta_det):
            suites["tet.circumcenter"].check(abs(x - y),
                                             1e-8 * max(abs(x), abs(y), 0.05), inst)
        suites["tet.circumcenter"].check(centers.errors["Q"][case] / emax, 1e-8, inst)

        # metric formulas vs coordinate geometry
        vol = tet_metrics.volume(edges)
        vol_oracle = abs(signed_vol6[case]) / 6.0
        suites["tet.metrics"].check(abs(vol - vol_oracle) / vol_oracle, 1e-9, inst)
        r = tet_metrics.inradius(edges)
        suites["tet.metrics"].check(
            abs(r - min(abs(d) for d in incenter_dists[case])) / r, 1e-9, inst)
        rr = circumradius(edges)
        suites["tet.metrics"].check(abs(rr - rr_oracle[case]) / rr_oracle[case], 1e-9, inst)
        suites["tet.metrics"].check(tet_metrics.crelle_check(edges), 1e-9, inst)
        aux = edges.circum_aux
        suites["tet.metrics"].check(abs(aux.u - 144.0 * vol * vol) / aux.u, 1e-9, inst)

        # centroid-incenter: transcribed form vs engine vs oracle
        gi_engine = dist["G", "I"]
        suites["tet.GI"].check(
            abs(forms["GI"] ** 2 - gi_engine ** 2),
            1e-9 * max(gi_engine, forms["GI"]) ** 2 + 1e-13 * emax * emax, inst)
        suites["tet.GI"].check(abs(gi_engine - centers.distances["G", "I"][case]),
                               tol_len, inst)

        # projections: the random point and the three centers onto every
        # face; the incenter's projection sits at distance r from it
        for j in range(1 + len(_PROJECTED)):
            for face in FACES:
                suites["tet.projections"].check(foot_err[face][j][case] / emax, 1e-8, inst)
        suites["tet.projections"].check(abs(ifoot_dist[case] - r) / r, 1e-8, inst)

        # concurrency: the power center's four face points reassemble to it
        face_data = {f: face_components_from_tetra(c2[case], f) for f in FACES}
        rep = tet_centers.concurrency_conditions(face_data)
        suites["tet.concurrency"].check(rep["max_residual"], 1e-9, inst)
        if rep["components"] is None:
            suites["tet.concurrency"].check(1.0, 1e-12, inst)
        else:
            suites["tet.concurrency"].check(
                max(abs(x - y) for x, y in zip(rep["components"].as_tuple(),
                                               c2[case].as_tuple())), 1e-9, inst)


# each half of the run by name: its generator's stream offset, its shape
# generator, the block runner and the suites it fills
_HALVES = {
    "tri": (0, _random_triangle, _verify_triangle_block,
            ("tri.centers", "tri.distances", "tri.closed_forms", "tri.identities",
             "tri.inequalities")),
    "tet": (1, _random_tetra, _verify_tetra_block,
            ("tet.centers", "tet.circumcenter", "tet.metrics", "tet.GI", "tet.distances",
             "tet.closed_forms", "tet.projections", "tet.inequalities", "tet.concurrency")),
}


def _run_block(half, seed, first, stop, rtol, atol):
    """Draw and check cases ``first`` to ``stop`` of ``half`` into fresh
    suites: (suites by name, cases ran, cases skipped)."""
    offset, draw, run_block, names = _HALVES[half]
    suites = {n: _Suite(n) for n in names}
    shapes, rngs = [], []
    for case in range(first, stop):
        rng = default_rng([seed, 2 * case + offset])
        shape = draw(rng)
        if shape is not None:
            shapes.append(shape)
            rngs.append(rng)
    if shapes:
        run_block(shapes, rngs, suites, rtol, atol)
    return suites, len(shapes), stop - first - len(shapes)


def _processes(blocks: int) -> int:
    """Worker processes for ``blocks`` blocks: one per CPU this process may
    run on, at most one per block; 1, meaning in-process, when the platform
    cannot fork or a profiler or tracer is set."""
    if (sys.getprofile() is not None or sys.gettrace() is not None
            or "fork" not in multiprocessing.get_all_start_methods()
            or not hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), blocks)


def _map_blocks(blocks) -> list:
    """``_run_block`` over ``blocks``, in their order.  Forked workers see
    the parent's modules as they are, patched constants and warning filters
    included, and an exception a block raises is raised here."""
    processes = _processes(len(blocks))
    if processes <= 1:
        return list(starmap(_run_block, blocks))
    with multiprocessing.get_context("fork").Pool(processes) as pool:
        return pool.starmap(_run_block, blocks, chunksize=1)


def cmd_verify(args) -> bool:
    """Run the suites ``args`` selects, print one line per suite and the
    verdict, and return whether every suite passed."""
    halves = [h for h in _HALVES if args.scope in (h, "all")]
    suites = {n: _Suite(n) for h in halves for n in _HALVES[h][3]}
    ran = {"tri": 0, "tet": 0}
    total_skips = 0

    start = time.monotonic()
    # the halves fill disjoint suites, so running one after the other checks
    # each suite in the same order as interleaving them case by case
    blocks = [(half, args.seed, first, min(first + _BLOCK, args.cases), args.rtol, args.atol)
              for half in halves for first in range(0, args.cases, _BLOCK)]
    for (half, *_), (block_suites, block_ran, skipped) in zip(blocks, _map_blocks(blocks)):
        for name, block_suite in block_suites.items():
            suites[name].fold(block_suite)
        ran[half] += block_ran
        total_skips += skipped
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

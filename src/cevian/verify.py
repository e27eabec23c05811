"""Randomized certification of every closed form against the coordinate
oracle, run as ``cevian verify --seed N --cases N --scope tri|tet|all``.

Case i draws its triangle from ``np.random.default_rng([seed, 2*i])`` and its
tetrahedron from ``np.random.default_rng([seed, 2*i + 1])``, so a case's
checks do not depend on the cases before it.  Each check lands in one suite,
which keeps its check count, its largest residual and the instance of its
first failing check, if any; the run passes iff no suite has one.  A check
fails unless its threshold is positive and its residual, NaN included, does
not exceed it.

Each half runs in blocks of ``_BLOCK`` consecutive cases, and what does not
depend on a single case is done once per block.  Each case's points come
from its own generator, but the block's tetrahedron edges are measured in
one stacked call; the block is embedded as one stack of simplices, and the
tetrahedra's determinant circumcenter systems are built as one stack.  The
closed forms are built case by case, and the oracle answers for the whole
block in one stacked call per center kind or check site.  Every suite takes
a block's checks in one call, as rows (case, residual, threshold); as only a
suite's first failing case depends on the order of its checks, every suite
records what a case-by-case run records.

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
    _PAIRS,
    PowerIncenter,
    _pierce,
    center_components,
    circumradius,
    fractional_ratio_determinant,
    pair_table,
    validate_tetrahedron,
    validate_triangle,
    vertex_foot_ratios,
)
from . import coord_oracle as oracle
from . import tri_centers, tri_metrics, tet_centers, tet_metrics


def _passes(residual, threshold):
    """The pass rule of a check, elementwise on arrays: a positive threshold
    that the residual does not exceed.  A NaN residual or threshold fails."""
    return (threshold > 0) & (residual <= threshold)


def _larger(record, residual):
    """The larger of a suite's recorded residual and another; a NaN on
    either side is kept (``max(x, nan)`` returns x)."""
    return residual if residual > record or residual != residual else record


def _rounded(instance) -> tuple:
    return tuple(round(v, 17) for v in instance)


def _rows(residuals, thresholds):
    """The rows (case, residual, threshold) of a case-major residual array,
    whose first axis runs over the block's cases, and of thresholds that
    broadcast against it."""
    residuals = np.asarray(residuals, dtype=float)
    cases = np.arange(len(residuals)).reshape((-1,) + (1,) * (residuals.ndim - 1))
    return np.stack(np.broadcast_arrays(cases, residuals, thresholds), axis=-1).reshape(-1, 3)


class _Suite:
    """The checks of one test family: their count, the largest residual,
    and the instance of the first check that failed, if any."""

    def __init__(self, name):
        self.name = name
        self.checks = 0
        self.max_residual = 0.0
        self.fail_instance = None

    def check(self, instances, *groups):
        """Make a block of cases' checks.  Each group holds rows (case,
        residual, threshold), in any order, whose case indexes
        ``instances``.  Records the row count, the largest residual and, if
        no check has failed yet, the instance of the smallest failing case:
        what checking one case after the other records."""
        first = len(instances)
        for rows in groups:
            cases, residuals, thresholds = np.asarray(rows, dtype=float).reshape(-1, 3).T
            self.checks += residuals.size
            if residuals.size:
                self.max_residual = _larger(self.max_residual, float(residuals.max()))
                first = cases[~_passes(residuals, thresholds)].min(initial=first)
        if self.fail_instance is None and first < len(instances):
            self.fail_instance = _rounded(instances[int(first)])

    @property
    def passed(self):
        return self.fail_instance is None

    def fold(self, later):
        """Take in the checks of ``later``, a suite of the same family fed
        the checks that follow this one's: the earliest failing instance is
        the first one either suite recorded."""
        self.checks += later.checks
        self.max_residual = _larger(self.max_residual, later.max_residual)
        if self.fail_instance is None:
            self.fail_instance = later.fail_instance


def _min_angle(sides):
    a, b, c = sides._u  # the unit shape's, as _dots are
    angles = []
    for dx, y, z in zip(sides._dots, (b, c, a), (c, a, b)):  # D_X = y^2 + z^2 - x^2
        angles.append(math.acos(max(-1.0, min(1.0, dx / (2.0 * y * z)))))
    return min(angles)


def _random_triangle(rng):
    """Sorted uniform triples, rejected until they satisfy the strict
    triangle inequality; returns None for instances the near-degeneracy
    filter (min angle < 1 degree) skips."""
    for _ in range(1000):
        a, b, c = sorted(rng.uniform(0.05, 1.0, size=3).tolist())
        try:
            sides = validate_triangle(c, b, a)
        except GeometryError:
            continue
        if _min_angle(sides) < math.radians(1.0):
            return None
        return sides
    return None


def _random_triangles(rngs) -> list:
    """Each generator's triangle, or None."""
    return [_random_triangle(rng) for rng in rngs]


# the tetrahedron's edges in EDGES[4] order: their first ends, then their second
_EDGE_ENDS = np.array(EDGES[4]).T


def _random_tetras(rngs) -> list:
    """Each generator's tetrahedron, or None: the distances among four
    uniform points in the unit cube, drawn from that generator (always
    realizable), and measured for all the generators at once.  None stands
    for a near-flat instance and for an instance whose smallest
    opposite-face-area margin S - 2*S^X is below 1e-3 of the total surface
    (the corresponding excenter recedes toward infinity and no fixed
    relative tolerance is certifiable there)."""
    pts = np.array([rng.uniform(0.0, 1.0, size=(4, 3)) for rng in rngs])
    return [_filtered_tetra(row) for row in
            oracle.distance(pts[:, _EDGE_ENDS[0]], pts[:, _EDGE_ENDS[1]]).tolist()]


def _filtered_tetra(lengths):
    """The tetrahedron with these edges, or None where _random_tetras skips it."""
    try:
        edges = validate_tetrahedron(*lengths)
    except GeometryError:
        return None
    if edges._volume_term < 1e-6 * edges._delta2 ** 3:
        return None
    fa = edges.face_areas
    if min(fa.opposite_sum(x) for x in range(4)) < 1e-3 * fa.s:
        return None
    return edges


def _circum_components_det(pair_e) -> list:
    """Circumcenter components via the 4x4 replaced-column determinant route
    (independent of the polynomial weights), for the rows of squared edges
    ``pair_e`` (N, 6), each a tetrahedron's in _PAIRS order: Cramer's rule, each
    determinant of the system with column c replaced by the right-hand side
    over the system's own."""
    ab2, ac2, ad2, bc2, db2, cd2 = np.asarray(pair_e, dtype=float).T
    one = np.ones_like(ab2)
    m = np.array([[one, one, one, one],
                  [ab2, -ab2, bc2 - ac2, db2 - ad2],
                  [ac2 - ab2, bc2, -bc2, cd2 - db2],
                  [ad2 - ac2, db2 - bc2, cd2, -cd2]])
    systems = np.repeat(np.moveaxis(m, -1, 0)[:, None], 5, axis=1)
    for col in range(4):
        systems[:, col + 1, :, col] = (1.0, 0.0, 0.0, 0.0)
    return [[d / dets[0] for d in dets[1:]] for dets in np.linalg.det(systems).tolist()]


# cases per stacked oracle call: enough to amortize numpy's per-call cost,
# few enough that a block's arrays stay small
_BLOCK = 128

# per arity: the transcribed distance forms and the inequality slacks as
# computed, before the rounding window a report reads them through
_SHAPE_FORMS = {
    3: (tri_metrics.transcribed_closed_forms, tri_metrics._inequality_slacks),
    4: (tet_metrics.transcribed_closed_forms4, tet_metrics._tet_inequality_slacks),
}

# per arity, over the pairs of center kinds in pair-table order: the
# indices of each pair's first and second kind, and the column of each
# pair, named in either order
_PAIR_INDICES = {n: np.array(list(combinations(range(len(kinds)), 2))).T
                 for n, kinds in CENTER_KINDS.items()}
_PAIR_COLUMN = {n: {p: j for j, pair in enumerate(combinations(kinds, 2))
                    for p in (pair, pair[::-1])}
                for n, kinds in CENTER_KINDS.items()}


class _BlockCenters:
    """Both sides of the shared center checks for a block of shapes of one
    arity and their stacked embedding.

    ``comps`` holds each case's closed-form components by kind.  By kind,
    over the block: the ``weights`` (N, n), the definitional ``points`` and
    the ``realized`` points (N, d), and the ``errors`` (N,) between the two;
    ``distances`` (N, pairs) holds the definitional centers' distances, one
    column per pair of kinds in pair-table order.
    """

    def __init__(self, shapes, emb):
        kinds = CENTER_KINDS[emb.vertices.shape[-2]]
        self.comps = [{k: center_components(k, s) for k in kinds} for s in shapes]
        self.weights = {k: np.array([c[k].weights for c in self.comps]) for k in kinds}
        self.points = {k: oracle.definitional_center(emb, k) for k in kinds}
        self.realized = {k: oracle.point_from_components(emb, self.weights[k])
                         for k in kinds}
        self.errors = {k: oracle.distance(self.realized[k], self.points[k]) for k in kinds}
        self.distances = np.stack([oracle.distance(self.points[k1], self.points[k2])
                                   for k1, k2 in combinations(kinds, 2)], axis=-1)


def _verify_shared(shapes, insts, centers, scales, degree, allow, tol_len, suites):
    """Fill the suites both halves share (distances, closed forms,
    inequalities) for a block of triangles or tetrahedra, their instances
    and their ``_BlockCenters``, and return the block's rows for the centers
    suite, which the half extends with its own center checks.

    ``scales`` holds each shape's length scale (a triangle's perimeter, a
    tetrahedron's longest edge), ``tol_len`` (N,) the length tolerance at
    that scale, and ``degree`` is the degree of the inequality slacks.
    ``allow`` (N, kinds) holds each case's condition allowance per center
    kind, in CENTER_KINDS order (1.0 but for a tetrahedron's excenters): a
    check on a pair of centers widens by the product of theirs.  Also
    returns each case's engine distances, in pair-table order, and its
    transcribed forms, for the half's own checks.
    """
    n = len(shapes[0].E)
    half = "tri" if n == 3 else "tet"
    kinds = CENTER_KINDS[n]
    tol = tol_len[:, None]
    forms_of, slacks_of = _SHAPE_FORMS[n]

    engine = [[rep.distance for rep in pair_table(comps, shape)]
              for comps, shape in zip(centers.comps, shapes)]
    first, second = _PAIR_INDICES[n]
    suites[half + ".distances"].check(
        insts, _rows(np.abs(np.array(engine) - centers.distances),
                     tol * (allow[:, first] * allow[:, second])))

    # compared on squared distances: near coincident centers the root turns
    # one ulp under the radical into ~sqrt(eps), which no relative tolerance
    # on the roots can absorb
    column, index = _PAIR_COLUMN[n], {k: i for i, k in enumerate(kinds)}
    forms = [forms_of(shape) for shape in shapes]
    closed_forms, inequalities = [], []
    for case, (shape, scale, allowed, dist, case_forms) in enumerate(
            zip(shapes, scales, allow.tolist(), engine, forms)):
        for key, form in case_forms.items():
            k1, k2 = FORM_PAIRS[key]
            d2 = dist[column[k1, k2]] ** 2
            f2 = form ** 2
            closed_forms.append((case, abs(d2 - f2),
                                 (1e-9 * max(d2, f2) + 1e-13 * scale * scale)
                                 * (allowed[index[k1]] * allowed[index[k2]]) ** 2))

        # the slacks carry lengths to powers up to ``degree``
        for slack, _ in slacks_of(shape).values():
            inequalities.append((case, max(0.0, -slack), 1e-12 * max(1.0, scale ** degree)))
    suites[half + ".closed_forms"].check(insts, closed_forms)
    suites[half + ".inequalities"].check(insts, inequalities)
    errors = np.stack([centers.errors[k] for k in kinds], axis=-1)
    return _rows(errors, tol * allow), engine, forms


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
    emb = oracle.EmbeddedSimplex([oracle._triangle_vertices(s) for s in shapes])
    centers = _BlockCenters(shapes, emb)
    frame = np.stack([oracle.frame_equation_residual(emb, centers.weights[k], centers.points[k])
                      for k in kinds], axis=-1)
    products = _menelaus_products(shapes, rngs, emb)
    insts = [s.as_tuple() for s in shapes]
    perims = [s.perimeter for s in shapes]
    tol_len = atol + rtol * np.array(perims)
    center_checks, _, _ = _verify_shared(shapes, insts, centers, perims, 4,
                                         np.ones((len(shapes), len(kinds))), tol_len, suites)
    suites["tri.centers"].check(insts, center_checks, _rows(frame, tol_len[:, None]))

    identities = []
    for case, (sides, tol) in enumerate(zip(shapes, tol_len.tolist())):
        # identity family: cevian ratio products, kappa sums, reciprocal sums,
        # the three-ratio determinant, the Euler collinearity, Menelaus
        for k in ("G", "I", "E_A"):
            ir = tri_centers.center_ir(k, sides)
            identities.append((case, abs(ir.lambda_ab * ir.lambda_bc * ir.lambda_ca - 1.0), 1e-9))
        try:
            ratios = vertex_foot_ratios(centers.comps[case]["I"])
        except GeometryError:
            pass
        else:
            identities += [
                (case, abs(ratios["kap_a"] + ratios["kap_b"] + ratios["kap_c"] - 2.0), 1e-9),
                (case, abs(1.0 / (1.0 + ratios["lam_a"]) + 1.0 / (1.0 + ratios["lam_b"])
                           + 1.0 / (1.0 + ratios["lam_c"]) - 1.0), 1e-9),
                (case, abs(fractional_ratio_determinant(
                    ratios["lam_a"], ratios["lam_b"], ratios["lam_c"])), 1e-9)]
        euler = tri_centers.euler_relation(sides)
        identities += [(case, abs(euler["gh_over_gq"] + 2.0), 1e-9),
                       (case, euler["collinearity_residual"], tol)]
        # the product of the case's first admissible transversal, if any
        if products[case] is not None:
            identities.append((case, abs(products[case] + 1.0), 1e-9))
    suites["tri.identities"].check(insts, identities)


# the points the projection checks drop onto every face: a random point in
# space, then the realized Q, G and I
_PROJECTED = tet_centers._PROJECTED


def _projection_errors(shapes, emb, centers, pts):
    """For a block of tetrahedra: each case's distances (N, 16) between
    each closed-form foot, realized from its face components, and the
    oracle's projection, for every projected point (``pts``, then the
    realized ``_PROJECTED`` centers) on every face; and each case's
    distance from its incenter to its closed-form foot on ABC."""
    sq = ((pts[:, None, :] - emb.vertices) ** 2).sum(axis=-1).tolist()
    sources = np.stack([pts] + [centers.realized[k] for k in _PROJECTED])
    # (face, projected point, case, slot)
    face_comps = np.array([[[tet_centers.projection_components(edges, sq[case], face).weights
                             for case, edges in enumerate(shapes)]]
                           + [[tet_centers._center_foot(kind, edges, face).weights
                               for edges in shapes] for kind in _PROJECTED]
                           for face in FACES])
    feet = {face: oracle.point_on_face(emb, face, fc) for face, fc in zip(FACES, face_comps)}
    errors = np.stack([oracle.distance(feet[face],
                                       oracle.projection_foot_oracle(emb, sources, face))
                       for face in FACES])
    ifoot = feet["ABC"][1 + _PROJECTED.index("I")]
    return (np.moveaxis(errors, -1, 0).reshape(len(shapes), -1),
            oracle.distance(centers.points["I"], ifoot))


def _verify_tetra_block(shapes, rngs, suites, rtol, atol):
    emb = oracle.EmbeddedSimplex([oracle._tetra_vertices(e) for e in shapes])
    verts = emb.vertices
    # each case's draw after its shape: the point the projections drop
    pts = np.array([rng.uniform(-0.5, 1.5, size=3) for rng in rngs])
    centers = _BlockCenters(shapes, emb)
    power = PowerIncenter(2.0)
    c2 = [center_components(power, e) for e in shapes]
    power_err = oracle.distance(
        oracle.point_from_components(emb, [c.weights for c in c2]),
        oracle.definitional_center(emb, power))
    beta_det = _circum_components_det([[e.E[i][j] for i, j in _PAIRS[4]] for e in shapes])
    signed_vol6 = np.linalg.det(np.swapaxes(verts[:, 1:] - verts[:, :1], -1, -2)).tolist()
    incenter_dists = oracle.facet_distances(emb, centers.points["I"]).tolist()
    rr_oracle = oracle.distance(centers.points["Q"], verts[:, 0]).tolist()
    foot_err, ifoot_dist = _projection_errors(shapes, emb, centers, pts)

    insts = [e.as_tuple() for e in shapes]
    emaxes = [max(inst) for inst in insts]
    radii = [tet_metrics.inradius(e) for e in shapes]
    longest, inradii = np.array(emaxes), np.array(radii)
    tol_len = atol + rtol * longest
    # excenter checks get a condition allowance: E_X sits ~S/T^X edge
    # lengths out, T^X = S - 2*S^X, so every fixed-precision path loses
    # accuracy proportionally
    areas = np.array([e.face_areas.by_vertex for e in shapes])
    total = np.array([e.face_areas.s for e in shapes])[:, None]
    allow = np.column_stack([np.ones((len(shapes), 3)),
                             np.maximum(1.0, total / (total - 2.0 * areas))])
    center_checks, engine, forms = _verify_shared(shapes, insts, centers, emaxes, 6, allow,
                                                  tol_len, suites)
    suites["tet.centers"].check(insts, center_checks, _rows(power_err, tol_len))

    # projections: the random point and the three centers onto every
    # face; the incenter's projection sits at distance r from it
    suites["tet.projections"].check(
        insts, _rows(foot_err / longest[:, None], 1e-8),
        _rows(np.abs(ifoot_dist - inradii) / inradii, 1e-8))

    q_errors = centers.errors["Q"].tolist()
    gi = _PAIR_COLUMN[4]["G", "I"]
    gi_oracle = centers.distances[:, gi].tolist()
    circumcenter, metrics, gi_rows, concurrency = [], [], [], []
    for case, (edges, emax, r, tol) in enumerate(zip(shapes, emaxes, radii, tol_len.tolist())):
        # circumcenter: polynomial weights vs determinant route vs oracle solve
        beta_poly = centers.comps[case]["Q"].weights
        for x, y in zip(beta_poly, beta_det[case]):
            circumcenter.append((case, abs(x - y), 1e-8 * max(abs(x), abs(y), 0.05)))
        circumcenter.append((case, q_errors[case] / emax, 1e-8))

        # metric formulas vs coordinate geometry
        vol = tet_metrics.volume(edges)
        vol_oracle = abs(signed_vol6[case]) / 6.0
        rr = circumradius(edges)
        aux = edges.circum_aux
        metrics += [(case, abs(vol - vol_oracle) / vol_oracle, 1e-9),
                    (case, abs(r - min(abs(d) for d in incenter_dists[case])) / r, 1e-9),
                    (case, abs(rr - rr_oracle[case]) / rr_oracle[case], 1e-9),
                    (case, tet_metrics.crelle_check(edges), 1e-9),
                    (case, abs(aux.u - 144.0 * vol * vol) / aux.u, 1e-9)]

        # centroid-incenter: transcribed form vs engine vs oracle
        gi_engine = engine[case][gi]
        gi_form = forms[case]["GI"]
        gi_rows += [(case, abs(gi_form ** 2 - gi_engine ** 2),
                     1e-9 * max(gi_engine, gi_form) ** 2 + 1e-13 * emax * emax),
                    (case, abs(gi_engine - gi_oracle[case]), tol)]

        # concurrency: the power center's four face points reassemble to it
        weights = c2[case].weights
        rep = tet_centers.concurrency_conditions({f: _pierce(weights, f) for f in FACES})
        concurrency.append((case, rep["max_residual"], 1e-9))
        if rep["components"] is None:
            concurrency.append((case, 1.0, 1e-12))
        else:
            concurrency.append((case, max(abs(x - y) for x, y in
                                          zip(rep["components"].weights, weights)), 1e-9))
    for name, rows in (("tet.circumcenter", circumcenter), ("tet.metrics", metrics),
                       ("tet.GI", gi_rows), ("tet.concurrency", concurrency)):
        suites[name].check(insts, rows)


# each half of the run by name: its generator's stream offset, its shape
# generator, the block runner and the suites it fills
_HALVES = {
    "tri": (0, _random_triangles, _verify_triangle_block,
            ("tri.centers", "tri.distances", "tri.closed_forms", "tri.identities",
             "tri.inequalities")),
    "tet": (1, _random_tetras, _verify_tetra_block,
            ("tet.centers", "tet.circumcenter", "tet.metrics", "tet.GI", "tet.distances",
             "tet.closed_forms", "tet.projections", "tet.inequalities", "tet.concurrency")),
}


def _run_block(half, seed, first, stop, rtol, atol):
    """Draw and check cases ``first`` to ``stop`` of ``half`` into fresh
    suites: (suites by name, cases ran, cases skipped)."""
    offset, draw, run_block, names = _HALVES[half]
    suites = {n: _Suite(n) for n in names}
    rngs = [default_rng([seed, 2 * case + offset]) for case in range(first, stop)]
    kept = [(shape, rng) for shape, rng in zip(draw(rngs), rngs) if shape is not None]
    if kept:
        shapes, rngs = zip(*kept)
        run_block(shapes, rngs, suites, rtol, atol)
    return suites, len(kept), stop - first - len(kept)


def _processes(blocks: int) -> int:
    """Worker processes for ``blocks`` blocks: one per CPU this process may
    run on, each with at least two blocks, since starting a pool costs
    about a block's work; 1 or less, meaning in-process, when the platform
    cannot fork or a profiler or tracer is set."""
    if (sys.getprofile() is not None or sys.gettrace() is not None
            or "fork" not in multiprocessing.get_all_start_methods()
            or not hasattr(os, "sched_getaffinity")):
        return 1
    return min(len(os.sched_getaffinity(0)), blocks // 2)


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
        if s.fail_instance is not None:
            print(f"  first failing instance lengths: {s.fail_instance}")
    all_pass = all(s.passed for s in suites.values())
    verdict = "PASS" if all_pass else "FAIL"
    print(f"verify: {verdict} seed={args.seed} cases={args.cases} "
          f"scope={args.scope} ran tri={ran['tri']} tet={ran['tet']} "
          f"skipped={total_skips}")
    # the report first: a closed stdout ends the run before the timing line
    sys.stdout.flush()
    print(f"elapsed: {elapsed:.1f}s", file=sys.stderr)
    return all_pass

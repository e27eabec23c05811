"""Full closed-form reports through cevian's public API, and their checks.

A triangle report is what a library user asks for one shape: every center's
components and cevian ratios, the 21-pair distance table, the transcribed
closed forms, the inequality slacks, sub-areas, altitudes and the Euler
relation.  A tetrahedron report is the analog: G/I/Q/E_X/power:2 components
and per-face ratio tensors, the 21-pair table, the metrics summary, the three
circumradius forms, slacks, transcribed forms, face areas and the projections
onto all four faces.  No coordinate oracle runs in a report.
"""

from __future__ import annotations

import math
import random

from cevian.core_model import GeometryError, PowerIncenter, validate_tetrahedron, validate_triangle
from cevian import tet_centers, tet_metrics, tri_centers, tri_metrics

from shapes import FACES, band_triangle, cube_tetra_points, edges_of

TET_KINDS = tuple(tet_centers.TET_CENTER_KINDS) + (PowerIncenter(2.0),)

# typed errors a right triangle calls for, keyed by center
RIGHT_ANGLE_ERRORS = {"H": "RightAngleOrthocenter", "Q": "ZeroComponent"}


def tri_report(lengths):
    """Returns (report, {center: typed error name}) for one triangle."""
    sides = validate_triangle(*lengths)
    report, errors = {}, {}
    for k in tri_centers.TRI_CENTER_KINDS:
        comps = tri_centers.center_components(k, sides)
        try:
            ir = tri_centers.center_ir(k, sides).as_tuple()
        except GeometryError as exc:
            ir = None
            errors[k] = type(exc).__name__
        report[k] = (comps.as_tuple(), ir, tri_metrics.ict_areas(comps, sides),
                     tri_metrics.ict_altitudes(comps, sides))
    report["pairs"] = [(r.pair, r.distance, r.squared_distance)
                       for r in tri_metrics.center_pair_table(sides)]
    report["forms"] = tri_metrics.transcribed_closed_forms(sides)
    report["slacks"] = tri_metrics.inequality_slacks(sides)
    report["area"] = tri_metrics.area_determinant(sides)
    report["circumradius"] = tri_metrics.circumradius(sides)
    report["euler"] = tri_centers.euler_relation(sides)
    return report, errors


def tet_report(lengths):
    """Returns (report, {}) for one tetrahedron; no typed error is expected
    inside the band, so any raise propagates."""
    edges = validate_tetrahedron(*lengths)
    report = {}
    for k in TET_KINDS:
        comps = tet_centers.tet_center_components(k, edges)
        tensor = tet_centers.tet_center_ir_tensor(k, edges)
        report[str(k)] = (comps.as_tuple(), {f: v.as_tuple() for f, v in tensor.items()})
    report["pairs"] = [(r.pair, r.distance, r.squared_distance)
                       for r in tet_metrics.center_pair_table4(edges)]
    s = tet_metrics.metrics_summary(edges)
    report["metrics"] = (s.volume, s.inradius, s.circumradius, s.crelle_residual)
    report["circumradius_forms"] = tet_metrics.circumradius_forms(edges)
    report["slacks"] = tet_metrics.tet_inequality_slacks(edges)
    report["forms"] = tet_metrics.transcribed_closed_forms4(edges)
    report["face_areas"] = tet_centers.face_areas(edges).as_dict()
    report["projections"] = {
        face: (tet_centers.vertex_projection_components(edges, face).as_tuple(),
               *(tet_centers.projection_of_center(k, edges, face).as_tuple() for k in "QGI"))
        for face in FACES
    }
    return report, {}


def _all_finite(value):
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_all_finite(v) for v in value)
    return True


def report_problem(report, errors, expected_errors):
    """None when the report is correct output, else a one-line reason."""
    if errors != expected_errors:
        return f"typed errors {errors} where the inputs call for {expected_errors}"
    if not _all_finite(report):
        return "non-finite value in report"
    return None


# --------------------------------------------------------------------------
# oracle sample: components and pair distances against definitional centers,
# with the tolerances `cevian verify` uses

def oracle_sample_check(triangles, tetrahedra, rtol=1e-9, atol=1e-12):
    """Returns (checks made, {lengths: first failure description})."""
    import numpy as np
    from cevian import coord_oracle as oracle

    checks, failures = 0, {}

    def check(residual, threshold, lengths, what):
        nonlocal checks
        checks += 1
        if not residual <= threshold:
            failures.setdefault(lengths, f"{lengths} {what}: residual {residual:.3e} > {threshold:.3e}")

    for lengths in triangles:
        sides = validate_triangle(*lengths)
        tol = atol + rtol * sides.perimeter
        tri = oracle.embed_triangle(sides)
        points = {}
        for k in tri_centers.TRI_CENTER_KINDS:
            comps = tri_centers.center_components(k, sides)
            points[k] = oracle.definitional_center(tri, k)
            realized = oracle.point_from_components(tri, comps)
            check(float(np.linalg.norm(realized - points[k])), tol, lengths, k)
        for rep in tri_metrics.center_pair_table(sides):
            want = float(np.linalg.norm(points[rep.pair[0]] - points[rep.pair[1]]))
            check(abs(rep.distance - want), tol, lengths, rep.pair)

    for lengths in tetrahedra:
        edges = validate_tetrahedron(*lengths)
        tol = atol + rtol * max(lengths)
        tet = oracle.embed_tetra(edges)
        areas = oracle.oracle_face_areas(tet)
        surface = sum(areas.values())
        # excenters sit ~S/T^X edge lengths out; verify widens by that factor
        kappa = {f"E_{x}": max(1.0, surface / (surface - 2.0 * areas[x])) for x in "ABCD"}
        points = {}
        for k in TET_KINDS:
            comps = tet_centers.tet_center_components(k, edges)
            points[str(k)] = oracle.definitional_center4(tet, k)
            realized = oracle.point_from_components(tet, comps)
            check(float(np.linalg.norm(realized - points[str(k)])),
                  tol * kappa.get(str(k), 1.0), lengths, k)
        for rep in tet_metrics.center_pair_table4(edges):
            k1, k2 = rep.pair
            want = float(np.linalg.norm(points[k1] - points[k2]))
            check(abs(rep.distance - want), tol * kappa.get(k1, 1.0) * kappa.get(k2, 1.0),
                  lengths, rep.pair)
    return checks, failures


# --------------------------------------------------------------------------
# scale probe: the same full reports on fixed shapes, scaled

PROBE_SCALES = tuple(10.0 ** k for k in range(-4, 5))
PROBE_SHAPES = 30


def scale_probe():
    """Full reports on fixed band shapes with every length multiplied by
    10^k, k = -4..4.  Centers are scale-free, so every report should succeed;
    returns (failure count, {scale: failures}, reports attempted)."""
    rng = random.Random("scale-probe")
    tris = [band_triangle(rng) for _ in range(PROBE_SHAPES)]
    tets = [edges_of(cube_tetra_points(rng)) for _ in range(PROBE_SHAPES)]
    by_scale = {}
    for scale in PROBE_SCALES:
        bad = 0
        for build, shapes in ((tri_report, tris), (tet_report, tets)):
            for lengths in shapes:
                try:
                    report, errors = build(tuple(scale * x for x in lengths))
                except GeometryError:
                    bad += 1
                    continue
                if report_problem(report, errors, {}) is not None:
                    bad += 1
        by_scale[f"{scale:g}"] = bad
    return sum(by_scale.values()), by_scale, 2 * PROBE_SHAPES * len(PROBE_SCALES)

"""End-to-end acceptance gates.

Each criterion records one PASS/FAIL line (shown in the terminal summary)
and asserts, so a red run pinpoints the exact gate that broke.  Corpora are
seeded and shared between gates; every closed form is judged against the
coordinate oracle, never against itself.
"""

import math
import subprocess
import sys
import time
from itertools import combinations

import numpy as np

from conftest import record

from cevian.core_model import (
    CENTER_KINDS,
    FACES,
    PowerIncenter,
    center_components,
    circumradius,
    dist_between_centers,
    dist_vertex_to_foot,
    face_components_from_tetra,
    fractional_ratio_determinant,
    pair_table,
    validate_tetrahedron,
    validate_triangle,
    vertex_foot_ratios,
)
from cevian import coord_oracle as oracle
from cevian.verify import _circum_components_det, _random_tetras, _random_triangle
from cevian.tri_centers import (
    center_ir,
    euler_relation,
)
from cevian.tri_metrics import (
    _inequality_slacks,
    transcribed_closed_forms,
)
from cevian.tet_centers import (
    projection_components,
    projection_of_center,
)
from cevian.tet_metrics import (
    _tet_inequality_slacks,
    crelle_check,
    inradius,
    transcribed_closed_forms4,
    volume,
)

SEED = 42
N = 1000


def _center_pair_table(shape):
    """The 21-pair distance table over every named center of the shape."""
    kinds = CENTER_KINDS[len(shape.E)]
    return pair_table({k: center_components(k, shape) for k in kinds}, shape)


_tri_cache = None
_tet_cache = None


def tri_corpus():
    """1000 seeded triangles with their embeddings and oracle center points."""
    global _tri_cache
    if _tri_cache is None:
        out = []
        case = 0
        while len(out) < N:
            rng = np.random.default_rng([SEED, 2 * case])
            case += 1
            sides = _random_triangle(rng)
            if sides is None:
                continue
            tri = oracle.embed_triangle(sides)
            pts = {k: oracle.definitional_center(tri, k)
                   for k in CENTER_KINDS[3]}
            out.append((sides, tri, pts))
        _tri_cache = out
    return _tri_cache


TET_KINDS = list(CENTER_KINDS[4]) + [PowerIncenter(2)]


def tet_corpus():
    global _tet_cache
    if _tet_cache is None:
        out = []
        case = 0
        while len(out) < N:
            rng = np.random.default_rng([SEED, 2 * case + 1])
            case += 1
            (edges,) = _random_tetras([rng])
            if edges is None:
                continue
            tet = oracle.embed_tetra(edges)
            pts = {str(k): oracle.definitional_center(tet, k)
                   for k in TET_KINDS}
            out.append((edges, tet, pts))
        _tet_cache = out
    return _tet_cache


def test_criterion_1_triangle_center_realization():
    start = time.monotonic()
    worst = 0.0
    for sides, tri, pts in tri_corpus():
        tol = 1e-12 + 1e-9 * sides.perimeter
        for kind in CENTER_KINDS[3]:
            realized = oracle.point_from_components(
                tri, center_components(kind, sides))
            res = float(np.linalg.norm(realized - pts[kind]))
            worst = max(worst, res / tol)
    elapsed = time.monotonic() - start
    ok = worst <= 1.0 and elapsed < 5.0
    record(1, ok, f"7 centers x {N} triangles, worst residual/tol "
                  f"{worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_2_distance_table_and_transcribed_forms():
    worst_tbl = 0.0
    worst_rel = 0.0
    pairs = {"IE_A": ("I", "E_A"), "IE_B": ("I", "E_B"), "IE_C": ("I", "E_C"),
             "E_AE_B": ("E_A", "E_B"), "E_BE_C": ("E_B", "E_C"),
             "E_CE_A": ("E_C", "E_A"), "QG": ("Q", "G"), "QI": ("Q", "I")}
    for sides, tri, pts in tri_corpus():
        tol = 1e-12 + 1e-9 * sides.perimeter
        for rep in _center_pair_table(sides):
            want = float(np.linalg.norm(pts[rep.pair[0]] - pts[rep.pair[1]]))
            worst_tbl = max(worst_tbl, abs(rep.distance - want) / tol)
        comps = {k: center_components(k, sides) for k in CENTER_KINDS[3]}
        forms = transcribed_closed_forms(sides)
        for key, (k1, k2) in pairs.items():
            d = dist_between_centers(comps[k1], comps[k2], sides)
            worst_rel = max(worst_rel,
                            abs(d - forms[key]) / max(d, forms[key], 1e-300))
    ok = worst_tbl <= 1.0 and worst_rel <= 1e-9
    record(2, ok, f"21-pair table worst residual/tol {worst_tbl:.2e}; "
                  f"transcribed forms worst rel {worst_rel:.2e}")
    assert ok


def test_criterion_3_named_exact_values():
    checks = []
    equi = validate_triangle(2, 2, 2)
    checks.append(abs(transcribed_closed_forms(equi)["E_AE_B"] - 4.0) / 4.0)
    r345 = validate_triangle(3, 4, 5)
    comps = {k: center_components(k, r345) for k in CENTER_KINDS[3]}
    gi = dist_between_centers(comps["G"], comps["I"], r345)
    checks.append(abs(gi - 1 / 3) / (1 / 3))
    qi = dist_between_centers(comps["Q"], comps["I"], r345)
    checks.append(abs(qi - math.sqrt(1.25)) / math.sqrt(1.25))
    al = dist_vertex_to_foot("A", comps["G"], r345)
    want = 0.5 * math.sqrt(73)
    checks.append(abs(al - want) / want)
    worst = max(checks)
    euler_ok = True
    for sides in (r345, validate_triangle(4, 6, 7), equi):
        out = euler_relation(sides)
        euler_ok &= abs(out["gh_over_gq"] + 2.0) <= 1e-12
        euler_ok &= out["collinearity_residual"] <= 1e-12 * sides.perimeter
    ok = worst <= 1e-12 and euler_ok
    record(3, ok, f"named values worst rel {worst:.2e}; Euler ratio -2 with "
                  f"tiny collinearity residual: {euler_ok}")
    assert ok


def test_criterion_4_identity_suite():
    worst = 0.0
    menelaus_checked = 0
    for idx, (sides, tri, _) in enumerate(tri_corpus()):
        for kind in ("G", "I", "E_A", "E_B", "E_C"):
            ir = center_ir(kind, sides)
            worst = max(worst, abs(ir.lambda_ab * ir.lambda_bc * ir.lambda_ca
                                   - 1.0))
        r = vertex_foot_ratios(center_components("I", sides))
        worst = max(worst, abs(r["kap_a"] + r["kap_b"] + r["kap_c"] - 2.0))
        worst = max(worst, abs(sum(1.0 / (1.0 + r[k]) for k in
                                   ("lam_a", "lam_b", "lam_c")) - 1.0))
        worst = max(worst, abs(fractional_ratio_determinant(
            r["lam_a"], r["lam_b"], r["lam_c"])))
        rng = np.random.default_rng([SEED, 5 * idx + 3])
        for _ in range(10):
            p0 = rng.uniform(-1.0, 2.0, size=2) * sides.perimeter
            ang = rng.uniform(0.0, math.pi)
            try:
                prod = oracle.menelaus_product(
                    tri, p0, np.array([math.cos(ang), math.sin(ang)]))
            except Exception:
                continue
            worst = max(worst, abs(prod + 1.0))
            menelaus_checked += 1
            break
    for edges, _, _ in tet_corpus()[:200]:
        for kind in ("G", "I", PowerIncenter(2)):
            r4 = vertex_foot_ratios(center_components(kind, edges))
            worst = max(worst, abs(sum(r4["kap_" + v] for v in "abcd") - 3.0))
    ok = worst <= 1e-9 and menelaus_checked >= N
    record(4, ok, f"ratio identities worst defect {worst:.2e} over "
                  f"{menelaus_checked} transversals")
    assert ok


def test_criterion_5_tetra_center_realization_and_circumcenter_paths():
    worst = 0.0
    worst_q = 0.0
    for edges, tet, pts in tet_corpus():
        emax = max(edges.as_tuple())
        for kind in TET_KINDS:
            comps = center_components(kind, edges)
            realized = oracle.point_from_components(tet, comps)
            res = float(np.linalg.norm(realized - pts[str(kind)]))
            worst = max(worst, res / (1e-9 * emax))
        beta_poly = center_components("Q", edges).as_tuple()
        (beta_det,) = _circum_components_det([edges._pair_e])
        mat = np.vstack([tet.vertices.T, np.ones(4)])
        beta_solve = np.linalg.solve(mat, np.append(pts["Q"], 1.0))
        for trio in zip(beta_poly, beta_det, beta_solve):
            for x, y in combinations(trio, 2):
                worst_q = max(worst_q,
                              abs(x - y) / (1e-8 * max(abs(x), abs(y), 0.05)))
    ok = worst <= 1.0 and worst_q <= 1.0
    record(5, ok, f"8 centers x {N} tetra worst residual/tol {worst:.2e}; "
                  f"3-way circumcenter agreement worst/tol {worst_q:.2e}")
    assert ok


def test_criterion_6_metric_formulas():
    worst = 0.0
    for edges, tet, pts in tet_corpus():
        mat = np.column_stack(tet.vertices[1:] - tet.vertices[0])
        v_oracle = abs(float(np.linalg.det(mat))) / 6.0
        v = volume(edges)
        worst = max(worst, abs(v - v_oracle) / v_oracle / 1e-9)
        inc = pts["I"]
        normals, offsets, _ = tet.facets
        dmin = min(abs(float(np.dot(n, inc) - off)) for n, off in zip(normals, offsets))
        worst = max(worst, abs(inradius(edges) - dmin) / dmin / 1e-9)
        r_oracle = float(np.linalg.norm(pts["Q"] - tet.vertices[0]))
        worst = max(worst, abs(circumradius(edges) - r_oracle) / r_oracle / 1e-9)
        worst = max(worst, crelle_check(edges) / 1e-9)
        worst = max(worst,
                    abs(edges.circum_aux.u - 144.0 * v * v)
                    / (144.0 * v * v) / 1e-9)
    reg = validate_tetrahedron(1, 1, 1, 1, 1, 1)
    exact = (abs(volume(reg) - math.sqrt(2) / 12) / (math.sqrt(2) / 12),
             abs(inradius(reg) - math.sqrt(6) / 12) / (math.sqrt(6) / 12),
             abs(circumradius(reg) - math.sqrt(6) / 4) / (math.sqrt(6) / 4))
    ok = worst <= 1.0 and max(exact) <= 1e-12
    record(6, ok, f"V/r/R vs oracle + Crelle + weight-volume link, worst/tol "
                  f"{worst:.2e}; regular exact to {max(exact):.1e}")
    assert ok


def test_criterion_7_centroid_incenter_showcase():
    worst = 0.0
    for edges, tet, pts in tet_corpus():
        g = center_components("G", edges)
        i = center_components("I", edges)
        engine = dist_between_centers(g, i, edges)
        form = transcribed_closed_forms4(edges)["GI"]
        want = float(np.linalg.norm(pts["G"] - pts["I"]))
        worst = max(worst, abs(form - engine) / max(engine, 1e-300))
        worst = max(worst, abs(engine - want) / max(want, 1e-300))
    pyramid = validate_tetrahedron(3, 3, 3, 2, 2, 2)
    from cevian.core_model import dist_vertex_to_center

    ag = dist_vertex_to_center("A", center_components("G", pyramid), pyramid)
    want = abs(math.sqrt(3) - 2 * math.sqrt(2)) / (
        math.sqrt(3) + 6 * math.sqrt(2)) * ag
    got = dist_between_centers(center_components("G", pyramid),
                               center_components("I", pyramid), pyramid)
    pyr_rel = abs(got - want) / want
    ok = worst <= 1e-9 and pyr_rel <= 1e-12
    record(7, ok, f"form = engine = oracle worst rel {worst:.2e}; pyramid "
                  f"closed ratio rel {pyr_rel:.2e}")
    assert ok


def test_criterion_8_inequality_suites():
    # the slacks as computed, before the rounding window a report reads
    worst = 0.0
    n_tri = n_tet = 0
    for i in range(20000):
        if n_tri >= 5000 and n_tet >= 5000:
            break
        if n_tri < 5000:
            sides = _random_triangle(np.random.default_rng([SEED + 1, i]))
            if sides is not None:
                n_tri += 1
                for slack, _ in _inequality_slacks(sides).values():
                    worst = min(worst, slack)
        if n_tet < 5000:
            (edges,) = _random_tetras([np.random.default_rng([SEED + 2, i])])
            if edges is not None:
                n_tet += 1
                for slack, _ in _tet_inequality_slacks(edges).values():
                    worst = min(worst, slack)
    eq_worst = 0.0
    for slack, _ in _inequality_slacks(validate_triangle(1, 1, 1)).values():
        eq_worst = max(eq_worst, abs(slack))
    for slack, _ in _tet_inequality_slacks(
            validate_tetrahedron(1, 1, 1, 1, 1, 1)).values():
        eq_worst = max(eq_worst, abs(slack))
    ok = worst >= -1e-12 and eq_worst <= 1e-9 and n_tri + n_tet == 10000
    record(8, ok, f"{n_tri + n_tet} instances, most negative slack "
                  f"{worst:.2e}; equality slack at equilateral/regular "
                  f"{eq_worst:.2e}")
    assert ok


def test_criterion_9_projection_components():
    worst = 0.0
    inc_worst = 0.0
    faces = list(FACES)
    for idx, (edges, tet, _) in enumerate(tet_corpus()):
        emax = max(edges.as_tuple())
        rng = np.random.default_rng([SEED, 7 * idx + 5])
        p = rng.uniform(-0.5, 1.5, size=3)
        sq = [float(np.sum((p - v) ** 2)) for v in tet.vertices]
        face = faces[idx % 4]
        c3 = projection_components(edges, sq, face)
        foot = sum(w * vv for w, vv in zip(c3.as_tuple(),
                                           tet.face_vertices(face)))
        want = oracle.projection_foot_oracle(tet, p, face)
        worst = max(worst, float(np.linalg.norm(foot - want)) / (1e-8 * emax))
        inc = oracle.point_from_components(
            tet, center_components("I", edges))
        ci = projection_of_center("I", edges, face)
        ifoot = sum(w * vv for w, vv in zip(ci.as_tuple(),
                                            tet.face_vertices(face)))
        r = inradius(edges)
        inc_worst = max(inc_worst,
                        abs(float(np.linalg.norm(inc - ifoot)) - r) / r)
    ok = worst <= 1.0 and inc_worst <= 1e-8
    record(9, ok, f"{N} foot recoveries worst residual/tol {worst:.2e}; "
                  f"incenter foot at inradius, worst rel {inc_worst:.2e}")
    assert ok


def test_criterion_10_cli_verify_deterministic():
    cmd = [sys.executable, "-m", "cevian.cli", "verify", "--seed", "42",
           "--cases", "1000", "--scope", "all"]
    start = time.monotonic()
    r1 = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    elapsed = time.monotonic() - start
    r2 = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    ok = (r1.returncode == 0 and elapsed < 60.0 and r1.stdout == r2.stdout
          and "verify: PASS" in r1.stdout)
    record(10, ok, f"exit {r1.returncode}, {elapsed:.1f}s, byte-identical "
                   f"reruns: {r1.stdout == r2.stdout} (blocks fold back in case "
                   f"order, so worker counts cannot matter)")
    assert ok

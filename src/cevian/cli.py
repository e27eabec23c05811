"""Command-line front end.

Three subcommands:

  tri    --sides A B C (or --coords file.json): center components, cevian
         ratios, the 21-pair distance table, metrics, sub-areas/altitudes,
         and inequality slacks for a triangle.
  tet    --edges AB AC AD BC CD DB (or --coords): the tetrahedron analogs,
         plus volume/inradius/circumradius and face projections.
  verify --seed N --cases N --scope tri|tet|all: randomized certification of
         every closed form against the coordinate oracle; exit 0 iff all
         suites pass.

Reports are JSON (sorted keys, round-trip floats) or flat key,value CSV.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from itertools import combinations

import numpy as np

from .core_model import (
    FACES,
    GeometryError,
    PowerIncenter,
    TetraEdges,
    TriangleSides,
    dist_between_centers,
    edge_polynomials,
    face_components_from_tetra,
    fractional_ratio_determinant,
    validate_tetrahedron,
    validate_triangle,
    vertex_foot_ratios3,
)
from . import coord_oracle as oracle
from . import tri_centers, tri_metrics, tet_centers, tet_metrics

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2

RTOL_ENV_VAR = "CEVIAN_TOL_RTOL"


# --------------------------------------------------------------------------
# input handling

def _load_points(path, expected):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise GeometryError(f"cannot read coords file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise GeometryError(f"coords file is not valid JSON: {exc}") from None
    pts = doc.get("points") if isinstance(doc, dict) else None
    if not isinstance(pts, list) or len(pts) != expected:
        raise GeometryError(
            f'coords file must contain {{"points": [...]}} with {expected} points'
        )
    for p in pts:
        if not (isinstance(p, list) and all(type(x) in (int, float) for x in p)):
            raise GeometryError(f"coords point {p!r} is not a list of numbers")
    if len({len(p) for p in pts}) != 1:
        raise GeometryError("coords points do not all have the same dimension")
    try:
        return [np.array(p, dtype=float) for p in pts]
    except OverflowError:
        raise GeometryError("coords point is out of floating-point range") from None


def _triangle_from_args(args) -> TriangleSides:
    if args.coords:
        pa, pb, pc = _load_points(args.coords, 3)
        return validate_triangle(
            float(np.linalg.norm(pb - pc)),
            float(np.linalg.norm(pc - pa)),
            float(np.linalg.norm(pa - pb)),
        )
    if args.sides is None:
        raise GeometryError("one of --sides or --coords is required")
    return validate_triangle(*args.sides)


def _tetra_from_args(args) -> TetraEdges:
    if args.coords:
        pa, pb, pc, pd = _load_points(args.coords, 4)
        d = lambda u, v: float(np.linalg.norm(u - v))
        return validate_tetrahedron(
            d(pa, pb), d(pa, pc), d(pa, pd), d(pb, pc), d(pc, pd), d(pd, pb)
        )
    if args.edges is None:
        raise GeometryError("one of --edges or --coords is required")
    return validate_tetrahedron(*args.edges)


def _parse_center_list(raw, kinds, parse_one):
    if raw is None or raw.lower() == "all":
        return list(kinds)
    return [parse_one(tok) for tok in raw.split(",") if tok]


def _parse_pair(token, parse_one):
    # split at each ':' until both halves parse as center kinds (tokens like
    # "G:power:2" need the second colon kept together)
    positions = [i for i, ch in enumerate(token) if ch == ":"]
    for pos in positions:
        try:
            return parse_one(token[:pos]), parse_one(token[pos + 1:])
        except GeometryError:
            continue
    raise GeometryError(f"cannot parse center pair {token!r} (expected KIND:KIND)")


def _tri_kind(tok):
    k = str(tok).upper()
    if k not in tri_centers.TRI_CENTER_KINDS:
        raise GeometryError(f"unknown triangle center {tok!r}")
    return k


# each transcribed triangle distance form and the center pair it measures
_TRI_FORM_PAIRS = (("IE_A", ("I", "E_A")), ("IE_B", ("I", "E_B")), ("IE_C", ("I", "E_C")),
                   ("E_AE_B", ("E_A", "E_B")), ("E_BE_C", ("E_B", "E_C")),
                   ("E_CE_A", ("E_C", "E_A")), ("QG", ("Q", "G")), ("QI", ("Q", "I")))


def _pair_distances(table) -> dict:
    """A pair table's distances keyed by each pair in both orders; swapping
    a pair negates both factors of every term, so the value is the same."""
    out = {}
    for rep in table:
        out[rep.pair] = out[rep.pair[::-1]] = rep.distance
    return out


# --------------------------------------------------------------------------
# report assembly

def cmd_tri(args) -> dict:
    sides = _triangle_from_args(args)
    report = {
        "input": {
            "kind": "triangle",
            "lengths": {"a": sides.a, "b": sides.b, "c": sides.c},
            "source": "coords" if args.coords else "sides",
        },
    }
    want_default = not (args.centers or args.distances or args.metrics
                        or args.inequalities or args.areas)
    centers = _parse_center_list(
        args.centers if args.centers else ("all" if want_default else None),
        tri_centers.TRI_CENTER_KINDS, _tri_kind,
    ) if (args.centers or want_default) else []

    if centers:
        section = {}
        for k in centers:
            comps = tri_centers.center_components(k, sides)
            entry = {"components": list(comps.as_tuple()), "provenance": "closed-form"}
            try:
                entry["ir"] = list(tri_centers.center_ir(k, sides).as_tuple())
            except GeometryError as exc:
                entry["ir"] = None
                entry["ir_error"] = type(exc).__name__
            section[k] = entry
        report["centers"] = section

    if args.distances:
        table = tri_metrics.center_pair_table(sides)
        if args.distances.lower() == "all":
            wanted = None
        else:
            wanted = {
                tuple(sorted(_parse_pair(tok, _tri_kind)))
                for tok in args.distances.split(",") if tok
            }
        section = {}
        for rep in table:
            if wanted is not None and tuple(sorted(rep.pair)) not in wanted:
                continue
            section[f"{rep.pair[0]}:{rep.pair[1]}"] = {
                "distance": rep.distance,
                "squared_distance": rep.squared_distance,
                "provenance": "closed-form",
            }
        # dual-path residuals for the independently transcribed forms
        forms = tri_metrics.transcribed_closed_forms(sides)
        dist = _pair_distances(table)
        residuals = {}
        for key, pair in _TRI_FORM_PAIRS:
            d = dist[pair]
            residuals[key] = abs(d - forms[key]) / max(d, forms[key], 1e-300)
        report["distances"] = section
        report["transcribed_residuals"] = residuals

    if args.metrics:
        report["metrics"] = {
            "area": tri_metrics.area_determinant(sides),
            "k_invariant": tri_metrics.k_invariant(sides),
            "circumradius": tri_metrics.circumradius(sides),
            "inradius": tri_metrics.area_determinant(sides) / sides.semiperimeter,
            "excenter_segment_ratio": tri_centers.excenter_segment_ratio(sides),
            "euler": tri_centers.euler_relation(sides),
            "provenance": "closed-form",
        }

    if args.inequalities:
        report["inequalities"] = dict(tri_metrics.inequality_slacks(sides),
                                      provenance="closed-form")

    if args.areas:
        section = {}
        for k in (centers or list(tri_centers.TRI_CENTER_KINDS)):
            comps = tri_centers.center_components(k, sides)
            entry = dict(tri_metrics.ict_areas(comps, sides))
            entry.update(tri_metrics.ict_altitudes(comps, sides))
            section[k] = entry
        report["areas"] = section

    return report


def cmd_tet(args) -> dict:
    edges = _tetra_from_args(args)
    names = ("ab", "ac", "ad", "bc", "cd", "db")
    report = {
        "input": {
            "kind": "tetrahedron",
            "lengths": dict(zip(names, edges.as_tuple())),
            "source": "coords" if args.coords else "edges",
        },
    }
    want_default = not (args.centers or args.distances or args.metrics
                        or args.inequalities or args.project)
    centers = _parse_center_list(
        args.centers if args.centers else ("all" if want_default else None),
        tet_centers.TET_CENTER_KINDS, tet_centers.parse_tet_center,
    ) if (args.centers or want_default) else []

    if centers:
        section = {}
        for k in centers:
            comps = tet_centers.tet_center_components(k, edges)
            entry = {"components": list(comps.as_tuple()), "provenance": "closed-form"}
            try:
                tensor = tet_centers.tet_center_ir_tensor(k, edges)
                entry["ir_faces"] = {f: list(v.as_tuple()) for f, v in sorted(tensor.items())}
            except GeometryError as exc:
                entry["ir_faces"] = None
                entry["ir_error"] = type(exc).__name__
            section[str(k)] = entry
        report["centers"] = section

    if args.distances:
        if args.distances.lower() == "all":
            pairs = list(combinations(tet_centers.TET_CENTER_KINDS, 2))
        else:
            pairs = [_parse_pair(tok, tet_centers.parse_tet_center)
                     for tok in args.distances.split(",") if tok]
        comps = {k: tet_centers.tet_center_components(k, edges) for pair in pairs for k in pair}
        section = {}
        for k1, k2 in pairs:
            d = dist_between_centers(comps[k1], comps[k2], edges)
            section[f"{k1}:{k2}"] = {
                "distance": d,
                "squared_distance": d * d,
                "provenance": "closed-form",
            }
        report["distances"] = section

    if args.metrics:
        summary = tet_metrics.metrics_summary(edges)
        forms = tet_metrics.circumradius_forms(edges)
        vals = sorted(forms.values())
        report["metrics"] = {
            "volume": summary.volume,
            "inradius": summary.inradius,
            "circumradius": summary.circumradius,
            "crelle_residual": summary.crelle_residual,
            "circumradius_form_spread": (vals[-1] - vals[0]) / vals[-1],
            "face_areas": tet_centers.face_areas(edges).as_dict(),
            "provenance": "closed-form",
        }

    if args.inequalities:
        report["inequalities"] = dict(tet_metrics.tet_inequality_slacks(edges),
                                      provenance="closed-form")

    if args.project:
        face = args.project.upper()
        section = {
            "face": face,
            "vertex_foot": list(
                tet_centers.vertex_projection_components(edges, face).as_tuple()
            ),
            "provenance": "closed-form",
        }
        for k in ("Q", "G", "I"):
            section[k] = list(
                tet_centers.projection_of_center(k, edges, face).as_tuple()
            )
        if args.point_dists:
            if not all(d >= 0.0 and math.isfinite(d) for d in args.point_dists):
                raise GeometryError(
                    f"--point-dists {args.point_dists} must be finite and "
                    "nonnegative")
            keys = ("pa2", "pb2", "pc2", "pd2")
            sq = {key: v * v for key, v in zip(keys, args.point_dists)}
            section["point"] = list(
                tet_centers.projection_components(edges, sq, face).as_tuple()
            )
        report["projection"] = section
    elif args.point_dists:
        raise GeometryError("--point-dists requires --project FACE")

    return report


# --------------------------------------------------------------------------
# rendering

def _flatten(value, prefix, rows):
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(value[k], f"{prefix}.{k}" if prefix else str(k), rows)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(v, f"{prefix}[{i}]", rows)
    else:
        rows.append((prefix, json.dumps(value)))


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True)
    rows = []
    _flatten(report, "", rows)
    return "\n".join(["key,value"] + [f"{k},{v}" for k, v in rows])


# --------------------------------------------------------------------------
# verify: randomized certification against the coordinate oracle

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


def _verify_triangle_case(rng, suites, rtol, atol):
    sides = _random_triangle(rng)
    if sides is None:
        return False
    inst = sides.as_tuple()
    perim = sides.perimeter
    tol_len = atol + rtol * perim
    tri = oracle.embed_triangle(sides)

    comps = {k: tri_centers.center_components(k, sides)
             for k in tri_centers.TRI_CENTER_KINDS}
    points = {}
    for k, c in comps.items():
        realized = oracle.point_from_components(tri, c)
        reference = oracle.definitional_center(tri, k)
        points[k] = reference
        suites["tri.centers"].check(
            float(np.linalg.norm(realized - reference)), tol_len, inst)
        suites["tri.centers"].check(
            oracle.frame_equation_residual(tri, c, reference), tol_len, inst)

    table = tri_metrics.center_pair_table(sides)
    for rep in table:
        want = float(np.linalg.norm(points[rep.pair[0]] - points[rep.pair[1]]))
        suites["tri.distances"].check(abs(rep.distance - want), tol_len, inst)

    # compared on squared distances: near coincident centers the root turns
    # one ulp under the radical into ~sqrt(eps), which no relative tolerance
    # on the roots can absorb
    forms = tri_metrics.transcribed_closed_forms(sides)
    dist = _pair_distances(table)
    for key, pair in _TRI_FORM_PAIRS:
        d2 = dist[pair] ** 2
        f2 = forms[key] ** 2
        suites["tri.closed_forms"].check(
            abs(d2 - f2), 1e-9 * max(d2, f2) + 1e-13 * perim * perim, inst)

    # identity family: cevian ratio products, kappa sums, reciprocal sums,
    # the three-ratio determinant, the Euler collinearity, Menelaus
    for k in ("G", "I", "E_A"):
        ir = tri_centers.center_ir(k, sides)
        suites["tri.identities"].check(
            abs(ir.lambda_ab * ir.lambda_bc * ir.lambda_ca - 1.0), 1e-9, inst)
    ratios = None
    try:
        ratios = vertex_foot_ratios3(comps["I"])
    except GeometryError:
        pass
    if ratios is not None:
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

    scale4 = perim ** 4
    for key, slack in tri_metrics.inequality_slacks(sides).items():
        # QG/QI/QH carry length^2; GI length^4; GH/IH higher degree
        suites["tri.inequalities"].check(max(0.0, -slack), 1e-12 * max(1.0, scale4),
                                         inst)
    return True


def _verify_tetra_case(rng, suites, rtol, atol):
    edges = _random_tetra(rng)
    if edges is None:
        return False
    inst = edges.as_tuple()
    emax = max(inst)
    tol_len = atol + rtol * emax
    tet = oracle.embed_tetra(edges)

    # excenter checks get a condition allowance: E_X sits ~S/T^X edge lengths
    # out, so every fixed-precision path loses accuracy proportionally
    fa = tet_centers.face_areas(edges)
    kappa = {f"E_{x}": max(1.0, fa.s / fa.opposite_sum(i)) for i, x in enumerate("ABCD")}
    cond = lambda *kinds: math.prod(kappa.get(k, 1.0) for k in kinds)

    kinds = list(tet_centers.TET_CENTER_KINDS) + [PowerIncenter(2.0)]
    points = {}
    comps = {}
    for k in kinds:
        c = tet_centers.tet_center_components(k, edges)
        comps[str(k)] = c
        realized = oracle.point_from_components(tet, c)
        reference = oracle.definitional_center4(tet, k)
        points[str(k)] = reference
        suites["tet.centers"].check(
            float(np.linalg.norm(realized - reference)),
            tol_len * cond(str(k)), inst)

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
    mat = np.column_stack([tet.pb - tet.pa, tet.pc - tet.pa, tet.pd - tet.pa])
    vol_oracle = abs(float(np.linalg.det(mat))) / 6.0
    suites["tet.metrics"].check(abs(vol - vol_oracle) / vol_oracle, 1e-9, inst)
    r = tet_metrics.inradius(edges)
    icenter = points["I"]
    normals, offsets, _ = tet.planes
    dists = [abs(float(np.dot(nrm, icenter) - off))
             for nrm, off in zip(normals, offsets)]
    suites["tet.metrics"].check(abs(r - min(dists)) / r, 1e-9, inst)
    rr = tet_metrics.circumradius(edges)
    rr_oracle = float(np.linalg.norm(q_oracle - tet.pa))
    suites["tet.metrics"].check(abs(rr - rr_oracle) / rr_oracle, 1e-9, inst)
    suites["tet.metrics"].check(tet_metrics.crelle_check(edges), 1e-9, inst)
    aux = tet_centers.circum_aux(edges)
    suites["tet.metrics"].check(abs(aux.u - 144.0 * vol * vol) / aux.u, 1e-9, inst)

    # centroid-incenter: transcribed form vs engine vs oracle
    forms = tet_metrics.transcribed_closed_forms4(edges)
    table = tet_metrics.center_pair_table4(edges)
    dist = _pair_distances(table)
    gi_engine = dist["G", "I"]
    gi_oracle = float(np.linalg.norm(points["G"] - points["I"]))
    suites["tet.GI"].check(
        abs(forms["GI"] ** 2 - gi_engine ** 2),
        1e-9 * max(gi_engine, forms["GI"]) ** 2 + 1e-13 * emax * emax, inst)
    suites["tet.GI"].check(abs(gi_engine - gi_oracle), tol_len, inst)

    for rep in table:
        want = float(np.linalg.norm(points[rep.pair[0]] - points[rep.pair[1]]))
        suites["tet.distances"].check(abs(rep.distance - want),
                                      tol_len * cond(*rep.pair), inst)

    engine_of = {
        "QG": ("Q", "G"), "QI": ("Q", "I"), "GI": ("G", "I"),
        "GQ": ("G", "Q"), "IQ": ("I", "Q"),
    }
    for x in "ABCD":
        engine_of[f"GE_{x}"] = ("G", f"E_{x}")
        engine_of[f"IE_{x}"] = ("I", f"E_{x}")
        engine_of[f"QE_{x}"] = ("Q", f"E_{x}")
    for x, y in combinations("ABCD", 2):
        engine_of[f"E_{x}E_{y}"] = (f"E_{x}", f"E_{y}")
    for key, (k1, k2) in engine_of.items():
        d2 = dist[k1, k2] ** 2
        f2 = forms[key] ** 2
        suites["tet.closed_forms"].check(
            abs(d2 - f2),
            (1e-9 * max(d2, f2) + 1e-13 * emax * emax) * cond(k1, k2) ** 2,
            inst)

    # projections: random spatial point + the three center closed forms
    pt = rng.uniform(-0.5, 1.5, size=3)
    sq = {"p" + n + "2": float(np.sum((pt - tet.vertex(n.upper())) ** 2))
          for n in "abcd"}
    for face in FACES:
        c3 = tet_centers.projection_components(edges, sq, face)
        realized = sum(w * v for w, v in zip(c3.as_tuple(), tet.face_vertices(face)))
        want = oracle.projection_foot_oracle(tet, pt, face)
        suites["tet.projections"].check(
            float(np.linalg.norm(realized - want)) / emax, 1e-8, inst)
    for kind in ("Q", "G", "I"):
        cpt = oracle.point_from_components(tet, comps[kind])
        for face in FACES:
            c3 = tet_centers.projection_of_center(kind, edges, face)
            realized = sum(w * v
                           for w, v in zip(c3.as_tuple(), tet.face_vertices(face)))
            want = oracle.projection_foot_oracle(tet, cpt, face)
            suites["tet.projections"].check(
                float(np.linalg.norm(realized - want)) / emax, 1e-8, inst)
    # incenter's projection sits at distance r from the incenter
    ifoot = sum(w * v for w, v in zip(
        tet_centers.projection_of_center("I", edges, "ABC").as_tuple(),
        tet.face_vertices("ABC")))
    suites["tet.projections"].check(
        abs(float(np.linalg.norm(points["I"] - ifoot)) - r) / r, 1e-8, inst)

    scale6 = emax ** 6
    for key, slack in tet_metrics.tet_inequality_slacks(edges).items():
        suites["tet.inequalities"].check(max(0.0, -slack),
                                         1e-12 * max(1.0, scale6), inst)

    # concurrency: the power center's four face points reassemble to it
    c2 = comps["power:2"]
    face_data = {f: face_components_from_tetra(c2, f) for f in FACES}
    rep = tet_centers.concurrency_conditions(edges, face_data)
    suites["tet.concurrency"].check(rep["max_residual"], 1e-9, inst)
    if rep["components"] is None:
        suites["tet.concurrency"].check(1.0, 1e-12, inst)
    else:
        suites["tet.concurrency"].check(
            max(abs(x - y) for x, y in zip(rep["components"].as_tuple(),
                                           c2.as_tuple())), 1e-9, inst)
    return True


_TRI_SUITES = ("tri.centers", "tri.distances", "tri.closed_forms",
               "tri.identities", "tri.inequalities")
_TET_SUITES = ("tet.centers", "tet.circumcenter", "tet.metrics", "tet.GI",
               "tet.distances", "tet.closed_forms", "tet.projections",
               "tet.inequalities", "tet.concurrency")


def cmd_verify(args) -> int:
    rtol, atol = args.rtol, args.atol
    names = []
    if args.scope in ("tri", "all"):
        names += _TRI_SUITES
    if args.scope in ("tet", "all"):
        names += _TET_SUITES
    suites = {n: _Suite(n) for n in names}
    skips = {"tri": 0, "tet": 0}
    ran = {"tri": 0, "tet": 0}

    start = time.monotonic()
    for case in range(args.cases):
        if args.scope in ("tri", "all"):
            rng = np.random.default_rng([args.seed, 2 * case])
            if _verify_triangle_case(rng, suites, rtol, atol):
                ran["tri"] += 1
            else:
                skips["tri"] += 1
        if args.scope in ("tet", "all"):
            rng = np.random.default_rng([args.seed, 2 * case + 1])
            if _verify_tetra_case(rng, suites, rtol, atol):
                ran["tet"] += 1
            else:
                skips["tet"] += 1
    elapsed = time.monotonic() - start

    all_pass = True
    for name in names:
        s = suites[name]
        status = "PASS" if s.passed else "FAIL"
        all_pass = all_pass and s.passed
        print(f"suite {name:<20} checks {s.checks:>7}  "
              f"max_residual {s.max_residual:.3e}  status {status}")
        if not s.passed and s.fail_instance is not None:
            print(f"  first failing instance lengths: {s.fail_instance}")
    total_skips = skips["tri"] + skips["tet"]
    verdict = "PASS" if all_pass else "FAIL"
    print(f"verify: {verdict} seed={args.seed} cases={args.cases} "
          f"scope={args.scope} ran tri={ran['tri']} tet={ran['tet']} "
          f"skipped={total_skips}")
    print(f"elapsed: {elapsed:.1f}s", file=sys.stderr)
    return EXIT_OK if all_pass else EXIT_VERIFY_FAILED


# --------------------------------------------------------------------------
# argument parsing

# argparse takes only "-1" and "-.5" for negative values; "-1e-9", "-inf"
# and "-nan" would otherwise read as unknown options instead of reaching
# the typed checks on lengths, tolerances and distances
_NEGATIVE_NUMBER = re.compile(
    r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)


class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="cevian",
        description="Triangle and tetrahedron centers from side/edge lengths, "
                    "with an independent coordinate oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--rtol", type=float,
                       help=f"default ${RTOL_ENV_VAR}, else 1e-9")
        p.add_argument("--atol", type=float, default=1e-12)

    tri = sub.add_parser("tri", help="triangle reports")
    tri.add_argument("--sides", type=float, nargs=3, metavar=("A", "B", "C"))
    tri.add_argument("--coords", metavar="FILE")
    tri.add_argument("--centers", metavar="LIST",
                     help="comma list of G,I,H,Q,E_A,E_B,E_C or 'all'")
    tri.add_argument("--distances", metavar="LIST",
                     help="comma list of pairs like G:I, or 'all'")
    tri.add_argument("--metrics", action="store_true")
    tri.add_argument("--inequalities", action="store_true")
    tri.add_argument("--areas", action="store_true")
    common(tri)

    tet = sub.add_parser("tet", help="tetrahedron reports")
    tet.add_argument("--edges", type=float, nargs=6,
                     metavar=("AB", "AC", "AD", "BC", "CD", "DB"))
    tet.add_argument("--coords", metavar="FILE")
    tet.add_argument("--centers", metavar="LIST",
                     help="comma list of G,I,Q,E_A..E_D,power:<n> or 'all'")
    tet.add_argument("--distances", metavar="LIST")
    tet.add_argument("--metrics", action="store_true")
    tet.add_argument("--inequalities", action="store_true")
    tet.add_argument("--project", metavar="FACE",
                     help="one of BCD, CDA, DAB, ABC")
    tet.add_argument("--point-dists", type=float, nargs=4,
                     metavar=("PA", "PB", "PC", "PD"),
                     help="distances from a point to the vertices, for "
                          "--project")
    common(tet)

    ver = sub.add_parser("verify", help="randomized oracle certification")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--cases", type=int, default=100)
    ver.add_argument("--scope", choices=("tri", "tet", "all"), default="all")
    common(ver)
    return parser


def _check_tolerances(args):
    """Fill in the rtol default from the environment and reject tolerances
    that are not finite and nonnegative."""
    if args.rtol is None:
        raw = os.environ.get(RTOL_ENV_VAR, "1e-9")
        try:
            args.rtol = float(raw)
        except ValueError:
            raise GeometryError(f"{RTOL_ENV_VAR}={raw!r} is not a number") from None
    for name in ("rtol", "atol"):
        value = getattr(args, name)
        if not (value >= 0.0 and math.isfinite(value)):
            raise GeometryError(f"{name} = {value!r} must be finite and nonnegative")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_tolerances(args)
        if args.command == "verify":
            if args.cases < 1:
                raise GeometryError("--cases must be at least 1")
            if args.seed < 0:
                raise GeometryError("--seed must be nonnegative")
        else:
            report = cmd_tri(args) if args.command == "tri" else cmd_tet(args)
    except GeometryError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.command == "verify":
        return cmd_verify(args)
    report["tolerance"] = {"rtol": args.rtol, "atol": args.atol}
    print(render_report(report, args.format))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

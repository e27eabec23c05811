"""Command-line front end.

Three subcommands:

  tri    --sides A B C (or --coords file.json): center components, cevian
         ratios, the 21-pair distance table, metrics, sub-areas/altitudes,
         and inequality slacks for a triangle.
  tet    --edges AB AC AD BC CD DB (or --coords): the tetrahedron analogs,
         plus volume/inradius/circumradius and face projections.
  verify --seed N --cases N --scope tri|tet|all: randomized certification of
         every closed form against the coordinate oracle (cevian.verify);
         exit 0 iff all suites pass.

Reports are JSON (sorted keys, round-trip floats) or flat key,value CSV.
They are computed from lengths alone.  Each subcommand imports only its own
modules: ``tri`` the triangle ones, ``tet`` the tetrahedron ones, and only
``verify`` loads the oracle.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from itertools import combinations

from .core_model import (
    CENTER_KINDS,
    EDGES,
    FORM_PAIRS,
    GeometryError,
    center_components,
    circumradius,
    dist_between_centers,
    parse_center,
    validate_tetrahedron,
    validate_triangle,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a tool a closed pipe ended

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
        return [[float(x) for x in p] for p in pts]
    except OverflowError:
        raise GeometryError("coords point is out of floating-point range") from None


# per arity: the shape's name, its length option and the validator
_SHAPES = {3: ("triangle", "sides", validate_triangle),
           4: ("tetrahedron", "edges", validate_tetrahedron)}


def _shape_from_args(args, n):
    """The validated triangle (n = 3) or tetrahedron (n = 4) of the length
    option or of --coords, and the report's input section for it."""
    kind, option, validate = _SHAPES[n]
    lengths = getattr(args, option)
    if args.coords:
        pts = _load_points(args.coords, n)
        lengths = [math.dist(pts[i], pts[j]) for i, j in EDGES[n]]
    elif lengths is None:
        raise GeometryError(f"one of --{option} or --coords is required")
    shape = validate(*lengths)
    # the lengths are keyed by their field names, a, b, c or ab, .., db
    return shape, {"kind": kind, "lengths": dict(zip(shape.__match_args__, shape.as_tuple())),
                   "source": "coords" if args.coords else option}


def _report_centers(args, n, sections):
    """The kinds --centers lists; every kind for "all", and when no other
    section is asked for."""
    raw = args.centers or ("" if any(sections) else "all")
    if raw.lower() == "all":
        return list(CENTER_KINDS[n])
    return [parse_center(tok, n) for tok in raw.split(",") if tok]


def _parse_pair(token, n):
    # split at each ':' until both halves parse as center kinds (tokens like
    # "G:power:2" need the second colon kept together)
    positions = [i for i, ch in enumerate(token) if ch == ":"]
    for pos in positions:
        try:
            return parse_center(token[:pos], n), parse_center(token[pos + 1:], n)
        except GeometryError:
            continue
    raise GeometryError(f"cannot parse center pair {token!r} (expected KIND:KIND)")


# --------------------------------------------------------------------------
# report assembly

def _distance(k1, k2, shape) -> float:
    """The distance between the shape's centers of kinds k1 and k2."""
    return dist_between_centers(center_components(k1, shape),
                                center_components(k2, shape), shape)


def _distances_section(raw, shape) -> dict:
    """Each center pair --distances lists (every pair for "all"), keyed
    "K1:K2" in the order given, with its distance and squared distance."""
    n = len(shape.E)
    if raw.lower() == "all":
        pairs = combinations(CENTER_KINDS[n], 2)
    else:
        pairs = [_parse_pair(tok, n) for tok in raw.split(",") if tok]
    section = {}
    for k1, k2 in pairs:
        d = _distance(k1, k2, shape)
        section[f"{k1}:{k2}"] = {"distance": d, "squared_distance": d * d}
    return section


def _centers_section(kinds, shape, key, ratios) -> dict:
    """Each center's components and, under ``key``, its cevian ratios as
    ``ratios(kind, shape)`` gives them, or None and the typed error's name."""
    section = {}
    for k in kinds:
        entry = {"components": list(center_components(k, shape).as_tuple())}
        try:
            entry[key] = ratios(k, shape)
        except GeometryError as exc:
            entry[key] = None
            entry["ir_error"] = type(exc).__name__
        section[str(k)] = entry
    return section


def cmd_tri(args) -> dict:
    from . import tri_centers, tri_metrics  # a report loads only its own shape's modules

    sides, given = _shape_from_args(args, 3)
    report = {"input": given}
    centers = _report_centers(args, 3, (args.distances, args.metrics, args.inequalities,
                                        args.areas))
    if centers:
        report["centers"] = _centers_section(
            centers, sides, "ir", lambda k, s: list(tri_centers.center_ir(k, s).as_tuple()))

    if args.distances:
        report["distances"] = _distances_section(args.distances, sides)
        # dual-path residuals for the independently transcribed forms
        residuals = {}
        for key, form in tri_metrics.transcribed_closed_forms(sides).items():
            d = _distance(*FORM_PAIRS[key], sides)
            residuals[key] = abs(d - form) / max(d, form, 1e-300)
        report["transcribed_residuals"] = residuals

    if args.metrics:
        report["metrics"] = {
            "area": sides.area,
            "k_invariant": tri_metrics.k_invariant(sides),
            "circumradius": circumradius(sides),
            "inradius": sides.area / sides.semiperimeter,
            "excenter_segment_ratio": tri_centers.excenter_segment_ratio(sides),
            "euler": tri_centers.euler_relation(sides),
        }

    if args.inequalities:
        report["inequalities"] = tri_metrics.inequality_slacks(sides)

    if args.areas:
        section = {}
        for k in (centers or CENTER_KINDS[3]):
            comps = center_components(k, sides)
            entry = dict(tri_metrics.ict_areas(comps, sides))
            entry.update(tri_metrics.ict_altitudes(comps, sides))
            section[k] = entry
        report["areas"] = section

    return report


def cmd_tet(args) -> dict:
    from . import tet_centers, tet_metrics

    edges, given = _shape_from_args(args, 4)
    report = {"input": given}
    centers = _report_centers(args, 4, (args.distances, args.metrics, args.inequalities,
                                        args.project))
    if centers:
        report["centers"] = _centers_section(centers, edges, "ir_faces", lambda k, e: {
            f: list(v.as_tuple())
            for f, v in sorted(tet_centers.tet_center_ir_tensor(k, e).items())})

    if args.distances:
        report["distances"] = _distances_section(args.distances, edges)

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
            "face_areas": edges.face_areas.as_dict(),
        }

    if args.inequalities:
        report["inequalities"] = tet_metrics.tet_inequality_slacks(edges)

    if args.project:
        face = args.project.upper()
        section = {
            "face": face,
            "vertex_foot": list(
                tet_centers.vertex_projection_components(edges, face).as_tuple()
            ),
        }
        for k in tet_centers._PROJECTED:
            section[k] = list(
                tet_centers.projection_of_center(k, edges, face).as_tuple()
            )
        if args.point_dists:
            if not all(d >= 0.0 and math.isfinite(d) for d in args.point_dists):
                raise GeometryError(
                    f"--point-dists {args.point_dists} must be finite and "
                    "nonnegative")
            sq = [v * v for v in args.point_dists]
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
    try:
        if args.command == "verify":
            try:
                from .verify import cmd_verify
            except ModuleNotFoundError as exc:
                if exc.name != "numpy":
                    raise
                print(f"error: ModuleNotFoundError: {exc}; verify needs numpy, from the "
                      f"'verify' extra: pip install 'cevian[verify]'", file=sys.stderr)
                return EXIT_INPUT_ERROR
            code = EXIT_OK if cmd_verify(args) else EXIT_VERIFY_FAILED
        else:
            report["tolerance"] = {"rtol": args.rtol, "atol": args.atol}
            print(render_report(report, args.format))
            code = EXIT_OK
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; stdout's descriptor now takes what is left,
        # so that the interpreter's flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads: verify_all, library and cli_report.

All three are closed loops with one caller in one thread: the next operation
starts when the previous one has returned.  ``cli_report`` runs one program
process at a time.  Each workload returns a ``Run`` holding its end-to-end
metrics (untraced runs) or per-layer metrics (traced runs), the number of
checked operations, the failures among them, and details for the record.
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import json
import os
import pstats
import random
import re
import resource
import statistics
import subprocess
import sys
import time

import measure
import reports
import shapes
from layers import LAYERS, TRACE_MARKER, Tracer

SETUP_SAMPLES = 9
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(BENCH_DIR, "verify_expected.json")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# verify_all times the documented certification run, `verify --seed 42
# --cases 1000 --scope all`.  That call draws each case's triangle, then its
# tetrahedron, from generators keyed on (seed, case), so a `--scope tri` and a
# `--scope tet` call with the same seed and case count do exactly its work,
# split by shape kind.  The verify seed comes from a recorded pool starting at
# the documented 42.
VERIFY_CASES = 1000
VERIFY_SEEDS = tuple(range(42, 58))
VERIFY_SCOPES = ("tri", "tet")

# Every workload times a fixed set of distinct inputs in passes ("rounds")
# over the run, as many rounds as fit in it.  On a shared machine the speed of
# the same code switches between a fast and a slow state, within seconds and
# over minutes.  A library report takes about a millisecond, so over a run's
# hundred-odd rounds each report meets the fast state, and its least time is
# what stays comparable between runs.  A program process or a verify call
# spans many switches, so its least time is a matter of luck; for those the
# median over the rounds is the steady figure.  The tail is a fixed
# percentile over every timing, chosen so that at least ten timings per shape
# kind lie beyond it in a 30 s run at today's speed.
MIN_ROUNDS = {"verify_all": 3, "library": 16, "cli_report": 4}
PER_OPERATION = {"verify_all": statistics.median, "library": min, "cli_report": statistics.median}
TAIL_PCT = {"library": 99.5, "cli_report": 75.0}

LIBRARY_SHAPES = 128     # of each kind: 256 distinct reports per round
ORACLE_SAMPLE = 32
CLI_INVOCATIONS = 8      # distinct argument lists per round
CLI_ENTRY = "import sys; from cevian.cli import main; sys.exit(main())"
CHILD_SCRIPT = os.path.join(BENCH_DIR, "child.py")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "tri_p50_us": "us",
    "tet_p50_us": "us",
    "peak_rss_mb": "MB",
}
# printed and recorded with the untraced library and cli_report runs, but not
# bounded: on a shared machine their run-to-run spread exceeds any bound
# worth having
UNBOUNDED = {"tri_tail_us": "us", "tet_tail_us": "us"}
PER_LAYER = dict(
    [(f"{layer}.{m}", u) for layer in LAYERS
     for m, u in (("calls", "count"), ("self_s", "s"), ("raised", "count"))]
    + [
        ("core_model.edge_lookups", "1/tet"),
        ("core_model.components_built", "count"),
        ("core_model.scale_probe_failures", "count"),
        ("tri_metrics.pair_table_us", "us"),
        ("tet_centers.face_areas_calls", "1/tet"),
        ("tet_metrics.pair_table_us", "us"),
        ("coord_oracle.face_plane_calls", "1/case"),
        ("coord_oracle.solve_calls", "1/case"),
        ("coord_oracle.share", "fraction"),
        ("cli.report_us", "us"),
        ("cli.render_us", "us"),
        ("cli.import_numpy_ms", "ms"),
        ("cli.import_ms", "ms"),
        ("trace.overhead_frac", "fraction"),
        ("trace.coverage", "fraction"),
    ]
)


class Run:
    def __init__(self):
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.details = {}

    def outcome(self, problem):
        """Count one checked operation; ``problem`` is None when correct."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)


class SetupSampler:
    """Fresh-interpreter set-up times, spaced evenly over the timed phase so
    that their median spans the run rather than one moment of a shared
    machine."""

    def __init__(self, statement, seconds):
        self.statement = statement
        self.spacing = seconds / SETUP_SAMPLES
        self.samples = []
        measure.ready_time_s(statement)  # untimed: lets bytecode caches fill

    def sample(self, elapsed):
        """Take the samples that are due ``elapsed`` seconds into the phase."""
        while len(self.samples) < SETUP_SAMPLES and len(self.samples) * self.spacing <= elapsed:
            self.samples.append(measure.ready_time_s(self.statement))

    def median(self):
        self.sample(float("inf"))
        return statistics.median(self.samples)


def timed_rounds(ops, run_op, seconds, min_rounds, before_round):
    """Time the same operations in rounds while another round fits in
    ``seconds``, and at least ``min_rounds`` times.  ``before_round(elapsed)``
    runs untimed before each round; ``run_op(op)`` checks the operation's
    output and returns its seconds.  Returns each operation's list of seconds,
    one per round."""
    times = [[] for _ in ops]
    start = time.perf_counter()
    while True:
        before_round(time.perf_counter() - start)
        for i, op in enumerate(ops):
            times[i].append(run_op(op))
        rounds, elapsed = len(times[0]), time.perf_counter() - start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            return times


def ops_per_s(workload, times):
    """Operations per second of each operation's representative time."""
    rep = PER_OPERATION[workload]
    return len(times) / sum(rep(t) for t in times)


def _latency_metrics(run, workload, ops, times, kind_of):
    """tri_/tet_ p50 over the operations' representative times and the
    fixed-percentile tail over every timing, in microseconds."""
    rep = PER_OPERATION[workload]
    for kind in ("tri", "tet"):
        mine = [t for op, t in zip(ops, times) if kind_of(op) == kind]
        typical_s = sorted(rep(t) for t in mine)
        every = sorted(x for t in mine for x in t)
        tail = measure.percentile(every, TAIL_PCT[workload])
        run.metrics[f"{kind}_p50_us"] = 1e6 * measure.percentile(typical_s, 50.0)
        run.metrics[f"{kind}_tail_us"] = 1e6 * tail
        run.details[f"{kind}_latency"] = {
            "operations": len(typical_s), "timings": len(every), "rounds": len(times[0]),
            "per_operation": rep.__name__, "tail_pct": TAIL_PCT[workload],
            "beyond_tail": sum(1 for x in every if x > tail)}


def _common_layer_metrics(run):
    """Per-layer metrics every traced run reports, whatever its workload."""
    run.metrics.update(measure.import_split_ms())
    failures, by_scale, attempted = reports.scale_probe()
    run.metrics["core_model.scale_probe_failures"] = failures
    run.details["scale_probe"] = {"failures_by_scale": by_scale, "reports": attempted}


def _traced_pass(run_op, ops):
    """Run a fixed set of operations untraced, then traced, in this process;
    returns the tracer and both totals in seconds."""
    untraced = sum(run_op(op) for op in ops)
    tracer = Tracer()
    with tracer.installed():
        traced = sum(run_op(op) for op in ops)
    return tracer, traced, untraced


def _layer_metrics(run, tracer, traced_s, untraced_s, n_tets, n_cases):
    m = run.metrics
    for layer in LAYERS:
        m[f"{layer}.calls"] = tracer.spans[layer]
        m[f"{layer}.self_s"] = tracer.self_s[layer]
        m[f"{layer}.raised"] = tracer.raised[layer]
    calls, secs = tracer.fn_calls, tracer.fn_s

    def per(n, d):
        return n / d if d else 0.0

    def mean_us(*names):
        n = sum(calls.get(x, 0) for x in names)
        return per(1e6 * sum(secs.get(x, 0.0) for x in names), n)

    m["core_model.edge_lookups"] = per(calls.get("core_model.TetraEdges.length", 0), n_tets)
    m["core_model.components_built"] = (calls.get("core_model.Components3.__init__", 0)
                                        + calls.get("core_model.Components4.__init__", 0))
    m["tri_metrics.pair_table_us"] = mean_us("tri_metrics.center_pair_table")
    m["tet_centers.face_areas_calls"] = per(calls.get("tet_centers.face_areas", 0), n_tets)
    m["tet_metrics.pair_table_us"] = mean_us("tet_metrics.center_pair_table4")
    m["coord_oracle.face_plane_calls"] = per(tracer.numpy_count("coord_oracle", "cross"), n_cases)
    m["coord_oracle.solve_calls"] = per(tracer.numpy_count("coord_oracle", "solve"), n_cases)
    m["coord_oracle.share"] = tracer.self_s["coord_oracle"] / traced_s
    m["cli.report_us"] = mean_us("cli.cmd_tri", "cli.cmd_tet")
    m["cli.render_us"] = mean_us("cli.render_report")
    m["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    m["trace.coverage"] = sum(tracer.self_s.values()) / traced_s
    run.details["trace"] = {**tracer.summary(), "traced_s": traced_s, "untraced_s": untraced_s,
                            "tetrahedra": n_tets, "cases": n_cases}


# --------------------------------------------------------------------------
# verify_all

_SUITE_RE = re.compile(r"^suite (\S+)\s+checks\s+(\d+)\s+max_residual \S+\s+status (\w+)$")
_VERDICT_RE = re.compile(r"^verify: (\w+) seed=(-?\d+) cases=(\d+) scope=(\w+) "
                         r"ran tri=(\d+) tet=(\d+) skipped=(\d+)$")


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def run_verify(cli, scope, seed, cases):
    """One in-process `cevian verify` call: (seconds, exit code, stdout)."""
    out = io.StringIO()
    argv = ["verify", "--scope", scope, "--seed", str(seed), "--cases", str(cases)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(argv)
        dt = time.perf_counter() - t0
    return dt, code, out.getvalue()


def parse_verify(stdout):
    """({suite: (checks, status)}, (verdict, ran_tri, ran_tet, skipped))."""
    suites, verdict = {}, None
    for line in stdout.splitlines():
        m = _SUITE_RE.match(line)
        if m:
            suites[m.group(1)] = (int(m.group(2)), m.group(3))
            continue
        m = _VERDICT_RE.match(line)
        if m:
            verdict = (m.group(1), int(m.group(5)), int(m.group(6)), int(m.group(7)))
    return suites, verdict


def expected_record(expected, scope, seed):
    """Recorded (suites, verdict) for one pool seed, in parse_verify's form."""
    counts = expected[scope][str(seed)]
    names = expected["suites"][scope]
    suites = {n: (c, "PASS") for n, c in zip(names, counts)}
    return suites, ("PASS", *counts[len(names):])


def check_verify(run, code, stdout, want, label):
    """Each suite is one checked operation: it fails unless it reads PASS with
    the recorded check count, and all fail when the call's verdict, case
    counts or exit code differ from the record."""
    suites, verdict = parse_verify(stdout)
    want_suites, want_verdict = want
    call_ok = code == 0 and verdict == want_verdict and set(suites) == set(want_suites)
    for name, expect in want_suites.items():
        got = suites.get(name)
        if not call_ok:
            problem = f"{label}: exit {code}, verdict {verdict}, want {want_verdict}"
        elif got != expect:
            problem = f"{label}: suite {name} reads {got}, recorded {expect}"
        else:
            problem = None
        run.outcome(problem)


def verify_all(seed, seconds, trace):
    from cevian import cli

    expected = load_expected()
    if expected["cases"] != VERIFY_CASES or expected["seeds"] != list(VERIFY_SEEDS):
        raise RuntimeError("verify_expected.json was recorded for other seeds or case counts")
    verify_seed = VERIFY_SEEDS[seed % len(VERIFY_SEEDS)]
    run = Run()
    run.details["verify"] = {"seed": verify_seed, "cases": VERIFY_CASES}

    def op(scope):
        dt, code, out = run_verify(cli, scope, verify_seed, VERIFY_CASES)
        check_verify(run, code, out, expected_record(expected, scope, verify_seed),
                     f"verify --scope {scope} --seed {verify_seed} --cases {VERIFY_CASES}")
        return dt

    if trace:
        _common_layer_metrics(run)
        tracer, traced, untraced = _traced_pass(op, VERIFY_SCOPES)
        _layer_metrics(run, tracer, traced, untraced, n_tets=VERIFY_CASES, n_cases=VERIFY_CASES)
        run.details["profile"] = profile_verify(cli, verify_seed, run.metrics)
        return run

    # rounds of one tri and one tet call, while another round fits the run
    setup = SetupSampler("import cevian.cli", seconds)
    times = timed_rounds(VERIFY_SCOPES, op, seconds, MIN_ROUNDS["verify_all"], setup.sample)
    call_s = dict(zip(VERIFY_SCOPES, map(PER_OPERATION["verify_all"], times)))
    run.metrics["ops_per_s"] = VERIFY_CASES / sum(call_s.values())
    for scope in VERIFY_SCOPES:
        run.metrics[f"{scope}_p50_us"] = 1e6 * call_s[scope] / VERIFY_CASES
    run.details["call_seconds"] = dict(zip(VERIFY_SCOPES, times))
    run.metrics["setup_s"] = setup.median()
    run.metrics["peak_rss_mb"] = measure.peak_rss_mb()
    return run


def _module_of(filename):
    base = os.path.basename(filename)
    if os.sep + "cevian" + os.sep in filename:
        return base[:-3] if base.endswith(".py") else base
    if os.sep + "numpy" + os.sep in filename:
        return "numpy"
    if filename.startswith("~") or filename.startswith("<"):
        return "builtins"
    return "python"


def profile_verify(cli, seed, metrics):
    """cProfile of the certification call, `verify --scope all`: self time aggregated per
    module and the top functions, written next to the span-derived layer self
    times.  cProfile taxes every Python call, so use it to locate hot spots,
    not to time them."""
    prof = cProfile.Profile()
    prof.enable()
    run_verify(cli, "all", seed, VERIFY_CASES)
    prof.disable()
    stats = pstats.Stats(prof).stats
    total = sum(v[2] for v in stats.values())
    by_module, funcs = {}, []
    for (filename, line, name), (_, nc, tottime, _, _) in stats.items():
        mod = _module_of(filename)
        by_module[mod] = by_module.get(mod, 0.0) + tottime
        funcs.append((tottime, nc, f"{mod}:{line}:{name}"))
    funcs.sort(reverse=True)
    span_total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    summary = {
        "seed": seed,
        "cases": VERIFY_CASES,
        "profile_total_s": total,
        "self_share_by_module": {m: s / total for m, s in
                                 sorted(by_module.items(), key=lambda kv: -kv[1])},
        "span_self_share_by_layer": {layer: metrics[f"{layer}.self_s"] / span_total
                                     for layer in LAYERS},
        "top_functions": [{"self_s": t, "calls": n, "function": f} for t, n, f in funcs[:25]],
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "verify_all_profile.txt")
    with open(path, "w") as fh:
        fh.write(f"cProfile of verify --scope all --seed {seed} --cases {VERIFY_CASES}\n\n")
        fh.write(f"{'module':<16}{'cProfile self share':>22}{'span self share':>18}\n")
        for mod, share in summary["self_share_by_module"].items():
            span = summary["span_self_share_by_layer"].get(mod)
            fh.write(f"{mod:<16}{share:>22.3f}{'' if span is None else f'{span:.3f}':>18}\n")
        fh.write("\nself_s     calls    function\n")
        for f in summary["top_functions"]:
            fh.write(f"{f['self_s']:8.4f} {f['calls']:8d}    {f['function']}\n")
    summary["written_to"] = os.path.relpath(path, measure.ROOT)
    return summary


# --------------------------------------------------------------------------
# library

def library_corpus(seed):
    """Alternating (kind, lengths, expected typed errors) operations."""
    tris = shapes.tri_corpus(seed, LIBRARY_SHAPES)
    tets = shapes.tet_corpus(seed, LIBRARY_SHAPES)
    ops = []
    for (sides, right_at), edges in zip(tris, tets):
        ops.append(("tri", sides, reports.RIGHT_ANGLE_ERRORS if right_at else {}))
        ops.append(("tet", edges, {}))
    return ops


_BUILD = {"tri": reports.tri_report, "tet": reports.tet_report}


def library(seed, seconds, trace):
    ops = library_corpus(seed)
    run = Run()
    run.details["right_triangle_share"] = shapes.RIGHT_SHARE
    run.details["corpus"] = {"triangles": LIBRARY_SHAPES, "tetrahedra": LIBRARY_SHAPES}

    def op(item):
        kind, lengths, expected = item
        t0 = time.perf_counter()
        try:
            report, errors = _BUILD[kind](lengths)
        except Exception as exc:  # any raise is a failed operation, recorded and counted
            run.outcome(f"{kind} {lengths}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0
        dt = time.perf_counter() - t0
        problem = reports.report_problem(report, errors, expected)
        run.outcome(None if problem is None else f"{kind} {lengths}: {problem}")
        return dt

    if trace:
        _common_layer_metrics(run)
        fixed = [ops[i % len(ops)] for i in range(2 * max(1, round(60 * seconds)))]
        tracer, traced, untraced = _traced_pass(op, fixed)
        _layer_metrics(run, tracer, traced, untraced, n_tets=len(fixed) // 2, n_cases=0)
        run.details["traced_reports"] = len(fixed)
        return run

    setup = SetupSampler("import cevian.tri_centers, cevian.tri_metrics, "
                         "cevian.tet_centers, cevian.tet_metrics", seconds)
    times = timed_rounds(ops, op, seconds, MIN_ROUNDS["library"], setup.sample)
    run.metrics["ops_per_s"] = ops_per_s("library", times)
    _latency_metrics(run, "library", ops, times, kind_of=lambda o: o[0])
    run.metrics["setup_s"] = setup.median()
    # read before the oracle sample below imports numpy into this process
    run.metrics["peak_rss_mb"] = measure.peak_rss_mb()

    sample = ops[:2 * ORACLE_SAMPLE]
    checks, failures = reports.oracle_sample_check(
        [lengths for kind, lengths, _ in sample if kind == "tri"],
        [lengths for kind, lengths, _ in sample if kind == "tet"])
    for _, lengths, _ in sample:
        run.outcome(f"oracle: {failures[lengths]}" if lengths in failures else None)
    run.details["oracle_sample"] = {"shapes": len(sample), "checks": checks,
                                    "mismatches": len(failures)}
    return run


# --------------------------------------------------------------------------
# cli_report

def cli_invocations(seed):
    """Alternating `cevian tri` and `cevian tet` argument lists with every
    section on; the format flips between JSON and CSV every two calls."""
    rng = random.Random(f"cli:{seed}")
    out = []
    for i in range(CLI_INVOCATIONS):
        fmt = ("json", "csv")[(i // 2) % 2]
        if i % 2 == 0:
            if rng.random() < shapes.RIGHT_SHARE:
                sides, _ = shapes.right_triangle(rng)
            else:
                sides = shapes.band_triangle(rng)
            out.append(["tri", "--sides", *map(repr, sides), "--centers", "all",
                        "--distances", "all", "--metrics", "--inequalities", "--areas",
                        "--format", fmt])
        else:
            pts = shapes.cube_tetra_points(rng)
            p = [rng.uniform(-0.5, 1.5) for _ in range(3)]
            dists = [sum((a - b) ** 2 for a, b in zip(p, v)) ** 0.5 for v in pts]
            out.append(["tet", "--edges", *map(repr, shapes.edges_of(pts)), "--centers", "all",
                        "--distances", "all", "--metrics", "--inequalities",
                        "--project", shapes.FACES[(i // 2) % 4],
                        "--point-dists", *map(repr, dists), "--format", fmt])
    return out


def _invoke(argv, traced):
    cmd = [sys.executable, CHILD_SCRIPT, *argv] if traced else [sys.executable, "-c", CLI_ENTRY, *argv]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=measure.child_env(), cwd=measure.ROOT, capture_output=True,
                          timeout=measure.CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def in_process_report(cli, argv):
    """The bytes `cevian` prints for ``argv``, computed in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue().encode()


def _check_invocation(run, cli, argv, proc, reference):
    key = tuple(argv)
    if key not in reference:
        reference[key] = in_process_report(cli, argv)
    code, want = reference[key]
    if proc.returncode != 0 or code != 0:
        problem = f"{argv[0]} exit {proc.returncode}: {proc.stderr.decode()[-300:]}"
    elif proc.stdout != want:
        problem = f"{' '.join(argv)}: stdout differs from the in-process report"
    else:
        problem = None
    run.outcome(problem)


def cli_report(seed, seconds, trace):
    from cevian import cli

    invocations = cli_invocations(seed)
    reference = {}
    run = Run()

    def op(argv, tracer=None):
        dt, proc = _invoke(argv, traced=tracer is not None)
        _check_invocation(run, cli, argv, proc, reference)
        if tracer is not None:
            marker = [line for line in proc.stderr.decode().splitlines()
                      if line.startswith(TRACE_MARKER)]
            if marker:
                tracer.merge(json.loads(marker[-1][len(TRACE_MARKER):]))
            else:
                run.outcome(f"{argv[0]}: traced child wrote no trace")
        return dt

    if trace:
        _common_layer_metrics(run)
        fixed = [invocations[i % len(invocations)] for i in range(2 * max(1, round(0.4 * seconds)))]
        untraced = sum(op(argv) for argv in fixed)
        tracer = Tracer()
        traced = sum(op(argv, tracer) for argv in fixed)
        _layer_metrics(run, tracer, traced, untraced, n_tets=len(fixed) // 2, n_cases=0)
        run.details["traced_invocations"] = len(fixed)
        return run

    setup = SetupSampler("import cevian.cli", seconds)
    times = timed_rounds(invocations, op, seconds, MIN_ROUNDS["cli_report"], setup.sample)
    run.metrics["ops_per_s"] = ops_per_s("cli_report", times)
    _latency_metrics(run, "cli_report", invocations, times, kind_of=lambda argv: argv[0])
    run.metrics["setup_s"] = setup.median()
    run.metrics["peak_rss_mb"] = measure.peak_rss_mb(resource.RUSAGE_CHILDREN)
    return run


WORKLOADS = {"verify_all": verify_all, "library": library, "cli_report": cli_report}

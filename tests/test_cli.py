import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, strategies as st

from cevian import cli
from cevian.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tri_incenter_report(capsys):
    code, out, _ = run_cli(capsys, "tri", "--sides", "3", "4", "5",
                           "--centers", "I")
    assert code == 0
    doc = json.loads(out)
    assert doc["centers"]["I"]["components"] == pytest.approx(
        [0.25, 1 / 3, 5 / 12])
    assert doc["input"]["lengths"] == {"a": 3.0, "b": 4.0, "c": 5.0}
    assert "provenance" not in doc["centers"]["I"]


def test_tri_defaults_to_all_centers(capsys):
    code, out, _ = run_cli(capsys, "tri", "--sides", "3", "4", "5")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["centers"]) == {"G", "I", "H", "Q", "E_A", "E_B", "E_C"}


def test_tri_orthocenter_ratio_gap_is_reported_not_fatal(capsys):
    code, out, _ = run_cli(capsys, "tri", "--sides", "3", "4", "5",
                           "--centers", "H")
    assert code == 0
    doc = json.loads(out)
    assert doc["centers"]["H"]["ir"] is None
    assert doc["centers"]["H"]["ir_error"] == "RightAngleOrthocenter"


def test_invalid_triangle_is_input_error(capsys):
    code, out, err = run_cli(capsys, "tri", "--sides", "1", "1", "2")
    assert code == 2
    assert out == ""
    assert "TriangleInequalityViolated" in err


def test_invalid_tetra_face_is_input_error(capsys):
    code, _, err = run_cli(capsys, "tet", "--edges",
                           "10", "1", "1", "1", "1", "1", "--metrics")
    assert code == 2
    assert "FaceTriangleInequalityViolated" in err


def test_missing_input_is_input_error(capsys):
    code, _, err = run_cli(capsys, "tri", "--centers", "G")
    assert code == 2
    assert "--sides" in err


def test_unknown_center_is_input_error(capsys):
    code, _, err = run_cli(capsys, "tri", "--sides", "3", "4", "5",
                           "--centers", "Z")
    assert code == 2
    assert "unknown triangle center" in err


def test_point_dists_requires_project(capsys):
    code, _, err = run_cli(capsys, "tet", "--edges", "1", "1", "1", "1", "1",
                           "1", "--point-dists", "1", "1", "1", "1")
    assert code == 2
    assert "--project" in err


def test_tet_metrics_values(capsys):
    code, out, _ = run_cli(capsys, "tet", "--edges",
                           "1", "1", "1", "1", "1", "1", "--metrics")
    assert code == 0
    doc = json.loads(out)
    m = doc["metrics"]
    assert m["volume"] == pytest.approx(0.11785113019775793, rel=1e-12)
    assert m["inradius"] == pytest.approx(0.20412414523193154, rel=1e-12)
    assert m["circumradius"] == pytest.approx(0.6123724356957945, rel=1e-12)
    assert m["crelle_residual"] < 1e-12


def test_distance_pair_selection(capsys):
    code, out, _ = run_cli(capsys, "tri", "--sides", "3", "4", "5",
                           "--distances", "G:I")
    assert code == 0
    doc = json.loads(out)
    assert list(doc["distances"]) == ["G:I"]
    assert doc["distances"]["G:I"]["distance"] == pytest.approx(1 / 3)
    # dual-path residuals ride along with the distance section
    assert max(doc["transcribed_residuals"].values()) < 1e-9


@pytest.mark.parametrize("command, lengths", [("tri", ("3", "4", "5")),
                                               ("tet", ("3", "4", "5", "5", "6", "7"))])
def test_distance_keys_follow_the_request(capsys, command, lengths):
    # a pair and its reverse are both reported, keyed in the order asked for
    # (the JSON rendering then sorts them)
    argv = [command, "--sides" if command == "tri" else "--edges", *lengths,
            "--distances", "I:G,G:I"]
    report = (cli.cmd_tri if command == "tri" else cli.cmd_tet)(cli.build_parser().parse_args(argv))
    assert list(report["distances"]) == ["I:G", "G:I"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    section = json.loads(out)["distances"]
    assert list(section) == ["G:I", "I:G"]
    assert section["I:G"] == section["G:I"]
    if command == "tri":
        assert section["I:G"]["distance"] == pytest.approx(1 / 3)


def test_equilateral_distance_table(capsys):
    # G, I, H and Q coincide: their pair distances are 0, not an error
    code, out, _ = run_cli(capsys, "tri", "--sides", "0.3", "0.3", "0.3",
                           "--distances", "all")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["distances"]) == 21
    coincident = [k for k in doc["distances"]
                  if set(k.split(":")) <= {"G", "I", "H", "Q"}]
    assert len(coincident) == 6
    for key in coincident:
        assert doc["distances"][key]["distance"] == 0.0
        assert doc["distances"][key]["squared_distance"] == 0.0


def test_power_center_in_pair_token(capsys):
    code, out, _ = run_cli(capsys, "tet", "--edges", "3", "3", "3", "2", "2",
                           "2", "--distances", "G:power:2")
    assert code == 0
    doc = json.loads(out)
    assert list(doc["distances"]) == ["G:power:2"]


@pytest.mark.parametrize("flag", ["--centers", "--distances"])
def test_power_center_overflow_is_input_error(capsys, flag):
    token = "power:1000" if flag == "--centers" else "G:power:1000"
    code, out, err = run_cli(capsys, "tet", "--edges", "3", "4", "5", "5", "6", "7",
                             flag, token)
    assert code == 2
    assert out == ""
    assert err.startswith("error: GeometryError:") and "overflow" in err


def test_csv_format_is_flat_sorted(capsys):
    code, out, _ = run_cli(capsys, "tri", "--sides", "3", "4", "5",
                           "--centers", "G", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    keys = [ln.split(",", 1)[0] for ln in lines[1:]]
    assert keys == sorted(keys)
    assert "centers.G.components[0]" in keys


def test_coords_file_input(tmp_path, capsys):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps({"points": [[0, 0], [5, 0], [3.2, 2.4]]}))
    code, out, _ = run_cli(capsys, "tri", "--coords", str(f), "--centers", "I")
    assert code == 0
    doc = json.loads(out)
    assert doc["input"]["source"] == "coords"
    assert doc["input"]["lengths"]["a"] == pytest.approx(3.0)
    assert doc["input"]["lengths"]["b"] == pytest.approx(4.0)


def test_coords_file_wrong_count(tmp_path, capsys):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps({"points": [[0, 0], [1, 0]]}))
    code, _, err = run_cli(capsys, "tri", "--coords", str(f))
    assert code == 2
    assert "3 points" in err


def test_coords_file_unreadable(capsys):
    code, _, err = run_cli(capsys, "tri", "--coords", "/nonexistent.json")
    assert code == 2


@pytest.mark.parametrize("points", [
    [[0, 0], [5, "x"], [3.2, 2.4]],    # non-numeric entry
    [[0, 0], [5, True], [3.2, 2.4]],   # JSON true is not a coordinate
    [[0, 0], [5, 0, 0], [3.2, 2.4]],   # mixed dimension
    [[0, 0], "50", [3.2, 2.4]],        # a point that is not a list
])
def test_coords_file_malformed_point(tmp_path, capsys, points):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps({"points": points}))
    code, out, err = run_cli(capsys, "tri", "--coords", str(f))
    assert code == 2
    assert out == ""
    assert err.startswith("error: GeometryError: coords point")


@pytest.mark.parametrize("argv", [
    ("tri", "--sides", "3", "4", "5", "--rtol", "-1"),
    ("tri", "--sides", "3", "4", "5", "--atol=-1e-12"),
    ("tet", "--edges", "3", "3", "3", "2", "2", "2", "--rtol=-1e-9"),
    ("tet", "--edges", "3", "3", "3", "2", "2", "2", "--atol", "-0.5"),
    ("verify", "--cases", "1", "--rtol=-1e-9"),
    ("verify", "--cases", "1", "--atol", "-1"),
    ("verify", "--cases", "1", "--rtol", "nan"),
])
def test_negative_tolerance_is_input_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: GeometryError: ")
    assert "must be finite and nonnegative" in err


def test_negative_point_dist_is_input_error(capsys):
    code, out, err = run_cli(capsys, "tet", "--edges", "3", "3", "3", "2", "2",
                             "2", "--project", "BCD",
                             "--point-dists", "1.2", "-1.1", "0.9", "1.4")
    assert code == 2
    assert out == ""
    assert err.startswith("error: GeometryError: --point-dists")


@pytest.mark.parametrize("argv, message", [
    (("tri", "--sides", "3", "4", "5", "--rtol", "-1e-9"),
     "GeometryError: rtol = -1e-09 must be finite and nonnegative"),
    (("tri", "--sides", "3", "4", "-5e0"),
     "NonPositiveLength: side c = -5.0"),
    (("tet", "--edges", "1", "1", "1", "1", "1", "1", "--project", "ABC",
      "--point-dists", "1", "1", "1", "-1e0"),
     "GeometryError: --point-dists [1.0, 1.0, 1.0, -1.0] must be finite"),
    (("tri", "--sides", "3", "4", "5", "--atol", "-inf"),
     "GeometryError: atol = -inf must be finite and nonnegative"),
])
def test_negative_exponent_values_reach_typed_checks(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: " + message)


def test_non_numeric_env_rtol_is_input_error(capsys, monkeypatch):
    monkeypatch.setenv("CEVIAN_TOL_RTOL", "tight")
    code, out, err = run_cli(capsys, "tri", "--sides", "3", "4", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: GeometryError: CEVIAN_TOL_RTOL")
    # an explicit --rtol does not read the variable
    code, out, _ = run_cli(capsys, "tri", "--sides", "3", "4", "5",
                           "--centers", "G", "--rtol", "1e-6")
    assert code == 0
    assert json.loads(out)["tolerance"]["rtol"] == 1e-6


def test_env_var_overrides_rtol(capsys, monkeypatch):
    monkeypatch.setenv("CEVIAN_TOL_RTOL", "1e-6")
    code, out, _ = run_cli(capsys, "tri", "--sides", "3", "4", "5",
                           "--centers", "G")
    assert code == 0
    assert json.loads(out)["tolerance"]["rtol"] == 1e-6


def test_verify_zero_cases_rejected(capsys):
    code, _, err = run_cli(capsys, "verify", "--cases", "0")
    assert code == 2


def test_verify_negative_seed_rejected(capsys):
    code, out, err = run_cli(capsys, "verify", "--seed", "-1", "--cases", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: GeometryError: --seed")


def test_verify_small_run_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--seed", "7", "--cases", "25",
                           "--scope", "tri")
    assert code == 0
    assert "verify: PASS" in out
    assert "tet.centers" not in out


# the tight tolerances fail, so the first failing instances are pinned too
@pytest.mark.parametrize("tolerances", [(), ("--rtol", "1e-14", "--atol", "0")])
def test_verify_output_does_not_depend_on_the_block_size(capsys, monkeypatch, tolerances):
    from cevian import verify

    argv = ("verify", "--seed", "5", "--cases", "40", "--scope", "all", *tolerances)
    outputs = set()
    for processes in (1, 2):
        monkeypatch.setattr(verify, "_processes", lambda blocks: processes)
        for block in (1, 7, 128):
            monkeypatch.setattr(verify, "_BLOCK", block)
            outputs.add(run_cli(capsys, *argv)[:2])
    assert len(outputs) == 1
    if tolerances:
        assert "first failing instance" in outputs.pop()[1]


class OneCheckAtATime:
    """The reference a suite's block records are held to: a suite fed one
    check at a time, in case order.  A check passes iff its threshold is
    positive and its residual does not exceed it; a NaN residual is the
    largest one from the moment it is seen."""

    def __init__(self):
        self.checks = 0
        self.max_residual = 0.0
        self.fail_instance = None

    def check(self, residual, threshold, instance):
        self.checks += 1
        if residual > self.max_residual or residual != residual:
            self.max_residual = residual
        if self.fail_instance is None and not (threshold > 0 and residual <= threshold):
            self.fail_instance = tuple(round(v, 17) for v in instance)  # as verify prints it

    @property
    def passed(self):
        return self.fail_instance is None


check_values = st.floats(min_value=0.0, allow_infinity=True) | st.just(math.nan)
# each case's instance and its checks, (residual, threshold) pairs, as many per case
check_rows = st.integers(1, 4).flatmap(lambda width: st.lists(
    st.tuples(st.tuples(st.floats(0.05, 5.0)),
              st.lists(st.tuples(check_values, check_values | st.just(0.0)),
                       min_size=width, max_size=width)),
    max_size=40))


def record(suite):  # by repr, since nan != nan
    return suite.checks, repr(suite.max_residual), suite.passed, suite.fail_instance


# a NaN residual, a zero threshold and a failing residual, each in its own
# row after a row that passes, and one block boundary
@example([((1.0,), [(0.5, 1.0), (0.0, 1.0), (0.2, 1.0)]),
          ((2.0,), [(0.5, 1.0), (0.1, 1.0), (math.nan, 1.0)]),
          ((3.0,), [(0.0, 0.0), (0.5, 1.0), (0.5, 1.0)]),
          ((4.0,), [(0.5, 1.0), (2.0, 1.0), (0.5, 1.0)])], [2])
@given(check_rows, st.lists(st.integers(0, 40), max_size=6))
def test_folded_block_suites_record_what_a_serial_suite_records(rows, cuts):
    """Blocks of cases, each checked into its own suite one check at a time
    or as one case-major matrix, fold into what one suite records that is
    fed every check in case order."""
    import numpy as np

    from cevian.verify import _Suite, _rows

    serial = OneCheckAtATime()
    for inst, checks in rows:
        for check in checks:
            serial.check(*check, inst)
    bounds = [0, *sorted(cuts), len(rows)]
    by_check, by_matrix = _Suite("s"), _Suite("s")
    for lo, hi in zip(bounds, bounds[1:]):
        block = rows[lo:hi]
        insts = [inst for inst, _ in block]
        checked = _Suite("s")
        for case, (_, checks) in enumerate(block):
            for check in checks:
                checked.check(insts, [(case, *check)])
        by_check.fold(checked)
        if block:
            folded = _Suite("s")
            values = np.array([checks for _, checks in block])
            # the first column as a group of its own, the rest as a second one
            folded.check(insts, _rows(values[:, 0, 0], values[:, 0, 1]),
                         _rows(values[:, 1:, 0], values[:, 1:, 1]))
            by_matrix.fold(folded)

    want = record(serial)
    assert record(by_check) == want
    assert record(by_matrix) == want
    # a NaN residual is the largest one, wherever it falls
    assert math.isnan(serial.max_residual) == any(
        math.isnan(residual) for _, checks in rows for residual, _ in checks)


# rows, an order over all their checks, and cuts that split the reordered
# checks into groups
shuffled_rows = check_rows.flatmap(lambda rows: st.tuples(
    st.just(rows),
    st.permutations(range(sum(len(checks) for _, checks in rows))),
    st.lists(st.integers(0, 160), max_size=4)))


# the failing checks of cases 3 and 1 come first, in that order, in groups
# of one, two and four rows
@example(([((1.0,), [(0.5, 1.0)]), ((2.0,), [(2.0, 1.0), (0.1, 1.0)]),
           ((3.0,), [(0.5, 1.0)]), ((4.0,), [(0.0, 0.0), (0.5, 1.0), (0.1, 1.0)])],
          [4, 1, 0, 6, 2, 3, 5], [1, 3]))
@given(shuffled_rows)
def test_a_suite_takes_rows_in_any_order_split_over_groups(drawn):
    """Rows in shuffled case order, split over groups of different lengths,
    record what one check at a time in case order records: the smallest
    failing case, not the first failing row."""
    from cevian.verify import _Suite

    rows, order, cuts = drawn
    serial = OneCheckAtATime()
    flat = []
    for case, (inst, checks) in enumerate(rows):
        for check in checks:
            serial.check(*check, inst)
            flat.append((case, *check))
    shuffled = [flat[i] for i in order]
    bounds = [0, *sorted(c % (len(flat) + 1) for c in cuts), len(flat)]
    suite = _Suite("s")
    suite.check([inst for inst, _ in rows],
                *(shuffled[lo:hi] for lo, hi in zip(bounds, bounds[1:])))
    assert record(suite) == record(serial)


def test_the_pass_rule_fails_nan_residuals_and_zero_thresholds():
    from cevian.verify import _Suite

    # (instance, residual, threshold): a residual at its threshold passes;
    # a NaN residual, a zero threshold and a larger residual fail
    cases = [((1.0,), 1.0, 1.0), ((2.0,), math.nan, 1e-9), ((3.0,), 0.0, 0.0),
             ((4.0,), 2.0, 1.0)]
    for inst, residual, threshold in cases:
        alone = _Suite("s")
        alone.check([inst], [(0, residual, threshold)])
        assert alone.passed == (inst == (1.0,))
    serial, block = OneCheckAtATime(), _Suite("s")
    for inst, residual, threshold in cases:
        serial.check(residual, threshold, inst)
    insts, residuals, thresholds = zip(*cases)
    block.check(insts, list(zip(range(len(cases)), residuals, thresholds)))
    for suite in (serial, block):
        assert (suite.checks, repr(suite.max_residual), suite.passed, suite.fail_instance) == \
            (4, "nan", False, (2.0,))
    # a suite keeps the first failure it recorded, and a NaN as its largest residual
    block.check([(5.0,)], [(0, 3.0, 1.0)])
    assert (block.checks, repr(block.max_residual), block.fail_instance) == (5, "nan", (2.0,))
    serial.check(3.0, 1.0, (5.0,))
    assert repr(serial.max_residual) == "nan"
    clean = _Suite("s")
    clean.check([(5.0,)], [(0, 3.0, 1.0)])
    clean.fold(serial)
    assert repr(clean.max_residual) == "nan"


def test_a_warning_raised_in_a_worker_reaches_the_caller(monkeypatch):
    import warnings
    from argparse import Namespace

    from cevian import coord_oracle, verify

    monkeypatch.setattr(coord_oracle, "_COND_LIMIT", 1.0)
    monkeypatch.setattr(verify, "_processes", lambda blocks: 2)
    args = Namespace(seed=1, cases=20, scope="tri", rtol=1e-9, atol=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeWarning, match="ill-conditioned"):
            verify.cmd_verify(args)


def test_verify_subprocess_deterministic():
    cmd = [sys.executable, "-m", "cevian.cli", "verify", "--seed", "3",
           "--cases", "30", "--scope", "all"]
    r1 = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    r2 = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    assert "status PASS" in r1.stdout


def test_verify_blocks_load_no_module_the_parent_lacks():
    """A forked worker inherits the modules the parent holds once it has
    imported cevian.verify; one it imports itself (numpy.random, which
    ``import numpy`` does not load) is paid again by every worker of every
    call."""
    script = (
        "import sys\n"
        "from cevian import verify\n"
        "before = set(sys.modules)\n"
        "for half in ('tri', 'tet'):\n"
        "    verify._run_block(half, 42, 0, 4, 1e-9, 1e-12)\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                       timeout=120, env=env)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


# full reports: every section each subcommand has
FULL_TRI = ("--centers", "all", "--distances", "all", "--metrics", "--inequalities", "--areas")
FULL_TET = ("--centers", "G,I,Q,E_A,E_B,E_C,E_D,power:2", "--distances", "all", "--metrics",
            "--inequalities", "--project", "BCD")


@pytest.mark.parametrize("command, option, points, pairs, full", [
    ("tri", "sides", [[0.1, 0.2], [5.3, 0.7], [3.3, 2.9]],
     ((1, 2), (2, 0), (0, 1)), FULL_TRI),                                 # BC CA AB
    ("tet", "edges", [[0.1, 0.2, 0.3], [1.7, 0.1, 0.4], [0.2, 1.3, 0.5], [0.3, 0.4, 1.9]],
     ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (3, 1)), FULL_TET),       # AB AC AD BC CD DB
])
def test_coords_report_is_the_report_of_its_lengths(tmp_path, capsys, command, option, points,
                                                     pairs, full):
    f = tmp_path / "pts.json"
    f.write_text(json.dumps({"points": points}))
    lengths = [repr(math.dist(points[i], points[j])) for i, j in pairs]
    code, out, _ = run_cli(capsys, command, "--coords", str(f), *full)
    assert code == 0
    from_coords = json.loads(out)
    code, out, _ = run_cli(capsys, command, f"--{option}", *lengths, *full)
    assert code == 0
    from_lengths = json.loads(out)
    assert from_coords["input"].pop("source") == "coords"
    assert from_lengths["input"].pop("source") == option
    assert from_coords == from_lengths


def test_reports_import_neither_numpy_nor_the_oracle(tmp_path):
    """A report process loads its own shape's modules only: no numpy, no
    oracle, no harness, no dataclasses, and no module of the other shape.
    Modules a bare interpreter already holds (site's imports) do not count."""
    f = tmp_path / "pts.json"
    f.write_text(json.dumps({"points": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.2, 0.3, 1]]}))
    (tmp_path / "tri.json").write_text(json.dumps({"points": [[0, 0], [3, 0], [0, 4]]}))
    never = ("numpy", "multiprocessing", "dataclasses", "inspect", "cevian.coord_oracle",
             "cevian.verify")
    runs = {"tri": ([["tri", "--sides", "3", "4", "5", *FULL_TRI],
                     ["tri", "--coords", str(tmp_path / "tri.json"), "--centers", "I"]],
                    "cevian.tet_"),
            "tet": ([["tet", "--edges", "3", "4", "5", "5", "6", "7", *FULL_TET,
                      "--point-dists", "3", "4", "4", "5"],
                     ["tet", "--coords", str(f), *FULL_TET]],
                    "cevian.tri_")}
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    for shape, (argvs, other) in runs.items():
        script = (
            "import sys\n"
            "bare = set(sys.modules)\n"
            "import contextlib, io\n"
            "from cevian.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [main(argv) for argv in {argvs!r}]\n"
            "loaded = set(sys.modules) - bare\n"
            f"print(codes, sorted(m for m in loaded if m in {never!r} or m.startswith({other!r})))\n"
        )
        r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           timeout=120, env=env)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "[0, 0] []", shape


@pytest.mark.parametrize("argv", [
    ("tri", "--sides", "3", "4", "5"),
    ("tet", "--edges", "3", "4", "5", "5", "6", "7", "--format", "csv"),
    ("verify", "--cases", "5"),
])
def test_a_closed_stdout_exits_141_without_a_traceback(argv):
    """A reader that has gone before the output is neither a crash nor a
    failed verification (exit 1): the run ends quietly with the status a
    shell gives a tool a closed pipe ended."""
    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as by default on a pipe
    try:
        r = subprocess.run([sys.executable, "-m", "cevian.cli", *argv], stdout=write,
                           stderr=subprocess.PIPE, text=True, timeout=120, env=env)
    finally:
        os.close(write)
    assert (r.returncode, r.stderr) == (141, "")


def test_verify_without_numpy_names_the_extra():
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from cevian.cli import main\n"
        "sys.exit(main(['verify', '--cases', '1']))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                       timeout=120, env=env)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("error: ModuleNotFoundError: ")
    assert "'cevian[verify]'" in r.stderr


@pytest.mark.parametrize("argv", [
    # pair_sum's fsum meets -inf + inf
    ("tri", "--sides", "3e40", "4e40", "5e40", "--inequalities"),
    ("tet", "--edges", "3e30", "4e30", "5e30", "5e30", "6e30", "7e30", "--inequalities"),
    # the H weights are finite but their sum overflows in _normalized
    ("tri", "--sides", "5.6e76", "7.28e76", "1.064e77", "--centers", "H"),
    # the volume gate's delta2 ** 3 overflows
    ("tet", "--edges", "3e60", "3e60", "3e60", "2e60", "2e60", "2e60"),
])
def test_float_range_overflow_is_input_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: GeometryError: ")


def test_full_reports_over_the_float_range_never_crash(capsys):
    for e in range(-300, 301, 10):
        s = 10.0 ** e
        for argv in (["tri", "--sides", *(repr(x * s) for x in (5.6, 7.28, 10.64)), *FULL_TRI],
                     ["tet", "--edges", *(repr(x * s) for x in (3, 4, 5, 5, 6, 7)), *FULL_TET]):
            code, out, _ = run_cli(capsys, *argv)
            assert code in (0, 2), argv
            assert "NaN" not in out and "Infinity" not in out, argv

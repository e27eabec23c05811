import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

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


def test_coincident_centers_print_no_violated_inequality(capsys):
    # G, I and Q of this disphenoid coincide, so every slack is 0; the
    # rounding noise of QG and QI, R^2 minus a sum of squared edges near
    # 3.6e7, printed as -2.42e-08 before the slacks had a rounding window
    code, out, _ = run_cli(capsys, "tet", "--edges", "4000", "5000", "6000", "6000", "4000",
                           "5000", "--inequalities", "--centers", "")
    assert code == 0
    slacks = json.loads(out)["inequalities"]
    assert slacks["QG"] == slacks["QI"] == 0.0
    assert set(slacks.values()) == {0.0}


def test_power_center_in_pair_token(capsys):
    code, out, _ = run_cli(capsys, "tet", "--edges", "3", "3", "3", "2", "2",
                           "2", "--distances", "G:power:2")
    assert code == 0
    doc = json.loads(out)
    assert list(doc["distances"]) == ["G:power:2"]


@pytest.mark.parametrize("flag", ["--centers", "--distances"])
def test_steep_power_centers_answer(capsys, flag):
    # the face-area ratios' powers are at most 1, so power:1000 does not overflow
    token = "power:1000" if flag == "--centers" else "G:power:1000"
    code, out, err = run_cli(capsys, "tet", "--edges", "3", "4", "5", "5", "6", "7",
                             flag, token)
    assert code == 0 and err == ""
    doc = json.loads(out)
    if flag == "--centers":
        weights = doc["centers"]["power:1000"]["components"]
        assert all(map(math.isfinite, weights)) and math.fsum(weights) == pytest.approx(1.0)
    else:
        assert math.isfinite(doc["distances"]["G:power:1000"]["distance"])


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


# coords files no JSON reader takes: a byte that is not UTF-8, an integer
# past Python's 4300-digit limit, and arrays nested past the recursion limit
MALFORMED_COORDS = {
    "not_utf8": b'{"points": [[0, 0], [3, 0], [0, 4]]}\xff',
    "digits": b'{"points": [[' + b"1" * 5000 + b', 0], [3, 0], [0, 4]]}',
    "nested": b"[" * 100_000,
}


@pytest.mark.parametrize("command", ["tri", "tet"])
@pytest.mark.parametrize("name", MALFORMED_COORDS)
def test_malformed_coords_file_is_input_error(tmp_path, capsys, command, name):
    f = tmp_path / "pts.json"
    f.write_bytes(MALFORMED_COORDS[name])
    code, out, err = run_cli(capsys, command, "--coords", str(f))
    assert code == 2
    assert out == ""
    assert err.startswith("error: GeometryError: coords file is not valid JSON: ")


@pytest.mark.parametrize("command, name, points", [
    ("tri", "Dreieck ä", [[0, 0], [3, 0], [0, 4]]),
    ("tet", "Tetraeder ä", [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.2, 0.3, 1]]),
])
def test_coords_file_is_read_as_utf8_in_the_c_locale(tmp_path, command, name, points):
    # with neither UTF-8 mode nor locale coercion, the C locale's own
    # encoding is ASCII
    f = tmp_path / "pts.json"
    f.write_text(json.dumps({"name": name, "points": points}, ensure_ascii=False),
                 encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)),
               LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
    r = subprocess.run([sys.executable, "-m", "cevian.cli", command, "--coords", str(f),
                        "--centers", "G"], capture_output=True, text=True, timeout=120, env=env)
    assert (r.returncode, r.stderr) == (0, "")
    assert json.loads(r.stdout)["input"]["source"] == "coords"


@pytest.mark.parametrize("command, option, lengths, lists", [
    ("tri", "--sides", ("3", "4", "5"), ("--centers", "--distances")),
    ("tet", "--edges", ("3", "4", "5", "5", "6", "7"), ("--centers", "--distances", "--project")),
])
def test_an_empty_list_is_the_option_left_out(capsys, command, option, lengths, lists):
    for extra in ((), ("--metrics",)):
        want = run_cli(capsys, command, option, *lengths, *extra)
        assert want[0] == 0
        for flag in lists:
            assert run_cli(capsys, command, option, *lengths, *extra, flag, "") == want


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


@pytest.mark.parametrize("argv", [("--cases", "3"), ("--cases", "100", "--scope", "all")])
def test_verify_with_under_two_blocks_per_worker_starts_no_pool(capsys, monkeypatch, argv):
    # starting a pool costs about a block's work, so each worker gets two
    import multiprocessing

    from cevian import verify

    def no_pool(method):
        raise AssertionError(f"a {method} pool was started")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    code, out, _ = run_cli(capsys, "verify", *argv)
    assert code == 0 and "verify: PASS" in out
    assert [verify._processes(blocks) <= blocks // 2 or verify._processes(blocks) == 1
            for blocks in range(1, 17)] == [True] * 16


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



@pytest.mark.parametrize("scale", [0.05, 5.0])
@pytest.mark.parametrize("half, name", [("tri", "QG"), ("tri", "IH"), ("tet", "QG"),
                                        ("tet", "IQ")])
def test_the_window_is_verify_threshold(monkeypatch, half, name, scale):
    # a raw slack at -window reads 0.0 in a report and passes verify; the
    # next float below it prints negative and fails verify's suite.  The
    # shapes are scaled off the unit shape, so k != 0
    from cevian import tet_metrics, tri_metrics, verify
    from cevian.core_model import ATOL, TetraEdges, TriangleSides
    from numpy.random import default_rng
    cls, report = ((TriangleSides, tri_metrics.inequality_slacks) if half == "tri"
                   else (TetraEdges, tet_metrics.tet_inequality_slacks))
    table = cls._slacks.method
    _, draw, run_block, suites = verify._HALVES[half]
    rngs = [default_rng([42, i]) for i in range(8)]
    base = next(s for s in draw(rngs) if s is not None)
    shape = type(base)(*(scale * x for x in base.as_tuple()))
    assert shape._k != 0
    for below in (False, True):
        def noisy(self):
            slacks = dict(table(self))
            c = slacks[name][1]
            edge = -ATOL * (c * c) * max(self._pair_e)
            slacks[name] = (math.nextafter(edge, -math.inf) if below else edge, c)
            return slacks

        monkeypatch.setattr(cls._slacks, "method", noisy)
        value = report(type(shape)(*shape.as_tuple()))[name]
        assert value < 0.0 if below else value == 0.0
        by_name = {n: verify._Suite(n) for n in suites}
        run_block([type(shape)(*shape.as_tuple())], [default_rng(7)], by_name, 1e-9, 1e-12)
        assert by_name[half + ".inequalities"].passed is not below


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
    # IH (degree 12 in the lengths) and IQ (degree 18) are past the float range
    ("tri", "--sides", "3e40", "4e40", "5e40", "--inequalities"),
    ("tet", "--edges", "3e30", "4e30", "5e30", "5e30", "6e30", "7e30", "--inequalities"),
])
def test_float_range_overflow_is_input_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: GeometryError: ") and "leaves the floating-point range" in err


def _scaled_down(argv, k):
    """``argv`` with each length times 2**-k."""
    i = argv.index("--sides" if argv[0] == "tri" else "--edges") + 1
    n = 3 if argv[0] == "tri" else 6
    return argv[:i] + [repr(math.ldexp(float(x), -k)) for x in argv[i:i + n]] + argv[i + n:]


# inputs that used to exit 2 with no answer: H's weights, or the volume gate,
# at the user's scale, left the float range; the centers are scale-free, so
# every report equals the report on the lengths scaled by a power of two
@pytest.mark.parametrize("argv", [
    ["tri", "--sides", "5.6e76", "7.28e76", "1.064e77", "--centers", "H"],
    ["tri", "--sides", "3e200", "4e200", "5.5e200", "--centers", "H"],
    ["tri", "--sides", "3e100", "4.1e100", "5e100", "--centers", "H"],
    ["tri", "--sides", "3e-4", "4e-4", "5.5e-4", "--centers", "H"],
    ["tri", "--sides", "3e-200", "4e-200", "5.5e-200", "--centers", "H"],
    ["tet", "--edges", "3e60", "3e60", "3e60", "2e60", "2e60", "2e60"],
    ["tet", "--edges", "3e-3", "3e-3", "3e-3", "2e-3", "2e-3", "2e-3"],
    ["tet", "--edges", "3e-150", "3e-150", "3e-150", "2e-150", "2e-150", "2e-150"],
    ["tet", "--edges", "3", "4", "5", "5", "6", "7", "--centers", "power:-1000"],
])
def test_scale_reproducers_answer_as_at_unit_scale(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    doc = json.loads(out)
    k = math.frexp(max(doc["input"]["lengths"].values()))[1]
    code, unit, _ = run_cli(capsys, *_scaled_down(argv, k))
    assert code == 0
    del doc["input"]
    assert json.dumps(doc, sort_keys=True) == json.dumps(
        {key: v for key, v in json.loads(unit).items() if key != "input"}, sort_keys=True)
    for entry in doc["centers"].values():
        assert math.fsum(entry["components"]) == pytest.approx(1.0)


# each report section alone, besides the full report: a section that raises
# first in the full report would hide a NaN or an infinity in a later one
_SECTIONS = [(k, s) for k, full, first in (("tri", FULL_TRI, ("--centers", "all")),
                                           ("tet", FULL_TET, FULL_TET[:2]))
             for s in (full, first, ("--distances", "all"), ("--metrics",), ("--inequalities",),
                       ("--areas",) if k == "tri" else ("--project", "BCD"))]


@pytest.mark.parametrize("command, section", _SECTIONS,
                         ids=[f"{k}-{'full' if len(s) > 2 else s[0][2:]}" for k, s in _SECTIONS])
def test_full_reports_over_the_float_range_never_crash(capsys, command, section):
    option, lengths = (("--sides", (5.6, 7.28, 10.64)) if command == "tri"
                       else ("--edges", (3, 4, 5, 5, 6, 7)))
    for e in range(-300, 301, 10):
        s = 10.0 ** e
        argv = [command, option, *(repr(x * s) for x in lengths), *section]
        code, out, _ = run_cli(capsys, *argv)
        assert code in (0, 2), argv
        assert "NaN" not in out and "Infinity" not in out, argv


# --------------------------------------------------------------------------
# the CLI's whole input domain, fuzzed in process

COORDS = "<coords>"  # stands for the path of the drawn coords file

numbers = (st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "-0.0", "0", "5e-324",
                            "-5e-324", "2.2250738585072014e-308", "1e308", "-1e308", "1e400",
                            str(10 ** 400), "1_0", "0x10", "x", ""])
           | st.floats().map(repr) | st.integers(-3, 12).map(str))
tolerances = st.sampled_from(["1e-9", "1e-6", "0.5"]) | numbers
# valid lengths, mostly at unit scale but at every scale of the float range,
# or numbers of any kind, as many as argparse wants or not
_VALID = {3: [(3, 4, 5), (1, 1, 1), (5.6, 7.28, 10.64), (1, 1, 1.999)],
          4: [(3, 4, 5, 5, 6, 7), (1, 1, 1, 1, 1, 1), (3, 3, 3, 2, 2, 2), (1, 1, 1, 1, 1, 1.99)]}
scales = st.just(1.0) | st.sampled_from([10.0 ** e for e in range(-320, 310, 20)])


def lengths(n):
    valid = st.tuples(st.sampled_from(_VALID[n]), scales).map(
        lambda t: [repr(x * t[1]) for x in t[0]])
    return valid | valid | st.lists(numbers, min_size=n, max_size=n) | st.lists(
        numbers, max_size=n + 1)


kinds = st.sampled_from(["G", "I", "H", "Q", "E_A", "E_B", "E_C", "E_D", "g", "e_b", "power:2",
                         "power:-1.5"])
center_tokens = kinds | st.sampled_from(["power:x", "power:nan", "power:inf", "power:1e400",
                                         "power:1000", "power:", "Z", "", " G"]) | st.text(
    max_size=4)
separators = st.sampled_from([",", ",,", ", ", ";"])


def joined(tokens, sep=st.just(",")):
    return st.tuples(st.lists(tokens, max_size=4), sep).map(lambda t: t[1].join(t[0]))


center_lists = st.sampled_from(["all", ""]) | joined(kinds) | joined(center_tokens, separators)
pair_lists = st.sampled_from(["all", ""]) | joined(st.tuples(kinds, kinds).map(":".join)) | joined(
    st.tuples(center_tokens, st.sampled_from([":", "::", "-"]), center_tokens).map("".join),
    separators)
faces = st.sampled_from(["BCD", "CDA", "DAB", "ABC", "bcd", "ABD", "DCB", "", "AB"]) | st.text(
    max_size=4)
rarely = st.sampled_from([False, False, False, True])


@st.composite
def argvs(draw):
    """An argv over the real options of tri, tet and verify, in any order;
    verify runs at most 3 cases."""
    command = draw(st.sampled_from(["tri", "tet", "verify"]))
    groups = [["--format", draw(st.sampled_from(["json", "csv", "xml"]))],
              ["--rtol", draw(tolerances)], ["--atol", draw(tolerances)]]
    if command == "verify":
        groups += [["--seed", draw(st.integers(-2, 2 ** 70).map(str)
                                   | st.sampled_from(["x", str(10 ** 400)]))],
                   ["--scope", draw(st.sampled_from(["tri", "tet", "all", "both"]))]]
    else:
        n = 3 if command == "tri" else 4
        groups += [["--centers", draw(center_lists)], ["--distances", draw(pair_lists)],
                   ["--metrics"], ["--inequalities"]]
        if n == 3:
            groups += [["--areas"]]
        else:
            groups += [["--project", draw(faces)], ["--point-dists", *draw(st.lists(
                st.sampled_from(["1", "2.5"]) | numbers, min_size=4, max_size=4))]]
    kept = [g for g in groups if draw(st.booleans())]
    if command == "verify":
        kept.append(["--cases", draw(st.sampled_from(["1", "2", "3", "0", "-1"]))])
    else:  # the lengths, a coords file, both or neither
        if not draw(rarely):
            kept.append(["--sides" if n == 3 else "--edges", *draw(lengths(n))])
        if draw(rarely):
            kept.append(["--coords", draw(st.sampled_from([COORDS, COORDS, "", "missing.json"]))])
    if draw(rarely) and draw(rarely):
        kept.append([draw(st.sampled_from(["-h", "--bogus"]))])
    return [command] + [tok for g in draw(st.permutations(kept)) for tok in g]


json_trees = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["points", "x"]) | st.text(max_size=3), inner, max_size=3),
    max_leaves=8)
coord_points = st.lists(st.lists(st.floats(-10, 10) | st.integers(-10, 10) | st.floats(),
                                 min_size=2, max_size=3), min_size=3, max_size=4)
coords_files = (coord_points.map(lambda pts: json.dumps({"points": pts}).encode())
                | json_trees.map(lambda doc: json.dumps(doc).encode())
                | st.binary(max_size=40))


@example(["tri", "--coords", COORDS], MALFORMED_COORDS["not_utf8"])
@example(["tet", "--coords", COORDS], MALFORMED_COORDS["digits"])
@example(["tri", "--coords", COORDS, "--metrics"], MALFORMED_COORDS["nested"])
@example(["tet", "--coords", COORDS, "--centers", ""],
         json.dumps({"name": "Tetraeder ä", "points": [[0, 0, 0], [1, 0, 0], [0, 1, 0],
                                                        [0, 0, 1]]}, ensure_ascii=False).encode())
# generation time depends on the machine, so it is no health check here
@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs(), data=coords_files)
def test_every_input_exits_0_or_2_with_a_typed_error(tmp_path_factory, argv, data):
    """main returns 0 or 2, or 1 for a verify FAIL; argparse exits 0 or 2;
    nothing else escapes, and a 2 ends stderr with the typed error."""
    path = tmp_path_factory.getbasetemp() / "fuzz-coords.json"
    path.write_bytes(data)
    argv = [str(path) if tok == COORDS else tok for tok in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: --help, or an argv it cannot parse
            assert exc.code in (0, 2), argv
            return
    assert code in (0, 2) or (code == 1 and "verify: FAIL" in out.getvalue()), argv
    if code == 2:
        assert re.match(r"error: \w+: ", err.getvalue().splitlines()[-1]), (argv, err.getvalue())

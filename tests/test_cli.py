import json
import subprocess
import sys

import pytest

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
    assert doc["centers"]["I"]["provenance"] == "closed-form"


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


def test_verify_subprocess_deterministic():
    cmd = [sys.executable, "-m", "cevian.cli", "verify", "--seed", "3",
           "--cases", "30", "--scope", "all"]
    r1 = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    r2 = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    assert "status PASS" in r1.stdout

"""Every file in tests/golden/ equals its rendering in tests/goldens.py byte
for byte, and the registry there names each file; what the digit ledgers
must cover; and golden_cases.py, the standard-library script CI runs the
report cases through."""

import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest

import cevian
import golden_cases
from golden_cases import CASES
from goldens import GOLDEN_DIR, GOLDENS, render

SRC = str(pathlib.Path(cevian.__file__).parent.parent)  # the directory holding the package


def first_difference(got: bytes, want: bytes) -> str:
    """The first line that differs between two renderings, with its number;
    a digit ledger's line opens with its shape's lengths."""
    got_lines = got.decode("utf-8", "replace").splitlines(keepends=True)
    want_lines = want.decode("utf-8", "replace").splitlines(keepends=True)
    for n, (g, w) in enumerate(itertools.zip_longest(got_lines, want_lines, fillvalue=""), 1):
        if g != w:
            return f"line {n} differs: want {w[:200]!r}, got {g[:200]!r}"
    return ""


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_golden_file_matches_its_rendering(name):
    path = GOLDEN_DIR / name
    if not path.exists():
        pytest.fail(f"{path} is missing; PYTHONPATH=src python tests/goldens.py writes it",
                    pytrace=False)
    got, want = render(name), path.read_bytes()
    if got != want:
        pytest.fail(f"{name}: {first_difference(got, want)}", pytrace=False)


def test_every_golden_file_is_registered():
    assert set(GOLDENS) == {p.name for p in GOLDEN_DIR.iterdir()}


def _ledger(name):
    return json.loads((GOLDEN_DIR / name).read_text())


def test_engine_ledger_covers_the_coincident_center_and_right_angle_paths():
    want = _ledger("engine_digits.json")
    equilateral, right = want["triangles"][0], want["triangles"][1]
    regular = want["tetrahedra"][0]
    for rec in (equilateral, regular):
        assert {r[3] for r in rec["pair_table"] if "E_" not in r[0] + r[1]} == {"0.0"}
    assert right["components"]["H"] == ["0.0", "0.0", "1.0"]


def test_tri_report_ledger_covers_a_right_angle_and_coincident_centers():
    want = _ledger("tri_report_digits.json")
    equilateral, right = want[:2]
    assert right["ir"]["H"].startswith("!RightAngleOrthocenter: ")
    assert right["ir"]["Q"].startswith("!ZeroComponent: ")
    assert all(isinstance(right["ir"][k], list) for k in right["ir"] if k not in "HQ")
    assert [equilateral["slacks"][k] for k in ("GI", "GH", "IH")] == ["-0.0"] * 3


def test_tet_report_ledger_covers_coincident_centers_and_a_circumcenter_on_a_face():
    want = _ledger("tet_report_digits.json")
    regular, isosceles, on_face = want[:3]
    assert all(regular["forms"][k] == "0.0" for k in ("QG", "QI", "GI", "GQ", "IQ"))
    assert isosceles["forms"]["GI"] == "0.0" and isosceles["slacks"]["GI"] == "-0.0"
    assert on_face["ir_tensors"]["Q"].startswith("!ZeroComponent: component of A ~ 0")
    assert all(isinstance(t, dict) for k, t in on_face["ir_tensors"].items() if k != "Q")


@pytest.mark.parametrize("command, problem", [
    (("-S", "-m", "cevian.cli"), ""),
    # a command that prints nothing fails at the first report case
    (("-S", "-c", ""), "tri_3_4_5.json: the stdout of `"),
], ids=["cli", "silent"])
def test_the_golden_script_runs_every_report_case(command, problem):
    # as CI runs it: a bare interpreter, with the package on PYTHONPATH alone
    script = pathlib.Path(__file__).with_name("golden_cases.py")
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("CEVIAN_TOL_RTOL", None)
    run = subprocess.run([sys.executable, "-S", str(script), sys.executable, *command],
                         capture_output=True, text=True, env=env)
    assert run.returncode == (1 if problem else 0), run.stderr
    assert run.stderr.startswith(problem)


def test_the_golden_script_fails_when_a_report_case_is_missing(monkeypatch):
    monkeypatch.delitem(CASES, "tri_3_4_5.json")
    monkeypatch.setenv("PYTHONPATH", SRC)
    monkeypatch.delenv("CEVIAN_TOL_RTOL", raising=False)
    assert golden_cases.check_reports((sys.executable, "-S", "-m", "cevian.cli")) == (
        "8 report cases ran, not the nine")

"""Golden CLI reports: the stdout of `cevian tri` / `cevian tet` / `cevian
verify` for fixed inputs, compared byte for byte against the files in
tests/golden/, with the exit code each run must give.

The runs are listed in tests/golden_cases.py, which CI also reads.  A
change that is meant to keep every report identical must leave these files
alone.  A change that moves digits on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and the diff of tests/golden/ then shows exactly which values moved.
"""

import contextlib
import io
import os
import pathlib
import subprocess
import sys

import pytest

import cevian
import golden_cases
from cevian.cli import main
from golden_cases import CASES, EXIT_CODES

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
SRC = str(pathlib.Path(cevian.__file__).parent.parent)  # the directory holding the package


def render(name) -> str:
    """What the case's `cevian ARGV` prints on stdout; it must exit with the
    case's code.  stderr (verify's elapsed time) is not compared."""
    argv = CASES[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    want = EXIT_CODES.get(name, 0)
    assert code == want, f"cevian {' '.join(argv)} exited {code}, want {want}"
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, monkeypatch):
    monkeypatch.delenv("CEVIAN_TOL_RTOL", raising=False)
    want = (GOLDEN_DIR / name).read_text()
    assert render(name) == want


@pytest.mark.parametrize("command, problem", [
    (("-S", "-m", "cevian.cli"), ""),
    # a command that prints nothing fails at the first report case
    (("-S", "-c", ""), "tri_3_4_5.json: the stdout of `"),
], ids=["cli", "silent"])
def test_the_golden_script_runs_every_report_case(command, problem):
    # as CI runs it: a bare interpreter, with the package on PYTHONPATH alone
    script = pathlib.Path(__file__).with_name("golden_cases.py")
    run = subprocess.run([sys.executable, "-S", str(script), sys.executable, *command],
                         capture_output=True, text=True, env=_bare_env())
    assert run.returncode == (1 if problem else 0), run.stderr
    assert run.stderr.startswith(problem)


def test_the_golden_script_fails_when_a_report_case_is_missing(monkeypatch):
    monkeypatch.delitem(CASES, "tri_3_4_5.json")
    monkeypatch.setenv("PYTHONPATH", SRC)
    monkeypatch.delenv("CEVIAN_TOL_RTOL", raising=False)
    assert golden_cases.check_reports((sys.executable, "-S", "-m", "cevian.cli")) == (
        "8 report cases ran, not the nine")


def _bare_env() -> dict:
    """The environment with the package's source on PYTHONPATH alone and no
    tolerance override."""
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("CEVIAN_TOL_RTOL", None)
    return env


if __name__ == "__main__":
    import os

    os.environ.pop("CEVIAN_TOL_RTOL", None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in CASES:
        (GOLDEN_DIR / name).write_text(render(name))
        print(f"wrote {GOLDEN_DIR / name}")

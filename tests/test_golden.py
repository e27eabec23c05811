"""Golden CLI reports: the stdout of `cevian tri` / `cevian tet` / `cevian
verify` for fixed inputs, compared byte for byte against the files in
tests/golden/, with the exit code each run must give.

A change that is meant to keep every report identical must leave these
files alone.  A change that moves digits on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and the diff of tests/golden/ then shows exactly which values moved.
"""

import contextlib
import io
import pathlib

import pytest

from cevian.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

_TRI_ALL = ("--centers", "all", "--distances", "all", "--metrics",
            "--inequalities", "--areas")
_TET_ALL = ("--centers", "all", "--distances", "all", "--metrics",
            "--inequalities", "--project", "ABC")

_VERIFY = ("verify", "--seed", "7", "--cases", "300", "--scope", "all")

# file name -> cevian arguments; every run exits 0 unless EXIT_CODES says
# otherwise
CASES = {
    "tri_3_4_5.json": ("tri", "--sides", "3", "4", "5", *_TRI_ALL),
    "tri_4.3_5.1_6.7.json": ("tri", "--sides", "4.3", "5.1", "6.7", *_TRI_ALL),
    "tri_0.3_0.3_0.3.json": ("tri", "--sides", "0.3", "0.3", "0.3", *_TRI_ALL),
    "tri_4.3_5.1_6.7.csv": ("tri", "--sides", "4.3", "5.1", "6.7", *_TRI_ALL,
                            "--format", "csv"),
    "tet_3_4_5_5_6_7.json": ("tet", "--edges", "3", "4", "5", "5", "6", "7", *_TET_ALL),
    "tet_3_3_3_2_2_2.json": ("tet", "--edges", "3", "3", "3", "2", "2", "2", *_TET_ALL),
    "tet_1_1_1_1_1_1.json": ("tet", "--edges", "1", "1", "1", "1", "1", "1", *_TET_ALL),
    "tet_3_4_5_5_6_7.csv": ("tet", "--edges", "3", "4", "5", "5", "6", "7", *_TET_ALL,
                            "--format", "csv"),
    "tet_3_4_5_5_6_7_power.json": ("tet", "--edges", "3", "4", "5", "5", "6", "7",
                                   "--centers", "G,power:2", "--distances", "G:power:2"),
    # more than two blocks of verify cases, and the same run at zero
    # tolerances, whose suites with a nonzero residual fail and print their
    # first failing instance
    "verify_seed7_300.txt": _VERIFY,
    "verify_seed7_300_exact.txt": (*_VERIFY, "--rtol", "0", "--atol", "0"),
    # the certification run the README documents; CI also compares its
    # stdout with this file
    "verify_seed42_1000.txt": ("verify", "--seed", "42", "--cases", "1000", "--scope", "all"),
}
EXIT_CODES = {"verify_seed7_300_exact.txt": 1}


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


if __name__ == "__main__":
    import os

    os.environ.pop("CEVIAN_TOL_RTOL", None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in CASES:
        (GOLDEN_DIR / name).write_text(render(name))
        print(f"wrote {GOLDEN_DIR / name}")

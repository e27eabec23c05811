"""Golden CLI reports: the stdout of `cevian tri` / `cevian tet` for fixed
inputs, compared byte for byte against the files in tests/golden/.

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

# file name -> cevian arguments
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
}


def render(argv) -> str:
    """What `cevian ARGV` prints on stdout; the report must succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, f"cevian {' '.join(argv)} exited {code}"
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, monkeypatch):
    monkeypatch.delenv("CEVIAN_TOL_RTOL", raising=False)
    want = (GOLDEN_DIR / name).read_text()
    assert render(CASES[name]) == want


if __name__ == "__main__":
    import os

    os.environ.pop("CEVIAN_TOL_RTOL", None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN_DIR / name).write_text(render(argv))
        print(f"wrote {GOLDEN_DIR / name}")

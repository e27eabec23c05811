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
import pathlib
import subprocess
import sys

import pytest

from cevian.cli import main
from golden_cases import CASES, EXIT_CODES, report_lines

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


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


def test_printed_report_lines_are_the_report_cases():
    # CI's loops split each line the script prints at whitespace
    script = pathlib.Path(__file__).with_name("golden_cases.py")
    out = subprocess.run([sys.executable, "-S", str(script)], capture_output=True, text=True,
                         check=True).stdout
    assert out.splitlines() == report_lines()
    cases = {name: tuple(argv) for name, *argv in map(str.split, report_lines())}
    assert cases == {name: argv for name, argv in CASES.items() if argv[0] != "verify"}
    assert len(cases) == 9


if __name__ == "__main__":
    import os

    os.environ.pop("CEVIAN_TOL_RTOL", None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in CASES:
        (GOLDEN_DIR / name).write_text(render(name))
        print(f"wrote {GOLDEN_DIR / name}")

"""The golden CLI runs: each file in tests/golden/ that `cevian` prints,
with the arguments that print it and the exit code the run must give.

tests/goldens.py renders the runs in process, where tests/test_goldens.py
compares them with the files.  Run as a script, with the standard library
alone,

    python -S tests/golden_cases.py CMD...

runs each report case as `CMD ARG...` (CMD is `cevian`, or `python -S -m
cevian.cli` on a source tree), compares its stdout with the case's file byte
for byte and its exit code with the case's, and exits 1 naming the first
case that differs, or if fewer than the nine report cases ran.
"""

import pathlib
import subprocess
import sys

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


GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def check_reports(command) -> str:
    """Run each tri / tet case, in CASES order, as ``command`` followed by
    its arguments: "" when every run prints its file and exits with its
    code, else what differs first."""
    ran = 0
    for name, argv in CASES.items():
        if argv[0] not in ("tri", "tet"):
            continue
        run = subprocess.run([*command, *argv], stdout=subprocess.PIPE)
        want = EXIT_CODES.get(name, 0)
        if run.stdout != (GOLDEN_DIR / name).read_bytes():
            return f"{name}: the stdout of `{' '.join((*command, *argv))}` differs"
        if run.returncode != want:
            return f"{name}: `{' '.join((*command, *argv))}` exited {run.returncode}, not {want}"
        ran += 1
    if ran < 9:
        return f"{ran} report cases ran, not the nine"
    return ""


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: python -S tests/golden_cases.py CMD...")
    problem = check_reports(sys.argv[1:])
    if problem:
        sys.exit(problem)
    print(f"every report case matches its golden through {' '.join(sys.argv[1:])}")

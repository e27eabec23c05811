"""Record the verify check counts the verify_all workload compares against.

    PYTHONPATH=src python3 perfbench/record.py

writes perfbench/verify_expected.json: for each seed of the pool, the
per-suite check counts and the ran/skipped case counts of
`verify --scope tri` and `verify --scope tet` with `--cases VERIFY_CASES`.
It also runs the documented `verify --scope all` call once and checks that
its suites and counts are those of its tri and tet calls together, which is
what lets the workload time the two halves in its place.

Every recorded run must PASS.  Re-record only when verify's checks change on
purpose; the counts are what make a silently dropped check visible.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from cevian import cli  # noqa: E402
from workloads import (EXPECTED_PATH, VERIFY_CASES, VERIFY_SCOPES, VERIFY_SEEDS,  # noqa: E402
                       parse_verify, run_verify)


def record(scope, seed):
    _, code, out = run_verify(cli, scope, seed, VERIFY_CASES)
    suites, verdict = parse_verify(out)
    if code != 0 or verdict is None or verdict[0] != "PASS":
        raise SystemExit(f"verify --scope {scope} --seed {seed} --cases {VERIFY_CASES} did not pass")
    return list(suites), [suites[n][0] for n in suites] + list(verdict[1:])


def main():
    doc = {"cases": VERIFY_CASES, "seeds": list(VERIFY_SEEDS), "suites": {}}
    for scope in VERIFY_SCOPES:
        doc[scope] = {}
        for seed in VERIFY_SEEDS:
            names, doc[scope][str(seed)] = record(scope, seed)
            if doc["suites"].setdefault(scope, names) != names:
                raise SystemExit(f"suite list of --scope {scope} changed: {names}")
    seed = VERIFY_SEEDS[0]
    names, counts = record("all", seed)
    tri, tet = (doc[scope][str(seed)] for scope in VERIFY_SCOPES)
    n_tri, n_tet = len(doc["suites"]["tri"]), len(doc["suites"]["tet"])
    split = (tri[:n_tri] + tet[:n_tet]
             + [tri[n_tri] + tet[n_tet], tri[n_tri + 1] + tet[n_tet + 1],
                tri[n_tri + 2] + tet[n_tet + 2]])
    if names != doc["suites"]["tri"] + doc["suites"]["tet"] or counts != split:
        raise SystemExit("--scope all does not do the work of --scope tri and --scope tet")
    with open(EXPECTED_PATH, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    print(f"wrote {EXPECTED_PATH}")


if __name__ == "__main__":
    main()

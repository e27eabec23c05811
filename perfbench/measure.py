"""Timing helpers shared by the workloads."""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CHILD_TIMEOUT_S = 120


def child_env():
    """Environment for program processes: only the checkout's sources on the
    path, and no tolerance override from the caller's environment."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "CEVIAN_TOL_RTOL")}
    env["PYTHONPATH"] = SRC
    return env


def percentile(sorted_values, pct):
    """Linear-interpolated percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = pct / 100.0 * (len(sorted_values) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (rank - lo) * (sorted_values[hi] - sorted_values[lo])


def ready_time_s(statement):
    """Seconds from starting a fresh interpreter until ``statement`` has run.

    The child reports CLOCK_MONOTONIC after the statement, so interpreter
    teardown is not counted."""
    code = f"{statement}\nimport time\nprint(time.monotonic_ns())"
    t0 = time.monotonic_ns()
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                         capture_output=True, text=True, check=True,
                         timeout=CHILD_TIMEOUT_S)
    return (int(out.stdout.split()[-1]) - t0) / 1e9


def import_split_ms(reps=7):
    """cli.import_numpy_ms and cli.import_ms: fresh-interpreter medians of
    `import numpy` over `pass`, and of `import cevian.cli` over `import numpy`.
    The three statements are interleaved so they share the machine's noise."""
    stmts = ("pass", "import numpy", "import cevian.cli")
    for s in stmts:
        ready_time_s(s)
    samples = {s: [] for s in stmts}
    for _ in range(reps):
        for s in stmts:
            samples[s].append(ready_time_s(s))
    med = {s: statistics.median(v) for s, v in samples.items()}
    return {
        "cli.import_numpy_ms": 1e3 * (med["import numpy"] - med["pass"]),
        "cli.import_ms": 1e3 * (med["import cevian.cli"] - med["import numpy"]),
    }


def peak_rss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024.0

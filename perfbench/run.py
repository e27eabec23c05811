"""cevian benchmark.

    python3 perfbench/run.py --workload verify_all|library|cli_report|all \
        --seed N --seconds S --trace 0|1

Run from anywhere; the program is imported from the checkout's ``src/``.
With ``--trace 0`` a run prints every end-to-end metric, with ``--trace 1``
every per-layer metric, each as ``metric <name> <value> <unit>``, then one
JSON line with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full record (machine, versions, source digest, sample counts, percentiles,
trace aggregates) goes to ``perfbench/out/``.  The exit code is 0 only when
every correctness check passed.  See perfbench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("verify_all", "library", "cli_report")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    try:
        # the ceiling keeps git from reporting a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest():
    """sha256 over src/**/*.py, which names the code even without git."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "started_unix": time.time(),
    }


def run_one(args):
    import workloads

    env = environment(args)
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# machine " + json.dumps({k: env[k] for k in
                                     ("nproc", "cpu_model", "python", "numpy", "git_commit")}))
    run = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    missing = [name for name in units if name not in run.metrics]
    if missing:
        raise RuntimeError(f"workload reported no value for {missing}")
    metrics = {name: {"value": run.metrics[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    unbounded = {} if args.trace else {
        name: {"value": run.metrics[name], "unit": unit}
        for name, unit in workloads.UNBOUNDED.items() if name in run.metrics}
    for name, m in unbounded.items():
        print(f"unbounded {name} {m['value']!r} {m['unit']}")
    print(f"failed_frac {run.failed / max(run.attempted, 1)!r} ({run.failed}/{run.attempted})")
    for problem in run.problems:
        print(f"FAILED {problem}")
    correct = run.failed == 0 and run.attempted > 0
    record = {"environment": env, "correct": correct, "attempted": run.attempted,
              "failed": run.failed, "problems": run.problems, "metrics": metrics,
              "unbounded": unbounded, "details": run.details}
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    path = os.path.join(workloads.OUT_DIR,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(f"# record {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args):
    """Each workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"# {name} printed no result (exit {proc.returncode})")
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(SRC, "cevian", "__init__.py")):
        print(f"error: no cevian sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("CEVIAN_TOL_RTOL", None)
    sys.path.insert(0, SRC)
    import cevian

    if not os.path.abspath(cevian.__file__).startswith(SRC + os.sep):
        print(f"error: imported cevian from {cevian.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

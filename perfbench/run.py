"""Benchmark entry point for the nimg package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each workload runs in a fresh child process
(workload.py) with the package sources from ./src on its path and its BLAS
and OpenMP thread counts pinned to one, so that a run neither
oversubscribes the machine nor depends on the caller's environment. On a
2-vCPU VM whose host steals CPU time, one OpenBLAS thread ran the denoising
steps as fast as two and training steps about 20% slower, at half the CPU
time, and kept run-to-run spreads far smaller.
``--workload all`` (the default) runs every workload in turn, splitting
--seconds (default: run_seconds from BENCHMARK.json) between them, and ends
with one summary line. The exit code is non-zero when a correctness check
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 170
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_one(name: str, args, seconds: float,
            capture: bool) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace)]
    return subprocess.run(cmd, env=child_env(), timeout=CHILD_TIMEOUT_S,
                          stdout=subprocess.PIPE if capture else None, text=True)


def last_json(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def main(argv=None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in manifest["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nimg" / "__init__.py").is_file():
        print(f"perfbench: package sources not found under {SRC}", file=sys.stderr)
        return 2

    try:
        if args.workload != "all":
            return run_one(args.workload, args, args.seconds, capture=False).returncode
        results, code = {}, 0
        for name in names:
            proc = run_one(name, args, args.seconds / len(names), capture=True)
            print(proc.stdout, end="", flush=True)
            results[name] = last_json(proc.stdout)
            code = code or proc.returncode
    except subprocess.TimeoutExpired as e:
        print(f"perfbench: {' '.join(e.cmd[2:4])} exceeded {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    ok = code == 0 and all(r and r["correct"] for r in results.values())
    print(json.dumps({"correct": ok, "workloads": results}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload encoder --seed 1 --seconds 24 --trace 0

Generates the workload's synthetic world from ``--seed`` and writes it to
files in one child process (untimed), then runs ``measure.py`` on it in a
second, fresh process and relays its output; the last line of stdout is
the result object.  This driver imports neither numpy nor relrank, so the
measuring process's ``ru_maxrss``, which exec carries over from its
parent, starts from the small driver's RSS and not the generator's.
``--trace 1`` reports the per-layer metrics instead of the end-to-end ones
and keeps the spans in ``perfbench/traces/``.  Run from the repository root
(or any checkout of it); relrank is imported from its ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170   # generation and measurement together


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "relrank" / "__init__.py").is_file():
        print(f"relrank sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    work = HERE / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        gen = [sys.executable, str(HERE / "workloads.py"), "--workload",
               args.workload, "--seed", str(args.seed), "--out", str(work)]
        cmd = [sys.executable, str(HERE / "measure.py"), "--world", str(work),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = HERE / "traces"
            traces.mkdir(exist_ok=True)
            cmd += ["--spans",
                    str(traces / f"{args.workload}-seed{args.seed}.spans.jsonl")]
        try:
            made = subprocess.run(gen, stdout=sys.stderr,
                                  timeout=deadline - time.monotonic())
            if made.returncode != 0:
                print(f"world generation failed with exit code "
                      f"{made.returncode}", file=sys.stderr)
                return 1
            child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                   timeout=deadline - time.monotonic())
        except subprocess.TimeoutExpired:
            print(f"generation and measurement exceeded {CHILD_TIMEOUT_S} s",
                  file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = child.stdout.splitlines()
    if child.returncode != 0 or not lines:
        sys.stdout.write(child.stdout)
        print(f"measurement failed with exit code {child.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print(f"malformed result line: {lines[-1]}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

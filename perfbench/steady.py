"""Steadiness mode: run one workload k times, one seed each, and summarise.

    python3 perfbench/steady.py --workload encoder --runs 10 --first-seed 1

Each run is ``run.py`` with seeds first-seed, first-seed+1, ... and
BENCHMARK.json's ``run_seconds``.  For every metric it prints the median,
the quartiles (``statistics.quantiles(n=4)``) and the spread,
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json, plus
the share of failed operations.  ``--trace 1``
summarises the per-layer metrics and the traced end-to-end numbers instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarise(values: list[float]) -> tuple[float, float, float, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return median, q1, q3, spread


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("quartiles need at least two runs")

    results, traced_e2e = [], []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(proc.stdout, end="")
            print(f"seed {seed}: run failed with exit code {proc.returncode}",
                  file=sys.stderr)
            return 1
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        results.append(result)
        for line in lines:
            if line.startswith("traced end-to-end: "):
                traced_e2e.append(json.loads(line.split(": ", 1)[1]))
        shown = ", ".join(f"{k} {m['value']:.6g}"
                          for k, m in result["metrics"].items()
                          if not args.trace)
        print(f"seed {seed}: correct={result['correct']} "
              f"failed {result['failed']}/{result['attempted']} {shown}",
              flush=True)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    print(f"\n{args.workload}: {args.runs} runs, {bench['run_seconds']} s each")
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name in results[0]["metrics"]:
        median, q1, q3, spread = summarise(
            [r["metrics"][name]["value"] for r in results])
        bound = bounds.get(name) if not args.trace else None
        print(f"{name:34s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{100 * spread:7.2f}% {'' if bound is None else bound:>6}")
    for name in (traced_e2e[0] if traced_e2e else ()):
        median, q1, q3, spread = summarise([t[name] for t in traced_e2e])
        print(f"traced {name:27s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{100 * spread:7.2f}%")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"failed share: {sorted(shares)}; all correct: "
          f"{all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

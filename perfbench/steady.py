"""Steadiness mode: run each workload repeatedly and print the
run-to-run spread of every end-to-end metric next to its bound.

    python3 perfbench/steady.py --runs 10 --seconds 10 [--workload NAME ...]

Each run is ``run.py --trace 0`` with its own seed (1, 2, ...).  The
spread is the distance between the first and third quartile of the
runs' values (``statistics.quantiles(values, n=4)``) over their median;
``setup_s`` is shown but, as its bound allows for, not required to be
within it.  A spread above a third of its bound is flagged ``wide``,
one above the bound ``OVER``.  Exits 1 if a run fails, answers wrongly,
or a spread other than ``setup_s``'s is over its bound.
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


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="*", choices=names, default=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workload:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = one_run(workload, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: failed {result['failed']} "
                      f"of {result['attempted']}")
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"\n{workload} ({args.runs} runs, {args.seconds} s each)")
        print(f"  {'metric':<18}{'median':>12}{'spread':>9}{'bound':>8}")
        for name, bound in bounds.items():
            s = spread(values[name])
            flag = ""
            if s > bound:
                flag = "OVER"
                ok = ok and name == "setup_s"
            elif s > bound / 3:
                flag = "wide"
            print(
                f"  {name:<18}{statistics.median(values[name]):>12.4g}"
                f"{s:>9.3f}{bound:>8.2f}  {flag}"
            )
        print("  values: " + json.dumps(values))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

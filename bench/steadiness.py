"""Run two sets of benchmark runs of the same code and compare them.

Usage (from the repository root)::

    python3 bench/steadiness.py [--runs 10] [--sets 2]

Each set runs ``bench/run.py`` ``--runs`` times per workload, each run with
its own seed, for ``run_seconds`` from ``BENCHMARK.json``. For every
end-to-end metric on every workload it prints both sets' medians and
quartiles, the quartile spread as a share of the median, the shift of the
second median against the first, and the metric's bound, and it prints the
share of failed units in each set. The raw results go to
``.bench_work/steadiness.json``. Exit code 0 when every spread is within
its metric's bound, every second median is within the bound of the first in
either direction, every run is correct, and the failed shares agree exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-500:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    results = {}
    for set_index in range(args.sets):
        for workload in names:
            for i in range(args.runs):
                seed = 1000 * (set_index + 1) + i
                run = one_run(workload, seed, spec["run_seconds"])
                results.setdefault(workload, [[] for _ in range(args.sets)])[set_index].append(run)
                shown = ", ".join(f"{k} {v['value']:.4f} {v['unit']}" for k, v in run["metrics"].items())
                print(f"set {set_index + 1} {workload} seed {seed}: "
                      f"{run['failed']}/{run['attempted']} failed; {shown}", flush=True)

    out = ROOT / ".bench_work" / "steadiness.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))

    if args.runs < 2:
        return 0
    ok = True
    print(f"\n{'workload':16} {'metric':12} {'set':>3} {'median':>10} {'Q1':>10} {'Q3':>10}"
          f" {'spread':>7} {'shift':>7} {'bound':>6}")
    for workload, sets in results.items():
        shares = [{Fraction(r["failed"], r["attempted"]) for r in runs} for runs in sets]
        print(f"{workload:16} failed share per set: "
              + " | ".join(", ".join(str(s) for s in sorted(share)) for share in shares))
        ok &= len(set().union(*shares)) == 1 and all(r["correct"] for runs in sets for r in runs)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for set_index, runs in enumerate(sets):
                q1, median, q3 = statistics.quantiles([r["metrics"][name]["value"] for r in runs], n=4)
                spread = (q3 - q1) / median
                medians.append(median)
                shift = medians[-1] / medians[0] - 1.0
                if spread > bound or abs(shift) > bound:
                    ok = False
                print(f"{workload:16} {name:12} {set_index + 1:>3} {median:10.4f} {q1:10.4f}"
                      f" {q3:10.4f} {spread:7.3f} {shift:+7.3f} {bound:6.2f}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

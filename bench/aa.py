"""A/A check: run every workload in two sets on the same code and compare.

    python3 bench/aa.py [--seeds 10] [--seconds 30] [--workloads a,b]

Each set runs bench/run.py once per workload and seed, one run at a time;
set 1 uses seeds 1 to N and set 2 seeds N + 1 to 2N, for N = --seeds.
Every run's end-to-end metrics are printed with their units as they
finish; with --seeds 1 that is all.  For every end-to-end metric the table
then shows each set's median and quartiles (statistics.quantiles with
n=4), the spread (q3 - q1) / median, and the ratio of the two medians.
A row fails when a set's spread exceeds the metric's bound in
BENCHMARK.json or when the two medians differ, either way, by more than
the bound.  Exits 1 if any row fails or any run is not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    if done.returncode != 0 or not result["correct"]:
        print(f"  {workload} seed {seed}: exit {done.returncode}, "
              f"{done.stderr.strip()[-300:] or lines[-2:]}", flush=True)
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    sets = [range(1 + k * args.seeds, 1 + (k + 1) * args.seeds) for k in (0, 1)]
    results = {}
    all_correct = True
    for k, seeds in enumerate(sets, start=1):
        for w in workloads:
            for seed in seeds:
                r = run_once(w, seed, args.seconds)
                all_correct &= bool(r.get("correct"))
                for name, m in r.get("metrics", {}).items():
                    results.setdefault((w, name, k), []).append(m["value"])
                print(f"set {k} {w} seed {seed}: " + ", ".join(
                    f"{n} {m['value']:.5g} {m['unit']}"
                    for n, m in r.get("metrics", {}).items()), flush=True)
    if args.seeds < 2:
        return 0 if all_correct else 1

    ok = all_correct
    print(f"\n{'workload':16} {'metric':12} {'set':>3} {'median':>10} "
          f"{'q1':>10} {'q3':>10} {'spread':>7}  ratio  bound  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            rows = [results.get((w, m["name"], k), []) for k in (1, 2)]
            if min(len(r) for r in rows) < 2:
                print(f"{w:16} {m['name']:12} fewer than 2 runs in a set  FAIL")
                ok = False
                continue
            (med1, *_, s1), (med2, *_, s2) = summary(rows[0]), summary(rows[1])
            ratio = med2 / med1
            agree = max(s1, s2) <= m["bound"] and abs(ratio - 1) <= m["bound"]
            verdict = "ok" if agree else "FAIL"
            ok &= verdict == "ok"
            for k, r in zip((1, 2), rows):
                med, q1, q3, spread = summary(r)
                tail = (f"  {ratio:5.3f}  {m['bound']:5.2f}  {verdict}"
                        if k == 2 else "")
                print(f"{w:16} {m['name']:12} {k:>3} {med:10.5g} {q1:10.5g} "
                      f"{q3:10.5g} {spread:7.4f}{tail}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

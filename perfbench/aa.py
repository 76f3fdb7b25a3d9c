#!/usr/bin/env python3
"""A/A steadiness check of the benchmark.

    python3 perfbench/aa.py [--workloads a,b] [--runs N] [--seed S]

Runs two interleaved sets of N untraced runs of the same build on each
workload (A with seeds S..S+N-1, B with seeds S+N..S+2N-1, in the order
A B A B ...).  For every end-to-end metric it prints both sets'
medians, both quartile spreads (the distance between the first and
third quartile as a share of the median), the spread of all 2N runs,
the shift between the medians, and whether both agree within the
metric's bound in BENCHMARK.json.  The spread of setup_s is printed
but, as the benchmark's acceptance rule has it, not held to its bound:
set-up is a median of many short process starts and is gated by its
median shift alone.  The raw values are written to
.bench_work/aa-results.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    t0 = time.perf_counter()
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    wall = time.perf_counter() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("run failed: %s (exit %d)" % (" ".join(cmd),
                                                p.returncode))
    res = json.loads(lines[-1])
    print("  %s seed %d: %.0f s, correct=%s attempted=%d failed=%d" %
          (workload, seed, wall, res["correct"], res["attempted"],
           res["failed"]), flush=True)
    return res


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    results = {}
    all_ok = True
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for k, base in (("A", args.seed),
                            ("B", args.seed + args.runs)):
                sets[k].append(one_run(spec, workload, base + i))
        results[workload] = sets
        print("\n%s (%d runs per set)" % (workload, args.runs))
        print("%-22s %12s %7s %12s %7s %7s %7s %6s  %s" %
              ("metric", "median A", "IQR A", "median B", "IQR B",
               "IQR all", "shift", "bound", "agree"))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" \
                else (ma - mb) / ma
            sa, sb, sall = spread(a), spread(b), spread(a + b)
            ok = abs(worse) <= bound and (
                name == "setup_s" or (sa <= bound and sb <= bound))
            all_ok = all_ok and ok
            print("%-22s %12.6g %6.1f%% %12.6g %6.1f%% %6.1f%% %6.1f%% "
                  "%5.0f%%  %s"
                  % (name, ma, 100 * sa, mb, 100 * sb, 100 * sall,
                     100 * worse, 100 * bound, "yes" if ok else "NO"))
        share = {k: sum(r["failed"] for r in v) /
                 sum(r["attempted"] for r in v) for k, v in sets.items()}
        same = share["A"] == share["B"]
        all_ok = all_ok and same and all(
            r["correct"] for v in sets.values() for r in v)
        print("failed share: A %.6g, B %.6g (%s)" %
              (share["A"], share["B"], "same" if same else "DIFFERENT"))

    out = ROOT / ".bench_work" / "aa-results.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results))
    print("\nraw results: %s" % out.relative_to(ROOT))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())

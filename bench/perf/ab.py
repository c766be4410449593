#!/usr/bin/env python3
"""Interleaved A/B comparison of two bench_perf builds (standard library only).

    python3 bench/perf/ab.py BUILD_A BUILD_B [--pairs 10]
    python3 bench/perf/ab.py --same BUILD [--pairs 10]

A BUILD is a build tree holding a bench_perf binary, for example
    cmake -S CHECKOUT/bench/perf -B BUILD && cmake --build BUILD -j
A is the reference (the parent commit), B the candidate; build both from the
same benchmark code. For each workload of BENCHMARK.json the script runs
--pairs pairs of runs of BENCHMARK.json's run_seconds each. Pair i runs both
sides with seed i (1, 2, ...), A first in odd pairs and B first in even
ones, so a slow phase of the host hits both sides alike.

For every end-to-end metric of BENCHMARK.json it prints each side's median
and quartiles, the fraction of pairs B won (ties count for neither side),
and a verdict:
  gain        B won at least 90% of the pairs and the medians differ by more
              than A's interquartile range
  regression  B's median is worse than A's by more than the metric's bound
  unresolved  A's own interquartile range is wider than the bound, and not
              every run of B reads better than every run of A
  within      none of the above: no regression
A sim_digest that differs between the two runs of a pair is flagged: a
change that only speeds up the simulator must leave it unchanged. So is a
run whose shard workers outnumber the host's hardware threads: it measured
oversubscription, not the simulator.

--same runs one build as both sides: the gap between its two medians is the
set-to-set noise a real comparison has to beat.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run(build, workload, seed, seconds):
    cmd = [os.path.join(build, "bench_perf"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result, info = json.loads(lines[-1]), json.loads(lines[-2])
    except (IndexError, ValueError):
        result, info = {"correct": False, "metrics": {}}, {}
    if p.returncode != 0 or not result["correct"]:
        sys.stderr.write("ab.py: %s failed (exit %d):\n%s" % (" ".join(cmd), p.returncode,
                                                             p.stderr[-2000:]))
        return None
    return {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "digest": info.get("sim_digest"),
            "oversubscribed": info.get("provenance", {}).get("oversubscribed", False)}


def better(x, y, direction):
    return x > y if direction == "higher" else x < y


def verdict(a, b, direction, bound):
    q1, _, q3 = statistics.quantiles(a, n=4)
    med_a, med_b = statistics.median(a), statistics.median(b)
    wins = sum(better(y, x, direction) for x, y in zip(a, b)) / len(a)
    if wins >= 0.9 and better(med_b, med_a, direction) and abs(med_b - med_a) > q3 - q1:
        return "gain", wins
    worse = (med_a - med_b if direction == "higher" else med_b - med_a) / med_a
    if (q3 - q1) / med_a > bound:
        every = all(better(y, x, direction) for x in a for y in b)
        return ("within" if every else "unresolved"), wins
    return ("regression" if worse > bound else "within"), wins


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("builds", nargs="*", help="BUILD_A BUILD_B")
    ap.add_argument("--same", metavar="BUILD", help="run BUILD as both sides")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    if args.same:
        builds = [args.same, args.same]
    elif len(args.builds) == 2:
        builds = args.builds
    else:
        ap.error("give BUILD_A BUILD_B, or --same BUILD")
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    seconds = manifest["run_seconds"]
    workloads = [w["name"] for w in manifest["workloads"]]

    failed = False
    print("%-16s %-12s %28s %28s %7s %5s  %s" % (
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A", "wins",
        "verdict"))
    for w in workloads:
        sides = ([], [])
        oversubscribed = False
        for seed in range(1, args.pairs + 1):
            order = (0, 1) if seed % 2 == 1 else (1, 0)
            pair = [None, None]
            for s in order:
                pair[s] = run(builds[s], w, seed, seconds)
            if pair[0] is None or pair[1] is None:
                failed = True
                continue
            if pair[0]["digest"] != pair[1]["digest"]:
                print("%-16s sim_digest differs at seed %d: A %s, B %s"
                      % (w, seed, pair[0]["digest"], pair[1]["digest"]))
                failed = True
            oversubscribed = oversubscribed or pair[0]["oversubscribed"]
            for s in (0, 1):
                sides[s].append(pair[s]["metrics"])
        if len(sides[0]) < 2:
            print("%-16s too few successful pairs" % w)
            continue
        if oversubscribed:
            print("%-16s more shard workers than hardware threads: timings are not comparable"
                  % w)
        for m in manifest["end_to_end"]:
            a = [r[m["name"]] for r in sides[0]]
            b = [r[m["name"]] for r in sides[1]]
            v, wins = verdict(a, b, m["better"], m["bound"])
            qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
            print("%-16s %-12s %12.5g [%6.4g, %6.4g] %12.5g [%6.4g, %6.4g] %7.4f %5.2f  %s"
                  % (w, m["name"], statistics.median(a), qa[0], qa[2], statistics.median(b),
                     qb[0], qb[2], statistics.median(b) / statistics.median(a), wins, v))
            failed = failed or v == "regression"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

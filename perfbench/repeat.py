#!/usr/bin/env python3
"""Repeat one workload and summarise each metric's spread.

    python3 perfbench/repeat.py --workload point_hot --runs 10 --out a.json
    python3 perfbench/repeat.py --workload point_hot --runs 10 --first-seed 101 \
        --out b.json --compare a.json
    python3 perfbench/repeat.py --workload point_hot --runs 10 --sets 2 \
        --out ab.json

Runs perfbench/run.py once per seed (first-seed, first-seed+1, ...) and
prints, for every metric, the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median beside
the metric's bound from BENCHMARK.json.  A set is steady when every
end-to-end spread is within its bound.  With --compare, it also checks that
this set's median of every metric is no worse than the other set's by more
than the bound.  --sets 2 measures two sets of --runs seeds each,
interleaved (run i goes to set i mod 2), so that a slow change in the
machine's speed hits both sets alike, and compares the second with the
first.  Exit code 0 means steady (and, when compared, in agreement).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(args, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           args.workload, "--seed", str(seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace)]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout[-2000:] + r.stderr[-2000:])
        raise SystemExit("run with seed %d failed (exit %d)" %
                         (seed, r.returncode))
    return json.loads(lines[-1])


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread}


def worse_by(metric, first, second):
    """Relative amount by which `second` is worse than `first`."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / abs(first)
    return change if metric["better"] == "lower" else -change


def report_set(title, summary, bounds):
    """Prints one set's summary; returns whether it is steady."""
    ok = True
    print("%s\n%-36s %12s %12s %12s %8s %6s" %
          (title, "metric", "median", "q1", "q3", "spread", "bound"))
    for name, s in summary.items():
        bound = bounds.get(name, {}).get("bound")
        flag = ""
        if bound is not None:
            if s["spread"] > bound:
                flag = "UNSTEADY"
                ok = False
            elif s["spread"] > bound / 3:
                flag = "(> bound/3)"
        print("%-36s %12.4f %12.4f %12.4f %8.4f %6s %s" %
              (name, s["median"], s["q1"], s["q3"], s["spread"],
               "-" if bound is None else bound, flag))
    return ok


def report_comparison(title, first, second, bounds):
    """Prints how much worse `second` is than `first`; returns agreement."""
    ok = True
    print("\n%s (positive = second set is worse)" % title)
    for name, m in bounds.items():
        if name not in first or name not in second:
            continue
        w = worse_by(m, first[name]["median"], second[name]["median"])
        agree = w <= m["bound"]
        ok = ok and agree
        print("%-36s %+8.4f bound %.2f %s" %
              (name, w, m["bound"], "ok" if agree else "WORSE"))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--sets", type=int, choices=[1, 2], default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--out", help="write the values and summary here")
    ap.add_argument("--compare", help="a file written by an earlier --out")
    args = ap.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.runs < 2:
        raise SystemExit("--runs must be at least 2")

    seeds = [[] for _ in range(args.sets)]
    values = [{} for _ in range(args.sets)]
    for i in range(args.runs * args.sets):
        seed = args.first_seed + i
        result = run_once(args, seed)
        seeds[i % args.sets].append(seed)
        for name, m in result["metrics"].items():
            values[i % args.sets].setdefault(name, []).append(m["value"])
        print("seed %d (set %d): attempted=%d failed=%d correct=%s" %
              (seed, i % args.sets + 1, result["attempted"],
               result["failed"], result["correct"]), flush=True)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    summaries = [{name: summarise(v) for name, v in vals.items()}
                 for vals in values]
    ok = True
    for n, summary in enumerate(summaries):
        title = "set %d, seeds %s" % (n + 1, seeds[n])
        ok = report_set(title, summary, bounds) and ok
    if args.sets == 2:
        ok = report_comparison("set 2 against set 1", summaries[0],
                               summaries[1], bounds) and ok
    if args.compare:
        with open(args.compare) as f:
            other = json.load(f)["sets"][-1]["summary"]
        ok = report_comparison("against %s" % args.compare, other,
                               summaries[-1], bounds) and ok

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "sets": [
                {"seeds": s, "values": v, "summary": m}
                for s, v, m in zip(seeds, values, summaries)]}, f, indent=1)
    print("verdict:", "steady" if ok else "NOT steady or disagreeing")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

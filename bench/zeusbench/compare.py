#!/usr/bin/env python3
"""Compares zeusbench runs of a parent commit and a change.

    python3 bench/zeusbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds one <workload>.jsonl file per workload; every line is
the JSON result line of one run, in run order, and line i of the parent
pairs with line i of the change (alternate which side runs first). For
every workload and end-to-end metric it prints the median and quartiles of
each side, the share of pairs the change won, and a verdict:

  improved    at least 10 pairs, the change wins at least 0.9 of them (ties
              count for neither), the medians differ by more than the
              parent's interquartile range, and no more operations failed
  regressed   the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  either side's spread (IQR / median) exceeds the bound and
              not every change run beats every parent run
  no worse    otherwise

Exits 1 when any metric regressed. Standard library only.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                 "BENCHMARK.json")


def load_runs(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                runs.append(json.loads(line))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread_of(values):
    """Interquartile range as a share of the median."""
    q1, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(parent, change, better, bound, parent_failed, change_failed):
    """Returns (verdict, win share) for one metric's paired samples."""
    n = min(len(parent), len(change))
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    share = wins / n if n else 0.0
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    if (n >= 10 and share >= 0.9 and sign * (mc - mp) > 0 and abs(mc - mp) > q3 - q1
            and change_failed <= parent_failed):
        return "improved", share
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    spread = max(spread_of(parent), spread_of(change))
    if spread > bound and not all_better:
        return "unresolved", share
    worse = -sign * (mc - mp) / abs(mp) if mp else 0.0
    if worse > bound:
        return "regressed", share
    return "no worse", share


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    row = "%-14s %-16s %26s %26s %7s %6s  %s"
    print(row % ("workload", "metric", "parent median [q1, q3]",
                 "change median [q1, q3]", "delta", "won", "verdict"))
    regressed = False
    for w in bench["workloads"]:
        name = w["name"]
        files = [os.path.join(d, name + ".jsonl") for d in (args.parent, args.change)]
        if not all(os.path.exists(f) for f in files):
            print("%-14s (no runs on one side)" % name)
            continue
        parent, change = (load_runs(f) for f in files)
        n = min(len(parent), len(change))
        parent, change = parent[:n], change[:n]
        pf = sum(r["failed"] for r in parent)
        cf = sum(r["failed"] for r in change)
        for m in bench["end_to_end"]:
            pv = [r["metrics"][m["name"]]["value"] for r in parent]
            cv = [r["metrics"][m["name"]]["value"] for r in change]
            v, share = verdict(pv, cv, m["better"], m["bound"], pf, cf)
            regressed = regressed or v == "regressed"
            mp, mc = statistics.median(pv), statistics.median(cv)
            cell = "%.4g [%.4g, %.4g]"
            print(row % (name, m["name"], cell % ((mp,) + quartiles(pv)),
                         cell % ((mc,) + quartiles(cv)),
                         "%+.1f%%" % (100.0 * (mc - mp) / mp if mp else 0.0),
                         "%.2f" % share, v))
        if pf or cf:
            print("%-14s failed operations: parent %d, change %d" % (name, pf, cf))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

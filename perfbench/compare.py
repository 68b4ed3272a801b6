#!/usr/bin/env python3
"""Summarise one result set or compare two (parent vs change).

    python3 perfbench/compare.py RESULTS_DIR
    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

A result set is a directory of the JSON files the benchmark writes with
--out (perfbench/out by default): one file per run, untraced and traced.

With one directory, prints for every workload and end-to-end metric the
median, quartiles and spread (interquartile range / median) of the runs,
against the metric's bound in BENCHMARK.json, and the median of every
per-layer metric of the traced runs.

With two, prints one row per workload and end-to-end metric with both
sides' median and quartiles and a verdict:
  worse       the change's median is worse than the parent's by more than
              the bound;
  better      the change wins at least 9 of 10 run pairs (runs paired by
              seed) and the medians differ by more than the parent's
              interquartile range;
  unresolved  the parent's own spread exceeds the bound and not every
              change run beats every parent run;
  same        otherwise.
Then the per-layer deltas of the traced runs and the tracing overhead
(traced vs untraced ops_per_s) of both sides.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load(directory):
    """{(workload, trace): {seed: metrics}} of one result set."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            doc = json.load(f)
        metrics = {k: v["value"] for k, v in doc["result"]["metrics"].items()}
        if not doc["result"]["correct"]:
            print("note: %s is marked incorrect" % os.path.basename(path))
        runs.setdefault((doc["workload"], doc["trace"]), {})[doc["seed"]] = metrics
    return runs


def summary(values):
    """(median, q1, q3) of `values`."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values):
    med, q1, q3 = summary(values)
    return (q3 - q1) / med if med else float("inf")


def worse_by(parent, change, better):
    """Relative worsening of `change` against `parent` (negative = better)."""
    if parent == 0:
        return 0.0
    d = (change - parent) / abs(parent)
    return d if better == "lower" else -d


def verdict(metric, parent_runs, change_runs):
    p = list(parent_runs.values())
    c = list(change_runs.values())
    pm, pq1, pq3 = summary(p)
    cm, _, _ = summary(c)
    bound, better = metric["bound"], metric["better"]
    beats = (lambda x, y: x < y) if better == "lower" else (lambda x, y: x > y)
    if worse_by(pm, cm, better) > bound:
        return "worse"
    seeds = sorted(set(parent_runs) & set(change_runs))
    if seeds:
        pairs = [(change_runs[s], parent_runs[s]) for s in seeds]
    else:
        pairs = [(x, y) for x in c for y in p]
    wins = sum(1 for x, y in pairs if beats(x, y))
    if wins >= 0.9 * len(pairs) and abs(cm - pm) > (pq3 - pq1):
        return "better"
    if spread(p) > bound and not all(beats(x, y) for x in c for y in p):
        return "unresolved"
    return "same"


def fmt(v):
    return "%.4g" % v


def print_overhead(name, runs):
    for (workload, trace), by_seed in sorted(runs.items()):
        if trace != 1:
            continue
        untraced = runs.get((workload, 0), {})
        traced = [m["trace.ops_per_s"] for m in by_seed.values()]
        plain = [m["ops_per_s"] for m in untraced.values()]
        if traced and plain:
            t, u = statistics.median(traced), statistics.median(plain)
            print("%-8s %-15s tracing overhead %.1f%% (traced %s ops/s vs "
                  "untraced %s ops/s)" % (name, workload, 100 * (1 - t / u),
                                          fmt(t), fmt(u)))


def summarise(bench, runs):
    print("%-15s %-16s %3s %10s %10s %10s %7s %6s" % (
        "workload", "metric", "n", "median", "q1", "q3", "spread", "bound"))
    for (workload, trace), by_seed in sorted(runs.items()):
        if trace != 0:
            continue
        for m in bench["end_to_end"]:
            values = [r[m["name"]] for r in by_seed.values() if m["name"] in r]
            if not values:
                continue
            med, q1, q3 = summary(values)
            s = spread(values)
            flag = "" if s < m["bound"] / 3 else (
                " (above bound/3)" if s <= m["bound"] else " (ABOVE BOUND)")
            print("%-15s %-16s %3d %10s %10s %10s %6.1f%% %5.0f%%%s" % (
                workload, m["name"], len(values), fmt(med), fmt(q1), fmt(q3),
                100 * s, 100 * m["bound"], flag))
    for (workload, trace), by_seed in sorted(runs.items()):
        if trace != 1:
            continue
        print("\nper-layer medians, %s (%d traced runs)" % (workload,
                                                           len(by_seed)))
        for m in bench["per_layer"]:
            values = [r[m["name"]] for r in by_seed.values() if m["name"] in r]
            if values:
                print("  %-36s %12s %s" % (m["name"],
                                           fmt(statistics.median(values)),
                                           m["unit"]))
    print()
    print_overhead("", runs)


def compare(bench, parent, change):
    print("%-15s %-16s %-30s %-30s %8s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "delta", "verdict"))
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        if trace != 0:
            continue
        for m in bench["end_to_end"]:
            pr = {s: r[m["name"]] for s, r in parent[key].items()
                  if m["name"] in r}
            cr = {s: r[m["name"]] for s, r in change[key].items()
                  if m["name"] in r}
            if not pr or not cr:
                continue
            pm, pq1, pq3 = summary(list(pr.values()))
            cm, cq1, cq3 = summary(list(cr.values()))
            delta = (cm - pm) / pm if pm else 0.0
            print("%-15s %-16s %-30s %-30s %+7.1f%%  %s" % (
                workload, m["name"],
                "%s [%s, %s]" % (fmt(pm), fmt(pq1), fmt(pq3)),
                "%s [%s, %s]" % (fmt(cm), fmt(cq1), fmt(cq3)),
                100 * delta, verdict(m, pr, cr)))
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        if trace != 1:
            continue
        print("\nper-layer deltas, %s (traced runs: parent %d, change %d)" % (
            workload, len(parent[key]), len(change[key])))
        for m in bench["per_layer"]:
            p = [r[m["name"]] for r in parent[key].values() if m["name"] in r]
            c = [r[m["name"]] for r in change[key].values() if m["name"] in r]
            if not p or not c:
                continue
            pm, cm = statistics.median(p), statistics.median(c)
            delta = "%+.1f%%" % (100 * (cm - pm) / pm) if pm else "n/a"
            print("  %-36s %12s -> %-12s %8s %s" % (
                m["name"], fmt(pm), fmt(cm), delta, m["unit"]))
    print()
    print_overhead("parent", parent)
    print_overhead("change", change)


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK) as f:
        bench = json.load(f)
    sets = [load(d) for d in argv]
    if len(sets) == 1:
        summarise(bench, sets[0])
    else:
        compare(bench, sets[0], sets[1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

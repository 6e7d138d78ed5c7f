#!/usr/bin/env python3
"""Compare a parent commit and a change from paired benchmark runs.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the last stdout line of `run.py --trace 0` for one workload,
one run per line; line i of both files is pair i (same seed, run one after
the other, alternating which side goes first).  For every end-to-end metric
of BENCHMARK.json it prints both sides' median and quartiles, the change's
wins, and a verdict:

- `gain`: the change wins at least 9 of 10 pairs (ties count for neither),
  the medians differ by more than the parent's quartile spread, and no more
  rows fail than at the parent;
- `unresolved`: the parent's spread exceeds the metric's bound, unless every
  change run is better than every parent run;
- `regression`: the change's median is worse than the parent's by more
  than the bound;
- `no regression` otherwise.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def verdict(parent, change, bound, lower_is_better):
    def better(a, b):
        return a < b if lower_is_better else a > b

    q1, med_p, q3 = statistics.quantiles(parent, n=4)
    med_c = statistics.median(change)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    spread = q3 - q1
    worse_by = (med_c - med_p) / med_p * (1 if lower_is_better else -1)
    if better(med_c, med_p) and wins >= 0.9 * len(parent) and \
            abs(med_c - med_p) > spread:
        label = "gain"
    elif all(better(c, p) for c in change for p in parent):
        label = "no regression"
    elif spread / abs(med_p) > bound:
        label = "unresolved"
    elif worse_by > bound:
        label = "regression"
    else:
        label = "no regression"
    return med_p, (q1, q3), med_c, wins, worse_by, label


def main(argv):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parent, change = load(argv[0]), load(argv[1])
    pairs = min(len(parent), len(change))
    parent, change = parent[:pairs], change[:pairs]
    if pairs < MIN_PAIRS:
        print(f"only {pairs} pairs; a comparison needs at least {MIN_PAIRS}")
        return 1
    failed = {}
    for side, runs in (("parent", parent), ("change", change)):
        bad = sum(not r["correct"] for r in runs)
        failed[side] = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{side}: {pairs} runs, {bad} incorrect, {failed[side]} of "
              f"{attempted} rows failed")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        med_p, (q1, q3), med_c, wins, worse_by, label = verdict(
            p, c, metric["bound"], metric["better"] == "lower")
        if label == "gain" and failed["change"] > failed["parent"]:
            label = "no gain: more rows failed than at the parent"
        print(f"{name:<16} parent {med_p:.6g} [{q1:.6g}, {q3:.6g}]  "
              f"change {med_c:.6g}  wins {wins}/{pairs}  "
              f"worse by {worse_by:+.2%} (bound {metric['bound']:.0%})  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

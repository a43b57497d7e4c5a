#!/usr/bin/env python3
"""Compares two sets of pipbench runs: a parent commit's and a change's.

    python3 pipbench/compare.py PARENT CHANGE [--claim METRIC@WORKLOAD ...]
    python3 pipbench/compare.py --selftest

PARENT and CHANGE are each a directory of run records (the *.run.json
files pipbench writes with --out; run.py puts them in .bench_build/pipbench)
or a list of such files joined with commas. For every workload and metric
it prints both sides' median and quartiles and one verdict:

  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  not worse, but the parent's own spread (quartile distance
              over median) is wider than the bound, so a regression that
              size could hide in the noise -- unless every change run
              beats every parent run;
  unchanged   neither.

Metrics without a bound (the per-layer ones) get no verdict. A --claim
METRIC@WORKLOAD applies the claim rule: run pairs are matched by seed, in
order, and the change must win at least 9 of every 10 pairs (ties win
for neither) and move the median by more than the parent's quartile
distance, in the metric's better direction. The exit code is 1 when a
metric is worse or a claim fails, else 0.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_spec(path=BENCHMARK):
    """{metric: (better, bound or None)} from BENCHMARK.json."""
    with open(path) as f:
        spec = json.load(f)
    out = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        out[m["name"]] = (m["better"], None)
    return out


def load_runs(arg):
    """[(workload, seed, {metric: value})] from run.json files."""
    if os.path.isdir(arg):
        paths = sorted(os.path.join(arg, p) for p in os.listdir(arg)
                       if p.endswith(".run.json"))
    else:
        paths = [p for p in arg.split(",") if p]
    runs = []
    for path in paths:
        with open(path) as f:
            record = json.load(f)
        for workload, body in record["workloads"].items():
            metrics = {k: v["value"] for k, v in body["metrics"].items()}
            runs.append((workload, record["seed"], metrics))
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def worse_by(parent, change, better):
    """How much worse `change` is than `parent`, as a share of parent."""
    if parent == 0:
        return 0.0
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def beats(a, b, better):
    return a < b if better == "lower" else a > b


def verdict(parent_values, change_values, better, bound):
    if bound is None:
        return ""
    p1, pmed, p3 = quartiles(parent_values)
    _, cmed, _ = quartiles(change_values)
    if worse_by(pmed, cmed, better) > bound:
        return "worse"
    spread = (p3 - p1) / abs(pmed) if pmed else 0.0
    all_better = all(beats(c, p, better)
                     for c in change_values for p in parent_values)
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def pairs(parent_runs, change_runs, workload, metric):
    """(parent, change) values matched by seed, in order of appearance."""
    pending = {}
    for w, seed, m in parent_runs:
        if w == workload and metric in m:
            pending.setdefault(seed, []).append(m[metric])
    out = []
    for w, seed, m in change_runs:
        if w == workload and metric in m and pending.get(seed):
            out.append((pending[seed].pop(0), m[metric]))
    return out


def claim_holds(matched, better):
    """The claim rule; returns (holds, wins, pairs, median gap, parent IQR)."""
    if not matched:
        return False, 0, 0, 0.0, 0.0
    wins = sum(1 for p, c in matched if beats(c, p, better))
    parent = [p for p, _ in matched]
    change = [c for _, c in matched]
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    gap = (pmed - cmed) if better == "lower" else (cmed - pmed)
    holds = 10 * wins >= 9 * len(matched) and gap > (p3 - p1)
    return holds, wins, len(matched), gap, p3 - p1


def compare(parent_runs, change_runs, spec, claims, out=sys.stdout):
    """Prints the comparison; returns the exit code."""
    failed = False
    workloads = sorted({w for w, _, _ in parent_runs} |
                       {w for w, _, _ in change_runs})
    for workload in workloads:
        print("== %s" % workload, file=out)
        names = []
        for w, _, m in parent_runs:
            if w == workload:
                names += [k for k in m if k not in names]
        for name in names:
            pv = [m[name] for w, _, m in parent_runs if w == workload and name in m]
            cv = [m[name] for w, _, m in change_runs if w == workload and name in m]
            if not pv or not cv:
                continue
            better, bound = spec.get(name, ("lower", None))
            v = verdict(pv, cv, better, bound)
            failed = failed or v == "worse"
            p1, pmed, p3 = quartiles(pv)
            c1, cmed, c3 = quartiles(cv)
            print("  %-34s parent %11.5g [%.5g, %.5g]  change %11.5g "
                  "[%.5g, %.5g]  %+.1f%%  %s" %
                  (name, pmed, p1, p3, cmed, c1, c3,
                   100 * (cmed - pmed) / abs(pmed) if pmed else 0.0, v),
                  file=out)
    for claim in claims:
        metric, _, workload = claim.partition("@")
        better, _ = spec.get(metric, ("lower", None))
        holds, wins, n, gap, iqr = claim_holds(
            pairs(parent_runs, change_runs, workload, metric), better)
        print("claim %s: %s (change wins %d of %d pairs; median gain %.5g "
              "vs parent quartile distance %.5g)" %
              (claim, "holds" if holds else "NOT MET", wins, n, gap, iqr),
              file=out)
        failed = failed or not holds
    return 1 if failed else 0


def selftest():
    """Checks the verdicts and the claim rule on fixed run sets."""
    spec = {"lat_ms": ("lower", 0.10), "tput": ("higher", 0.10),
            "noisy_ms": ("lower", 0.10), "layer": ("lower", None)}
    parent, change = [], []
    for seed in range(10):
        jitter = (seed % 5 - 2) * 0.01  # Spread of 2% either way.
        parent.append(("w", seed, {"lat_ms": 10 * (1 + jitter),
                                   "tput": 100 * (1 + jitter),
                                   "noisy_ms": 10 * (1 + 10 * jitter),
                                   "layer": 1.0}))
        change.append(("w", seed, {"lat_ms": 8 * (1 + jitter),
                                   "tput": 85 * (1 + jitter),
                                   "noisy_ms": 10.5 * (1 + 10 * jitter),
                                   "layer": 2.0}))
    failures = []

    def expect(what, got, want):
        if got != want:
            failures.append("%s: got %r, want %r" % (what, got, want))

    def values(runs, name):
        return [m[name] for _, _, m in runs]

    expect("faster latency", verdict(values(parent, "lat_ms"),
                                     values(change, "lat_ms"), "lower", 0.10),
           "unchanged")
    expect("15% lower throughput", verdict(values(parent, "tput"),
                                           values(change, "tput"),
                                           "higher", 0.10), "worse")
    expect("noise wider than the bound",
           verdict(values(parent, "noisy_ms"), values(change, "noisy_ms"),
                   "lower", 0.10), "unresolved")
    expect("same runs", verdict(values(parent, "lat_ms"),
                                values(parent, "lat_ms"), "lower", 0.10),
           "unchanged")
    expect("no bound", verdict([1.0], [5.0], "lower", None), "")
    matched = pairs(parent, change, "w", "lat_ms")
    expect("claim on a 20% gain", claim_holds(matched, "lower")[0], True)
    # Two of ten pairs lost: below the 9/10 rule.
    two_lost = [(p, c if i >= 2 else p * 1.5) for i, (p, c) in enumerate(matched)]
    expect("claim with 8/10 wins", claim_holds(two_lost, "lower")[0], False)
    # Every pair won, but by less than the parent's quartile distance.
    tiny = [(p, p * 0.999) for p, _ in matched]
    expect("claim inside the noise", claim_holds(tiny, "lower")[0], False)
    expect("claim in the wrong direction",
           claim_holds(pairs(parent, change, "w", "tput"), "higher")[0], False)
    sink = open(os.devnull, "w")
    expect("exit code with a worse metric",
           compare(parent, change, spec, [], out=sink), 1)
    expect("exit code with nothing worse",
           compare(parent, parent, spec, [], out=sink), 0)
    sink.close()
    for f in failures:
        print("selftest FAILED: " + f)
    print("selftest %s" % ("failed" if failures else "passed"))
    return 1 if failures else 0


def main(argv):
    if argv == ["--selftest"]:
        return selftest()
    claims = []
    sets = []
    i = 0
    while i < len(argv):
        if argv[i] == "--claim" and i + 1 < len(argv):
            claims.append(argv[i + 1])
            i += 2
            continue
        sets.append(argv[i])
        i += 1
    if len(sets) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    return compare(load_runs(sets[0]), load_runs(sets[1]), load_spec(), claims)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

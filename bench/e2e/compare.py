#!/usr/bin/env python3
"""Collect, inspect and compare result sets of the end-to-end benchmark.

  compare.py pair --parent-root DIR --runs 10 --first-seed 100 --out P.json
      The way to measure a change. DIR is a checkout of the parent commit
      (e.g. `git archive <parent> | tar -x -C DIR`). Builds bench_e2e in
      both trees, then for every seed and workload runs the parent and the
      change back to back, alternating which goes first, and saves both
      sides: a machine whose speed drifts slows both sides of a pair alike.
  compare.py collect --runs 10 --first-seed 100 --out A.json [--seconds 20]
      Run every workload --runs times on this tree alone, seeds first-seed,
      first-seed+1, ... (workload order rotates each round); for baselines
      and spreads, not for claims.
  compare.py spread A.json
      Per workload and metric: median, quartiles and the spread
      (Q3 - Q1) / median against the metric's bound in BENCHMARK.json.
  compare.py diff P.json | diff PARENT.json CHANGE.json
      One row per workload x metric with each side's median and quartiles
      and a verdict: better, worse, unchanged or unresolved. Reads the
      output of `pair`, or two sets collected apart.
  compare.py quick --bench BIN --baseline DIR
      The quick gate: every workload at reduced iterations, untraced and
      traced; fails on an incorrect run or an end-to-end metric more than
      2x worse than the median of the result sets in DIR.

Verdict rule: `better` needs the change to win at least 9/10 of the pairs
(runs paired by seed, ties count for neither) and the medians to differ by
more than the parent's quartile distance; `worse` means the change's median
is worse than the parent's by more than the metric's bound; where the
parent's spread exceeds the bound the verdict is `unresolved`, unless every
change run beats every parent run. Metrics in EXACT repeat bit for bit for
a seed, so they are compared seed by seed with a bound of 0: `unchanged`
only if every pair is identical, `worse` if the median is worse at all.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step and the workload list)

# Repeat bit for bit for a given workload, seed and run length: the median
# stitch cost over a run's anneal seeds, the median holdout error over its
# estimator seeds, the mean error of the served CFs.
EXACT = {"qor_cost"}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m for m in json.load(f)["end_to_end"]}


def bench_result(binary, args, cwd=ROOT):
    proc = subprocess.run([binary] + args, cwd=cwd,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def run_once(binary, root, workload, seed, seconds, label=""):
    """One untraced run, as a result-set entry."""
    result = bench_result(binary, [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0"], cwd=root)
    ok = result is not None and result["correct"]
    print("%-9s seed %d%s: %s" % (workload, seed, label,
                                  "ok" if ok else "FAILED"), flush=True)
    return {"workload": workload, "seed": seed, "correct": ok,
            "metrics": {k: v["value"] for k, v in
                        (result or {"metrics": {}})["metrics"].items()}}


def rounds(opts):
    """(seed, workload) in run order: workload order rotates each round."""
    for i in range(opts.runs):
        for workload in run.WORKLOADS[i % 4:] + run.WORKLOADS[:i % 4]:
            yield opts.first_seed + i, workload


def collect(opts):
    binary = run.build()
    runs = [run_once(binary, ROOT, workload, seed, opts.seconds)
            for seed, workload in rounds(opts)]
    with open(opts.out, "w") as f:
        json.dump({"seconds": opts.seconds, "runs": runs}, f, indent=1)
    return 0 if all(r["correct"] for r in runs) else 1


def pair(opts):
    sides = {"parent": (run.build(os.path.abspath(opts.parent_root)),
                        os.path.abspath(opts.parent_root)),
             "change": (run.build(), ROOT)}
    runs = {"parent": [], "change": []}
    for n, (seed, workload) in enumerate(rounds(opts)):
        order = ("parent", "change") if n % 2 == 0 else ("change", "parent")
        for side in order:
            binary, root = sides[side]
            runs[side].append(run_once(binary, root, workload, seed,
                                       opts.seconds, " " + side))
    with open(opts.out, "w") as f:
        json.dump({"seconds": opts.seconds,
                   "parent": {"runs": runs["parent"]},
                   "change": {"runs": runs["change"]}}, f, indent=1)
    return 0 if all(r["correct"] for side in runs.values()
                    for r in side) else 1


def values(result_set, workload, metric):
    """Values of one metric on one workload, keyed by seed."""
    return {r["seed"]: r["metrics"][metric] for r in result_set["runs"]
            if r["workload"] == workload and metric in r["metrics"]}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4))


def spread(opts):
    spec = load_spec()
    with open(opts.set) as f:
        result_set = json.load(f)
    worst = 0.0
    print("%-9s %-18s %12s %12s %12s %8s %6s" % (
        "workload", "metric", "q1", "median", "q3", "spread", "bound"))
    for workload in run.WORKLOADS:
        for name, metric in spec.items():
            xs = list(values(result_set, workload, name).values())
            if not xs:
                continue
            q1, q2, q3 = quartiles(xs)
            share = (q3 - q1) / q2 if q2 else 0.0
            flag = "" if name == "setup_s" or share < metric["bound"] / 3 \
                else "  > bound/3"
            if name != "setup_s":
                worst = max(worst, share / metric["bound"])
            print("%-9s %-18s %12.6g %12.6g %12.6g %7.2f%% %5.0f%%%s" % (
                workload, name, q1, q2, q3, 100 * share,
                100 * metric["bound"], flag))
    print("largest spread / bound (setup_s excluded): %.2f" % worst)
    return 0


def verdict(parent, change, bound, higher_better, exact):
    """Verdict for one workload x metric; parent/change map seed -> value."""
    a = list(parent.values())
    b = list(change.values())
    q1, med_a, q3 = quartiles(a)
    med_b = statistics.median(b)
    sign = -1.0 if higher_better else 1.0   # sign * (x - y) > 0: x worse
    pairs = [(parent[s], change[s]) for s in parent if s in change]
    if exact:
        if not pairs:
            return "unresolved"
        if all(pa == pb for pa, pb in pairs):
            return "unchanged"
    else:
        pairs = pairs or list(zip(a, b))
    wins = sum(1 for pa, pb in pairs if sign * (pa - pb) > 0)
    worse_by = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if exact:
        if wins >= 0.9 * len(pairs):
            return "better"
        return "worse" if worse_by > 0 else "unresolved"
    spread_a = (q3 - q1) / abs(med_a) if med_a else 0.0
    if wins >= 0.9 * len(pairs) and abs(med_b - med_a) > q3 - q1:
        return "better"
    if spread_a > bound:
        beats_all = all(sign * (x - y) > 0 for x in a for y in b)
        return "better" if beats_all else "unresolved"
    return "worse" if worse_by > bound else "unchanged"


def diff(opts):
    spec = load_spec()
    with open(opts.sets[0]) as f:
        parent = json.load(f)
    if "parent" in parent:
        parent, change = parent["parent"], parent["change"]
    elif len(opts.sets) == 2:
        with open(opts.sets[1]) as f:
            change = json.load(f)
        print("note: two sets collected apart; a machine whose speed drifts "
              "between them reads as a change. Make claims with `pair`.")
    else:
        sys.exit("diff: give the output of `pair`, or two result sets")
    fmt = "%-9s %-18s %27s %27s %8s  %s"
    print(fmt % ("workload", "metric", "parent q1/median/q3",
                 "change q1/median/q3", "delta", "verdict"))
    worse = 0
    for workload in run.WORKLOADS:
        for name, metric in spec.items():
            pa = values(parent, workload, name)
            ch = values(change, workload, name)
            if not pa or not ch:
                continue
            v = verdict(pa, ch, metric["bound"], metric["better"] == "higher",
                        name in EXACT)
            worse += v == "worse"
            qa = quartiles(list(pa.values()))
            qb = quartiles(list(ch.values()))
            delta = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            print(fmt % (workload, name, "%.4g/%.4g/%.4g" % qa,
                         "%.4g/%.4g/%.4g" % qb, "%+.1f%%" % (100 * delta), v))
    return 1 if worse else 0


def quick(opts):
    spec = load_spec()
    baseline = []
    for path in sorted(glob.glob(os.path.join(opts.baseline, "*.json"))):
        with open(path) as f:
            baseline += json.load(f)["runs"]
    failures = []
    for workload in run.WORKLOADS:
        for trace in ("0", "1"):
            result = bench_result(opts.bench, ["--workload", workload,
                                               "--quick", "--trace", trace])
            if result is None or not result["correct"]:
                failures.append("%s trace %s: run failed" % (workload, trace))
                continue
            if trace == "1":
                continue
            for name, metric in spec.items():
                base = [r["metrics"][name] for r in baseline
                        if r["workload"] == workload and name in r["metrics"]]
                if not base:
                    continue
                ref = statistics.median(base)
                got = result["metrics"][name]["value"]
                gross = got < ref / 2 if metric["better"] == "higher" \
                    else got > 2 * ref
                print("%-9s %-18s %12.6g (baseline %.6g)%s" % (
                    workload, name, got, ref, "  >2x WORSE" if gross else ""))
                if gross:
                    failures.append("%s %s: %.6g vs baseline %.6g" % (
                        workload, name, got, ref))
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("collect", "pair"):
        p = sub.add_parser(name)
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--first-seed", type=int, default=100)
        p.add_argument("--seconds", type=int, default=20)
        p.add_argument("--out", required=True)
        if name == "pair":
            p.add_argument("--parent-root", required=True)
    p = sub.add_parser("spread")
    p.add_argument("set")
    p = sub.add_parser("diff")
    p.add_argument("sets", nargs="+")
    p = sub.add_parser("quick")
    p.add_argument("--bench", required=True)
    p.add_argument("--baseline", required=True)
    opts = parser.parse_args()
    return {"collect": collect, "pair": pair, "spread": spread, "diff": diff,
            "quick": quick}[opts.command](opts)


if __name__ == "__main__":
    sys.exit(main())

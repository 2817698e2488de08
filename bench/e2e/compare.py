#!/usr/bin/env python3
"""Compare two commits on the end-to-end benchmark (standard library only).

  compare.py --parent DIR --change DIR [--pairs 10] [--save runs.json]
  compare.py --self DIR [...]        two sets of runs of one checkout
  compare.py --load runs.json        re-analyse recorded runs

DIR is a checkout holding BENCHMARK.json. Each pair runs the benchmark
command once in each checkout on every workload of the change's
BENCHMARK.json, alternating which side runs first. Every run uses the
benchmark's default seed, so both sides must print the same report digest.
For every (end-to-end metric, workload) the verdict is:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's own spread (IQR / median) is wider than the
              bound, unless every change run reads better than every
              parent run;
  unchanged   otherwise.

The exit code is 1 on a digest mismatch, when the change fails more checks
per attempt than the parent, or when a row regressed; otherwise 0.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

SEED = 11  # the benchmark's default seed


def load_spec(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, spec, workload):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(SEED),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"compare: no result from {checkout} ({workload}, exit {proc.returncode})")
    result = json.loads(lines[-1])
    digests = [l.split()[1] for l in lines if l.startswith("digest ")]
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "digest": digests[-1] if digests else None,
    }


def collect(parent, change, spec, pairs):
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {"parent": {w: [] for w in workloads}, "change": {w: [] for w in workloads}}
    for i in range(pairs):
        order = [("parent", parent), ("change", change)]
        if i % 2 == 1:
            order.reverse()
        for workload in workloads:
            for side, checkout in order:
                runs[side][workload].append(run_once(checkout, spec, workload))
                print(f"pair {i + 1}/{pairs} {workload} {side} done", file=sys.stderr)
    return runs


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    pm, cm = statistics.median(parent), statistics.median(change)
    q = statistics.quantiles(parent, n=4)
    iqr = q[2] - q[0]
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if wins >= 0.9 * len(parent) and sign * (cm - pm) > iqr:
        return "improved", wins
    if sign * (pm - cm) > bound * abs(pm):
        return "regressed", wins
    if iqr > bound * abs(pm) and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def analyse(runs, spec):
    failed = False
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        if workload not in runs["parent"] or workload not in runs["change"]:
            sys.exit(f"compare: no runs of workload {workload}")
        p_runs, c_runs = runs["parent"][workload], runs["change"][workload]
        for p, c in zip(p_runs, c_runs):
            if p["digest"] != c["digest"]:
                print(f"{workload}: digest mismatch {p['digest']} != {c['digest']}")
                failed = True
        rate = lambda rs: sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
        if rate(c_runs) > rate(p_runs):
            print(f"{workload}: error rate {rate(c_runs):.4g} > parent {rate(p_runs):.4g}")
            failed = True

    header = f"{'workload':<10} {'metric':<14} {'parent median [q1, q3]':<34} " \
             f"{'change median':<14} {'delta':>8} {'wins':>6}  verdict"
    print(header)
    for metric in spec["end_to_end"]:
        for workload in workloads:
            parent = [r["metrics"][metric["name"]] for r in runs["parent"][workload]]
            change = [r["metrics"][metric["name"]] for r in runs["change"][workload]]
            result, wins = verdict(parent, change, metric["better"], metric["bound"])
            q = statistics.quantiles(parent, n=4)
            pm, cm = statistics.median(parent), statistics.median(change)
            delta = (cm - pm) / pm * 100 if pm else float("nan")
            span = f"{pm:.4g} [{q[0]:.4g}, {q[2]:.4g}] {metric['unit']}"
            print(f"{workload:<10} {metric['name']:<14} {span:<34} {cm:<14.4g} "
                  f"{delta:>+7.2f}% {wins:>3}/{len(parent):<2}  {result}")
            failed |= result == "regressed"
    return failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--self", dest="self_dir")
    parser.add_argument("--load")
    parser.add_argument("--save")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()

    if args.load:
        with open(args.load) as f:
            recorded = json.load(f)
        spec, runs = recorded["spec"], recorded["runs"]
    else:
        if args.self_dir:
            parent = change = args.self_dir
        elif args.parent and args.change:
            parent, change = args.parent, args.change
        else:
            parser.error("give --parent and --change, --self, or --load")
        if args.pairs < 10:
            parser.error("the rule needs at least 10 pairs")
        spec = load_spec(change)
        runs = collect(parent, change, spec, args.pairs)
        if args.save:
            with open(args.save, "w") as f:
                json.dump({"spec": spec, "runs": runs}, f, indent=1)
    return 1 if analyse(runs, spec) else 0


if __name__ == "__main__":
    sys.exit(main())

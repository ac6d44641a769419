#!/usr/bin/env python3
"""Compares two sets of benchmark runs, or shows the spread of one set.

A set of runs is a directory of `*.out` files, each the captured stdout of
one `run.py` invocation (its last line is the result JSON, the line before
it the run record naming the workload and seed).

    # one set: per workload and end-to-end metric, median, quartiles and
    # spread (IQR / median) against the metric's bound
    python3 perfbench/compare.py runs/a

    # two sets (say a parent and a change): a verdict per workload and metric
    python3 perfbench/compare.py runs/parent runs/change

    # make a set: one run per seed, from the current directory or from
    # several checkouts in turn (alternating which goes first per seed)
    python3 perfbench/compare.py collect runs/a --workload htap_adhoc --seeds 1-10
    python3 perfbench/compare.py collect runs --checkout ../parent ../change \\
        --workload htap_adhoc --seeds 1-10

Verdicts follow the benchmark method: `improved` when the change wins at
least 9 in 10 pairs (ties count for neither) and the medians differ by more
than the parent's own spread (its IQR); else `unresolved` when the parent's
spread is wider than the bound and not every change run beats every parent
run; else `worse` when the change's median is worse than the parent's by
more than the bound; otherwise `within bound`. Two sets of the same code
should read `within bound` everywhere.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark(path):
    with open(path) as f:
        bench = json.load(f)
    return {m["name"]: m for m in bench["end_to_end"]}, bench


def load_set(directory):
    """{workload: [(seed, result)]} from every run output in `directory`."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path) or not name.endswith(".out"):
            continue
        lines = [ln for ln in open(path).read().splitlines() if ln.strip()]
        if len(lines) < 2:
            continue
        try:
            result = json.loads(lines[-1])
            record = json.loads(lines[-2])["record"]
        except (ValueError, KeyError):
            print(f"skipping {path}: no result", file=sys.stderr)
            continue
        runs.setdefault(record["workload"], []).append((record["seed"], result))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def show_set(runs, metrics):
    ok = True
    for workload, results in sorted(runs.items()):
        failed = {r["failed"] / r["attempted"] for _, r in results}
        print(f"{workload}: {len(results)} runs, failed share {sorted(failed)}, "
              f"all correct: {all(r['correct'] for _, r in results)}")
        for name, meta in metrics.items():
            values = [r["metrics"][name]["value"] for _, r in results
                      if name in r["metrics"]]
            if not values:
                continue
            q1, q2, q3 = quartiles(values)
            s = spread(values)
            gated = name != "setup_s"
            flag = "" if not gated or s <= meta["bound"] / 3 else (
                "  <-- above bound/3" if s <= meta["bound"] else "  <-- ABOVE BOUND")
            ok &= not gated or s <= meta["bound"]
            print(f"  {name:24s} median {q2:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}"
                  f"  spread {s:8.4f}  bound {meta['bound']}{flag}")
    return ok


def better(meta, a, b):
    """True when value a is better than value b."""
    return a < b if meta["better"] == "lower" else a > b


def verdict(meta, base, change):
    pairs = list(zip(base, change))
    wins = sum(better(meta, c, b) for b, c in pairs)
    b1, bm, b3 = quartiles(base)
    _, cm, _ = quartiles(change)
    bound = meta["bound"]
    worse_by = (cm - bm) / abs(bm) if meta["better"] == "lower" else (bm - cm) / abs(bm)
    all_better = all(better(meta, c, b) for c in change for b in base)
    if pairs and wins >= 0.9 * len(pairs) and better(meta, cm, bm) and \
            abs(cm - bm) > (b3 - b1):
        v = "improved"
    elif spread(base) > bound and not all_better:
        v = "unresolved"
    elif worse_by > bound:
        v = "worse"
    else:
        v = "within bound"
    return v, wins, len(pairs), bm, cm, worse_by


RANK = {"improved": 0, "within bound": 0, "unresolved": 1, "worse": 2}


def compare_sets(base_runs, change_runs, metrics):
    worst = "within bound"
    for workload in sorted(set(base_runs) | set(change_runs)):
        base = dict(base_runs.get(workload, []))
        change = dict(change_runs.get(workload, []))
        seeds = sorted(set(base) & set(change))
        if not seeds:
            print(f"{workload}: no runs on both sides")
            continue
        print(f"{workload}: {len(seeds)} pairs (matched by seed)")
        shares = [{base[s]["failed"] / base[s]["attempted"] for s in seeds},
                  {change[s]["failed"] / change[s]["attempted"] for s in seeds}]
        if shares[0] != shares[1]:
            print(f"  failed share differs: {sorted(shares[0])} vs {sorted(shares[1])}")
            worst = "worse"
        for name, meta in metrics.items():
            if any(name not in side[s]["metrics"] for side in (base, change)
                   for s in seeds):
                print(f"  {name:24s} missing from some runs")
                worst = "worse"
                continue
            b = [base[s]["metrics"][name]["value"] for s in seeds]
            c = [change[s]["metrics"][name]["value"] for s in seeds]
            v, wins, n, bm, cm, worse_by = verdict(meta, b, c)
            print(f"  {name:24s} {v:13s} median {bm:12.6g} -> {cm:12.6g} "
                  f"({-worse_by:+.2%}), change won {wins}/{n}, bound {meta['bound']}")
            if RANK[v] > RANK[worst]:
                worst = v
    return worst


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args, bench):
    checkouts = args.checkout or [os.getcwd()]
    for seed_index, seed in enumerate(parse_seeds(args.seeds)):
        order = list(enumerate(checkouts))
        if seed_index % 2:
            order.reverse()
        for side, checkout in order:
            out_dir = args.out if len(checkouts) == 1 else os.path.join(
                args.out, f"side{side}")
            os.makedirs(out_dir, exist_ok=True)
            out = os.path.join(out_dir, f"{args.workload}-seed{seed}.out")
            cmd = bench["command"] + ["--workload", args.workload, "--seed",
                                      str(seed), "--seconds",
                                      str(bench["run_seconds"]), "--trace", "0"]
            # Each checkout builds into its own tree.
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            with open(out, "w") as f:
                code = subprocess.run(cmd, cwd=checkout, stdout=f,
                                      env=env).returncode
            print(f"{checkout} seed {seed}: exit {code} -> {out}", file=sys.stderr)


def main():
    default_bench = os.path.join(HERE, "..", "BENCHMARK.json")
    if len(sys.argv) > 1 and sys.argv[1] == "collect":
        p = argparse.ArgumentParser(prog="compare.py collect")
        p.add_argument("out")
        p.add_argument("--workload", required=True)
        p.add_argument("--seeds", default="1-10")
        p.add_argument("--checkout", nargs="+")
        p.add_argument("--benchmark", default=default_bench)
        args = p.parse_args(sys.argv[2:])
        collect(args, load_benchmark(args.benchmark)[1])
        return 0
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("sets", nargs="+", help="one or two directories of run outputs")
    p.add_argument("--benchmark", default=default_bench)
    args = p.parse_args()
    metrics, _ = load_benchmark(args.benchmark)
    if len(args.sets) == 1:
        return 0 if show_set(load_set(args.sets[0]), metrics) else 1
    worst = compare_sets(load_set(args.sets[0]), load_set(args.sets[1]), metrics)
    print(f"overall: {worst}")
    return 0 if worst == "within bound" or worst == "improved" else 1


if __name__ == "__main__":
    sys.exit(main())

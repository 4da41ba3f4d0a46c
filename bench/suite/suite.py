#!/usr/bin/env python3
"""Run every gmlake_bench workload, and compare two results files.

Usage, from the repository root:

    python3 bench/suite/suite.py run [--seed 42] [--rounds 5] [--seconds S]
        [--trace 0|1] [--scale full|tiny] [--out results.json]
        [--trace-out spans.json] [--binary PATH] [--tmp-dir DIR]
    python3 bench/suite/suite.py compare A.json B.json [--bounds BENCHMARK.json]

`run` builds gmlake_bench (see run.py) unless --binary names one, then
runs the workloads of BENCHMARK.json round-robin, --rounds times, each
run in its own process so peak RSS is per workload. Interleaving the
rounds spreads each workload's runs over the whole session, so a slow
spell of the machine touches one run of each workload rather than
every run of one. The merged file keeps every run's median per metric;
`compare` judges host metrics by the spread between those runs.

Exits non-zero when a run fails, or when `compare` finds a metric
regressed, unresolved, changed or missing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

import run as build_step

ROOT = build_step.ROOT
DIGESTS = ("events", "event_hash", "gmlake_digest", "caching_digest")
SUMMARY = ("unit", "better", "group", "exact")


def spec(path):
    with open(path) as f:
        return json.load(f)


def quartiles(values):
    """Median, q1 and q3 (Python's exclusive quartiles)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def merge(runs):
    """One workload's results files (one per round) as one record."""
    first = runs[0]
    merged = {key: first[key] for key in ("why",) + DIGESTS}
    merged["correct"] = all(r["correct"] for r in runs)
    merged["attempted"] = sum(r["attempted"] for r in runs)
    merged["failed"] = sum(r["failed"] for r in runs)
    merged["failures"] = [f for r in runs for f in r["failures"]]
    for r in runs[1:]:
        for key in DIGESTS:
            if r[key] != first[key]:
                merged["correct"] = False
                merged["failures"].append(
                    f"{key} {r[key]} differs from the first round's "
                    f"{first[key]}")
    metrics = {}
    for name, m in first["metrics"].items():
        values = [r["metrics"][name]["median"] for r in runs
                  if name in r["metrics"]]
        if m["exact"] and len(set(values)) > 1:
            merged["correct"] = False
            merged["failures"].append(f"exact metric {name} differs "
                                      f"between rounds: {values}")
        median, q1, q3 = quartiles(values)
        metrics[name] = {key: m[key] for key in SUMMARY}
        metrics[name].update(runs=values, n=len(values), median=median,
                             q1=q1, q3=q3, min=min(values),
                             max=max(values))
    merged["metrics"] = metrics
    return merged


def run_all(args):
    binary = args.binary
    if binary is None:
        build_step.build()
        binary = build_step.BINARY
    benchmark = spec(args.bounds)
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = args.seconds
    if seconds is None:
        seconds = benchmark["run_seconds"]
    results = {w: [] for w in workloads}
    status = 0
    meta = None
    with tempfile.TemporaryDirectory(dir=args.tmp_dir) as scratch:
        for round_index in range(args.rounds):
            for w in workloads:
                out = os.path.join(scratch, f"{w}-{round_index}.json")
                cmd = [binary, "run", "--workload", w,
                       "--seed", str(args.seed),
                       "--seconds", str(seconds),
                       "--trace", args.trace, "--scale", args.scale,
                       "--tmp-dir", scratch, "--out", out]
                if args.trace_out:
                    stem, ext = os.path.splitext(args.trace_out)
                    cmd += ["--trace-out",
                            f"{stem}.{w}.{round_index}{ext or '.json'}"]
                print(f"== round {round_index + 1}/{args.rounds}: {w}",
                      flush=True)
                if subprocess.run(cmd).returncode != 0:
                    status = 1
                if not os.path.exists(out):
                    print(f"suite.py: FAIL {w} wrote no results",
                          file=sys.stderr)
                    status = 1
                    continue
                with open(out) as f:
                    doc = json.load(f)
                meta = meta or doc["meta"]
                results[w].append(doc)

    merged = {w: merge(runs) for w, runs in results.items() if runs}
    print(f"\n{'workload':18} {'correct':8} {'attempted':>9} {'failed':>6}")
    for w in workloads:
        r = merged.get(w)
        if r is None or not r["correct"]:
            status = 1
        if r is None:
            print(f"{w:18} {'NO':8} {'-':>9} {'-':>6}")
            continue
        print(f"{w:18} {'yes' if r['correct'] else 'NO':8} "
              f"{r['attempted']:>9} {r['failed']:>6}")
        for failure in r["failures"]:
            print(f"  {failure}")
    if args.out and meta is not None:
        meta = dict(meta, rounds=args.rounds)
        with open(args.out, "w") as f:
            json.dump({"meta": meta, "workloads": merged}, f, indent=1)
            f.write("\n")
        print(f"results written to {args.out}")
    return status


def spread(values):
    median, q1, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a, b, bound):
    """ok, regressed, unresolved, changed or info for one metric.

    Exact metrics must match bit for bit. A host metric with a bound
    regresses when B's median is worse than A's by more than the bound;
    it is unresolved when either side's runs spread wider than the
    bound (or there is only one run to judge the spread by), unless
    every B run beats every A run.
    """
    if a["exact"]:
        return "ok" if a["runs"] == b["runs"] else "changed"
    if bound is None:
        return "info"
    higher = a["better"] == "higher"
    ra, rb = a["runs"], b["runs"]
    if (min(rb) > max(ra)) if higher else (max(rb) < min(ra)):
        return "ok"
    if min(len(ra), len(rb)) < 2 or max(spread(ra), spread(rb)) > bound:
        return "unresolved"
    ma, mb = a["median"], b["median"]
    worse = ((ma - mb) if higher else (mb - ma)) / abs(ma) if ma else 0.0
    return "regressed" if worse > bound else "ok"


def compare(args):
    a, b = spec(args.a)["workloads"], spec(args.b)["workloads"]
    bounds = {m["name"]: m["bound"] for m in spec(args.bounds)["end_to_end"]}
    bad = 0

    def line(workload, metric, unit, va, vb, v):
        print(f"{workload:17} {metric:24} {unit:10} {va:46} {vb:46} {v}")

    def quartet(m):
        return f"{m['median']:.6g} [{m['q1']:.6g}, {m['q3']:.6g}]"

    line("workload", "metric", "unit", "A median [q1, q3]",
         "B median [q1, q3]", "verdict")
    for name, ra in a.items():
        rb = b.get(name)
        if rb is None:
            print(f"{name:17} missing in B")
            bad += 1
            continue
        for key in DIGESTS:
            same = ra[key] == rb[key]
            bad += 0 if same else 1
            line(name, key, "", str(ra[key]), str(rb[key]),
                 "ok" if same else "changed")
        for metric, ma in ra["metrics"].items():
            mb = rb["metrics"].get(metric)
            if mb is None:
                print(f"{name:17} {metric:24} missing in B")
                bad += 1
                continue
            v = verdict(ma, mb, bounds.get(metric))
            bad += 0 if v in ("ok", "info") else 1
            line(name, metric, ma["unit"], quartet(ma), quartet(mb), v)
    print(f"{bad} metric(s) regressed, unresolved, changed or missing")
    return 0 if bad == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    default_bounds = os.path.join(ROOT, "BENCHMARK.json")

    p = sub.add_parser("run", help="run every workload")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--rounds", type=int, default=5)
    p.add_argument("--seconds", type=float,
                   help="timed seconds per run (default: run_seconds)")
    p.add_argument("--trace", choices=("0", "1"), default="1")
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--out")
    p.add_argument("--trace-out")
    p.add_argument("--binary", help="use this gmlake_bench, no build")
    p.add_argument("--tmp-dir", help="scratch files go under this")
    p.add_argument("--bounds", default=default_bounds,
                   help="BENCHMARK.json naming the workloads")

    p = sub.add_parser("compare", help="compare two results files")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--bounds", default=default_bounds)

    args = parser.parse_args()
    if args.command == "run":
        if args.rounds < 1:
            parser.error("--rounds must be at least 1")
        return run_all(args)
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Check that the benchmark is steady: two sets of runs agree.

Run from the root of the repository:

    python3 perfbench/steady.py                       # all workloads, 10 runs a set
    python3 perfbench/steady.py --workloads serve-mix --runs 5
    python3 perfbench/steady.py --fixed-seed 1        # every run on one seed

For every workload it makes two sets of runs (A and B) of --runs each,
alternating which set runs first, with seeds base, base+1, ... (or one
fixed seed). For every end-to-end metric in BENCHMARK.json it prints each
set's median and quartiles, the spread (interquartile distance over the
median) and whether set B's median is worse than set A's by more than the
metric's bound; the printed figures (wall-clock rates, p99, simulated
seconds per CPU second, live heap) get the same table without
a verdict. It also compares the share of failed operations, and with
--trace makes one traced run per workload and reports the tracing
overhead: the untraced median wall-clock ops/s over the traced one,
minus one.
A JSON summary goes to .bench_build/steady.json. The exit code is 1 if
any agreement or spread check fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step of the benchmark command)


def one(binary, workload, seed, seconds, trace):
    """Run the benchmark once; return its result object."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"]:
        raise SystemExit(f"{workload} seed {seed}: checks failed")
    # The printed figures ("figures: ops_per_s=... heap_mb=...").
    res["figures"] = {}
    for line in lines:
        if line.startswith("figures: "):
            res["figures"] = {k: float(v) for k, v in (f.split("=") for f in line[9:].split())}
    return res


def quartiles(xs):
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share."""
    if first == 0:
        return 0.0
    d = (second - first) / first
    return d if better == "lower" else -d


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--base-seed", type=int, default=1)
    ap.add_argument("--fixed-seed", type=int)
    ap.add_argument("--trace", action="store_true", help="also measure the tracing overhead")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    binary = run.build()
    summary = {}
    ok = True
    for w in names:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            seed = args.fixed_seed if args.fixed_seed is not None else args.base_seed + i
            for s in ("AB" if i % 2 == 0 else "BA"):
                sets[s].append(one(binary, w, seed, seconds, 0))
        print(f"\n{w}: {args.runs} runs a set, {seconds} s each")
        rows = {}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            qa, qb = quartiles(a), quartiles(b)
            spread = [(q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb)]
            worse = worse_by(qa[1], qb[1], m["better"])
            agree = worse <= bound
            steady = max(spread) <= bound
            ok = ok and agree and steady
            rows[name] = {"unit": m["unit"], "bound": bound, "A": qa, "B": qb,
                          "spread": spread, "worse_by": worse, "agree": agree, "steady": steady}
            print(f"  {name:22s} A {qa[1]:12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"B {qb[1]:12.6g} [{qb[0]:.6g}, {qb[2]:.6g}] {m['unit']:5s} "
                  f"spread {spread[0]:.3f}/{spread[1]:.3f}  B worse by {worse:+.3f} "
                  f"(bound {bound}) {'ok' if agree and steady else 'FAIL'}")
        for name in sets["A"][0]["figures"]:
            a = [r["figures"][name] for r in sets["A"]]
            b = [r["figures"][name] for r in sets["B"]]
            qa, qb = quartiles(a), quartiles(b)
            spread = [(q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb)]
            rows[name] = {"A": qa, "B": qb, "spread": spread}
            print(f"  {name:22s} A {qa[1]:12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                  f"B {qb[1]:12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]        "
                  f"spread {spread[0]:.3f}/{spread[1]:.3f}  (not gated)")
        shares = {s: sorted({r["failed"] / r["attempted"] for r in rs}) for s, rs in sets.items()}
        same = shares["A"] == shares["B"] and len(shares["A"]) == 1
        ok = ok and same
        print(f"  failed share A {shares['A']} B {shares['B']} {'ok' if same else 'FAIL'}")
        entry = {"metrics": rows, "failed_share": shares}
        if args.trace:
            traced = one(binary, w, args.fixed_seed or args.base_seed, seconds, 1)
            untraced = statistics.median(r["figures"]["ops_per_s"] for r in sets["A"] + sets["B"])
            t = traced["metrics"]["wall.ops_per_s"]["value"]
            entry["trace_overhead"] = untraced / t - 1
            print(f"  tracing overhead: {untraced:.6g} -> {t:.6g} ops/s ({100 * entry['trace_overhead']:+.1f}%)")
        summary[w] = entry
    os.makedirs(run.BUILD, exist_ok=True)
    with open(os.path.join(run.BUILD, "steady.json"), "w") as f:
        json.dump(summary, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

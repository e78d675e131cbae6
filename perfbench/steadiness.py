#!/usr/bin/env python3
"""Steadiness self-check: run workloads repeatedly and compare the spread of
every end-to-end metric with its bound in BENCHMARK.json.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1] [--seconds S]
                                    [--save FILE] [--against FILE] [--trace]
                                    [WORKLOAD ...]

Run from the repository root. Each run uses its own seed. For every metric the
report gives the median, the spread — the distance between the first and third
quartile (`statistics.quantiles(values, n=4)`) as a share of the median — and
the metric's bound. A metric whose spread exceeds its bound is named on a
FAIL line and the exit code is 1; a spread above a third of its bound is
flagged `noisy`. `setup_s` is held to its bound like every other metric. The
per-EVAL shape counters (plan mix, worlds, cache use) of every seed are
compared too: they must agree across seeds.

--save writes every metric's median to FILE. --against reads such a file from
an earlier set of runs and gives, per metric, how much worse this set's median
is than that one's, as a share of it; a metric worse by more than its bound is
a FAIL.

With --trace the runs are traced instead: the report gives the median of every
per-layer metric and each workload's largest layers as a share of
`serve.handle_us`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SHAPE_TOLERANCE = 0.02  # largest relative difference of a shape counter across seeds


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        capture_output=True,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed (exit {done.returncode})")
    provenance, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} of "
                         f"{result['attempted']} operations failed")
    return provenance, result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def check_shapes(workload, provenances):
    """Shape counters must agree across seeds (the workload is the same shape)."""
    ok = True
    for key in provenances[0]["per_eval"]:
        values = [p["per_eval"][key] for p in provenances]
        top = max(abs(v) for v in values)
        if top and (max(values) - min(values)) / top > SHAPE_TOLERANCE:
            print(f"  SHAPE {workload}: {key} differs across seeds: {values}")
            ok = False
    return ok


def main():
    sys.stdout.reconfigure(line_buffering=True)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--save")
    parser.add_argument("--against")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("workloads", nargs="*")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    medians = {}
    failures = []
    for workload in workloads:
        runs = [run_once(workload, args.first_seed + i, seconds, args.trace)
                for i in range(args.runs)]
        prov = runs[0][0]["provenance"]
        print(f"{workload}: {args.runs} runs x {seconds}s, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, workers={prov['workers']} "
              f"nproc={prov['nproc']} cpu={prov['cpu']!r} commit={prov['commit']}")
        if not check_shapes(workload, [p for p, _ in runs]):
            failures.append(f"{workload}: shape")
        metrics = runs[0][1]["metrics"]
        for name, first in metrics.items():
            values = [r["metrics"][name]["value"] for _, r in runs]
            median = statistics.median(values)
            medians.setdefault(workload, {})[name] = median
            if args.trace:
                print(f"  {name:28s} {median:14.4f} {first['unit']}")
                continue
            s = spread(values)
            bound = bounds[name]
            status = "ok"
            if s > bound:
                status = "FAIL"
                failures.append(f"{workload}: {name} spread {s:.3f} > bound {bound}")
            elif s > bound / 3:
                status = "noisy"
            shift = ""
            if name in earlier.get(workload, {}):
                before = earlier[workload][name]
                worse = (median - before) / before
                if better[name] == "higher":
                    worse = -worse
                shift = f"worse {worse:+6.3f}  "
                if worse > bound:
                    status = "FAIL"
                    failures.append(f"{workload}: {name} median worse by {worse:.3f} "
                                    f"> bound {bound}")
            print(f"  {name:16s} median {median:14.4f} {first['unit']:4s} "
                  f"spread {s:6.3f}  bound {bound:5.2f}  {shift}{status:5s} "
                  f"runs {' '.join(f'{v:.4g}' for v in values)}")
        if args.trace:
            handle = statistics.median(r["metrics"]["serve.handle_us"]["value"] for _, r in runs)
            shares = []
            for name in metrics:
                if name.endswith("_us") and not name.startswith(("serve.", "wire.rtt", "obs.")):
                    value = statistics.median(r["metrics"][name]["value"] for _, r in runs)
                    shares.append((value / handle if handle else 0.0, name))
            top = ", ".join(f"{n} {s:.0%}" for s, n in sorted(shares, reverse=True)[:4])
            print(f"  largest layers / serve.handle_us: {top}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(medians, f, indent=1)
    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness tool: repeat a workload and show how far its figures move.

    python3 tazbench/steady.py --workload reference_fit --runs 5 --sets 2 --traced 2

Runs ``run.py`` for BENCHMARK.json's ``run_seconds`` once per seed, one
run at a time, in sets of ``--runs``
seeds (set k uses seeds 1000*k + 1, 1000*k + 2, ...).  For every
end-to-end metric it prints the median, the quartiles and the spread
(interquartile range over median, from ``statistics.quantiles(n=4)``) of
all runs next to the metric's bound in BENCHMARK.json, then each set's
median and how far it sits from the first set's.  Seeds pick the sampler's
random streams, so the set-to-set movement of ``ess_per_s`` is what a
change that only alters the random stream would show.  With ``--traced N``
it also makes N traced runs, interleaved with the untraced ones, and
prints their median round time against the untraced runs' and their
per-layer medians.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for line in proc.stderr.splitlines():
        if line.startswith("summary "):
            result["raw"] = json.loads(line[len("summary "):])
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=5, help="untraced runs per seed set")
    parser.add_argument("--sets", type=int, default=2, help="seed sets")
    parser.add_argument("--traced", type=int, default=0, help="traced runs")
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]

    seeds = [1000 * k + i + 1 for k in range(args.sets) for i in range(args.runs)]
    traced_seeds = seeds[:args.traced]
    results, traced = [], []
    for i, seed in enumerate(seeds):
        results.append(run_once(args.workload, seed, seconds, 0))
        if i < len(traced_seeds):
            traced.append(run_once(args.workload, traced_seeds[i], seconds, 1))
        r = results[-1]
        print(f"seed {seed}: attempted {r['attempted']} failed {r['failed']} "
              + " ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items())
              + " | raw " + " ".join(f"{k}={v:.5g}" for k, v in r.get("raw", {}).items()),
              flush=True)

    print(f"\n{args.workload}: {len(results)} runs of {seconds} s")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"correct in every run: {all(r['correct'] for r in results)}; "
          f"failed shares seen: {sorted(shares)}")
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>8}  steady")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3, s = spread(values)
        verdict = "yes" if s < metric["bound"] / 3 else ("within bound" if s <= metric["bound"]
                                                         else "NO")
        print(f"{name:<14}{q2:>12.5g}{q1:>12.5g}{q3:>12.5g}{s:>9.3f}{metric['bound']:>8.2f}  {verdict}")

    raw = [r["raw"] for r in results if "raw" in r]
    if raw:
        print("\nraw wall times, for comparison (not normalised):")
        for name in ("raw_round_s", "raw_setup_s", "kernel_ms"):
            q1, q2, q3, s = spread([x[name] for x in raw])
            print(f"  {name:<14}{q2:>12.5g}{q1:>12.5g}{q3:>12.5g}{s:>9.3f}")

    if args.sets > 1:
        print("\nmedian per seed set, and its move from set 0:")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            medians = [statistics.median(r["metrics"][name]["value"]
                                         for r in results[k * args.runs:(k + 1) * args.runs])
                       for k in range(args.sets)]
            moves = " ".join(f"{m:.5g} ({m / medians[0] - 1:+.3f})" for m in medians)
            print(f"  {name:<14}{moves}   bound {metric['bound']:.2f}")

    if traced:
        traced_round = statistics.median(t["raw"]["round_s"] for t in traced)
        plain_round = statistics.median(r["metrics"]["round_s"]["value"] for r in results)
        print(f"\ntraced against untraced runs: round_s {traced_round:.5g} against "
              f"{plain_round:.5g}, {100 * (traced_round / plain_round - 1):+.2f}% "
              f"(resolved only to the spread of round_s)")
        print(f"per-layer medians over {len(traced)} traced runs:")
        for metric in bench["per_layer"]:
            name = metric["name"]
            values = [t["metrics"][name]["value"] for t in traced]
            print(f"  {name:<36}{statistics.median(values):>14.6g} {metric['unit']}"
                  f"   (min {min(values):.6g}, max {max(values):.6g})")


if __name__ == "__main__":
    main()

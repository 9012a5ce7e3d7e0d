"""Run one benchmark workload and print its metrics as JSON.

    python3 tazbench/run.py --workload reference_fit --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
``src``.  With ``--trace 0`` the last line of standard output carries the
end-to-end metrics, with ``--trace 1`` the per-layer ones.  Times are in
reference-normalised seconds (see clock.py).  Inputs and reports go to a
fresh directory under ``.tazbench-out`` that is removed at the end.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".tazbench-out")
WORKLOAD_NAMES = ("reference_fit", "model_comparison", "zone_networks")
TRACED_MODULES = ("cli", "dataset", "weights", "synth", "centrality", "mcmc",
                  "evaluate", "recovery")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tazcar", "cli.py")):
        sys.exit(f"error: no package source at {SRC}; run from the root of a tazcar checkout")
    sys.path[:0] = [SRC, HERE]
    from clock import Clock

    clock = Clock()
    try:
        return run(args, clock)
    finally:
        clock.close()


def run(args, clock):
    import_start = time.perf_counter()
    import tazcar.cli  # noqa: F401  (the CLI's import is part of set-up)
    import_end = time.perf_counter()

    from harness import Harness, run_rounds
    from tracing import Tracer
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = Tracer([importlib.import_module(f"tazcar.{name}") for name in TRACED_MODULES])
    os.makedirs(OUT_ROOT, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT)
    h = Harness(clock, tracer, out_dir, args.seed)
    try:
        workload = WORKLOADS[args.workload](h)
        if tracer is not None:
            tracer.install()
        workload.setup()
        setup_end = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
        clock.intervals.append((PROCESS_START, setup_end))
        setup_s = clock.normalise(PROCESS_START, setup_end)
        rounds = run_rounds(workload, h, args.seconds, tracer)
    finally:
        h.capture.close()
        shutil.rmtree(out_dir, ignore_errors=True)

    failed = sum(1 for r in rounds if r.failures)
    good = [r for r in rounds if not r.failures]
    metrics = {}
    if args.trace:
        import_s = clock.normalise(import_start, import_end)
        for name, (value, unit) in h.layer_metrics(good, import_s).items():
            metrics[name] = {"value": value, "unit": unit}
    elif good:
        round_s = statistics.median(r.seconds for r in good)
        ess_per_round = h.ess_per_round()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "round_s": {"value": round_s, "unit": "s"},
            "ess_per_s": {"value": ess_per_round / round_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    if good:
        # Raw figures for comparison with the normalised ones, and the round
        # time of traced runs for the tracing overhead; not metrics.
        print("summary " + json.dumps({
            "round_s": statistics.median(r.seconds for r in good),
            "raw_round_s": statistics.median(r.raw for r in good),
            "raw_setup_s": setup_end - PROCESS_START,
            "kernel_ms": 1e3 * statistics.median(clock.kernel_times()),
        }), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": len(rounds),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()

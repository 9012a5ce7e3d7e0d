"""Shared machinery of the workloads: fits with their draws kept for the
ESS until their group is estimated, output checks, and the per-layer
figures read off the spans."""

from __future__ import annotations

import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, xlogy

from tazcar import mcmc

from ess import bulk_ess

# The ESS of a fit is estimated on a group of consecutive fits of its slot
# holding at least this many chains.  Per fit, 2 short chains give an ESS
# that moves by 80% between seeds; pooled over a whole run, the estimate
# per fit falls as the run holds more fits, which would tie it to speed.
# A group's draws are dropped once its ESS is taken, so the run's memory
# does not grow with the number of rounds.
GROUP_CHAINS = 16


class DrawCapture:
    """Keeps the per-chain draws that ``mcmc.fit`` hands to the public
    ``mcmc.gelman_rubin`` for every reported parameter, in report order."""

    def __init__(self):
        self.draws = []
        self._original = mcmc.gelman_rubin

        def capture(chains):
            self.draws.append([np.array(c, dtype=float) for c in chains])
            return self._original(chains)

        capture.__name__ = self._original.__name__
        capture.__qualname__ = self._original.__qualname__
        capture.__module__ = self._original.__module__
        mcmc.gelman_rubin = capture

    def take(self, report) -> dict:
        """Draws of the fit that produced `report`: label -> (chains, draws)."""
        draws, self.draws = self.draws, []
        if len(draws) != len(report.parameters):
            raise RuntimeError(f"captured {len(draws)} traces for "
                               f"{len(report.parameters)} reported parameters")
        return {label: np.vstack(c) for label, c in zip(report.parameters, draws)}

    def close(self):
        mcmc.gelman_rubin = self._original


@dataclass
class FitRecord:
    """A traced fit, for the per-layer times."""
    kind: str                   # full, disconnected or theta_only
    round: int
    chains: int
    sweeps: int
    span: int                   # index of the fit's span


@dataclass
class RoundResult:
    seconds: float              # reference-normalised time of the timed calls
    raw: float                  # wall time of the timed calls
    wall: float                 # wall time of the round, checks included
    spans: int                  # spans recorded in the timed calls, traced runs
    failures: list = field(default_factory=list)


def saturated_deviance(y) -> float:
    """-2 log p(y | lambda = y), the smallest deviance any lambda can give."""
    y = np.asarray(y, dtype=float)
    return float(-2.0 * np.sum(xlogy(y, y) - y - gammaln(y + 1.0)))


def check(failures: list, ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def check_deviance(failures, report, y, name) -> None:
    floor = saturated_deviance(y)
    low = min(report.deviance_trace)
    check(failures, low >= floor - 1e-9 * abs(floor),
          f"{name}: deviance draw {low} below the saturated deviance {floor}")


class Harness:
    """State of one benchmark run shared by the workload and run.py."""

    def __init__(self, clock, tracer, out_dir, seed):
        self.clock = clock
        self.tracer = tracer
        self.out_dir = out_dir
        self.seed = seed
        self.capture = DrawCapture()
        self.round_index = 0
        self.pending = []           # (slot, draws, sweeps) of the round's fits
        self.groups = {}            # slot -> (draws, sweeps) of its unfinished ESS group
        self.group_ess = {}         # slot -> ESS per fit of each finished group
        self.counted = None         # first ESS group of the first slot, traced runs
        self.fits = []              # FitRecord of every traced fit
        self.probes = []            # (long sweeps, long span, short sweeps, short span)
        self.pair_spans = []        # (span index, ordered node pairs) of analyze calls
        self.report_bytes = 0

    @property
    def tracing(self) -> bool:
        return self.tracer is not None and self.tracer.installed

    def span_mark(self) -> int:
        return len(self.tracer.spans) if self.tracing else -1

    def fit(self, slot, kind, y, design, W, spec, config):
        """mcmc.fit, keeping the draws of every reported parameter until
        the round has ended."""
        mark = self.span_mark()
        report = mcmc.fit(y, design, W, spec, config)
        draws = self.capture.take(report)
        draws["deviance"] = np.asarray(report.deviance_trace).reshape(config.chains, -1)
        sweeps = config.chains * (config.burn_in + config.iters)
        self.pending.append((slot, draws, sweeps))
        if mark >= 0:
            self.fits.append(FitRecord(kind, self.round_index, config.chains, sweeps, mark))
        return report

    def probe_fixed_cost(self, y, design, W, spec, seed) -> None:
        """Traced runs only: a very short fit on the inputs of the round's
        first fit, so that fit time against sweeps gives an intercept."""
        if not self.tracing:
            return
        first = next(f for f in self.fits if f.round == self.round_index)
        config = mcmc.McmcConfig(chains=first.chains, burn_in=25, iters=25, seed=seed)
        mark = self.span_mark()
        mcmc.fit(y, design, W, spec, config)
        self.capture.draws = []
        self.probes.append((first.sweeps, first.span, first.chains * 50, mark))

    # ----- end-to-end figures -------------------------------------------

    def end_round(self) -> None:
        """Add the round's fits to their slots' ESS groups (consecutive fits
        of one slot: same data, model and length).  A group that holds
        GROUP_CHAINS chains gets its ESS per fit and its draws are dropped;
        a traced run keeps the first slot's first group for the per-layer
        ESS figures."""
        for slot, draws, sweeps in self.pending:
            group = self.groups.setdefault(slot, [])
            group.append((draws, sweeps))
            if sum(d["deviance"].shape[0] for d, _ in group) < GROUP_CHAINS:
                continue
            self.group_ess.setdefault(slot, []).append(worst_ess(group) / len(group))
            if self.tracer is not None and self.counted is None and slot == next(iter(self.groups)):
                self.counted = group
            self.groups[slot] = []
        self.pending = []

    def ess_per_round(self) -> float:
        """Sum over slots of the worst-mixing reported parameter's ESS per
        fit, averaged over the slot's groups; every slot has one fit per
        round.  A slot with no full group uses its unfinished one."""
        total = 0.0
        for slot, group in self.groups.items():
            finished = self.group_ess.get(slot)
            total += statistics.fmean(finished) if finished else worst_ess(group) / len(group)
        return total

    # ----- per-layer figures --------------------------------------------

    def _seconds(self, index) -> float:
        span = self.tracer.spans[index]
        return self.clock.normalise(span.start, span.end)

    def layer_metrics(self, rounds, import_s) -> dict:
        """Every per-layer metric; a layer the workload never calls reads 0."""
        timed = [s for s in self.tracer.finished() if self.clock.inside(s.start)]

        def median_ms(name):
            values = [self.clock.normalise(s.start, s.end) for s in timed if s.name == name]
            return 1e3 * statistics.median(values) if values else 0.0

        def us_per_sweep(kind):
            values = [self._seconds(f.span) / f.sweeps for f in self.fits if f.kind == kind]
            return 1e6 * statistics.median(values) if values else 0.0

        intercepts = []
        for long_sweeps, long_span, short_sweeps, short_span in self.probes:
            t_long, t_short = self._seconds(long_span), self._seconds(short_span)
            slope = (t_long - t_short) / (long_sweeps - short_sweeps)
            intercepts.append(t_short - slope * short_sweeps)

        pair_seconds = sum(self._seconds(i) for i, _ in self.pair_spans)
        pairs = sum(p for _, p in self.pair_spans)

        counted = self.counted or self.groups[next(iter(self.groups))]
        ksweeps = sum(sweeps for _, sweeps in counted) / 1e3
        labelled = counted[0][0]

        def ess_per_ksweep(*labels):
            if not all(k in labelled for k in labels):
                return 0.0
            return worst_ess(counted, labels) / ksweeps

        betas = [k for k in labelled
                 if k not in ("tau_c", "sigma_theta2", "precision_theta", "deviance")]

        # What tracing costs: the wrapper's own time per call, measured on a
        # no-op, times the spans in the rounds' timed calls, over their time.
        overhead = 100.0 * self.tracer.span_cost() * sum(r.spans for r in rounds) / sum(
            r.raw for r in rounds)

        return {
            "cli.import_s": (import_s, "s"),
            "dataset.load_dataset_ms": (median_ms("dataset.load_dataset"), "ms"),
            "dataset.build_design_ms": (median_ms("dataset.build_design"), "ms"),
            "weights.read_topology_ms": (median_ms("weights.read_topology"), "ms"),
            "weights.build_weights_ms": (median_ms("weights.build_weights"), "ms"),
            "mcmc.us_per_sweep.full": (us_per_sweep("full"), "us"),
            "mcmc.us_per_sweep.disconnected": (us_per_sweep("disconnected"), "us"),
            "mcmc.us_per_sweep.theta_only": (us_per_sweep("theta_only"), "us"),
            "mcmc.fit_fixed_ms": (1e3 * statistics.median(intercepts) if intercepts else 0.0, "ms"),
            "mcmc.irls_ms": (median_ms("mcmc.irls_poisson_fit"), "ms"),
            "mcmc.ess_per_ksweep.beta_min": (ess_per_ksweep(*betas), "1/ksweep"),
            "mcmc.ess_per_ksweep.tau_c": (ess_per_ksweep("tau_c"), "1/ksweep"),
            "mcmc.ess_per_ksweep.sigma_theta2": (ess_per_ksweep("sigma_theta2"), "1/ksweep"),
            "mcmc.ess_per_ksweep.deviance": (ess_per_ksweep("deviance"), "1/ksweep"),
            "mcmc.report_bytes": (float(self.report_bytes), "bytes"),
            "mcmc.report_write_ms": (median_ms("mcmc.PosteriorReport.to_json"), "ms"),
            "synth.simulate_dataset_ms": (median_ms("synth.simulate_dataset"), "ms"),
            "evaluate.compare_dic_ms": (median_ms("evaluate.compare_dic"), "ms"),
            "centrality.analyze_ms": (median_ms("centrality.analyze"), "ms"),
            "centrality.us_per_pair": (1e6 * pair_seconds / pairs if pairs else 0.0, "us"),
            "centrality.read_edge_list_ms": (median_ms("centrality.read_edge_list"), "ms"),
            "reference.kernel_ms": (1e3 * statistics.median(self.clock.kernel_times()), "ms"),
            "trace.overhead_pct": (overhead, "%"),
        }


def worst_ess(group, labels=None) -> float:
    """Smallest bulk ESS over `labels` (default: every reported parameter,
    the deviance excluded), the chains of the group's fits pooled."""
    if labels is None:
        labels = [k for k in group[0][0] if k != "deviance"]
    return min(bulk_ess(np.vstack([d[k] for d, _ in group])) for k in labels)


def run_rounds(workload, h, seconds, tracer) -> list:
    """Closed loop: the next round starts when the last one has ended, and
    none starts that would end after `seconds`.  In a traced run every
    round is traced."""
    rounds = []
    loop_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - loop_start
        if rounds and elapsed + statistics.median(r.wall for r in rounds) > seconds:
            break
        if tracer is not None:
            tracer.install()
        h.round_index = len(rounds)
        first_interval = len(h.clock.intervals)
        first_span = len(tracer.spans) if tracer is not None else 0
        start = time.perf_counter()
        try:
            normalised, failures = workload.round(len(rounds))
        except Exception:  # a round that raises is a failed operation
            traceback.print_exc()
            normalised, failures = float("nan"), ["the round raised"]
        finally:
            if tracer is not None:
                tracer.uninstall()
        wall = time.perf_counter() - start
        h.end_round()
        windows = h.clock.intervals[first_interval:]
        raw = sum(b - a for a, b in windows)
        spans = 0
        if tracer is not None:
            spans = sum(1 for s in tracer.spans[first_span:]
                        if s is not None and any(a <= s.start <= b for a, b in windows))
        print(f"round {len(rounds)}: {normalised:.4f} s normalised, {raw:.4f} s raw, "
              f"{wall:.4f} s wall", file=sys.stderr)
        for failure in failures:
            print(f"round {len(rounds)}: check failed: {failure}", file=sys.stderr)
        rounds.append(RoundResult(normalised, raw, wall, spans, failures))
    return rounds

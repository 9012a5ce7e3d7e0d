"""Parameter-recovery harness: simulate from known coefficients, refit, and
score credible-interval coverage and the recovered spatial share."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import build_design, crash_counts
from .errors import ValidationError, dump_json
from .mcmc import McmcConfig, fit_batch
from .model import ModelSpec
from .synth import SimulationTruth, default_truth, generate_lattice, simulate_dataset
from .weights import ADJACENCY, build_weights

# Replicates whose chains one batched sampler runs together; their kept
# draws are held at once, so this bounds memory.
_REPS_PER_BATCH = 5


@dataclass
class RecoveryResult:
    """Coverage bookkeeping across replicate fits."""

    reps: int
    labels: list
    covered: dict                  # label -> number of replicates covering truth
    truth: dict                    # label -> true coefficient
    rhat_max: list = field(default_factory=list)
    alpha_errors: list = field(default_factory=list)   # |alpha_hat - alpha_true|
    alpha_true: list = field(default_factory=list)
    alpha_hat: list = field(default_factory=list)
    converged: list = field(default_factory=list)

    @property
    def coverage(self) -> dict:
        return {lbl: self.covered[lbl] / self.reps for lbl in self.labels}

    def to_dict(self) -> dict:
        return {
            "reps": self.reps,
            "truth": self.truth,
            "covered": self.covered,
            "coverage": self.coverage,
            "rhat_max": self.rhat_max,
            "alpha_true": self.alpha_true,
            "alpha_hat": self.alpha_hat,
            "alpha_errors": self.alpha_errors,
            "converged": self.converged,
        }

    def to_json(self, path=None) -> str:
        return dump_json(self.to_dict(), path)

    def render_table(self) -> str:
        lines = [f"{'coefficient':<28}{'truth':>10}{'covered':>10}{'coverage':>10}"]
        for lbl in self.labels:
            lines.append(f"{lbl:<28}{self.truth[lbl]:>10.3f}"
                         f"{self.covered[lbl]:>10d}{self.coverage[lbl]:>10.2f}")
        lines.append("")
        lines.append(f"replicates: {self.reps}   converged: {sum(self.converged)}"
                     f"   max Rhat: {max(self.rhat_max):.3f}")
        if self.alpha_errors:
            lines.append(f"alpha abs error: mean {np.mean(self.alpha_errors):.3f}"
                         f"   max {np.max(self.alpha_errors):.3f}")
        return "\n".join(lines) + "\n"


def run_recovery(truth: SimulationTruth = None, reps: int = 20, lattice: int = 13,
                 seed: int = 0, chains: int = 2, burn_in: int = 5000,
                 iters: int = 10000, spec: ModelSpec = None) -> RecoveryResult:
    """Fit `reps` simulated datasets on an M x M lattice and score recovery.

    Replicate r uses simulation seed seed+r and fit seed seed+10000+r, so
    the whole experiment is reproducible from one seed.  Replicates are
    fitted a few at a time in one batched sampler.
    """
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    truth = truth if truth is not None else default_truth()
    spec = spec if spec is not None else ModelSpec()
    topology = generate_lattice(lattice)
    W = build_weights(topology, ADJACENCY)

    result = None
    for start in range(0, reps, _REPS_PER_BATCH):
        group = range(start, min(start + _REPS_PER_BATCH, reps))
        simulated = [simulate_dataset(topology, truth, seed=seed + r) for r in group]
        designs = [build_design(records, spec) for records, _ in simulated]
        if result is None:
            labels = list(designs[0].labels)
            missing = [lbl for lbl in labels if lbl not in truth.beta]
            if missing:
                raise ValidationError(f"truth beta is missing coefficients {missing}")
            result = RecoveryResult(reps=reps, labels=labels,
                                    covered={lbl: 0 for lbl in labels},
                                    truth={lbl: float(truth.beta[lbl]) for lbl in labels})
        configs = [McmcConfig(chains=chains, burn_in=burn_in, iters=iters,
                              seed=seed + 10000 + r) for r in group]
        reports = fit_batch([(crash_counts(records), design)
                             for (records, _), design in zip(simulated, designs)],
                            W, spec, configs)

        for report, (_, realized) in zip(reports, simulated):
            rhats = [report.parameters[lbl]["rhat"] for lbl in labels]
            result.rhat_max.append(float(max(rhats)))
            result.converged.append(bool(report.converged))
            for lbl in labels:
                row = report.parameters[lbl]
                if row["q025"] <= truth.beta[lbl] <= row["q975"]:
                    result.covered[lbl] += 1
            if realized.alpha_true is not None and report.alpha["mean"] is not None:
                result.alpha_true.append(float(realized.alpha_true))
                result.alpha_hat.append(float(report.alpha["mean"]))
                result.alpha_errors.append(abs(report.alpha["mean"] - realized.alpha_true))
    return result

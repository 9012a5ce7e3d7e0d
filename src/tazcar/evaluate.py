"""Model comparison: deviance, DIC, predictive R-squared, spatial share alpha,
and multiplicative effect sizes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .model import _alpha_share, poisson_loglik

# DIC gap labels: differences above 10 rule a model out, 5-10 matter,
# below 5 the models are effectively tied.
DIC_DECISIVE = 10.0
DIC_SUBSTANTIAL = 5.0


def deviance(y, lam) -> float:
    """Bayesian deviance -2 log p(y | lambda), factorial constants included."""
    y = np.asarray(y, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if y.shape != lam.shape:
        raise ValidationError("y and lambda lengths differ")
    return -2.0 * poisson_loglik(y, lam)


@dataclass(frozen=True)
class DicResult:
    d_bar: float
    d_at_mean: float
    p_d: float
    dic: float
    suspicious: bool  # negative effective parameter count

    def to_dict(self) -> dict:
        return {"d_bar": self.d_bar, "d_at_mean": self.d_at_mean,
                "p_d": self.p_d, "dic": self.dic, "suspicious": self.suspicious}


def dic(deviance_trace, y, lam_at_mean) -> DicResult:
    """DIC = D_bar + p_D with p_D = D_bar - D(posterior means).

    lam_at_mean is lambda evaluated at the posterior means of all latent
    quantities (coefficients plus both random-effect vectors).  A negative
    p_D is legal but suspicious and only flagged.
    """
    trace = np.asarray(deviance_trace, dtype=float)
    if trace.size == 0:
        raise ValidationError("empty deviance trace")
    d_bar = float(trace.mean())
    d_hat = deviance(y, lam_at_mean)
    p_d = d_bar - d_hat
    return DicResult(d_bar=d_bar, d_at_mean=d_hat, p_d=p_d, dic=d_bar + p_d,
                     suspicious=p_d < 0)


def dic_verdict(delta: float) -> str:
    gap = abs(delta)
    if gap > DIC_DECISIVE:
        return "decisive"
    if gap >= DIC_SUBSTANTIAL:
        return "substantial"
    return "equivalent"


def compare_dic(runs) -> dict:
    """Rank runs by DIC ascending and label every pair.

    runs: mapping of label -> DIC value, or iterable of (label, dic) pairs.
    """
    if isinstance(runs, dict):
        items = list(runs.items())
    else:
        items = [(label, value) for label, value in runs]
    if len(items) < 2:
        raise ValidationError("need at least 2 runs to compare")
    ranking = sorted(items, key=lambda kv: kv[1])
    pairs = []
    for a in range(len(ranking)):
        for b in range(a + 1, len(ranking)):
            la, da = ranking[a]
            lb, db = ranking[b]
            pairs.append({"better": la, "worse": lb, "delta": db - da,
                          "verdict": dic_verdict(db - da)})
    return {"ranking": [{"label": l, "dic": d} for l, d in ranking], "pairwise": pairs}


def r_squared(y, y_hat) -> float:
    """1 - SSE/SST against the global-mean predictor.

    y_hat should be the posterior mean of lambda (the model's predictive
    expectation), not the plug-in exp of the mean linear predictor.
    """
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float)
    if y.shape != y_hat.shape:
        raise ValidationError("y and y_hat lengths differ")
    if y.size < 2:
        raise DomainError("r_squared needs at least 2 observations")
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0:
        raise DomainError("r_squared undefined: y is constant")
    return float(1.0 - np.sum((y - y_hat) ** 2) / sst)


def alpha_spatial_share(theta_draw, phi_draw):
    """Share of extra-Poisson variability carried by the spatial term:
    sd(phi) / (sd(theta) + sd(phi)) across zones for one draw.

    Returns None when both sds are zero (the share is undefined).  The
    ddof choice cancels in the ratio; ddof=1 is used.
    """
    theta = np.asarray(theta_draw, dtype=float)
    phi = np.asarray(phi_draw, dtype=float)
    if theta.shape != phi.shape:
        raise ValidationError("theta and phi draws must have equal length")
    share = float(_alpha_share(theta.reshape(1, -1), phi.reshape(1, -1))[0])
    return None if np.isnan(share) else share


def percent_change(beta: float) -> float:
    """Multiplicative effect on expected crash frequency per unit increase:
    exp(beta) - 1."""
    if not np.isfinite(beta):
        raise DomainError("beta must be finite")
    return float(np.expm1(beta))


def render_comparison(comparison: dict, runs_detail: dict = None) -> str:
    """Plain-text comparison report: per-run fit statistics then pairwise
    verdicts.  runs_detail optionally maps labels to dicts with d_bar, p_d,
    r_squared, alpha."""
    lines = []
    header = f"{'model':<24}{'DIC':>12}"
    detail_cols = ("d_bar", "p_d", "r_squared", "alpha")
    if runs_detail:
        header += "".join(f"{c:>12}" for c in detail_cols)
    lines.append(header)
    for entry in comparison["ranking"]:
        row = f"{entry['label']:<24}{entry['dic']:>12.2f}"
        if runs_detail:
            detail = runs_detail.get(entry["label"], {})
            for c in detail_cols:
                v = detail.get(c)
                row += f"{v:>12.4f}" if v is not None else f"{'-':>12}"
        lines.append(row)
    lines.append("")
    for pair in comparison["pairwise"]:
        lines.append(f"{pair['better']} vs {pair['worse']}: "
                     f"delta DIC = {pair['delta']:.2f} ({pair['verdict']})")
    return "\n".join(lines) + "\n"

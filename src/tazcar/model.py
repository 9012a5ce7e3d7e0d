"""Poisson-lognormal likelihood with an intrinsic CAR spatial effect.

The linear predictor for zone i is psi_i = x_i . beta + theta_i + phi_i,
with lambda_i = exp(psi_i).  theta is an iid normal(0, sigma_theta^2)
heterogeneity effect; phi carries spatial correlation under an intrinsic
(improper) CAR prior: conditionally, phi_i is normal around the weighted
mean of its neighbors with variance 1 / (tau_c * w_i+).  Identification
uses a per-component sum-to-zero constraint on phi, with the intercept
absorbing the spatial mean.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, asdict

import numpy as np
from scipy.special import gammaln

from .dataset import CONTINUOUS_COVARIATES
from .errors import DomainError, ValidationError, dump_json, load_json
from .weights import ADJACENCY, MODES, ProximityMatrix

# Linear predictor clamp: |psi| above this is clipped and counted as a
# divergence event rather than allowed to overflow exp().
PSI_CLAMP = 30.0


def _finite(value) -> bool:
    """Whether value is a real number, neither infinite nor NaN."""
    return isinstance(value, numbers.Real) and math.isfinite(value)


@dataclass(frozen=True)
class NormalPrior:
    mean: float = 0.0
    variance: float = 1000.0

    def __post_init__(self):
        if not (_finite(self.mean) and _finite(self.variance) and self.variance > 0):
            raise ValidationError("normal prior needs a finite mean and a finite variance > 0")


@dataclass(frozen=True)
class GammaPrior:
    """shape/rate parameterization; also used for the inverse-gamma prior,
    where rate is the scale of the reciprocal."""

    shape: float
    rate: float

    def __post_init__(self):
        if not all(_finite(v) and v > 0 for v in (self.shape, self.rate)):
            raise ValidationError("gamma/inverse-gamma parameters must be finite and > 0")


_SWITCHES = ("include_pattern", "include_land_use", "standardize",
             "offset_log_arterial_length", "include_theta", "include_phi")


@dataclass
class ModelSpec:
    """Covariate selection, dummy-coding bases, priors, and sampler toggles.

    coef_priors maps design-column labels to NormalPrior overrides; columns
    without an entry use default_coef_prior.  include_theta / include_phi
    switch the heterogeneity and spatial terms off for reduced models, and
    fixed_tau_c / fixed_sigma_theta2 pin a hyperparameter instead of
    sampling it.
    """

    covariates: tuple = CONTINUOUS_COVARIATES
    include_pattern: bool = True
    include_land_use: bool = True
    standardize: bool = False
    offset_log_arterial_length: bool = False
    default_coef_prior: NormalPrior = field(default_factory=NormalPrior)
    coef_priors: dict = field(default_factory=dict)
    sigma_theta_prior: GammaPrior = field(default_factory=lambda: GammaPrior(0.001, 0.001))
    tau_c_prior: GammaPrior = field(default_factory=lambda: GammaPrior(0.1, 0.1))
    proximity_mode: str = ADJACENCY
    include_theta: bool = True
    include_phi: bool = True
    fixed_tau_c: float = None
    fixed_sigma_theta2: float = None

    def __post_init__(self):
        self.covariates = tuple(self.covariates)
        if not all(isinstance(name, str) for name in self.covariates):
            raise ValidationError(f"covariates must be names, got {self.covariates!r}")
        for name in _SWITCHES:
            if not isinstance(getattr(self, name), bool):
                raise ValidationError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if self.proximity_mode not in MODES:
            raise ValidationError(f"unknown proximity mode {self.proximity_mode!r}")
        if not isinstance(self.coef_priors, dict):
            raise ValidationError("coef_priors must map labels to normal priors")
        for label, prior in [("default", self.default_coef_prior), *self.coef_priors.items()]:
            if not isinstance(prior, NormalPrior):
                raise ValidationError(f"coef prior for {label!r} must be a NormalPrior")
        for name in ("sigma_theta_prior", "tau_c_prior"):
            if not isinstance(getattr(self, name), GammaPrior):
                raise ValidationError(f"{name} must be a GammaPrior")
        for name in ("fixed_tau_c", "fixed_sigma_theta2"):
            value = getattr(self, name)
            if value is not None and not (_finite(value) and value > 0):
                raise ValidationError(f"{name} must be finite and > 0, got {value}")

    def prior_for(self, label: str) -> NormalPrior:
        return self.coef_priors.get(label, self.default_coef_prior)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["covariates"] = list(self.covariates)
        d["coef_priors"] = {k: {"mean": v.mean, "variance": v.variance}
                            for k, v in self.coef_priors.items()}
        return d

    def to_json(self, path=None) -> str:
        return dump_json(self.to_dict(), path)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        d = dict(d)
        if "default_coef_prior" in d and isinstance(d["default_coef_prior"], dict):
            d["default_coef_prior"] = NormalPrior(**d["default_coef_prior"])
        if isinstance(d.get("coef_priors"), dict):
            d["coef_priors"] = {k: NormalPrior(**v) if isinstance(v, dict) else v
                                for k, v in d["coef_priors"].items()}
        for key in ("sigma_theta_prior", "tau_c_prior"):
            if key in d and isinstance(d[key], dict):
                d[key] = GammaPrior(**d[key])
        if "covariates" in d:
            d["covariates"] = tuple(d["covariates"])
        return cls(**d)

    @classmethod
    def from_json(cls, path) -> "ModelSpec":
        return load_json(path, cls.from_dict)


def _clamp(psi):
    """np.clip(psi, -PSI_CLAMP, PSI_CLAMP) without np.clip's per-call dispatch."""
    return np.minimum(np.maximum(psi, -PSI_CLAMP), PSI_CLAMP)


def _row_sd(v):
    """Row-wise v.std(ddof=1), bit for bit, without the method's per-call overhead."""
    n = v.shape[1]
    dev = v - (np.add.reduce(v, axis=1) / n)[:, None]
    return np.sqrt(np.add.reduce(dev * dev, axis=1) / (n - 1))


# Row-wise kernels: rows are chains, columns zones.  The sampler calls them
# every sweep and the public functions below are their one-row callers.
# Row sums are np.add.reduce over axis 1 of C-ordered arrays, which sums each
# row on its own, so a row's result does not depend on the rows beside it.

def _loglik_terms(y, psi, lam):
    """Pointwise y * psi - lam, the Poisson log-likelihood without its
    factorial constant.  It is linear in (psi, lam), so passing the changes
    of psi and lam gives the change of the log-likelihood."""
    return y * psi - lam


def _row_loglik(y, psic, lam, lgamma_y):
    """Per-row Poisson log-likelihood at clamped psi and lam = exp(psic);
    lgamma_y holds each row's sum of log(y!).  Every deviance, per draw or
    at the posterior means, is -2 times this."""
    return np.add.reduce(_loglik_terms(y, psic, lam), axis=1) - lgamma_y


def _gauss_log_ratio(new, old, var):
    """log N(new; 0, var) - log N(old; 0, var), elementwise."""
    return (old ** 2 - new ** 2) / (2.0 * var)


def _car_mean(phi, nbr, weight, wplus):
    """CAR conditional means sum_j w_ij phi_j / w_i+ of the zones whose padded
    neighbour tables nbr, weight (max degree x zones) are given; one row per
    row of phi."""
    return np.add.reduce(phi.take(nbr, axis=1) * weight, axis=1) / wplus


def _car_log_ratio(new, old, mean, half_tau, wplus):
    """Change of the ICAR log density when phi_i moves from old to new with
    its neighbours fixed: the conditional is normal(mean, 1 / (tau w_i+)).
    half_tau is the column tau / 2 of each row."""
    return half_tau * wplus * ((old - mean) ** 2 - (new - mean) ** 2)


def _icar_pairwise(phi, ei, ej, ew):
    """Per-row sum over the edges (ei, ej, ew) of w_ij (phi_i - phi_j)^2."""
    d = phi.take(ei, axis=1) - phi.take(ej, axis=1)
    return np.add.reduce(ew * d * d, axis=1)


def _sigma_theta_posterior(theta, prior: GammaPrior) -> tuple:
    """Conjugate inverse-gamma shape and per-row rates for sigma_theta^2."""
    return (prior.shape + theta.shape[1] / 2.0,
            prior.rate + np.add.reduce(theta * theta, axis=1) / 2.0)


def _tau_c_posterior(pairwise, n: int, component_count: int, prior: GammaPrior) -> tuple:
    """Conjugate gamma shape and per-row rates for tau_c from the rows'
    _icar_pairwise sums: n - G degrees of freedom for G connected components."""
    return prior.shape + (n - component_count) / 2.0, prior.rate + pairwise / 2.0


def _alpha_share(theta, phi):
    """Per-row sd(phi) / (sd(theta) + sd(phi)) across zones; NaN where both
    sds are zero or there is a single zone."""
    out = np.full(len(theta), np.nan)
    if theta.shape[1] > 1:
        sd = _row_sd(np.concatenate([theta, phi]))
        sd_t, sd_p = sd[:len(theta)], sd[len(theta):]
        spread = sd_t + sd_p
        np.divide(sd_p, spread, out=out, where=spread > 0)
    return out


def poisson_loglik(y, lam) -> float:
    """log p(y | lambda) for Poisson counts, factorial constant included."""
    y = np.asarray(y, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0):
        raise DomainError("lambda must be positive")
    if np.any(y < 0) or np.any(y != np.floor(y)):
        raise DomainError("y must be nonnegative integers")
    y, lam = y.reshape(1, -1), lam.reshape(1, -1)
    return float(_row_loglik(y, np.log(lam), lam, np.add.reduce(gammaln(y + 1.0), axis=1))[0])


def icar_pairwise_sum(phi: np.ndarray, W: ProximityMatrix) -> float:
    """sum over unordered neighbor pairs of w_ij (phi_i - phi_j)^2."""
    phi = np.asarray(phi, dtype=float)
    return float(_icar_pairwise(phi[None], *W.edges)[0])


def icar_log_density_kernel(phi: np.ndarray, W: ProximityMatrix, tau_c: float,
                            check_constraint: bool = True) -> float:
    """Unnormalized log density of the intrinsic CAR prior.

    (n - G)/2 * ln tau_c - tau_c/2 * sum_{i<j} w_ij (phi_i - phi_j)^2 with
    G the number of connected components.  phi must sum to zero on each
    component (the constraint that makes the improper prior usable).
    """
    if not tau_c > 0:
        raise DomainError("tau_c must be > 0")
    phi = np.asarray(phi, dtype=float)
    if len(phi) != W.zone_count:
        raise ValidationError("phi length does not match the weight matrix")
    if check_constraint:
        labels = W.component_labels
        for c in range(W.component_count):
            s = phi[labels == c].sum()
            if abs(s) > 1e-8 * max(1, len(phi)):
                raise DomainError(f"phi does not sum to zero on component {c}: sum={s}")
    n, g = W.zone_count, W.component_count
    return float(0.5 * (n - g) * np.log(tau_c) - 0.5 * tau_c * icar_pairwise_sum(phi, W))

"""Metropolis-within-Gibbs sampler for the Poisson-lognormal CAR model.

One sweep updates, in order: each regression coefficient by scalar random
walk, every heterogeneity effect theta_i (jointly vectorized: they are
conditionally independent), every spatial effect phi_i (vectorized over
graph-coloring classes so simultaneous sites are never neighbors), then
conjugate draws for sigma_theta^2 (inverse-gamma) and tau_c (gamma), and
finally a re-centering of phi with the intercept absorbing the removed
mean.  Proposal scales adapt toward 0.44 acceptance during burn-in only.

Chains run together in one batched sampler: their states are the rows of
(chains x zones) arrays, so one numpy call serves every chain.

Determinism: every chain owns a PCG64 generator spawned from the config
seed, random numbers are consumed in fixed-size blocks each sweep, and
each chain's arithmetic reads only its own rows, so results are
bit-identical across runs and whatever chains share the batch.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
from scipy.special import gammaln

from . import evaluate
from .errors import ConvergenceError, DomainError, McmcDivergenceError, ValidationError
from .model import (
    GammaPrior,
    ModelSpec,
    NormalPrior,
    PSI_CLAMP,
    icar_pairwise_sum,
)

_ADAPT_BATCH = 50
_PSI_REFRESH = 200


@dataclass(frozen=True)
class McmcConfig:
    """Chain protocol: burn-in doubles as the adaptation window."""

    chains: int = 2
    burn_in: int = 20000
    iters: int = 50000
    thin: int = 1
    seed: int = 0
    target_accept: float = 0.44
    bgr_threshold: float = 1.1

    def __post_init__(self):
        if self.chains < 2:
            raise ValidationError("at least 2 chains are required for the BGR diagnostic")
        if self.burn_in <= 0 or self.iters <= 0 or self.thin <= 0:
            raise ValidationError("iteration counts must be positive")
        if not (0 < self.target_accept < 1):
            raise ValidationError("target_accept must be in (0, 1)")

    def to_dict(self) -> dict:
        return {"chains": self.chains, "burn_in": self.burn_in, "iters": self.iters,
                "thin": self.thin, "seed": self.seed,
                "target_accept": self.target_accept,
                "bgr_threshold": self.bgr_threshold}


def gelman_rubin(chains) -> float:
    """Univariate potential scale reduction factor over per-chain traces.

    W is the mean within-chain variance, B/n the variance of the chain
    means; Rhat = sqrt(((n-1)/n W + B/n) / W).  Two degenerate identical
    chains return 1 by convention.
    """
    traces = [np.asarray(c, dtype=float) for c in chains]
    if len(traces) < 2:
        raise ValidationError("need at least 2 chains")
    n = len(traces[0])
    if any(len(t) != n for t in traces):
        raise ValidationError("chains have unequal lengths")
    if n < 2:
        raise ValidationError("chains must have at least 2 draws")
    within = float(np.mean([t.var(ddof=1) for t in traces]))
    b_over_n = float(np.var([t.mean() for t in traces], ddof=1))
    if within == 0.0:
        return 1.0 if b_over_n == 0.0 else float("inf")
    return float(np.sqrt(((n - 1) / n * within + b_over_n) / within))


def sigma_theta_posterior(theta, prior: GammaPrior) -> tuple:
    """Conjugate inverse-gamma posterior (shape, rate) for sigma_theta^2."""
    theta = np.asarray(theta, dtype=float)
    return prior.shape + theta.size / 2.0, prior.rate + float(theta @ theta) / 2.0


def update_sigma_theta(theta, prior: GammaPrior, rng: np.random.Generator) -> float:
    """One inverse-gamma draw of sigma_theta^2 given the current theta."""
    shape, rate = sigma_theta_posterior(theta, prior)
    return rate / float(rng.standard_gamma(shape))


def tau_c_posterior(phi, W, component_count: int, prior: GammaPrior) -> tuple:
    """Conjugate gamma posterior (shape, rate) for tau_c.

    Degrees of freedom are n - G for G connected components; the rate grows
    by half the weighted pairwise squared-difference sum.
    """
    phi = np.asarray(phi, dtype=float)
    n = phi.size
    s = icar_pairwise_sum(phi, W)
    return prior.shape + (n - component_count) / 2.0, prior.rate + s / 2.0


def update_tau_c(phi, W, component_count: int, prior: GammaPrior,
                 rng: np.random.Generator) -> float:
    """One gamma draw of tau_c given the current phi."""
    shape, rate = tau_c_posterior(phi, W, component_count, prior)
    return float(rng.standard_gamma(shape)) / rate


def irls_poisson_fit(design, y, max_iter: int = 100, tol: float = 1e-8) -> tuple:
    """Maximum-likelihood Poisson regression by iteratively reweighted least
    squares; returns (beta, covariance).

    Converges when the score norm drops below tol; raises on rank-deficient
    designs or when max_iter is exhausted.
    """
    X = design.matrix if hasattr(design, "matrix") else np.asarray(design, dtype=float)
    offset = getattr(design, "offset", None)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if len(y) != n:
        raise ValidationError("y length does not match the design")
    if np.linalg.matrix_rank(X) < p:
        raise ValidationError("design matrix is rank deficient")
    off = np.zeros(n) if offset is None else np.asarray(offset, dtype=float)
    beta = np.zeros(p)
    ybar = max(y.mean(), 1e-8)
    beta[0] = math.log(ybar) - off.mean() if np.all(X[:, 0] == 1.0) else 0.0
    for _ in range(max_iter):
        eta = np.clip(X @ beta + off, -PSI_CLAMP, PSI_CLAMP)
        mu = np.exp(eta)
        score = X.T @ (y - mu)
        if float(np.linalg.norm(score)) < tol:
            info = X.T @ (X * mu[:, None])
            return beta, np.linalg.inv(info)
        info = X.T @ (X * mu[:, None])
        beta = beta + np.linalg.solve(info, score)
    raise ConvergenceError(f"IRLS did not converge in {max_iter} iterations")


def informative_priors_from_irls(design, y, variance_scale: float = 1.0) -> dict:
    """Per-coefficient normal priors seeded from a maximum-likelihood fit,
    mirroring the practice of deriving informative priors from an initial
    frequentist estimate."""
    beta, cov = irls_poisson_fit(design, y)
    labels = design.labels if hasattr(design, "labels") else [f"b{j}" for j in range(len(beta))]
    return {label: NormalPrior(mean=float(b), variance=float(v) * variance_scale)
            for label, b, v in zip(labels, beta, np.diag(cov))}


@dataclass
class PosteriorReport:
    """Posterior summaries plus fit statistics and the run provenance."""

    parameters: dict           # label -> mean/sd/q025/q975/rhat/significant
    alpha: dict                # summary of the spatial share, or None values
    d_bar: float
    p_d: float
    dic: float
    r_squared: float
    deviance_trace: list
    acceptance: dict           # block -> mean acceptance rate
    rhat_threshold: float
    converged: bool
    clamp_events: int
    seed: int
    config: dict
    n_zones: int
    island_count: int = 0
    component_count: int = 1
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "parameters": self.parameters,
            "alpha": self.alpha,
            "d_bar": self.d_bar,
            "p_d": self.p_d,
            "dic": self.dic,
            "r_squared": self.r_squared,
            "deviance_trace": self.deviance_trace,
            "acceptance": self.acceptance,
            "rhat_threshold": self.rhat_threshold,
            "converged": self.converged,
            "clamp_events": self.clamp_events,
            "seed": self.seed,
            "config": self.config,
            "n_zones": self.n_zones,
            "island_count": self.island_count,
            "component_count": self.component_count,
            "notes": self.notes,
        }

    def to_json(self, path=None) -> str:
        text = json.dumps(self.to_dict(), indent=2)
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        return text

    @classmethod
    def from_dict(cls, d: dict) -> "PosteriorReport":
        return cls(**d)

    @classmethod
    def from_json(cls, path) -> "PosteriorReport":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        try:
            return cls.from_dict(payload)
        except TypeError as exc:
            raise ValidationError(f"{path}: bad report field ({exc})") from None

    def coefficient_labels(self) -> list:
        return [k for k in self.parameters
                if k not in ("tau_c", "sigma_theta2", "precision_theta")]

    def render_table(self) -> str:
        """Human-facing summary table: one row per parameter with mean,
        95% BCI, a significance marker when the interval excludes zero,
        and the convergence diagnostic."""
        lines = []
        lines.append(f"{'parameter':<28}{'mean':>10}  {'95% BCI':>22}   {'Rhat':>6}")
        coef = set(self.coefficient_labels())
        for label, row in self.parameters.items():
            bci = f"({row['q025']:.3f}, {row['q975']:.3f})"
            sig = " *" if (label in coef and row.get("significant")) else "  "
            rhat = f"{row['rhat']:.3f}" if row.get("rhat") is not None else "   -"
            lines.append(f"{label:<28}{row['mean']:>10.3f}  {bci:>22}{sig} {rhat:>6}")
        if self.alpha and self.alpha.get("mean") is not None:
            bci = f"({self.alpha['q025']:.3f}, {self.alpha['q975']:.3f})"
            lines.append(f"{'alpha (spatial share)':<28}{self.alpha['mean']:>10.3f}  {bci:>22}")
        lines.append("")
        lines.append(f"D_bar {self.d_bar:.2f}   p_D {self.p_d:.2f}   DIC {self.dic:.2f}"
                     f"   R2 {self.r_squared:.4f}")
        acc = "   ".join(f"{k} {v:.3f}" for k, v in self.acceptance.items())
        lines.append(f"acceptance: {acc}")
        lines.append(f"converged: {'yes' if self.converged else 'NO'}"
                     f" (Rhat threshold {self.rhat_threshold})")
        if self.clamp_events:
            lines.append(f"clamp events: {self.clamp_events}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"


def _greedy_coloring(n, ei, ej, active) -> list:
    """Partition active nodes into classes with no within-class neighbors."""
    neigh = [[] for _ in range(n)]
    for a, b in zip(ei, ej):
        neigh[a].append(b)
        neigh[b].append(a)
    color = np.full(n, -1, dtype=int)
    for u in range(n):
        if not active[u]:
            continue
        used = {color[v] for v in neigh[u] if color[v] >= 0}
        c = 0
        while c in used:
            c += 1
        color[u] = c
    classes = []
    for c in range(color.max() + 1 if color.size and color.max() >= 0 else 0):
        members = np.flatnonzero(color == c)
        if members.size:
            classes.append(members)
    return classes


def _prepare_spatial(W, n):
    """Precompute immutable spatial structure shared by all chains."""
    if W is None:
        return None
    if W.zone_count != n:
        raise ValidationError("weight matrix size does not match the dataset")
    ei, ej, ew = W.neighbor_arrays()
    wplus = W.row_sums
    active = wplus > 0
    csr = sp.csr_matrix(
        (np.concatenate([ew, ew]),
         (np.concatenate([ei, ej]), np.concatenate([ej, ei]))),
        shape=(n, n)) if len(ew) else sp.csr_matrix((n, n))
    labels = W.component_labels
    noniso = sorted({int(labels[i]) for i in range(n) if active[i]})
    comp_members = [np.flatnonzero((labels == c) & active) for c in noniso]
    return {
        "wplus": wplus,
        "ei": ei, "ej": ej, "ew": ew,
        "active": active,
        "islands": int(np.count_nonzero(~active)),
        "component_count": W.component_count,
        "comp_members": comp_members,
        "classes": [(members, *_padded_neighbors(csr, members))
                    for members in _greedy_coloring(n, ei, ej, active)],
        # Intercept absorption of the removed phi mean is an exact identity
        # only with a single non-island component and no islands.
        "exact_recenter": len(comp_members) == 1 and not np.count_nonzero(~active),
    }


def _padded_neighbors(csr, members):
    """Neighbour ids and weights of the members, one column per member,
    padded with weight 0: shapes (max degree, len(members))."""
    rows = csr[members]
    deg = np.diff(rows.indptr)
    nbr = np.zeros((max(int(deg.max()), 1), len(members)), dtype=int)
    weight = np.zeros(nbr.shape)
    owner = np.repeat(np.arange(len(members)), deg)
    slot = np.arange(rows.nnz) - rows.indptr[owner]
    nbr[slot, owner] = rows.indices
    weight[slot, owner] = rows.data
    return nbr, weight


def _center_rows(phi, members, flat):
    """Subtract from each row of phi its mean over members; return the means.
    flat holds the members' positions in phi's flattened rows."""
    vals = phi.take(members, axis=1)
    mean = np.add.reduce(vals, axis=1) / members.size
    phi.put(flat, vals - mean[:, None])
    return mean


def _clip(psi):
    """np.clip(psi, -PSI_CLAMP, PSI_CLAMP) without np.clip's per-call dispatch."""
    return np.minimum(np.maximum(psi, -PSI_CLAMP), PSI_CLAMP)


def _row_sd(v):
    """Row-wise v.std(ddof=1), bit for bit, without the method's per-call overhead."""
    n = v.shape[1]
    dev = v - (np.add.reduce(v, axis=1) / n)[:, None]
    return np.sqrt(np.add.reduce(dev * dev, axis=1) / (n - 1))


def _row_dot(a, b):
    """Per-row a[k] @ b[k], each the dot product a lone chain takes."""
    return np.array([float(u @ v) for u, v in zip(a, b)])


def _run_chains(seeds, y, Xc, offset, spatial, spec, config, beta_center, beta_se, debug):
    """Run one chain per seed, all chains advancing together sweep by sweep.

    Chain k samples data set k: counts y[k], centred design Xc[k] (n x p),
    offset[k] (or offset None), starting around beta_center[k] with spread
    beta_se[k].  State lives in (K, n) and (K, p) arrays.  Each chain draws
    from its own PCG64 stream in the order a lone chain would, and every
    quantity is computed row by row, so a chain's draws do not depend on the
    chains that run beside it.
    """
    rngs = [np.random.Generator(np.random.PCG64(s)) for s in seeds]
    K = len(rngs)
    n, p = Xc[0].shape
    XcT = np.stack([x.T for x in Xc], axis=1)  # (p, K, n): XcT[j] is column j of each design
    col_reach = np.abs(XcT).max(axis=2)
    y_x = np.stack([XcT[:, k] @ y[k] for k in range(K)], axis=1)
    lgamma_const = np.add.reduce(gammaln(y + 1.0), axis=1)

    has_theta = spec.include_theta
    has_phi = spec.include_phi and spatial is not None
    sample_sigma = has_theta and spec.fixed_sigma_theta2 is None
    sample_tau = has_phi and spec.fixed_tau_c is None

    prior_mean = np.array([spec.prior_for(lbl).mean for lbl in beta_se["labels"]])
    prior_var = np.array([spec.prior_for(lbl).variance for lbl in beta_se["labels"]])

    # Overdispersed starts around the maximum-likelihood centers.
    beta = np.empty((K, p))
    theta = np.zeros((K, n))
    phi = np.zeros((K, n))
    for k, rng in enumerate(rngs):
        beta[k] = beta_center[k] + 2.0 * beta_se["se"][k] * rng.standard_normal(p)
        if has_theta:
            theta[k] = 0.01 * rng.standard_normal(n)
        if has_phi:
            phi[k] = 0.01 * rng.standard_normal(n)
    if has_phi:
        # Gathers use take(axis=1), which keeps rows contiguous, so row sums
        # add up in the order a lone chain's sums do; scatters put values at
        # flat positions k * n + i.
        flat_at = n * np.arange(K)[:, None]
        components = [(members, (flat_at + members).ravel())
                      for members in spatial["comp_members"]]
        # Per coloring class: members, their neighbours, row sums and counts.
        phi_classes = [(members, (flat_at + members).ravel(), nbr, weight,
                        spatial["wplus"][members], y.take(members, axis=1))
                       for members, nbr, weight in spatial["classes"]]
        phi[:, ~spatial["active"]] = 0.0
        for members, flat in components:
            _center_rows(phi, members, flat)
    sigma2 = np.full(K, spec.fixed_sigma_theta2 if spec.fixed_sigma_theta2 is not None else 0.1)
    tau = np.full(K, spec.fixed_tau_c if spec.fixed_tau_c is not None else 1.0)

    beta_scale = np.maximum(2.4 * np.asarray(beta_se["se"]), 1e-3)
    theta_scale = np.full((K, n), 0.5)
    phi_scale = np.full((K, n), 0.5)

    if sample_sigma:
        sigma_shape = spec.sigma_theta_prior.shape + n / 2.0
    if sample_tau:
        tau_shape = (spec.tau_c_prior.shape
                     + (n - spatial["component_count"]) / 2.0)

    def fresh_psi():
        out = np.stack([x @ b for x, b in zip(Xc, beta)]) + theta + phi
        if offset is not None:
            out = out + offset
        return out

    psi = fresh_psi()
    psic = _clip(psi)
    lam = np.exp(psic)

    total = config.burn_in + config.iters
    kept = len(range(config.burn_in, total, config.thin))
    draws_beta = np.empty((K, kept, p))
    draws_sigma2 = np.empty((K, kept))
    draws_tau = np.empty((K, kept))
    draws_dev = np.empty((K, kept))
    draws_alpha = np.full((K, kept), np.nan)
    sum_theta = np.zeros((K, n))
    sum_phi = np.zeros((K, n))
    sum_lam = np.zeros((K, n))

    acc_beta = np.zeros((K, p))
    acc_theta = np.zeros((K, n))
    acc_phi = np.zeros((K, n))
    # Acceptance counts at the start of the current adaptation batch.
    batch_start = (acc_beta.copy(), acc_theta.copy(), acc_phi.copy())
    clamp_events = np.zeros(K, dtype=int)
    adaptation_frozen = False
    kept_idx = 0

    z_beta, u_beta = np.empty((K, p)), np.empty((K, p))
    z_theta, u_theta = np.empty((K, n)), np.empty((K, n))
    z_phi, u_phi = np.empty((K, n)), np.empty((K, n))
    g_sigma, g_tau = np.empty(K), np.empty(K)

    for t in range(total):
        in_burn = t < config.burn_in

        # Each chain's random numbers for the sweep, in a lone chain's order.
        for k, rng in enumerate(rngs):
            rng.standard_normal(out=z_beta[k])
            rng.random(out=u_beta[k])
            if has_theta:
                rng.standard_normal(out=z_theta[k])
                rng.random(out=u_theta[k])
            if has_phi:
                rng.standard_normal(out=z_phi[k])
                rng.random(out=u_phi[k])
            if sample_sigma:
                g_sigma[k] = rng.standard_gamma(sigma_shape)
            if sample_tau:
                g_tau[k] = rng.standard_gamma(tau_shape)

        # --- regression coefficients: scalar random walks ---
        # A coefficient's proposal, prior ratio and shift of psi do not depend
        # on the moves before it in the sweep, so they are formed up front.
        prop = beta + beta_scale * z_beta
        move = (prop - beta).T
        shift = XcT * move[:, :, None]
        dprior = (-((prop - prior_mean) ** 2 - (beta - prior_mean) ** 2)
                  / (2.0 * prior_var)).T
        # In a chain whose largest |psi| plus all proposed moves stays inside
        # the clamp, clipping is the identity and the likelihood gain
        # y @ (psi_new - psi) of move j is move * (y @ X_j).
        clip_free = (np.abs(psi).max(axis=1) + np.add.reduce(np.abs(move) * col_reach, axis=0)
                     < PSI_CLAMP * (1.0 - 1e-9))
        all_free = clip_free.all()
        # Move j is taken where lam_sum_new - lam_sum - gain < dprior - log u.
        slack = dprior - np.log(u_beta).T
        np.add(slack, move * y_x, out=slack, where=clip_free)
        took = []
        lam_sum = np.add.reduce(lam, axis=1)
        for j in range(p):
            psi_new = psi + shift[j]
            psic_new = psi_new if all_free else _clip(psi_new)
            lam_new_sum = np.add.reduce(np.exp(psic_new), axis=1)
            d_lam = lam_new_sum - lam_sum
            if not all_free:
                gain = np.add.reduce(y * (psic_new - _clip(psi)), axis=1)
                np.subtract(d_lam, gain, out=d_lam, where=~clip_free)
            take = d_lam < slack[j]
            took.append(take)
            np.copyto(psi, psi_new, where=take[:, None])
            np.copyto(lam_sum, lam_new_sum, where=take)
        psic = _clip(psi)
        lam = np.exp(psic)
        took = np.array(took).T
        np.copyto(beta, prop, where=took)
        acc_beta += took

        # --- heterogeneity effects: conditionally independent, one shot ---
        if has_theta:
            prop = theta + theta_scale * z_theta
            psi_new = psi + (prop - theta)
            psic_new = _clip(psi_new)
            lam_new = np.exp(psic_new)
            delta = (y * (psic_new - psic) - (lam_new - lam)
                     - (prop * prop - theta * theta) / (2.0 * sigma2)[:, None])
            take = np.log(u_theta) < delta
            np.copyto(theta, prop, where=take)
            np.copyto(psi, psi_new, where=take)
            np.copyto(psic, psic_new, where=take)
            np.copyto(lam, lam_new, where=take)
            acc_theta += take

        # --- spatial effects: vectorized over coloring classes ---
        if has_phi:
            logu = np.log(u_phi)
            phi_move = phi_scale * z_phi
            half_tau = 0.5 * tau[:, None]
            for members, flat, nbr, weight, wplus, y_m in phi_classes:
                m = np.add.reduce(phi.take(nbr, axis=1) * weight, axis=1) / wplus
                cur = phi.take(members, axis=1)
                prop = cur + phi_move.take(members, axis=1)
                psi_m, psic_m, lam_m = (v.take(members, axis=1) for v in (psi, psic, lam))
                psi_new = psi_m + (prop - cur)
                psic_new = _clip(psi_new)
                lam_new = np.exp(psic_new)
                delta = (y_m * (psic_new - psic_m)
                         - (lam_new - lam_m)
                         - half_tau * wplus * ((prop - m) ** 2 - (cur - m) ** 2))
                take = logu.take(members, axis=1) < delta
                phi.put(flat, np.where(take, prop, cur))
                psi.put(flat, np.where(take, psi_new, psi_m))
                psic.put(flat, np.where(take, psic_new, psic_m))
                lam.put(flat, np.where(take, lam_new, lam_m))
                acc_phi.put(flat, acc_phi.take(flat) + take.ravel())

        # --- conjugate hyperparameter draws ---
        if sample_sigma:
            rate = spec.sigma_theta_prior.rate + _row_dot(theta, theta) / 2.0
            sigma2 = rate / g_sigma
        if sample_tau:
            d = phi.take(spatial["ei"], axis=1) - phi.take(spatial["ej"], axis=1)
            s_quad = np.add.reduce(spatial["ew"] * d * d, axis=1)
            rate = spec.tau_c_prior.rate + s_quad / 2.0
            tau = g_tau / rate

        # --- re-center phi; the intercept absorbs the removed mean ---
        if has_phi:
            if debug and spatial["exact_recenter"]:
                ll_before = _row_dot(y, psic) - np.add.reduce(lam, axis=1)
            if spatial["exact_recenter"]:
                beta[:, 0] += _center_rows(phi, *components[0])
            else:
                for members, flat in components:
                    _center_rows(phi, members, flat)
                # Projection without compensation: with several components
                # (or islands) a single intercept cannot absorb the means.
                psi = fresh_psi()
                psic = _clip(psi)
                lam = np.exp(psic)
            if debug and spatial["exact_recenter"]:
                p2c = _clip(fresh_psi())
                ll_after = _row_dot(y, p2c) - np.add.reduce(np.exp(p2c), axis=1)
                for before, after in zip(ll_before, ll_after):
                    if abs(after - before) > 1e-6 * max(1.0, abs(before)):
                        raise AssertionError(
                            f"re-centering changed the likelihood: {before} -> {after}")

        size = np.abs(psi)
        clamp_events += np.add.reduce(size > PSI_CLAMP, axis=1)

        if not (size.max() < np.inf and np.isfinite(beta).all()
                and sigma2.min() > 0 and tau.min() > 0):
            healthy = (np.isfinite(psi).all(axis=1) & np.isfinite(beta).all(axis=1)
                       & (sigma2 > 0) & (tau > 0))
            k = int(np.argmin(healthy))
            raise McmcDivergenceError(
                f"chain {k} diverged at sweep {t}: "
                f"max|psi|={np.abs(psi[k]).max():.3g}, sigma2={sigma2[k]:.3g}, "
                f"tau={tau[k]:.3g}")

        # --- proposal adaptation, burn-in only ---
        if in_burn and (t + 1) % _ADAPT_BATCH == 0:
            batch = (t + 1) // _ADAPT_BATCH
            step = min(0.1, 1.0 / math.sqrt(batch))
            rates = [(acc - start) / _ADAPT_BATCH
                     for acc, start in zip((acc_beta, acc_theta, acc_phi), batch_start)]
            beta_scale *= np.exp(np.where(rates[0] > config.target_accept, step, -step))
            if has_theta:
                theta_scale *= np.exp(np.where(rates[1] > config.target_accept, step, -step))
            if has_phi:
                phi_scale *= np.exp(np.where(rates[2] > config.target_accept, step, -step))
            batch_start = (acc_beta.copy(), acc_theta.copy(), acc_phi.copy())
        if t == config.burn_in - 1:
            adaptation_frozen = True

        # Periodic refresh keeps incremental psi from drifting.
        if (t + 1) % _PSI_REFRESH == 0:
            psi = fresh_psi()
            psic = _clip(psi)
            lam = np.exp(psic)

        if not in_burn and (t - config.burn_in) % config.thin == 0:
            draws_beta[:, kept_idx] = beta
            draws_sigma2[:, kept_idx] = sigma2
            draws_tau[:, kept_idx] = tau
            draws_dev[:, kept_idx] = -2.0 * (_row_dot(y, psic) - np.add.reduce(lam, axis=1)
                                             - lgamma_const)
            if n > 1:
                sd_t, sd_p = _row_sd(theta), _row_sd(phi)
                spread = sd_t + sd_p
                np.divide(sd_p, spread, out=draws_alpha[:, kept_idx], where=spread > 0)
            sum_theta += theta
            sum_phi += phi
            sum_lam += lam
            kept_idx += 1

    denom = config.burn_in + config.iters
    return [{
        "beta": draws_beta[k],
        "sigma2": draws_sigma2[k],
        "tau": draws_tau[k],
        "dev": draws_dev[k],
        "alpha": draws_alpha[k],
        "sum_theta": sum_theta[k],
        "sum_phi": sum_phi[k],
        "sum_lam": sum_lam[k],
        "kept": kept,
        "acc_beta": acc_beta[k] / denom,
        "acc_theta": acc_theta[k] / denom if has_theta else None,
        "acc_phi": acc_phi[k] / denom if has_phi else None,
        "clamp_events": int(clamp_events[k]),
        "adaptation_frozen": adaptation_frozen,
    } for k in range(K)]


def _summary_row(pooled, per_chain, significant_candidate=True):
    q025, q975 = np.quantile(pooled, [0.025, 0.975])
    if q025 > q975:
        raise AssertionError("credible interval bounds out of order")
    rhat = gelman_rubin(per_chain) if per_chain is not None else None
    row = {
        "mean": float(pooled.mean()),
        "sd": float(pooled.std(ddof=1)),
        "q025": float(q025),
        "q975": float(q975),
        "rhat": None if rhat is None else float(rhat),
    }
    if significant_candidate:
        row["significant"] = bool(q025 > 0.0 or q975 < 0.0)
    return row


def fit(y, design, W, spec: ModelSpec = None, config: McmcConfig = None,
        threads: int = None, debug: bool = False) -> PosteriorReport:
    """Fit the model by MCMC and assemble the posterior report.

    Chains start from spawned sub-seeds, advance together in one batched
    sampler and are merged in chain order.  ``threads`` is accepted for
    compatibility and has no effect.  A run whose R-hat exceeds the
    threshold comes back with converged=False rather than raising.
    """
    return fit_batch([(y, design)], W, spec, [config], debug=debug)[0]


def fit_batch(datasets, W, spec: ModelSpec = None, configs=None,
              debug: bool = False) -> list:
    """Fit several (y, design) data sets on one proximity matrix, running the
    chains of all of them in one batched sampler.  configs (one per data set,
    default McmcConfig()) may differ in seed only.  Each report equals the
    one ``fit`` gives for its data set alone.
    """
    spec = spec if spec is not None else ModelSpec()
    configs = list(configs) if configs is not None else [None] * len(datasets)
    configs = [c if c is not None else McmcConfig() for c in configs]
    if not datasets or len(configs) != len(datasets):
        raise ValidationError("fit_batch needs one config per data set")
    config = configs[0]
    if any(replace(c, seed=config.seed) != config for c in configs):
        raise ValidationError("the configs of one batch may differ in seed only")
    inputs = [_fit_inputs(y, design, W, spec) for y, design in datasets]
    n = inputs[0]["n"]
    if any(inp["n"] != n or inp["labels"] != inputs[0]["labels"] for inp in inputs):
        raise ValidationError("the data sets of one batch must share zones and design columns")
    spatial = inputs[0]["spatial"]

    chains = [(seed, inp) for inp, c in zip(inputs, configs)
              for seed in np.random.SeedSequence(c.seed).spawn(c.chains)]
    offsets = [inp["offset"] for _, inp in chains]
    results = _run_chains(
        [seed for seed, _ in chains],
        np.stack([inp["y_float"] for _, inp in chains]),
        [inp["Xc"] for _, inp in chains],
        None if all(o is None for o in offsets)
        else np.stack([np.zeros(n) if o is None else o for o in offsets]),
        spatial, spec, config,
        np.stack([inp["beta_hat"] for _, inp in chains]),
        {"se": np.stack([inp["se"] for _, inp in chains]), "labels": inputs[0]["labels"]},
        debug)
    k = config.chains
    return [_assemble(results[i * k:(i + 1) * k], inp, spatial, spec, c)
            for i, (inp, c) in enumerate(zip(inputs, configs))]


def _fit_inputs(y, design, W, spec) -> dict:
    """Validated counts, centred design and maximum-likelihood start of one data set."""
    y = np.asarray(y)
    if np.any(y < 0) or np.any(y != np.floor(np.asarray(y, dtype=float))):
        raise ValidationError("y must be nonnegative integer counts")
    X = design.matrix
    labels = list(design.labels)
    n, p = X.shape
    if len(y) != n:
        raise ValidationError("y length does not match the design")
    if spec.include_phi and W is None:
        raise ValidationError("a proximity matrix is required when include_phi is set")
    spatial = _prepare_spatial(W, n) if spec.include_phi else None
    if spec.include_phi and labels[0] != "intercept":
        raise ValidationError("the CAR term requires an intercept column")

    offset = design.offset
    # Internal mean-centering of the non-intercept columns decorrelates the
    # intercept from the slopes; slopes are unchanged and the intercept is
    # mapped back after sampling.
    center = X[:, 1:].mean(axis=0) if p > 1 else np.zeros(0)
    Xc = X.copy()
    if p > 1:
        Xc[:, 1:] -= center

    try:
        beta_hat, cov = irls_poisson_fit(
            type("D", (), {"matrix": Xc, "offset": offset, "labels": labels})(), y)
        se = np.sqrt(np.maximum(np.diag(cov), 1e-12))
    except (ConvergenceError, ValidationError, np.linalg.LinAlgError):
        beta_hat = np.zeros(p)
        beta_hat[0] = math.log(max(float(np.mean(y)), 1e-8))
        se = np.full(p, 0.1)
    return {"y": y, "y_float": np.asarray(y, dtype=float), "design": design,
            "labels": labels, "n": n, "p": p, "offset": offset, "center": center,
            "Xc": Xc, "beta_hat": beta_hat, "se": se, "spatial": spatial}


def _assemble(results, inp, spatial, spec, config) -> PosteriorReport:
    """Merge one data set's chains, in chain order, into its posterior report."""
    y, design, labels = inp["y"], inp["design"], inp["labels"]
    n, p, center, Xc, offset = inp["n"], inp["p"], inp["center"], inp["Xc"], inp["offset"]

    # Map design-scale draws back to raw covariate scale per chain.
    raw_beta = []
    for res in results:
        b = res["beta"].copy()
        if p > 1:
            b[:, 0] -= b[:, 1:] @ center
        if design.standardized:
            sds = design.col_sds
            means = design.col_means
            b[:, 0] -= b[:, 1:] @ (means[1:] / sds[1:])
            b[:, 1:] /= sds[1:]
        raw_beta.append(b)

    pooled_beta = np.vstack(raw_beta)
    parameters = {}
    for j, label in enumerate(labels):
        parameters[label] = _summary_row(pooled_beta[:, j],
                                         [b[:, j] for b in raw_beta])

    rhat_values = [parameters[label]["rhat"] for label in labels]
    if spec.include_phi and spec.fixed_tau_c is None:
        pooled_tau = np.concatenate([r["tau"] for r in results])
        parameters["tau_c"] = _summary_row(pooled_tau, [r["tau"] for r in results],
                                           significant_candidate=False)
        rhat_values.append(parameters["tau_c"]["rhat"])
    if spec.include_theta and spec.fixed_sigma_theta2 is None:
        pooled_s2 = np.concatenate([r["sigma2"] for r in results])
        parameters["sigma_theta2"] = _summary_row(pooled_s2, [r["sigma2"] for r in results],
                                                  significant_candidate=False)
        # The precision 1/sigma^2 is reported alongside the variance.
        parameters["precision_theta"] = _summary_row(
            1.0 / pooled_s2, [1.0 / r["sigma2"] for r in results],
            significant_candidate=False)
        rhat_values.append(parameters["sigma_theta2"]["rhat"])

    pooled_alpha = np.concatenate([r["alpha"] for r in results])
    valid_alpha = pooled_alpha[np.isfinite(pooled_alpha)]
    if valid_alpha.size:
        q025, q975 = np.quantile(valid_alpha, [0.025, 0.975])
        alpha_summary = {"mean": float(valid_alpha.mean()),
                         "sd": float(valid_alpha.std(ddof=1)) if valid_alpha.size > 1 else 0.0,
                         "q025": float(q025), "q975": float(q975)}
    else:
        alpha_summary = {"mean": None, "sd": None, "q025": None, "q975": None}

    kept_total = sum(r["kept"] for r in results)
    mean_theta = sum(r["sum_theta"] for r in results) / kept_total
    mean_phi = sum(r["sum_phi"] for r in results) / kept_total
    mean_lam = sum(r["sum_lam"] for r in results) / kept_total

    # Deviance at the posterior means of all latent quantities.
    mean_beta_design = np.vstack([r["beta"] for r in results]).mean(axis=0)
    psi_at_mean = Xc @ mean_beta_design + mean_theta + mean_phi
    if offset is not None:
        psi_at_mean = psi_at_mean + offset
    lam_at_mean = np.exp(np.clip(psi_at_mean, -PSI_CLAMP, PSI_CLAMP))
    pooled_dev = np.concatenate([r["dev"] for r in results])
    dic_res = evaluate.dic(pooled_dev, y, lam_at_mean)

    try:
        r2 = evaluate.r_squared(y, mean_lam)
    except DomainError:
        r2 = float("nan")

    acceptance = {"beta": float(np.mean([r["acc_beta"].mean() for r in results]))}
    if results[0]["acc_theta"] is not None:
        acceptance["theta"] = float(np.mean([r["acc_theta"].mean() for r in results]))
    if results[0]["acc_phi"] is not None:
        active = spatial["active"]
        acceptance["phi"] = float(np.mean([r["acc_phi"][active].mean() for r in results]))

    finite_rhats = [v for v in rhat_values if v is not None]
    converged = all(v <= config.bgr_threshold for v in finite_rhats)

    notes = []
    if dic_res.suspicious:
        notes.append("negative effective parameter count p_D; check the fit")
    if spatial is not None and spatial["islands"]:
        notes.append(f"{spatial['islands']} island zone(s): phi pinned at 0, "
                     "excluded from the sum-to-zero constraint")
    if not all(r["adaptation_frozen"] for r in results):
        raise AssertionError("proposal adaptation was not frozen after burn-in")

    return PosteriorReport(
        parameters=parameters,
        alpha=alpha_summary,
        d_bar=float(dic_res.d_bar),
        p_d=float(dic_res.p_d),
        dic=float(dic_res.dic),
        r_squared=float(r2),
        deviance_trace=[float(v) for v in pooled_dev],
        acceptance=acceptance,
        rhat_threshold=config.bgr_threshold,
        converged=bool(converged),
        clamp_events=int(sum(r["clamp_events"] for r in results)),
        seed=config.seed,
        config=config.to_dict(),
        n_zones=int(n),
        island_count=int(spatial["islands"]) if spatial else 0,
        component_count=int(spatial["component_count"]) if spatial else 1,
        notes=notes,
    )

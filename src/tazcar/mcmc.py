"""Metropolis-within-Gibbs sampler for the Poisson-lognormal CAR model.

One sweep updates, in order: all regression coefficients in one
Metropolis-Hastings step whose Gaussian proposal is an IWLS (Newton) step
from the current beta (Gamerman 1997), every heterogeneity effect theta_i
(jointly vectorized: they are conditionally independent), every spatial
effect phi_i (vectorized over graph-coloring classes so simultaneous sites
are never neighbors), then conjugate draws for sigma_theta^2
(inverse-gamma) and tau_c (gamma), then a re-centering of phi with the
intercept absorbing the removed mean, and finally joint scaling moves of
(theta, sigma_theta^2) and (phi, tau_c) (Liu & Sabatti 2000), which keep phi
centred.  Where phi spans every zone on one connected component, theta's
scaling move is an exchange at fixed psi: phi and the intercept take what
theta gives up, which moves along the direction in which theta and phi are
weakly identified (Riebler et al. 2016) and needs no likelihood.  The
random-walk and scaling-move step sizes adapt toward 0.44 acceptance during
burn-in only.

Chains run together in one batched sampler: their states are the rows of
(chains x zones) arrays, so one numpy call serves every chain.  Each block
is an updater over the shared state (_State: parameters, psi, clamped psi,
lambda); the log-density math they use is the row-wise kernels of model.py.

Determinism: every chain owns a PCG64 generator spawned from the config
seed and draws its sweep's random numbers in a fixed number of calls of
fixed size, and each chain's arithmetic reads only its own rows, so results
are bit-identical across runs and whatever chains share the batch.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np
from scipy.linalg import lapack
from scipy.special import gammaln

from . import evaluate
from .errors import (
    ConvergenceError,
    DomainError,
    McmcDivergenceError,
    ValidationError,
    dump_json,
    load_json,
)
from .model import (
    GammaPrior,
    ModelSpec,
    NormalPrior,
    PSI_CLAMP,
    _alpha_share,
    _car_log_ratio,
    _car_mean,
    _clamp,
    _gauss_log_ratio,
    _icar_pairwise,
    _loglik_terms,
    _row_loglik,
    _sigma_theta_posterior,
    _tau_c_posterior,
)

_ADAPT_BATCH = 50
_PSI_REFRESH = 200
# IRLS stops when the score norm is below _IRLS_TOL or fails after _IRLS_MAX_ITER steps.
_IRLS_TOL = 1e-8
_IRLS_MAX_ITER = 100


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
        return {f.name: getattr(self, f.name) for f in fields(self)}


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
    shape, rate = _sigma_theta_posterior(np.asarray(theta, dtype=float).reshape(1, -1), prior)
    return shape, float(rate[0])


def update_sigma_theta(theta, prior: GammaPrior, rng: np.random.Generator) -> float:
    """One inverse-gamma draw of sigma_theta^2 given the current theta."""
    shape, rate = sigma_theta_posterior(theta, prior)
    return rate / float(rng.standard_gamma(shape))


def tau_c_posterior(phi, W, component_count: int, prior: GammaPrior) -> tuple:
    """Conjugate gamma posterior (shape, rate) for tau_c.

    Degrees of freedom are n - G for G connected components; the rate grows
    by half the weighted pairwise squared-difference sum.
    """
    phi = np.asarray(phi, dtype=float).reshape(1, -1)
    shape, rate = _tau_c_posterior(_icar_pairwise(phi, *W.edges), phi.shape[1],
                                   component_count, prior)
    return shape, float(rate[0])


def update_tau_c(phi, W, component_count: int, prior: GammaPrior,
                 rng: np.random.Generator) -> float:
    """One gamma draw of tau_c given the current phi."""
    shape, rate = tau_c_posterior(phi, W, component_count, prior)
    return float(rng.standard_gamma(shape)) / rate


def irls_poisson_fit(design, y) -> tuple:
    """Maximum-likelihood Poisson regression by iteratively reweighted least
    squares; returns (beta, covariance).

    Converges when the score norm drops below _IRLS_TOL; raises on
    rank-deficient designs or after _IRLS_MAX_ITER steps.
    """
    X = design.matrix
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if len(y) != n:
        raise ValidationError("y length does not match the design")
    if np.linalg.matrix_rank(X) < p:
        raise ValidationError("design matrix is rank deficient")
    off = np.zeros(n) if design.offset is None else np.asarray(design.offset, dtype=float)
    beta = np.zeros(p)
    beta[0] = math.log(max(y.mean(), 1e-8)) - off.mean()
    for _ in range(_IRLS_MAX_ITER):
        eta = _clamp(X @ beta + off)
        mu = np.exp(eta)
        score = X.T @ (y - mu)
        info = X.T @ (X * mu[:, None])
        if float(np.linalg.norm(score)) < _IRLS_TOL:
            return beta, np.linalg.inv(info)
        beta = beta + np.linalg.solve(info, score)
    raise ConvergenceError(f"IRLS did not converge in {_IRLS_MAX_ITER} iterations")


def informative_priors_from_irls(design, y) -> dict:
    """Per-coefficient normal priors seeded from a maximum-likelihood fit,
    mirroring the practice of deriving informative priors from an initial
    frequentist estimate."""
    beta, cov = irls_poisson_fit(design, y)
    return {label: NormalPrior(mean=float(b), variance=float(v))
            for label, b, v in zip(design.labels, beta, np.diag(cov))}


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

    def __post_init__(self):
        # The fields a comparison of stored reports reads.
        for name in ("d_bar", "p_d", "dic", "r_squared"):
            if not isinstance(getattr(self, name), numbers.Real):
                raise ValidationError(f"{name} must be a number, got {getattr(self, name)!r}")
        if not (isinstance(self.alpha, dict)
                and isinstance(self.alpha.get("mean"), (numbers.Real, type(None)))):
            raise ValidationError(f"alpha must be an object with a numeric or null mean, "
                                  f"got {self.alpha!r}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self, path=None) -> str:
        return dump_json(self.to_dict(), path)

    @classmethod
    def from_dict(cls, d: dict) -> "PosteriorReport":
        return cls(**d)

    @classmethod
    def from_json(cls, path) -> "PosteriorReport":
        return load_json(path, cls.from_dict)

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


def _center_rows(phi, members, flat):
    """Subtract from each row of phi its mean over members; return the means.
    flat holds the members' positions in phi's flattened rows."""
    vals = phi.take(members, axis=1)
    mean = np.add.reduce(vals, axis=1) / members.size
    phi.put(flat, vals - mean[:, None])
    return mean


# Bordering a precision matrix P with a vector g as [[P, g], [g', _BORDER]]
# puts L^-1 g in the last row of its Cholesky factor, where P = L L'.
# _BORDER only has to exceed g' P^-1 g to keep the bordered matrix positive
# definite, and its own square root does not enter the results.
_BORDER = 1e300


class _Target:
    """What the chains sample, fixed for a run: per-chain data rows, centred
    designs, priors, the spatial tables read from W (None without phi) and
    the layout of a sweep's random numbers."""

    def __init__(self, y, Xc, offset, W, spec, labels):
        K, n = y.shape
        p = len(labels)
        self.y, self.offset, self.spec = y, offset, spec
        # The chains of one data set share its design and form a group.  Per
        # group: its rows, X' (p x n) and, per zone, the lower triangle of
        # x_i x_i' followed by x_i, so that lam @ table is X' diag(lam) X
        # packed, then X' lam.
        tri = np.tril_indices(p)
        self.designs = []
        start = 0
        for k in range(1, K + 1):
            if k == K or Xc[k] is not Xc[start]:
                x = Xc[start]
                self.designs.append((slice(start, k), np.ascontiguousarray(x.T),
                                     np.concatenate([x[:, tri[0]] * x[:, tri[1]], x], axis=1)))
                start = k
        packed = np.zeros((p, p), dtype=int)
        packed[tri] = np.arange(len(tri[0]))
        self.n_tri = len(tri[0])
        self.unpack = np.where(np.tri(p, dtype=bool), packed, packed.T).ravel()
        self.y_x = self.weighted_gram(y)[:, self.n_tri:]
        self.lgamma_y = np.add.reduce(gammaln(y + 1.0), axis=1)
        self.prior_mean = np.array([spec.prior_for(lbl).mean for lbl in labels])
        self.prior_var = np.array([spec.prior_for(lbl).variance for lbl in labels])
        self.prior_prec = np.zeros(self.n_tri)
        self.prior_prec[np.diag(packed)] = 1.0 / self.prior_var
        self.has_theta = spec.include_theta
        self.has_phi = spec.include_phi and W is not None
        self.sample_sigma = self.has_theta and spec.fixed_sigma_theta2 is None
        self.sample_tau = self.has_phi and spec.fixed_tau_c is None
        if self.has_phi:
            # Gathers use take(axis=1), which keeps rows contiguous, so row sums
            # add up in the order a lone chain's sums do; scatters put values at
            # flat positions k * n + i.
            flat_at = n * np.arange(K)[:, None]
            self.components = [(members, (flat_at + members).ravel())
                               for members in W.components]
            # Per coloring class: members, their neighbours, row sums and counts.
            self.phi_classes = [(members, (flat_at + members).ravel(), nbr, weight,
                                 W.row_sums[members], y.take(members, axis=1))
                                for members, nbr, weight in W.coloring]
            self.edges = W.edges
            self.component_count = W.component_count
            self.inactive = W.row_sums == 0
            # Intercept absorption of the removed phi mean is an exact identity
            # only with a single non-island component and no islands.
            self.exact_recenter = len(W.components) == 1 and not W.has_islands
        # Theta's scaling move hands what theta gives up to phi and the
        # intercept where phi spans every zone on one component.
        self.exchange = self.sample_sigma and self.has_phi and self.exact_recenter
        # Shapes of the conjugate draws, sigma2's before tau's.
        shapes = []
        if self.sample_sigma:
            shapes.append(_sigma_theta_posterior(np.zeros((1, n)), spec.sigma_theta_prior)[0])
        if self.sample_tau:
            shapes.append(_tau_c_posterior(0.0, n, self.component_count, spec.tau_c_prior)[0])
        self.gamma_shapes = shapes
        self.twice_scale_shapes = 2.0 * np.array([spec.sigma_theta_prior.shape,
                                                  spec.tau_c_prior.shape])
        # A chain's normals and uniforms for one sweep, block by block; the
        # scaling moves take two of each, whichever of them run.
        theta, phi = (n if self.has_theta else 0), (n if self.has_phi else 0)
        self.normals = _layout(beta=p, theta=theta, phi=phi, scale=2)
        self.uniforms = _layout(beta=1, theta=theta, phi=phi, scale=2)

    def times_design(self, a):
        """Per chain, X a[k]: one matrix-vector product per row, which a
        product spanning the rows would not give bit for bit."""
        parts = [np.matmul(a[rows, None, :], xt)[:, 0] for rows, xt, _ in self.designs]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def weighted_gram(self, lam):
        """Per chain, X' diag(lam[k]) X packed, then X' lam[k], from one
        matrix product per pair of a group's rows (an odd group's last pair
        overlaps the one before).  A product over more rows starts BLAS
        worker threads and blocked kernels whose buffers slow the
        elementwise work that follows: 4-7% of a sweep at 16 chains.  A row
        comes out the same in any pair (checked by
        test_chains_do_not_depend_on_batch_width)."""
        parts = []
        for rows, _, table in self.designs:
            for k in range(rows.start, rows.stop, 2):
                first = min(k, rows.stop - 2)
                parts.append((lam[first:first + 2] @ table)[k - first:])
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _layout(**sizes):
    """Consecutive slices of the given sizes, by name, and their total."""
    slices, at = {}, 0
    for name, size in sizes.items():
        slices[name] = slice(at, at + size)
        at += size
    return slices, at


class _State:
    """The chains' current values, one row per chain: parameters, the linear
    predictor psi, its clamped copy psic, lam = exp(psic), phi's pairwise sum
    icar_q = Q(phi) where theta's scaling move reads it (t.exchange), and
    acceptance counts (the scaling moves' in two columns, theta's move then
    phi's)."""

    def __init__(self, beta, theta, phi, sigma2, tau):
        self.beta, self.theta, self.phi = beta, theta, phi
        self.sigma2, self.tau = sigma2, tau
        self.icar_q = None
        self.acc_beta = np.zeros(len(beta))
        self.acc_theta = np.zeros(theta.shape)
        self.acc_phi = np.zeros(phi.shape)
        self.acc_scale = np.zeros((len(beta), 2))

    def set_psi(self, psi):
        """Take psi and derive its clamped copy and lambda from it."""
        self.psi = psi
        self.psic = _clamp(psi)
        self.lam = np.exp(self.psic)


def _refresh(s, t):
    """Recompute psi, and Q(phi) where it is kept, from the parameters,
    dropping incremental drift."""
    psi = t.times_design(s.beta) + s.theta + s.phi
    if t.offset is not None:
        psi = psi + t.offset
    s.set_psi(psi)
    if t.exchange:
        s.icar_q = _icar_pairwise(s.phi, *t.edges)


def _psi_move(s, t, psi_new):
    """Clamped psi and lambda at psi_new, and each row's log-likelihood change
    from the current psi."""
    psic_new = _clamp(psi_new)
    lam_new = np.exp(psic_new)
    change = np.add.reduce(_loglik_terms(t.y, psic_new - s.psic, lam_new - s.lam), axis=1)
    return psic_new, lam_new, change


def _take_psi(s, take, psi_new, psic_new, lam_new):
    """Move psi, psic and lam to their new values in the rows where take is
    set; the new arrays must be fresh, as they may become the state's."""
    if take.all():
        s.psi, s.psic, s.lam = psi_new, psic_new, lam_new
    elif take.any():
        rows = take[:, None]
        np.copyto(s.psi, psi_new, where=rows)
        np.copyto(s.psic, psic_new, where=rows)
        np.copyto(s.lam, lam_new, where=rows)


def _iwls(t, lam, beta):
    """Per chain, the precision P = X' diag(lam) X + diag(1 / v0) and the
    gradient g = X'(y - lam) - (beta - mu0) / v0 of the coefficients' log
    conditional at beta: P^-1 g is the Newton (IWLS) step."""
    K, p = beta.shape
    table = t.weighted_gram(lam)
    P = (table[:, :t.n_tri] + t.prior_prec).take(t.unpack, axis=1).reshape(K, p, p)
    return P, t.y_x - table[:, t.n_tri:] - (beta - t.prior_mean) / t.prior_var


def _cholesky(A):
    """Lower Cholesky factor of each matrix of a stack, one LAPACK call per
    matrix, so that a chain's factor does not depend on the chains beside it
    (at two chains this is also cheaper than numpy's batched call).  A matrix
    that is not numerically positive definite (a chain driven into the psi
    clamp makes its precision ill-conditioned) gets a factor of NaNs, which
    makes its chain's proposal and acceptance ratio NaN: the chain keeps its
    beta."""
    L = np.empty(A.shape)
    for k, a in enumerate(A):
        factor, info = lapack.dpotrf(a, lower=1, clean=1)
        L[k] = factor if info == 0 else np.nan
    return L


def _update_beta(s, t, z, u):
    """One Metropolis-Hastings step of all coefficients (Gamerman 1997): the
    proposal is N(beta + P^-1 g, P^-1) with P and g from _iwls at the current
    beta, and the reverse density takes them at the proposal."""
    K, p = s.beta.shape
    P, g = _iwls(t, s.lam, s.beta)
    L = _cholesky(P)
    # P^-1 (g + L z) has mean P^-1 g and covariance P^-1.
    rhs = g + (L @ z[:, :, None])[:, :, 0]
    step = np.array([lapack.dpotrs(factor, b, lower=1)[0] for factor, b in zip(L, rhs)])
    prop = s.beta + step
    psi_new = s.psi + t.times_design(step)
    psic_new, lam_new, dlik = _psi_move(s, t, psi_new)
    P_new, g_new = _iwls(t, lam_new, prop)
    # The reverse step's quadratic form is r' P'^-1 r with r = P' step + g'.
    # Factoring P' bordered by r, [[P', r], [r', _BORDER]], gives L' and
    # w = L'^-1 r in one call, so the form is w' w.
    bordered = np.empty((K, p + 1, p + 1))
    bordered[:, :p, :p] = P_new
    bordered[:, p, :p] = bordered[:, :p, p] = (P_new @ step[:, :, None])[:, :, 0] + g_new
    bordered[:, p, p] = _BORDER
    L_new = _cholesky(bordered)
    w = L_new[:, p, :p]
    # Per coefficient: the log ratio of the factors' diagonals (the half
    # log-determinants of q(beta | prop) over q(prop | beta)), half the forward
    # quadratic form z' z less the reverse one w' w, and the prior ratio
    # ((beta - mu0)^2 - (prop - mu0)^2) / 2 v0 = -step (beta + prop - 2 mu0) / 2 v0.
    log_r = np.log(np.diagonal(L_new, axis1=1, axis2=2)[:, :p] / np.diagonal(L, axis1=1, axis2=2))
    log_r += 0.5 * (z * z - w * w - step * (s.beta + prop - 2.0 * t.prior_mean) / t.prior_var)
    take = np.log(u[:, 0]) < dlik + np.add.reduce(log_r, axis=1)
    if take.any():
        np.copyto(s.beta, prop, where=take[:, None])
        _take_psi(s, take, psi_new, psic_new, lam_new)
        s.acc_beta += take


def _shift_effect(s, effect, acc, cur, prop, log_prior_ratio, y, logu, cols=None):
    """Metropolis step moving effect from cur to prop elementwise, with psi,
    psic and lam moving alongside.  cols is None for every zone, else the
    (members, flat positions) of a subset; cur, prop, y and logu hold those
    columns only."""
    if cols is None:
        psi, psic, lam = s.psi, s.psic, s.lam
    else:
        members, flat = cols
        psi, psic, lam = (s.psi.take(members, axis=1), s.psic.take(members, axis=1),
                          s.lam.take(members, axis=1))
    psi_new = psi + (prop - cur)
    psic_new = _clamp(psi_new)
    lam_new = np.exp(psic_new)
    delta = _loglik_terms(y, psic_new - psic, lam_new - lam) + log_prior_ratio
    take = logu < delta
    moves = ((effect, cur, prop), (s.psi, psi, psi_new), (s.psic, psic, psic_new),
             (s.lam, lam, lam_new))
    # Whole arrays take the moves in place; a subset is scattered back.
    if cols is None:
        for dst, _, new in moves:
            np.copyto(dst, new, where=take)
        acc += take
    else:
        for dst, old, new in moves:
            dst.put(flat, np.where(take, new, old))
        acc.put(flat, acc.take(flat) + take.ravel())


def _update_theta(s, t, z, u, scale):
    """The heterogeneity effects are conditionally independent: one joint step."""
    prop = s.theta + scale * z
    _shift_effect(s, s.theta, s.acc_theta, s.theta, prop,
                  _gauss_log_ratio(prop, s.theta, s.sigma2[:, None]), t.y, np.log(u))


def _update_phi(s, t, z, u, scale):
    """One joint step per coloring class: no two members are neighbours."""
    logu = np.log(u)
    move = scale * z
    half_tau = 0.5 * s.tau[:, None]
    for members, flat, nbr, weight, wplus, y_m in t.phi_classes:
        mean = _car_mean(s.phi, nbr, weight, wplus)
        cur = s.phi.take(members, axis=1)
        prop = cur + move.take(members, axis=1)
        _shift_effect(s, s.phi, s.acc_phi, cur, prop,
                      _car_log_ratio(prop, cur, mean, half_tau, wplus), y_m,
                      logu.take(members, axis=1), (members, flat))


def _update_hyper(s, t, g):
    """Conjugate draws from standard gamma variates g of the posterior shapes
    (t.gamma_shapes: sigma2's column, then tau's).  Q(phi), which tau's rate
    takes, is kept for theta's scaling move: the blocks after this one keep
    it current."""
    if t.sample_sigma:
        s.sigma2 = _sigma_theta_posterior(s.theta, t.spec.sigma_theta_prior)[1] / g[:, 0]
    if t.sample_tau or t.exchange:
        s.icar_q = _icar_pairwise(s.phi, *t.edges)
    if t.sample_tau:
        s.tau = g[:, -1] / _tau_c_posterior(s.icar_q, s.phi.shape[1], t.component_count,
                                            t.spec.tau_c_prior)[1]


def _rescale(s, t, effect, c, bar):
    """Metropolis step multiplying each row of effect by its c, with psi, psic
    and lam moving alongside, taken where the log-likelihood gain exceeds bar.
    Returns the rows where it was taken."""
    psi_new = s.psi + (c - 1.0)[:, None] * effect
    psic_new, lam_new, dlik = _psi_move(s, t, psi_new)
    take = dlik > bar
    if take.any():
        effect *= np.where(take, c, 1.0)[:, None]
        _take_psi(s, take, psi_new, psic_new, lam_new)
    return take


def _exchange(s, t, c, bar):
    """Metropolis step trading theta for phi at fixed psi: theta -> c theta,
    phi -> phi + (1 - c)(theta - mean(theta)) and beta0 -> beta0 +
    (1 - c) mean(theta), taken where the change of phi's and the intercept's
    log prior densities exceeds bar.  phi stays centred and psi, psic and lam
    stay as they are, so no likelihood is evaluated.  Returns the rows where
    it was taken."""
    give = 1.0 - c
    mean = np.add.reduce(s.theta, axis=1) / s.theta.shape[1]
    phi_new = s.phi + give[:, None] * (s.theta - mean[:, None])
    beta0, beta0_new = s.beta[:, 0], s.beta[:, 0] + give * mean
    q_new = _icar_pairwise(phi_new, *t.edges)
    mu0 = t.prior_mean[0]
    gain = (_gauss_log_ratio(beta0_new - mu0, beta0 - mu0, t.prior_var[0])
            - 0.5 * s.tau * (q_new - s.icar_q))
    take = gain > bar
    if take.any():
        s.theta *= np.where(take, c, 1.0)[:, None]
        np.copyto(s.phi, phi_new, where=take[:, None])
        s.beta[:, 0] = np.where(take, beta0_new, beta0)
        s.icar_q = np.where(take, q_new, s.icar_q)
    return take


def _update_scale(s, t, z, u, step):
    """Joint scaling moves (Liu & Sabatti 2000), each where its hyperparameter
    is sampled: with c = exp(eps) and eps = step z, column 0 for theta's move
    and 1 for phi's, (theta, sigma2) -> (c theta, c^2 sigma2) and
    (phi, tau) -> (c phi, tau / c^2).  Both scale an effect by c and its
    precision h (1 / sigma2, tau) by 1 / c^2.  The effect's prior density and
    the Jacobian cancel up to c^-2a for a gamma prior of shape a and rate b on
    h, so log r = dlik - 2 a eps - b (h' - h).  phi scales on its
    (n - G)-dimensional sum-to-zero subspace: component sums and islands stay
    at zero.

    Where phi spans every zone on one component (t.exchange), theta's move
    keeps psi: phi and the intercept take what theta gives up (_exchange),
    so dlik is replaced by the change of their log priors,
    -(tau / 2)(Q(phi') - Q(phi)) - ((beta0' - mu0)^2 - (beta0 - mu0)^2) / 2 v0.
    The map is linear with Jacobian c^(n + 2), which cancels as before."""
    eps = step * z
    c = np.exp(eps)
    bar = np.log(u) + t.twice_scale_shapes * eps
    if t.sample_sigma:
        new = c[:, 0] * c[:, 0] * s.sigma2
        bar_sigma = bar[:, 0] + t.spec.sigma_theta_prior.rate * (1.0 / new - 1.0 / s.sigma2)
        if t.exchange:
            take = _exchange(s, t, c[:, 0], bar_sigma)
        else:
            take = _rescale(s, t, s.theta, c[:, 0], bar_sigma)
        s.sigma2 = np.where(take, new, s.sigma2)
        s.acc_scale[:, 0] += take
    if t.sample_tau:
        new = s.tau / (c[:, 1] * c[:, 1])
        take = _rescale(s, t, s.phi, c[:, 1], bar[:, 1] + t.spec.tau_c_prior.rate * (new - s.tau))
        s.tau = np.where(take, new, s.tau)
        s.acc_scale[:, 1] += take
        if t.exchange:
            s.icar_q = np.where(take, c[:, 1] * c[:, 1] * s.icar_q, s.icar_q)


def _recenter(s, t):
    """Center phi on each component; the intercept absorbs the removed mean."""
    if t.exact_recenter:
        s.beta[:, 0] += _center_rows(s.phi, *t.components[0])
    else:
        for members, flat in t.components:
            _center_rows(s.phi, members, flat)
        # Projection without compensation: with several components
        # (or islands) a single intercept cannot absorb the means.
        _refresh(s, t)


def _sweep(s, t, z, u, g, steps):
    """One sweep of every block from the sweep's normals z, uniforms u and
    standard gammas g (one row per chain, laid out as t.normals, t.uniforms
    and t.gamma_shapes say) and the adapted step sizes."""
    zs, us = t.normals[0], t.uniforms[0]
    _update_beta(s, t, z[:, zs["beta"]], u[:, us["beta"]])
    # The effects' blocks take contiguous copies: strided views of the rows
    # slow their elementwise work.
    if t.has_theta:
        _update_theta(s, t, np.ascontiguousarray(z[:, zs["theta"]]),
                      np.ascontiguousarray(u[:, us["theta"]]), steps["theta"])
    if t.has_phi:
        _update_phi(s, t, np.ascontiguousarray(z[:, zs["phi"]]),
                    np.ascontiguousarray(u[:, us["phi"]]), steps["phi"])
    _update_hyper(s, t, g)
    if t.has_phi:
        _recenter(s, t)
    _update_scale(s, t, z[:, zs["scale"]], u[:, us["scale"]], steps["scale"])


def _run_chains(seeds, y, Xc, offset, W, spec, config, beta_center, beta_se, labels):
    """Run one chain per seed, all chains advancing together sweep by sweep.

    Chain k samples data set k: counts y[k], centred design Xc[k] (n x p),
    offset[k] (or offset None), starting around beta_center[k] with spread
    beta_se[k]; W is the proximity matrix, or None without phi.  State lives
    in (K, n) and (K, p) arrays.  Each chain draws from its own PCG64 stream
    in the order a lone chain would, and every quantity is computed row by
    row, so a chain's draws do not depend on the chains that run beside it.
    """
    rngs = [np.random.Generator(np.random.PCG64(s)) for s in seeds]
    K = len(rngs)
    n, p = Xc[0].shape
    t = _Target(y, Xc, offset, W, spec, labels)

    # Overdispersed starts around the maximum-likelihood centers.
    beta = np.empty((K, p))
    theta = np.zeros((K, n))
    phi = np.zeros((K, n))
    for k, rng in enumerate(rngs):
        beta[k] = beta_center[k] + 2.0 * beta_se[k] * rng.standard_normal(p)
        if t.has_theta:
            theta[k] = 0.01 * rng.standard_normal(n)
        if t.has_phi:
            phi[k] = 0.01 * rng.standard_normal(n)
    if t.has_phi:
        phi[:, t.inactive] = 0.0
        for members, flat in t.components:
            _center_rows(phi, members, flat)
    s = _State(beta, theta, phi,
               np.full(K, spec.fixed_sigma_theta2 if spec.fixed_sigma_theta2 is not None else 0.1),
               np.full(K, spec.fixed_tau_c if spec.fixed_tau_c is not None else 1.0))
    _refresh(s, t)

    # Step sizes of the adapted blocks and the acceptance counts they adapt to.
    steps = {"theta": np.full((K, n), 0.5), "phi": np.full((K, n), 0.5),
             "scale": np.full((K, 2), 0.2)}
    counts = {name: acc for name, acc, used in (("theta", s.acc_theta, t.has_theta),
                                                ("phi", s.acc_phi, t.has_phi),
                                                ("scale", s.acc_scale, True)) if used}
    batch_start = {name: acc.copy() for name, acc in counts.items()}

    total = config.burn_in + config.iters
    kept = len(range(config.burn_in, total, config.thin))
    draws_beta = np.empty((K, kept, p))
    draws_sigma2 = np.empty((K, kept))
    draws_tau = np.empty((K, kept))
    draws_dev = np.empty((K, kept))
    draws_alpha = np.empty((K, kept))
    sum_theta = np.zeros((K, n))
    sum_phi = np.zeros((K, n))
    sum_lam = np.zeros((K, n))

    clamp_events = np.zeros(K, dtype=int)
    adaptation_frozen = False
    kept_idx = 0

    z, u = np.empty((K, t.normals[1])), np.empty((K, t.uniforms[1]))
    g = np.empty((K, len(t.gamma_shapes)))

    for sweep in range(total):
        in_burn = sweep < config.burn_in

        # Each chain's random numbers for the sweep, in a lone chain's order.
        for k, rng in enumerate(rngs):
            rng.standard_normal(out=z[k])
            rng.random(out=u[k])
            for j, shape in enumerate(t.gamma_shapes):
                g[k, j] = rng.standard_gamma(shape)
        _sweep(s, t, z, u, g, steps)

        size = np.abs(s.psi)
        peak = size.max()
        if peak > PSI_CLAMP:
            clamp_events += np.add.reduce(size > PSI_CLAMP, axis=1)
        if not (peak < np.inf and np.isfinite(s.beta).all()
                and s.sigma2.min() > 0 and s.tau.min() > 0):
            healthy = (np.isfinite(s.psi).all(axis=1) & np.isfinite(s.beta).all(axis=1)
                       & (s.sigma2 > 0) & (s.tau > 0))
            k = int(np.argmin(healthy))
            raise McmcDivergenceError(
                f"chain {k} diverged at sweep {sweep}: "
                f"max|psi|={np.abs(s.psi[k]).max():.3g}, sigma2={s.sigma2[k]:.3g}, "
                f"tau={s.tau[k]:.3g}")

        # --- step-size adaptation, burn-in only ---
        if in_burn and (sweep + 1) % _ADAPT_BATCH == 0:
            batch = (sweep + 1) // _ADAPT_BATCH
            step = min(0.1, 1.0 / math.sqrt(batch))
            for name, acc in counts.items():
                rate = (acc - batch_start[name]) / _ADAPT_BATCH
                steps[name] *= np.exp(np.where(rate > config.target_accept, step, -step))
                batch_start[name] = acc.copy()
        if sweep == config.burn_in - 1:
            adaptation_frozen = True

        # Periodic refresh keeps incremental psi from drifting.
        if (sweep + 1) % _PSI_REFRESH == 0:
            _refresh(s, t)

        if not in_burn and (sweep - config.burn_in) % config.thin == 0:
            draws_beta[:, kept_idx] = s.beta
            draws_sigma2[:, kept_idx] = s.sigma2
            draws_tau[:, kept_idx] = s.tau
            draws_dev[:, kept_idx] = -2.0 * _row_loglik(t.y, s.psic, s.lam, t.lgamma_y)
            draws_alpha[:, kept_idx] = _alpha_share(s.theta, s.phi)
            sum_theta += s.theta
            sum_phi += s.phi
            sum_lam += s.lam
            kept_idx += 1

    if not adaptation_frozen:
        raise AssertionError("proposal adaptation was not frozen after burn-in")
    # One row per chain in each array.
    return {"beta": draws_beta, "sigma2": draws_sigma2, "tau": draws_tau, "dev": draws_dev,
            "alpha": draws_alpha, "sum_theta": sum_theta, "sum_phi": sum_phi,
            "sum_lam": sum_lam, "acc_beta": s.acc_beta / total,
            "acc_theta": s.acc_theta / total, "acc_phi": s.acc_phi / total,
            "clamp_events": clamp_events}


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


def fit(y, design, W, spec: ModelSpec = None, config: McmcConfig = None) -> PosteriorReport:
    """Fit the model by MCMC and assemble the posterior report.

    Chains start from spawned sub-seeds, advance together in one batched
    sampler and are merged in chain order.  A run whose R-hat exceeds the
    threshold comes back with converged=False rather than raising.
    """
    return fit_batch([(y, design)], W, spec, [config])[0]


def fit_batch(datasets, W, spec: ModelSpec = None, configs=None) -> list:
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
    W = W if spec.include_phi else None

    chains = [(seed, inp) for inp, c in zip(inputs, configs)
              for seed in np.random.SeedSequence(c.seed).spawn(c.chains)]
    offsets = [inp["offset"] for _, inp in chains]
    results = _run_chains(
        [seed for seed, _ in chains],
        np.stack([inp["y_float"] for _, inp in chains]),
        [inp["Xc"] for _, inp in chains],
        None if all(o is None for o in offsets)
        else np.stack([np.zeros(n) if o is None else o for o in offsets]),
        W, spec, config,
        np.stack([inp["beta_hat"] for _, inp in chains]),
        np.stack([inp["se"] for _, inp in chains]), inputs[0]["labels"])
    k = config.chains
    return [_assemble({name: v[i * k:(i + 1) * k] for name, v in results.items()},
                      inp, W, spec, c)
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
    if spec.include_phi and W.zone_count != n:
        raise ValidationError("weight matrix size does not match the dataset")
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
        beta_hat, cov = irls_poisson_fit(replace(design, matrix=Xc), y)
        se = np.sqrt(np.maximum(np.diag(cov), 1e-12))
    except (ConvergenceError, ValidationError, np.linalg.LinAlgError):
        beta_hat = np.zeros(p)
        beta_hat[0] = math.log(max(float(np.mean(y)), 1e-8))
        se = np.full(p, 0.1)
    return {"y": y, "y_float": np.asarray(y, dtype=float), "design": design,
            "labels": labels, "n": n, "p": p, "offset": offset, "center": center,
            "Xc": Xc, "beta_hat": beta_hat, "se": se}


def _assemble(res, inp, W, spec, config) -> PosteriorReport:
    """Merge one data set's chains (the rows of res), in chain order, into its
    posterior report; W is None without phi."""
    y, design, labels = inp["y"], inp["design"], inp["labels"]
    n, p, center, Xc, offset = inp["n"], inp["p"], inp["center"], inp["Xc"], inp["offset"]

    # Map design-scale draws back to raw covariate scale per chain.
    raw_beta = []
    for b in res["beta"]:
        b = b.copy()
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
        parameters["tau_c"] = _summary_row(res["tau"].ravel(), list(res["tau"]),
                                           significant_candidate=False)
        rhat_values.append(parameters["tau_c"]["rhat"])
    if spec.include_theta and spec.fixed_sigma_theta2 is None:
        parameters["sigma_theta2"] = _summary_row(res["sigma2"].ravel(), list(res["sigma2"]),
                                                  significant_candidate=False)
        # The precision 1/sigma^2 is reported alongside the variance.
        parameters["precision_theta"] = _summary_row(
            1.0 / res["sigma2"].ravel(), list(1.0 / res["sigma2"]),
            significant_candidate=False)
        rhat_values.append(parameters["sigma_theta2"]["rhat"])

    pooled_alpha = res["alpha"].ravel()
    valid_alpha = pooled_alpha[np.isfinite(pooled_alpha)]
    if valid_alpha.size:
        q025, q975 = np.quantile(valid_alpha, [0.025, 0.975])
        alpha_summary = {"mean": float(valid_alpha.mean()),
                         "sd": float(valid_alpha.std(ddof=1)) if valid_alpha.size > 1 else 0.0,
                         "q025": float(q025), "q975": float(q975)}
    else:
        alpha_summary = {"mean": None, "sd": None, "q025": None, "q975": None}

    kept_total = res["dev"].size
    mean_theta = sum(res["sum_theta"]) / kept_total
    mean_phi = sum(res["sum_phi"]) / kept_total
    mean_lam = sum(res["sum_lam"]) / kept_total

    # Deviance at the posterior means of all latent quantities.
    mean_beta_design = res["beta"].reshape(-1, p).mean(axis=0)
    psi_at_mean = Xc @ mean_beta_design + mean_theta + mean_phi
    if offset is not None:
        psi_at_mean = psi_at_mean + offset
    lam_at_mean = np.exp(_clamp(psi_at_mean))
    pooled_dev = res["dev"].ravel()
    dic_res = evaluate.dic(pooled_dev, y, lam_at_mean)

    try:
        r2 = evaluate.r_squared(y, mean_lam)
    except DomainError:
        r2 = float("nan")

    acceptance = {"beta": float(res["acc_beta"].mean())}
    if spec.include_theta:
        acceptance["theta"] = float(np.mean([a.mean() for a in res["acc_theta"]]))
    # Islands are never updated; with no zone that has neighbours there is no rate.
    if W is not None and W.row_sums.any():
        active = W.row_sums > 0
        acceptance["phi"] = float(np.mean([a[active].mean() for a in res["acc_phi"]]))

    finite_rhats = [v for v in rhat_values if v is not None]
    converged = all(v <= config.bgr_threshold for v in finite_rhats)

    notes = []
    if dic_res.suspicious:
        notes.append("negative effective parameter count p_D; check the fit")
    if W is not None and W.has_islands:
        notes.append(f"{len(W.islands)} island zone(s): phi pinned at 0, "
                     "excluded from the sum-to-zero constraint")

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
        clamp_events=int(res["clamp_events"].sum()),
        seed=config.seed,
        config=config.to_dict(),
        n_zones=int(n),
        island_count=len(W.islands) if W is not None else 0,
        component_count=W.component_count if W is not None else 1,
        notes=notes,
    )

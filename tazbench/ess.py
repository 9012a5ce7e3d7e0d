"""Rank-normalised split bulk effective sample size.

The estimator follows Vehtari, Gelman, Simpson, Carpenter and Buerkner
(2021), "Rank-normalization, folding, and localization: an improved R-hat
for assessing convergence of MCMC", Bayesian Analysis 16(2):

1. split every chain into its first and second half (the middle draw of an
   odd-length chain is dropped), so a drift inside a chain shows up as a
   difference between half-chains;
2. replace the pooled draws by the normal scores of their ranks,
   Phi^-1((r - 3/8) / (S + 1/4)), which makes the estimate invariant under
   monotone transforms and well defined for heavy tails;
3. combine the half-chains' autocovariances into autocorrelation estimates
   against the pooled variance, and sum them with Geyer's initial positive
   and initial monotone sequences.

It uses numpy and scipy only and shares no code with the package under
test.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.stats import norm, rankdata


def split_chains(chains) -> np.ndarray:
    """(M, N) draws -> (2M, N // 2) half-chains."""
    draws = np.atleast_2d(np.asarray(chains, dtype=float))
    half = draws.shape[1] // 2
    return np.vstack([draws[:, :half], draws[:, draws.shape[1] - half:]])


def rank_normalise(draws: np.ndarray) -> np.ndarray:
    """Normal scores of the pooled ranks (average ranks for ties)."""
    ranks = rankdata(draws, method="average").reshape(draws.shape)
    return norm.ppf((ranks - 0.375) / (draws.size + 0.25))


def _autocovariance(draws: np.ndarray) -> np.ndarray:
    """Biased (divide by N) autocovariance of every row, lags 0..N-1."""
    n = draws.shape[1]
    centred = draws - draws.mean(axis=1, keepdims=True)
    size = next_fast_len(2 * n)
    spectrum = rfft(centred, size, axis=1)
    return irfft(spectrum * np.conj(spectrum), size, axis=1)[:, :n] / n


def ess_of(draws: np.ndarray) -> float:
    """Effective sample size of (M, N) chains without splitting or ranking."""
    m, n = draws.shape
    if n < 4:
        return float("nan")
    acov = _autocovariance(draws)
    chain_var = acov[:, 0] * n / (n - 1)
    mean_var = chain_var.mean()
    var_plus = mean_var * (n - 1) / n
    if m > 1:
        var_plus += draws.mean(axis=1).var(ddof=1)
    if not var_plus > 0:
        return float("nan")
    rho = 1.0 - (mean_var - acov.mean(axis=0)) / var_plus

    # Geyer's initial positive sequence: keep lag pairs while their sum is
    # positive.
    kept = np.zeros(n)
    kept[0], kept[1] = 1.0, rho[1]
    t = 0
    even, odd = 1.0, rho[1]
    while t < n - 5 and even + odd > 0:
        t += 2
        even, odd = rho[t], rho[t + 1]
        if even + odd >= 0:
            kept[t], kept[t + 1] = even, odd
    max_t = t
    if even > 0:
        kept[max_t] = even

    # Geyer's initial monotone sequence: pair sums may not increase.
    t = 0
    while t <= max_t - 4:
        t += 2
        if kept[t] + kept[t + 1] > kept[t - 2] + kept[t - 1]:
            kept[t] = kept[t + 1] = (kept[t - 2] + kept[t - 1]) / 2.0

    total = m * n
    tau = -1.0 + 2.0 * kept[:max_t].sum() + kept[max_t]
    tau = max(tau, 1.0 / np.log10(total))
    return float(total / tau)


def bulk_ess(chains) -> float:
    """Rank-normalised split bulk ESS of (chains, draws) samples."""
    halves = split_chains(chains)
    return ess_of(rank_normalise(halves))

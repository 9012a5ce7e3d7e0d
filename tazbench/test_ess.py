"""Checks of the benchmark's bulk-ESS estimator against series whose
effective sample size is known.

Run with ``python -m pytest tazbench/test_ess.py``.
"""

import numpy as np
import pytest

from ess import bulk_ess, split_chains


def ar1(rho, chains, draws, seed):
    """Stationary Gaussian AR(1) chains with lag-one correlation rho."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((chains, draws)) * np.sqrt(1.0 - rho * rho)
    out = np.empty((chains, draws))
    out[:, 0] = rng.standard_normal(chains)
    for t in range(1, draws):
        out[:, t] = rho * out[:, t - 1] + noise[:, t]
    return out


@pytest.mark.parametrize("rho, draws, rel_tol", [
    (0.5, 5000, 0.08),
    (0.8, 10000, 0.10),
    (0.95, 40000, 0.15),
])
def test_ar1_matches_theory(rho, draws, rel_tol):
    chains = 4
    x = ar1(rho, chains, draws, seed=int(rho * 100))
    want = chains * draws * (1.0 - rho) / (1.0 + rho)
    got = bulk_ess(x)
    assert abs(got - want) / want < rel_tol, (got, want)


def test_iid_draws_are_all_effective():
    x = np.random.default_rng(7).standard_normal((4, 2500))
    got = bulk_ess(x)
    assert 0.9 * x.size < got < 1.1 * x.size


def test_antithetic_chain_exceeds_draw_count():
    x = ar1(-0.5, 4, 5000, seed=11)
    want = x.size * 1.5 / 0.5
    got = bulk_ess(x)
    assert got > x.size
    assert got <= x.size * np.log10(x.size)
    assert abs(got - want) / want < 0.15


def test_invariant_under_monotone_transform():
    x = ar1(0.7, 2, 3001, seed=3)
    assert bulk_ess(np.exp(3.0 * x)) == bulk_ess(x)
    # A decreasing transform negates the normal scores: equal up to rounding.
    assert bulk_ess(-x ** 3) == pytest.approx(bulk_ess(x), rel=1e-12)


def test_chains_stuck_apart_have_tiny_ess():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 2000)) * 0.1 + np.arange(4)[:, None] * 5.0
    assert bulk_ess(x) < 20


def test_drift_within_one_chain_is_caught_by_splitting():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((1, 4000)) * 0.1
    x[0, 2000:] += 5.0
    assert bulk_ess(x) < 20


def test_split_drops_middle_draw_of_odd_chain():
    halves = split_chains(np.arange(7.0)[None, :])
    assert halves.tolist() == [[0.0, 1.0, 2.0], [4.0, 5.0, 6.0]]

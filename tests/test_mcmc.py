import copy
import hashlib
import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from tazcar.dataset import DesignMatrix, build_design, crash_counts
from tazcar.errors import ValidationError
from tazcar.mcmc import (
    McmcConfig,
    PosteriorReport,
    _recenter,
    _refresh,
    _run_chains,
    _State,
    _sweep,
    _Target,
    _update_beta,
    _update_scale,
    fit,
    fit_batch,
    gelman_rubin,
    informative_priors_from_irls,
    irls_poisson_fit,
    sigma_theta_posterior,
    tau_c_posterior,
    update_sigma_theta,
    update_tau_c,
)
from tazcar import recovery
from tazcar.model import GammaPrior, ModelSpec, NormalPrior, _row_loglik, icar_pairwise_sum
from tazcar.synth import default_truth, generate_lattice, simulate_dataset
from tazcar.weights import ADJACENCY, LANE_COUNT, ProximityMatrix, ZoneTopology, build_weights

from oracles import draw_prior, log_joint


def path_matrix(n, weight=1.0):
    return ProximityMatrix(zone_count=n, mode=ADJACENCY,
                           triples=tuple((i, i + 1, weight) for i in range(n - 1)))


class TestGelmanRubin:
    def test_identical_constant_chains(self):
        assert gelman_rubin([np.ones(50), np.ones(50)]) == 1.0

    def test_same_distribution_near_one(self):
        rng = np.random.default_rng(123)
        chains = [rng.standard_normal(1000), rng.standard_normal(1000)]
        assert 0.99 <= gelman_rubin(chains) <= 1.05

    def test_separated_chains(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(1000)
        b = rng.standard_normal(1000) + 10.0
        rhat = gelman_rubin([a, b])
        # plug the sample moments into the formula as the oracle
        n = 1000
        w = np.mean([a.var(ddof=1), b.var(ddof=1)])
        b_over_n = np.var([a.mean(), b.mean()], ddof=1)
        expected = np.sqrt(((n - 1) / n * w + b_over_n) / w)
        assert rhat == pytest.approx(expected, rel=1e-12)
        assert rhat == pytest.approx(7.1, abs=0.3)

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValidationError, match="unequal"):
            gelman_rubin([np.zeros(5), np.zeros(6)])

    def test_needs_two_chains(self):
        with pytest.raises(ValidationError):
            gelman_rubin([np.zeros(5)])


class TestConjugateUpdates:
    def test_sigma_posterior_worked_example(self):
        theta = np.array([0.1, -0.3, 0.2, 0.2])   # sum of squares 0.18
        theta = theta * np.sqrt(0.2 / (theta @ theta))
        shape, rate = sigma_theta_posterior(theta, GammaPrior(0.001, 0.001))
        assert shape == pytest.approx(2.001)
        assert rate == pytest.approx(0.101)

    def test_sigma_posterior_zero_theta(self):
        shape, rate = sigma_theta_posterior(np.zeros(6), GammaPrior(0.001, 0.001))
        assert shape == pytest.approx(0.001 + 3.0)
        assert rate == pytest.approx(0.001)

    def test_sigma_long_run_mean(self):
        theta = np.array([0.5, -0.5, 0.25, -0.25])
        prior = GammaPrior(3.0, 1.0)
        shape, rate = sigma_theta_posterior(theta, prior)
        rng = np.random.default_rng(2024)
        draws = np.array([update_sigma_theta(theta, prior, rng) for _ in range(40000)])
        assert draws.mean() == pytest.approx(rate / (shape - 1), rel=0.02)

    def test_sigma_distribution_ks(self):
        theta = np.array([0.5, -0.5, 0.25, -0.25])
        prior = GammaPrior(3.0, 1.0)
        shape, rate = sigma_theta_posterior(theta, prior)
        rng = np.random.default_rng(99)
        draws = np.array([update_sigma_theta(theta, prior, rng) for _ in range(20000)])
        p = stats.kstest(draws, "invgamma", args=(shape, 0.0, rate)).pvalue
        assert p > 0.01

    def test_tau_posterior_worked_example(self):
        phi = np.array([-0.3, -0.1, 0.1, 0.3])
        W = path_matrix(4)
        shape, rate = tau_c_posterior(phi, W, 1, GammaPrior(0.1, 0.1))
        assert shape == pytest.approx(1.6)
        assert rate == pytest.approx(0.16)

    def test_tau_posterior_zero_phi(self):
        W = path_matrix(5)
        shape, rate = tau_c_posterior(np.zeros(5), W, 1, GammaPrior(0.1, 0.1))
        assert shape == pytest.approx(0.1 + 2.0)
        assert rate == pytest.approx(0.1)

    def test_tau_rate_doubles_with_weights(self):
        phi = np.array([-0.3, -0.1, 0.1, 0.3])
        prior = GammaPrior(0.1, 0.1)
        _, rate1 = tau_c_posterior(phi, path_matrix(4, 1.0), 1, prior)
        _, rate2 = tau_c_posterior(phi, path_matrix(4, 2.0), 1, prior)
        assert rate2 - prior.rate == pytest.approx(2 * (rate1 - prior.rate))

    def test_tau_distribution_ks(self):
        phi = np.array([-0.3, -0.1, 0.1, 0.3])
        W = path_matrix(4)
        prior = GammaPrior(0.1, 0.1)
        shape, rate = tau_c_posterior(phi, W, 1, prior)
        rng = np.random.default_rng(17)
        draws = np.array([update_tau_c(phi, W, 1, prior, rng) for _ in range(20000)])
        p = stats.kstest(draws, "gamma", args=(shape, 0.0, 1.0 / rate)).pvalue
        assert p > 0.01


class TestIrls:
    def test_intercept_only_closed_form(self):
        design = DesignMatrix(matrix=np.ones((6, 1)), labels=("intercept",))
        y = np.array([2, 4, 6, 3, 5, 4])
        beta, cov = irls_poisson_fit(design, y)
        assert beta[0] == pytest.approx(np.log(y.mean()), abs=1e-10)
        assert cov[0, 0] == pytest.approx(1.0 / y.sum(), rel=1e-6)

    def test_constant_counts(self):
        design = DesignMatrix(matrix=np.ones((4, 1)), labels=("intercept",))
        beta, _ = irls_poisson_fit(design, np.array([5, 5, 5, 5]))
        assert beta[0] == pytest.approx(np.log(5.0), abs=1e-10)

    def test_simulation_within_three_se(self):
        rng = np.random.default_rng(31)
        n = 1000
        x = rng.standard_normal(n)
        X = np.column_stack([np.ones(n), x])
        truth = np.array([1.2, 0.4])
        y = rng.poisson(np.exp(X @ truth))
        design = DesignMatrix(matrix=X, labels=("intercept", "x"))
        beta, cov = irls_poisson_fit(design, y)
        se = np.sqrt(np.diag(cov))
        assert np.all(np.abs(beta - truth) < 3 * se)

    def test_rank_deficiency_rejected(self):
        X = np.column_stack([np.ones(5), np.ones(5)])
        design = DesignMatrix(matrix=X, labels=("intercept", "dup"))
        with pytest.raises(ValidationError, match="rank"):
            irls_poisson_fit(design, np.arange(5))

    def test_informative_priors(self):
        design = DesignMatrix(matrix=np.ones((6, 1)), labels=("intercept",))
        y = np.array([2, 4, 6, 3, 5, 4])
        priors = informative_priors_from_irls(design, y)
        assert priors["intercept"].mean == pytest.approx(np.log(y.mean()), abs=1e-10)
        assert priors["intercept"].variance > 0


def chains_on(W, y, design, seed=0):
    """Target and state of two chains with random effects drawn off-center."""
    rng = np.random.default_rng(seed)
    n, p = design.matrix.shape
    y = np.stack([y, y]).astype(float)
    target = _Target(y, [design.matrix] * 2, None, W, ModelSpec(), design.labels)
    phi = rng.normal(0.3, 0.5, size=(2, n))
    phi[:, target.inactive] = 0.0
    state = _State(rng.normal(0.5, 0.1, size=(2, p)), rng.normal(0.0, 0.2, size=(2, n)),
                   phi, np.full(2, 0.1), np.ones(2))
    _refresh(state, target)
    return target, state


def lane_weights():
    """Lane-count weights in which the zero-lane pairs drop out: zones 0-2 a
    path, 3-5 a triangle, 6-8 a path and zone 9 an island."""
    return build_weights(ZoneTopology(10, (
        (0, 1, 1.0, 2), (1, 2, 0.5, 3), (2, 3, 1.0, 0), (3, 4, 1.0, 1), (4, 5, 2.0, 4),
        (3, 5, 1.5, 2), (5, 6, 1.0, 0), (6, 7, 1.0, 2), (7, 8, 0.8, 6), (8, 9, 1.0, 0),
        (0, 9, 1.2, 0))), LANE_COUNT)


def island_weights():
    """Zones 0-2 a path, 3-5 a triangle, zone 6 an island."""
    return build_weights(ZoneTopology(7, ((0, 1, 1.0, 2), (1, 2, 1.0, 2), (3, 4, 1.0, 2),
                                          (4, 5, 1.0, 2), (3, 5, 1.0, 2))))


class TestBlockUpdaters:
    def test_recenter_keeps_likelihood(self, small_sim):
        # one component, no islands: the intercept absorbs the removed mean
        target, state = chains_on(small_sim["W"], small_sim["y"], small_sim["design"])
        assert target.exact_recenter
        before = _row_loglik(target.y, state.psic, state.lam, target.lgamma_y)
        beta0 = state.beta[:, 0].copy()
        phi_mean = state.phi.mean(axis=1)
        _recenter(state, target)
        np.testing.assert_allclose(state.phi.sum(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(state.beta[:, 0], beta0 + phi_mean, rtol=1e-12)
        _refresh(state, target)
        after = _row_loglik(target.y, state.psic, state.lam, target.lgamma_y)
        np.testing.assert_allclose(after, before, rtol=1e-10)

    def test_sweep_keeps_icar_q_current(self, small_sim):
        # Q(phi), computed once for tau's draw, is carried through the
        # re-centering and both scaling moves (each taken here) to the sweep's end
        target, state = chains_on(small_sim["W"], small_sim["y"], small_sim["design"])
        assert target.exchange
        rng = np.random.default_rng(4)
        z = rng.standard_normal((2, target.normals[1]))
        u = rng.random((2, target.uniforms[1]))
        z[:, target.normals[0]["scale"]] = [0.05, -0.05]
        u[:, target.uniforms[0]["scale"]] = 1e-300
        g = np.column_stack([rng.standard_gamma(a, 2) for a in target.gamma_shapes])
        before = state.phi.copy()
        _sweep(state, target, z, u, g, {"theta": np.full((2, 25), 0.5),
                                        "phi": np.full((2, 25), 0.5), "scale": np.ones((2, 2))})
        assert (state.acc_scale == 1).all() and (state.phi != before).all()
        np.testing.assert_allclose(
            state.icar_q, [icar_pairwise_sum(phi, small_sim["W"]) for phi in state.phi],
            rtol=1e-12)

    def test_recenter_zeroes_component_sums(self):
        # two components and an island: each component is centred on its own,
        # the island stays at zero and psi is recomputed from the parameters
        W = island_weights()
        design = DesignMatrix(matrix=np.ones((7, 1)), labels=("intercept",))
        target, state = chains_on(W, np.array([3, 5, 4, 8, 6, 7, 2]), design)
        assert not target.exact_recenter
        beta = state.beta.copy()
        _recenter(state, target)
        for members in ([0, 1, 2], [3, 4, 5]):
            np.testing.assert_allclose(state.phi[:, members].sum(axis=1), 0.0, atol=1e-12)
        assert (state.phi[:, 6] == 0.0).all()
        np.testing.assert_array_equal(state.beta, beta)
        np.testing.assert_allclose(state.psi, state.beta[:, :1] + state.theta + state.phi,
                                   rtol=1e-12)


def standardized_design(design, columns=3):
    """The intercept and the next columns - 1 covariates of design, z-scored."""
    X = design.matrix[:, :columns].copy()
    X[:, 1:] = (X[:, 1:] - X[:, 1:].mean(axis=0)) / X[:, 1:].std(axis=0)
    return DesignMatrix(matrix=X, labels=design.labels[:columns])


def joint(target, state, W, k, X, **moved):
    """The oracle's log joint density of chain k's state, with the fields in
    moved replaced."""
    spec = target.spec
    values = {name: getattr(state, name)[k] for name in ("beta", "theta", "phi", "sigma2", "tau")}
    values.update(moved)
    return log_joint(target.y[k], X, W.to_dense(), **values,
                     prior_mean=target.prior_mean, prior_var=target.prior_var,
                     sigma_prior=(spec.sigma_theta_prior.shape, spec.sigma_theta_prior.rate),
                     tau_prior=(spec.tau_c_prior.shape, spec.tau_c_prior.rate))


def taken_at(update, state, log_r, width):
    """The states update(state copy, u) leaves when each chain's log u sits
    just below, and just above, its log acceptance ratio in log_r; u has
    width columns."""
    out = []
    for shift in (-1e-6, 1e-6):
        trial = copy.deepcopy(state)
        update(trial, np.repeat(np.exp(log_r + shift)[:, None], width, axis=1))
        out.append(trial)
    return out


class TestMoveRatios:
    """Each new move's log acceptance ratio against a brute-force difference
    of the full joint log density (tests/oracles.py) plus the proposal's
    log densities."""

    def test_beta_ratio(self, small_sim):
        design = standardized_design(small_sim["design"])
        X = design.matrix
        target, state = chains_on(small_sim["W"], small_sim["y"], design, seed=3)
        # An intercept near the counts' level, so that the move is taken at
        # a uniform that can be told from zero.
        state.beta[:, 0] += np.log(small_sim["y"].mean()) - 0.8
        _refresh(state, target)
        z = np.random.default_rng(11).standard_normal(state.beta.shape)
        moved = copy.deepcopy(state)
        _update_beta(moved, target, z, np.full((2, 1), 1e-300))
        prop = moved.beta
        assert (prop != state.beta).all()

        def iwls(k, beta):
            """Mean and covariance of the IWLS proposal from beta in chain k."""
            lam = np.exp(np.clip(X @ beta + state.theta[k] + state.phi[k], -30, 30))
            cov = np.linalg.inv(X.T @ (lam[:, None] * X) + np.diag(1.0 / target.prior_var))
            grad = X.T @ (target.y[k] - lam) - (beta - target.prior_mean) / target.prior_var
            return beta + cov @ grad, cov

        log_r = np.empty(2)
        for k in range(2):
            forward, backward = iwls(k, state.beta[k]), iwls(k, prop[k])
            log_r[k] = (joint(target, state, small_sim["W"], k, X, beta=prop[k])
                        - joint(target, state, small_sim["W"], k, X)
                        + stats.multivariate_normal(*backward).logpdf(state.beta[k])
                        - stats.multivariate_normal(*forward).logpdf(prop[k]))
            # The step's noise is P^-1 L z: its P-norm is |z|.
            dev = prop[k] - forward[0]
            assert dev @ np.linalg.solve(forward[1], dev) == pytest.approx(z[k] @ z[k], rel=1e-9)
        below, above = taken_at(lambda s, u: _update_beta(s, target, z, u), state, log_r, 1)
        np.testing.assert_array_equal(below.beta, prop)
        np.testing.assert_array_equal(above.beta, state.beta)
        np.testing.assert_allclose(below.psi, prop @ X.T + state.theta + state.phi, rtol=1e-12)

    @pytest.mark.parametrize("connected", [True, False])
    @pytest.mark.parametrize("move", ["theta", "phi"])
    def test_scale_ratio(self, small_sim, move, connected):
        if connected:
            W, y, design = small_sim["W"], small_sim["y"], standardized_design(small_sim["design"])
        else:
            W, y = island_weights(), np.array([3, 5, 4, 8, 6, 7, 2])
            design = DesignMatrix(matrix=np.ones((7, 1)), labels=("intercept",))
        target, state = chains_on(W, y, design, seed=5)
        _recenter(state, target)             # phi onto its constrained subspace
        state.sigma2, state.tau = np.array([0.05, 0.2]), np.array([0.8, 3.0])
        _refresh(state, target)
        col = 0 if move == "theta" else 1
        eps = np.array([0.7, -0.4])
        z = np.zeros((2, 2))
        z[:, col] = eps
        step = np.ones((2, 2))
        moved = copy.deepcopy(state)
        _update_scale(moved, target, z, np.full((2, 2), 1e-300), step)
        c = np.exp(eps)
        if move == "theta":
            np.testing.assert_allclose(moved.theta, c[:, None] * state.theta, rtol=1e-14)
            np.testing.assert_allclose(moved.sigma2, c * c * state.sigma2, rtol=1e-14)
            dims = len(y) + 2                      # theta and sigma2
            if connected:
                # phi and the intercept take what theta gives up, so psi stays
                mean = state.theta.mean(axis=1)
                np.testing.assert_allclose(
                    moved.phi, state.phi + (1.0 - c)[:, None] * (state.theta - mean[:, None]),
                    rtol=1e-12, atol=1e-15)
                np.testing.assert_allclose(moved.beta[:, 0], state.beta[:, 0] + (1.0 - c) * mean,
                                           rtol=1e-14)
                np.testing.assert_array_equal(moved.beta[:, 1:], state.beta[:, 1:])
                for name in ("psi", "psic", "lam"):
                    np.testing.assert_array_equal(getattr(moved, name), getattr(state, name))
        else:
            np.testing.assert_allclose(moved.phi, c[:, None] * state.phi, rtol=1e-14)
            np.testing.assert_allclose(moved.tau, state.tau / (c * c), rtol=1e-14)
            dims = len(y) - W.component_count - 2  # phi's subspace, then tau
        log_r = np.array([
            joint(target, moved, W, k, design.matrix) - joint(target, state, W, k, design.matrix)
            + dims * eps[k] for k in range(2)])
        below, above = taken_at(lambda s, u: _update_scale(s, target, z, u, step), state, log_r, 2)
        for name in ("beta", "theta", "phi", "sigma2", "tau", "psi"):
            np.testing.assert_array_equal(getattr(below, name), getattr(moved, name))
            np.testing.assert_array_equal(getattr(above, name), getattr(state, name))


def batch_se(trace, batches=20):
    """Standard error of the mean of (chains, draws) traces by batch means."""
    means = trace.reshape(trace.shape[0], batches, -1).mean(axis=2).ravel()
    return means.std(ddof=1) / np.sqrt(means.size)


# The small model of the prior-checking tests: six zones on one connected
# graph, one covariate, proper priors (ModelSpec's and oracles.draw_prior's
# terms for them).
SMALL_W = ProximityMatrix(zone_count=6, mode=ADJACENCY, triples=(
    (0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 5, 1.0), (0, 5, 1.0), (1, 4, 1.0)))
SMALL_X = np.column_stack([np.ones(6), np.linspace(-1.0, 1.0, 6)])
SMALL_LABELS = ("intercept", "x")
SMALL_PRIOR = dict(prior_mean=np.array([1.0, 0.3]), prior_var=np.array([0.25, 0.25]),
                   sigma_prior=(3.0, 0.4), tau_prior=(3.0, 1.5))


def small_spec(include_phi=True):
    return ModelSpec(coef_priors={"intercept": NormalPrior(1.0, 0.25),
                                  "x": NormalPrior(0.3, 0.25)},
                     sigma_theta_prior=GammaPrior(3.0, 0.4), tau_c_prior=GammaPrior(3.0, 1.5),
                     include_phi=include_phi)


def test_exchange_move_keeps_the_prior():
    # Theta's scaling move on a connected graph keeps psi, so it must leave
    # the prior invariant whatever the counts.  Rows of one state start at
    # independent forward draws and take many moves each; their moments must
    # stay those of fresh forward draws.
    rng = np.random.default_rng(1156)
    W, X = SMALL_W, SMALL_X

    def draw(count):
        return [np.array(v) for v in zip(*(draw_prior(rng, X, W.to_dense(), **SMALL_PRIOR)
                                             for _ in range(count)))]

    def moments(beta, theta, phi, sigma2, tau):
        # The move keeps beta0 + mean(theta) and phi + theta - mean(theta), so
        # it shows in how theta, phi and beta0 vary together as much as in
        # their own moments.
        first = np.column_stack([beta[:, 0], np.log(sigma2), np.log(tau), theta[:, 0],
                                 phi[:, 0]])
        cross = np.column_stack([beta[:, 0] * theta.mean(axis=1),
                                 np.add.reduce(theta * phi, axis=1)])
        return np.concatenate([first, first * first, cross], axis=1)

    rows = 16000
    beta, theta, phi, sigma2, tau, y = draw(rows)
    target = _Target(y.astype(float), [X] * rows, None, W, small_spec(), SMALL_LABELS)
    assert target.exchange
    state = _State(beta, theta, phi, sigma2, tau)
    _refresh(state, target)
    psi = state.psi.copy()
    z, step = np.zeros((rows, 2)), np.ones((rows, 2))
    for _ in range(300):
        z[:, 0] = rng.standard_normal(rows)   # phi's move stays at c = 1
        _update_scale(state, target, z, rng.random((rows, 2)), step)
    taken = state.acc_scale[:, 0].mean() / 300
    assert 0.2 < taken < 0.9, taken
    # psi never moved, and the parameters still add up to it
    np.testing.assert_array_equal(state.psi, psi)
    np.testing.assert_allclose(state.beta @ X.T + state.theta + state.phi, psi, atol=1e-12)
    np.testing.assert_allclose(state.phi.sum(axis=1), 0.0, atol=1e-12)
    Q = np.diag(W.row_sums) - W.to_dense()
    np.testing.assert_allclose(state.icar_q, np.einsum("ki,ij,kj->k", state.phi, Q, state.phi),
                               rtol=1e-10)
    # rows are independent draws on both sides
    got = moments(state.beta, state.theta, state.phi, state.sigma2, state.tau)
    want = moments(*draw(40000)[:5])
    se = np.hypot(got.std(axis=0, ddof=1) / np.sqrt(len(got)),
                  want.std(axis=0, ddof=1) / np.sqrt(len(want)))
    scores = (got.mean(axis=0) - want.mean(axis=0)) / se
    assert np.abs(scores).max() < 4.0, scores


def geweke_scores(include_phi, chains=64, sweeps=2300, burn=300, seed=2004):
    """Geweke (2004), "Getting it right": chains that alternate one sweep of
    the sampler with fresh counts y ~ Poisson(lambda) keep the joint
    distribution of parameters and data, so the moments of their parameters
    must match forward draws from the prior.  Six zones on one connected
    graph, proper priors.  Returns a z-score per first and second moment of
    beta0, beta1, log sigma2, theta0 and, with phi, log tau and phi0."""
    W, X, labels, prior = SMALL_W, SMALL_X, SMALL_LABELS, SMALL_PRIOR
    spec = small_spec(include_phi)
    rng = np.random.default_rng(seed)

    def draw(count):
        """Forward draws; without phi, phi is zero and y drawn without it."""
        out = []
        for _ in range(count):
            beta, theta, phi, sigma2, tau, y = draw_prior(rng, X, W.to_dense(), **prior)
            if not include_phi:
                phi = np.zeros(6)
                y = rng.poisson(np.exp(X @ beta + theta))
            out.append((beta, theta, phi, sigma2, tau, y))
        return [np.array(v) for v in zip(*out)]

    names = ["beta0", "beta1", "log sigma2", "theta0"]
    if include_phi:
        names += ["log tau", "phi0"]

    def moments(beta, theta, phi, sigma2, tau):
        cols = [beta[..., 0], beta[..., 1], np.log(sigma2), theta[..., 0]]
        if include_phi:
            cols += [np.log(tau), phi[..., 0]]
        first = np.stack(cols, axis=-1)
        return np.concatenate([first, first * first], axis=-1)

    want = moments(*draw(20000)[:5])
    beta, theta, phi, sigma2, tau, y = draw(chains)
    state = _State(beta, theta, phi, sigma2, tau)
    steps = {"theta": np.full((chains, 6), 0.5), "phi": np.full((chains, 6), 0.5),
             "scale": np.full((chains, 2), 0.5)}
    got = []
    for sweep in range(sweeps):
        target = _Target(y.astype(float), [X] * chains, None, W if include_phi else None, spec,
                         labels)
        _refresh(state, target)
        z = rng.standard_normal((chains, target.normals[1]))
        u = rng.random((chains, target.uniforms[1]))
        g = np.column_stack([rng.standard_gamma(a, chains) for a in target.gamma_shapes])
        _sweep(state, target, z, u, g, steps)
        y = rng.poisson(state.lam)
        if sweep >= burn:
            got.append(moments(state.beta, state.theta, state.phi, state.sigma2, state.tau))
    got = np.stack(got, axis=1)                # (chains, draws, moments)
    scores = {}
    for j, name in enumerate(names + [f"{name}^2" for name in names]):
        se = np.hypot(batch_se(got[:, :, j]), want[:, j].std(ddof=1) / np.sqrt(len(want)))
        scores[name] = (got[:, :, j].mean() - want[:, j].mean()) / se
    return scores


def test_geweke_without_phi():
    # The IWLS beta block, theta's walk, the conjugate sigma2 draw and the
    # joint scaling move of (theta, sigma2).
    scores = geweke_scores(include_phi=False)
    assert max(abs(v) for v in scores.values()) < 4.0, scores


@pytest.mark.xfail(strict=True, reason=(
    "phi's single-site walk followed by the re-centering that moves phi's mean "
    "into the intercept is not a Metropolis-Hastings step: the intercept's prior "
    "ratio is never applied (ROADMAP open item 5)"))
def test_geweke_with_phi():
    scores = geweke_scores(include_phi=True)
    assert max(abs(v) for v in scores.values()) < 4.0, scores


@pytest.fixture(scope="module")
def small_sim():
    topology = generate_lattice(5)
    records, truth = simulate_dataset(topology, seed=42)
    design = build_design(records)
    return {
        "y": crash_counts(records),
        "design": design,
        "W": build_weights(topology, ADJACENCY),
        "truth": truth,
    }


class TestFit:
    def test_config_validation(self):
        with pytest.raises(ValidationError, match="2 chains"):
            McmcConfig(chains=1)
        with pytest.raises(ValidationError, match="positive"):
            McmcConfig(iters=0)

    def test_same_seed_is_bit_identical(self, small_sim):
        config = McmcConfig(chains=2, burn_in=150, iters=200, seed=5)
        rep1 = fit(small_sim["y"], small_sim["design"], small_sim["W"], ModelSpec(), config)
        rep2 = fit(small_sim["y"], small_sim["design"], small_sim["W"], ModelSpec(), config)
        assert rep1.to_json() == rep2.to_json()

    def test_posterior_tracks_mle_without_random_effects(self):
        topology = generate_lattice(10)
        truth = default_truth(phi_mode="none", phi_target_sd=None, theta_target_sd=0.0)
        records, _ = simulate_dataset(topology, truth, seed=9)
        design = build_design(records)
        y = crash_counts(records)
        beta_mle, _ = irls_poisson_fit(design, y)
        report = fit(y, design, build_weights(topology), ModelSpec(),
                     McmcConfig(chains=2, burn_in=1500, iters=3000, seed=77))
        for j, label in enumerate(design.labels):
            assert report.parameters[label]["mean"] == pytest.approx(
                beta_mle[j], abs=0.1)

    def test_report_shape_and_bounds(self, small_sim):
        config = McmcConfig(chains=2, burn_in=200, iters=300, seed=1)
        rep = fit(small_sim["y"], small_sim["design"], small_sim["W"], ModelSpec(), config)
        for label, row in rep.parameters.items():
            assert row["q025"] <= row["q975"]
        assert "tau_c" in rep.parameters
        assert "sigma_theta2" in rep.parameters
        assert "precision_theta" in rep.parameters
        assert len(rep.deviance_trace) == 2 * 300
        assert 0.0 <= rep.alpha["mean"] <= 1.0
        assert set(rep.acceptance) == {"beta", "theta", "phi"}
        assert rep.config["burn_in"] == 200

    def test_theta_only_model_has_alpha_zero(self, small_sim):
        config = McmcConfig(chains=2, burn_in=200, iters=300, seed=1)
        rep = fit(small_sim["y"], small_sim["design"], None,
                  ModelSpec(include_phi=False), config)
        assert rep.alpha["mean"] == pytest.approx(0.0)
        assert "tau_c" not in rep.parameters
        assert "phi" not in rep.acceptance

    def test_fixed_tau_not_reported_as_parameter(self, small_sim):
        config = McmcConfig(chains=2, burn_in=150, iters=200, seed=2)
        rep = fit(small_sim["y"], small_sim["design"], small_sim["W"],
                  ModelSpec(include_theta=False, fixed_tau_c=2.0), config)
        assert "tau_c" not in rep.parameters
        assert "sigma_theta2" not in rep.parameters

    def test_batch_reports_equal_separate_fits(self, small_sim):
        # The third data set drives psi into the clamp, so its chains take the
        # clipping path while the others do not.
        hot = small_sim["y"].copy()
        hot[0] = 20_000_000_000_000
        other, _ = simulate_dataset(generate_lattice(5), seed=43)
        datasets = [(small_sim["y"], small_sim["design"]),
                    (crash_counts(other), build_design(other)),
                    (hot, small_sim["design"])]
        configs = [McmcConfig(chains=2, burn_in=100, iters=150, seed=s) for s in (5, 6, 7)]
        batched = fit_batch(datasets, small_sim["W"], ModelSpec(), configs)
        assert batched[2].clamp_events > 0
        for (y, design), config, rep in zip(datasets, configs, batched):
            alone = fit(y, design, small_sim["W"], ModelSpec(), config)
            assert rep.to_json() == alone.to_json()

    @pytest.mark.parametrize("lattice", [5, 13])
    def test_chains_do_not_depend_on_batch_width(self, lattice):
        # The beta block's Gram product spans the rows of all chains that
        # share a design; each row must come out as it does beside any other
        # number of chains.
        topology = generate_lattice(lattice)
        records, _ = simulate_dataset(topology, seed=42)
        design, y = build_design(records), crash_counts(records).astype(float)
        p = design.matrix.shape[1]
        seeds = np.random.SeedSequence(3).spawn(5)
        config = McmcConfig(chains=2, burn_in=40, iters=40)

        def run(k):
            return _run_chains(seeds[:k], np.tile(y, (k, 1)), [design.matrix] * k, None,
                               build_weights(topology), ModelSpec(), config,
                               np.zeros((k, p)), np.full((k, p), 0.1), design.labels)

        two, five = run(2), run(5)
        for name in ("beta", "sigma2", "tau", "dev", "sum_lam"):
            np.testing.assert_array_equal(two[name], five[name][:2])

    def test_batch_configs_may_differ_in_seed_only(self, small_sim):
        datasets = [(small_sim["y"], small_sim["design"])] * 2
        configs = [McmcConfig(burn_in=100, iters=150, seed=1),
                   McmcConfig(burn_in=100, iters=200, seed=2)]
        with pytest.raises(ValidationError, match="seed only"):
            fit_batch(datasets, small_sim["W"], ModelSpec(), configs)

    def test_batch_data_sets_share_zones(self):
        designs = [DesignMatrix(matrix=np.ones((n, 1)), labels=("intercept",)) for n in (4, 5)]
        datasets = [(np.ones(4, dtype=int), designs[0]), (np.ones(5, dtype=int), designs[1])]
        with pytest.raises(ValidationError, match="share zones"):
            fit_batch(datasets, None, ModelSpec(include_phi=False),
                      [McmcConfig(burn_in=10, iters=10)] * 2)

    def test_recovery_does_not_depend_on_batch_size(self, monkeypatch):
        def run():
            return recovery.run_recovery(reps=3, lattice=4, seed=2, chains=2,
                                         burn_in=100, iters=150).to_json()
        batched = run()
        monkeypatch.setattr(recovery, "_REPS_PER_BATCH", 1)
        assert run() == batched

    def test_island_zone_handled(self):
        from tazcar.weights import ZoneTopology
        topology = ZoneTopology(4, ((0, 1, 1.0, 2), (1, 2, 1.0, 2)))
        W = build_weights(topology)
        rng = np.random.default_rng(0)
        y = rng.poisson(5.0, size=4)
        design = DesignMatrix(matrix=np.ones((4, 1)), labels=("intercept",))
        rep = fit(y, design, W, ModelSpec(),
                  McmcConfig(chains=2, burn_in=150, iters=200, seed=4))
        assert rep.island_count == 1
        assert any("island" in note for note in rep.notes)

    def test_all_islands_report_is_standard_json(self, tmp_path):
        # no zone has a neighbour: there is no phi acceptance rate to report
        W = build_weights(ZoneTopology(4, ()))
        design = DesignMatrix(matrix=np.ones((4, 1)), labels=("intercept",))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = fit(np.array([3, 5, 2, 4]), design, W, ModelSpec(),
                      McmcConfig(chains=2, burn_in=100, iters=100, seed=1))
        assert rep.island_count == 4
        assert set(rep.acceptance) == {"beta", "theta"}
        path = tmp_path / "report.json"
        rep.to_json(path)

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        assert json.loads(path.read_text(), parse_constant=reject)["acceptance"] == rep.acceptance

    def test_report_json_round_trip(self, small_sim, tmp_path):
        config = McmcConfig(chains=2, burn_in=150, iters=200, seed=5)
        rep = fit(small_sim["y"], small_sim["design"], small_sim["W"], ModelSpec(), config)
        p = tmp_path / "report.json"
        rep.to_json(p)
        rep2 = PosteriorReport.from_json(p)
        assert rep2.to_json() == rep.to_json()
        assert "DIC" in rep.render_table()

    def test_standardized_design_reports_raw_scale(self):
        topology = generate_lattice(6)
        truth = default_truth(phi_mode="none", phi_target_sd=None, theta_target_sd=0.0)
        records, _ = simulate_dataset(topology, truth, seed=12)
        y = crash_counts(records)
        raw_design = build_design(records, ModelSpec())
        std_design = build_design(records, ModelSpec(standardize=True))
        config = McmcConfig(chains=2, burn_in=800, iters=1500, seed=21)
        rep_raw = fit(y, raw_design, build_weights(topology), ModelSpec(), config)
        rep_std = fit(y, std_design, build_weights(topology),
                      ModelSpec(standardize=True), config)
        for label in raw_design.labels:
            assert rep_std.parameters[label]["mean"] == pytest.approx(
                rep_raw.parameters[label]["mean"], abs=0.15)

    def test_mismatched_weights_rejected(self, small_sim):
        bad_W = build_weights(generate_lattice(3))
        with pytest.raises(ValidationError, match="does not match"):
            fit(small_sim["y"], small_sim["design"], bad_W, ModelSpec(),
                McmcConfig(chains=2, burn_in=50, iters=60, seed=0))

    def test_tight_prior_pins_coefficient(self, small_sim):
        from tazcar.model import NormalPrior
        spec = ModelSpec(coef_priors={"access_density": NormalPrior(0.0, 1e-8)})
        config = McmcConfig(chains=2, burn_in=200, iters=300, seed=6)
        rep = fit(small_sim["y"], small_sim["design"], small_sim["W"], spec, config)
        assert abs(rep.parameters["access_density"]["mean"]) < 1e-3

    def test_multi_component_weights(self):
        from tazcar.weights import ZoneTopology
        # two disjoint squares: recentering operates per component
        pairs = [(0, 1, 1.0, 2), (1, 2, 1.0, 2), (2, 3, 1.0, 2), (0, 3, 1.0, 2),
                 (4, 5, 1.0, 2), (5, 6, 1.0, 2), (6, 7, 1.0, 2), (4, 7, 1.0, 2)]
        W = build_weights(ZoneTopology(8, tuple(pairs)))
        rng = np.random.default_rng(1)
        y = rng.poisson(6.0, size=8)
        design = DesignMatrix(matrix=np.ones((8, 1)), labels=("intercept",))
        rep = fit(y, design, W, ModelSpec(),
                  McmcConfig(chains=2, burn_in=200, iters=300, seed=8))
        assert rep.component_count == 2
        assert np.isfinite(rep.dic)


# sha256 of fit(...).to_json() for small fixed-seed fits, recorded when
# theta's scaling move began to trade theta for phi on connected graphs
# (theta_only and island_two_components kept their digests: the move does
# not reach them; lane_count_components was recorded later on that sampler).
# A refactor must leave them as they are; a change that deliberately alters
# the random stream (a new proposal or block) re-records them and says so in
# CHANGES.md.
PINNED_REPORTS = {
    "full": "5abdfec38b6b73f0865cfb11d8ff17ec681f0ba84cd92e55a2fd90a9b8cacad1",
    "theta_only": "37057bf7e41cd157333e27383c28eb7b5b99c13a32569889de5dc1130629f6b5",
    "fixed_tau_c": "c89fcdad7e56ec7063ecc61efe0fbc0f113af788e6feb4e38a499034fc14e1ff",
    "island_two_components": "3c9e7674cca3b5b6c07d918579e7bdfd901dff2d598c77c69e33c7c465b83377",
    "clamped": "cb2c31eaa50d890d4db9c02377823c15bf1ae4d1d0ace8cb5e7d90294b6a2f6b",
    "lane_count_components": "4911d0062943f6eaf0213ec2af619d34bc8f72fd375c6e2c5ca43644f602da55",
    "batch_0": "5abdfec38b6b73f0865cfb11d8ff17ec681f0ba84cd92e55a2fd90a9b8cacad1",
    "batch_1": "e89839c085f5508936be4dd1e67953f5e00d6dbb7240ad59bb9bec194212f385",
}


def test_fixed_seed_reports_are_pinned(small_sim):
    y, design, W = small_sim["y"], small_sim["design"], small_sim["W"]
    config = McmcConfig(chains=2, burn_in=60, iters=60, seed=5)
    hot = y.copy()
    hot[0] = 20_000_000_000_000
    other, _ = simulate_dataset(generate_lattice(5), seed=43)
    reports = {
        "full": fit(y, design, W, ModelSpec(), config),
        "theta_only": fit(y, design, None, ModelSpec(include_phi=False), config),
        "fixed_tau_c": fit(y, design, W, ModelSpec(fixed_tau_c=2.0), config),
        "island_two_components": fit(
            np.array([3, 5, 4, 8, 6, 7, 2]),
            DesignMatrix(matrix=np.ones((7, 1)), labels=("intercept",)), island_weights(),
            ModelSpec(), config),
        "clamped": fit(hot, design, W, ModelSpec(), config),
        "lane_count_components": fit(
            np.array([3, 5, 4, 8, 6, 7, 2, 4, 9, 1]),
            DesignMatrix(matrix=np.column_stack([np.ones(10), np.linspace(-1.0, 1.0, 10)]),
                         labels=("intercept", "x")), lane_weights(), ModelSpec(), config),
    }
    batch = fit_batch([(y, design), (crash_counts(other), build_design(other))], W,
                      ModelSpec(), [config, replace(config, seed=6)])
    reports.update(batch_0=batch[0], batch_1=batch[1])
    assert reports["clamped"].clamp_events > 0
    assert reports["island_two_components"].island_count == 1
    lanes = reports["lane_count_components"]
    assert (lanes.component_count, lanes.island_count) == (4, 1)
    digests = {name: hashlib.sha256(rep.to_json().encode()).hexdigest()
               for name, rep in reports.items()}
    assert digests == PINNED_REPORTS

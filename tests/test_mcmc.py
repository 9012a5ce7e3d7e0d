import hashlib
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from tazcar.dataset import DesignMatrix, build_design, crash_counts
from tazcar.errors import ValidationError
from tazcar.mcmc import (
    McmcConfig,
    PosteriorReport,
    _prepare_spatial,
    _recenter,
    _refresh,
    _State,
    _Target,
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
from tazcar.model import GammaPrior, ModelSpec, _row_loglik
from tazcar.synth import default_truth, generate_lattice, simulate_dataset
from tazcar.weights import ADJACENCY, ProximityMatrix, ZoneTopology, build_weights


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
    target = _Target(y, [design.matrix] * 2, None, _prepare_spatial(W, n), ModelSpec(),
                     design.labels)
    phi = rng.normal(0.3, 0.5, size=(2, n))
    phi[:, target.inactive] = 0.0
    state = _State(rng.normal(0.5, 0.1, size=(2, p)), rng.normal(0.0, 0.2, size=(2, n)),
                   phi, np.full(2, 0.1), np.ones(2))
    _refresh(state, target)
    return target, state


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

    def test_recenter_zeroes_component_sums(self):
        # two components and an island: each component is centred on its own,
        # the island stays at zero and psi is recomputed from the parameters
        W = build_weights(ZoneTopology(7, ((0, 1, 1.0, 2), (1, 2, 1.0, 2), (3, 4, 1.0, 2),
                                           (4, 5, 1.0, 2), (3, 5, 1.0, 2))))
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


# sha256 of fit(...).to_json() for small fixed-seed fits, recorded before the
# sampler was split into block updaters.  A refactor must leave them as they
# are; a change that deliberately alters the random stream (a new proposal or
# block) re-records them and says so in CHANGES.md.
PINNED_REPORTS = {
    "full": "1d8eaf060a9bb4e747b5e8329242048ad8c34e4a3110d189677281e2b703aa01",
    "theta_only": "93279f6fe8472e964da0de6b9f78a28982805c790dd16b3ec013b8dcae780f56",
    "fixed_tau_c": "058c1f479a85606a4a98f19eb5094447ce07fa20f6d923d332885dcfc6ecdefd",
    "island_two_components": "fdadfb39bb2bc999505c43e0c7863bf9b977cc701ee1f122c96054c9b3915907",
    "clamped": "0aeb567314e36eaa884d5f250ffdf4da1c9441311df9a898dab6b88ed432e452",
    "batch_0": "1d8eaf060a9bb4e747b5e8329242048ad8c34e4a3110d189677281e2b703aa01",
    "batch_1": "8eb956de0999dae9213eff5c7b418757a2c65c3124fa3d02333af6f943ed1b8e",
}


def test_fixed_seed_reports_are_pinned(small_sim):
    y, design, W = small_sim["y"], small_sim["design"], small_sim["W"]
    config = McmcConfig(chains=2, burn_in=60, iters=60, seed=5)
    # zones 0-2 a path, 3-5 a triangle, zone 6 an island
    island_W = build_weights(ZoneTopology(7, ((0, 1, 1.0, 2), (1, 2, 1.0, 2), (3, 4, 1.0, 2),
                                              (4, 5, 1.0, 2), (3, 5, 1.0, 2))))
    hot = y.copy()
    hot[0] = 20_000_000_000_000
    other, _ = simulate_dataset(generate_lattice(5), seed=43)
    reports = {
        "full": fit(y, design, W, ModelSpec(), config),
        "theta_only": fit(y, design, None, ModelSpec(include_phi=False), config),
        "fixed_tau_c": fit(y, design, W, ModelSpec(fixed_tau_c=2.0), config),
        "island_two_components": fit(
            np.array([3, 5, 4, 8, 6, 7, 2]),
            DesignMatrix(matrix=np.ones((7, 1)), labels=("intercept",)), island_W,
            ModelSpec(), config),
        "clamped": fit(hot, design, W, ModelSpec(), config),
    }
    batch = fit_batch([(y, design), (crash_counts(other), build_design(other))], W,
                      ModelSpec(), [config, replace(config, seed=6)])
    reports.update(batch_0=batch[0], batch_1=batch[1])
    assert reports["clamped"].clamp_events > 0
    assert reports["island_two_components"].island_count == 1
    digests = {name: hashlib.sha256(rep.to_json().encode()).hexdigest()
               for name, rep in reports.items()}
    assert digests == PINNED_REPORTS

import json

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaln

from tazcar.errors import DomainError, ValidationError
from tazcar.dataset import DesignMatrix
from tazcar.mcmc import McmcConfig, _refresh, _State, _Target, fit
from tazcar.model import (
    GammaPrior,
    ModelSpec,
    NormalPrior,
    PSI_CLAMP,
    _car_log_ratio,
    _car_mean,
    _clamp,
    _gauss_log_ratio,
    _row_loglik,
    icar_log_density_kernel,
    icar_pairwise_sum,
    poisson_loglik,
)
from tazcar.weights import ADJACENCY, ProximityMatrix, ZoneTopology, build_weights


def path_matrix(n, weight=1.0):
    return ProximityMatrix(zone_count=n, mode=ADJACENCY,
                           triples=tuple((i, i + 1, weight) for i in range(n - 1)))


def make_design(x_rows):
    x = np.asarray(x_rows, dtype=float)
    labels = ["intercept"] + [f"x{j}" for j in range(1, x.shape[1])]
    return DesignMatrix(matrix=x, labels=tuple(labels))


def refreshed(beta, theta, phi, design):
    """psi, psic and lam of one chain as the sampler's refresh computes them."""
    spec = ModelSpec(include_phi=False)
    y = np.zeros((1, len(theta)))
    target = _Target(y, [design.matrix], None, None, spec, design.labels)
    state = _State(np.array([beta], dtype=float), np.array([theta], dtype=float),
                   np.array([phi], dtype=float), np.ones(1), np.ones(1))
    _refresh(state, target)
    return state.psi[0], state.psic[0], state.lam[0]


def car_means(phi, W):
    """CAR conditional means from the sampler's padded neighbour tables;
    zones in no coloring class (islands) come back as NaN."""
    out = np.full(W.zone_count, np.nan)
    for members, nbr, weight in W.coloring:
        rows = np.asarray(phi, dtype=float)[None]
        out[members] = _car_mean(rows, nbr, weight, W.row_sums[members])[0]
    return out


class TestLinearPredictor:
    def test_all_zero(self):
        psi, _, lam = refreshed([0.0, 0.0], [0.0], [0.0], make_design([[1.0, 0.0]]))
        assert psi[0] == 0.0 and lam[0] == 1.0

    def test_hand_case(self):
        psi, _, lam = refreshed([0.5, 0.25], [0.1], [-0.1], make_design([[1.0, 2.0]]))
        assert psi[0] == pytest.approx(1.0)
        assert lam[0] == pytest.approx(np.e)

    def test_theta_shift_is_linear(self):
        design = make_design([[1.0, 2.0], [1.0, 0.5]])
        psi_before, _, _ = refreshed([0.3, -0.2], [0.1, 0.2], [0.0, 0.0], design)
        psi_after, _, _ = refreshed([0.3, -0.2], [0.8, 0.9], [0.0, 0.0], design)
        np.testing.assert_allclose(psi_after - psi_before, 0.7)

    def test_clamp_flags_divergence(self):
        psi, psic, lam = refreshed([40.0], [0.0], [0.0], make_design([[1.0]]))
        assert psi[0] == 40.0 and psic[0] == PSI_CLAMP
        assert np.isfinite(lam[0])

    def test_dimension_mismatch(self):
        design = make_design([[1.0, 2.0], [1.0, 0.5], [1.0, 1.0]])
        with pytest.raises(ValidationError, match="does not match the design"):
            fit(np.array([1, 2]), design, None, ModelSpec(include_phi=False),
                McmcConfig(burn_in=5, iters=5))

    def test_clamp_psi_counts(self):
        assert _clamp(np.array([0.0, 31.0, -45.0])).tolist() == [0.0, PSI_CLAMP, -PSI_CLAMP]


class TestPoissonLoglik:
    @pytest.mark.parametrize("y,lam,expected", [
        (0, 1.0, -1.0),
        (1, 1.0, -1.0),
        (2, 3.0, 2 * np.log(3) - 3 - np.log(2)),
    ])
    def test_values(self, y, lam, expected):
        assert poisson_loglik(y, lam) == pytest.approx(expected)

    def test_rejects_bad_lambda(self):
        with pytest.raises(DomainError):
            poisson_loglik(1, 0.0)

    def test_rejects_negative_count(self):
        with pytest.raises(DomainError):
            poisson_loglik(-1, 1.0)

    def test_sampler_rows_match(self):
        # the sampler's per-row form agrees with the public one
        rng = np.random.default_rng(3)
        y = rng.poisson(4.0, size=(3, 12)).astype(float)
        psic = rng.normal(1.2, 0.5, size=(3, 12))
        lam = np.exp(psic)
        rows = _row_loglik(y, psic, lam, np.add.reduce(gammaln(y + 1.0), axis=1))
        for k in range(3):
            assert rows[k] == pytest.approx(poisson_loglik(y[k], lam[k]), rel=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 4.0, 10.0])
    def test_normalizes_to_one(self, lam):
        ys = np.arange(0, 200)
        total = sum(np.exp(poisson_loglik(y, lam)) for y in ys)
        assert total == pytest.approx(1.0, abs=1e-9)


class TestCarConditional:
    def test_single_neighbor(self):
        assert car_means([0.0, 0.5], path_matrix(2))[0] == pytest.approx(0.5)

    def test_two_equal_neighbors(self):
        assert car_means([0.2, 0.0, 0.4], path_matrix(3))[1] == pytest.approx(0.3)

    def test_weighted_neighbors(self):
        W = ProximityMatrix(zone_count=3, mode=ADJACENCY,
                            triples=((0, 1, 3.0), (1, 2, 1.0)))
        assert car_means([0.2, 0.0, 0.6], W)[1] == pytest.approx((3 * 0.2 + 1 * 0.6) / 4)

    def test_island_pinned(self):
        # an island is in no coloring class, so the sampler never moves it
        W = ProximityMatrix(zone_count=3, mode=ADJACENCY, triples=((0, 1, 1.0),))
        means = car_means([0.4, -0.4, 0.0], W)
        assert np.isnan(means[2])
        assert means[:2] == pytest.approx([-0.4, 0.4])

    def test_log_ratio_is_conditional_normal(self):
        # phi_i | rest ~ normal(mean, 1 / (tau w_i+))
        sd = np.sqrt(1.0 / (2.0 * 4.0))
        got = _car_log_ratio(np.array([[0.7]]), np.array([[0.2]]), np.array([[0.3]]),
                             np.array([[1.0]]), np.array([4.0]))
        want = stats.norm.logpdf(0.7, 0.3, sd) - stats.norm.logpdf(0.2, 0.3, sd)
        assert got[0, 0] == pytest.approx(want, rel=1e-12)


class TestNormalPriorRatio:
    def test_matches_log_density(self):
        got = _gauss_log_ratio(np.array([[0.9, -0.2]]), np.array([[0.1, 0.4]]), 0.5)
        sd = np.sqrt(0.5)
        want = (stats.norm.logpdf([0.9, -0.2], 0.0, sd)
                - stats.norm.logpdf([0.1, 0.4], 0.0, sd))
        np.testing.assert_allclose(got[0], want, rtol=1e-12)


class TestIcarKernel:
    def test_zero_field(self):
        W = path_matrix(4)
        value = icar_log_density_kernel(np.zeros(4), W, 2.0)
        assert value == pytest.approx(1.5 * np.log(2.0))

    def test_two_zone_pair(self):
        W = path_matrix(2)
        value = icar_log_density_kernel(np.array([0.5, -0.5]), W, 1.0)
        assert value == pytest.approx(-0.5)

    def test_four_zone_path(self):
        W = path_matrix(4)
        phi = np.array([-0.3, -0.1, 0.1, 0.3])
        value = icar_log_density_kernel(phi, W, 2.0)
        assert value == pytest.approx(1.5 * np.log(2) - 0.12, abs=1e-10)

    def test_constraint_enforced(self):
        W = path_matrix(3)
        with pytest.raises(DomainError, match="sum to zero"):
            icar_log_density_kernel(np.array([1.0, 1.0, 1.0]), W, 1.0)

    def test_translation_invariance_of_quadratic(self):
        rng = np.random.default_rng(0)
        topo = ZoneTopology(5, ((0, 1, 1.0, 2), (1, 2, 2.0, 2), (2, 3, 0.5, 2),
                                (3, 4, 1.5, 2), (0, 4, 1.0, 2)))
        W = build_weights(topo, "boundary_length")
        phi = rng.standard_normal(5)
        assert icar_pairwise_sum(phi, W) == pytest.approx(
            icar_pairwise_sum(phi + 3.7, W), rel=1e-12)

    def test_conditionals_match_kernel_derivatives(self):
        # The sampler's CAR mean (from the padded neighbour tables) and its
        # phi prior ratio must agree with the ICAR log density itself in each
        # coordinate, on random small weight structures.
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            pairs = []
            for i in range(n - 1):
                pairs.append((i, i + 1, float(rng.uniform(0.5, 3.0)), 2))
            if n > 3 and rng.random() < 0.7:
                pairs.append((0, n - 1, float(rng.uniform(0.5, 3.0)), 2))
            W = build_weights(ZoneTopology(n, tuple(pairs)), "boundary_length")
            tau = float(rng.uniform(0.5, 4.0))
            phi = rng.standard_normal(n)
            phi -= phi.mean()
            means = car_means(phi, W)
            for i in range(n):
                # the kernel is exactly quadratic in phi_i, so three points
                # recover its derivatives without truncation error

                def kernel_at(v):
                    p = phi.copy()
                    p[i] = v
                    return icar_log_density_kernel(p, W, tau, check_constraint=False)

                f0, fp, fm = kernel_at(0.0), kernel_at(1.0), kernel_at(-1.0)
                second = fp + fm - 2 * f0          # 2a of a*v^2 + b*v + c
                first = (fp - fm) / 2.0            # b
                # stationary point of the quadratic = conditional mean
                assert -first / second == pytest.approx(means[i], abs=1e-8)
                for v in (1.0, -1.0, 0.37):
                    ratio = _car_log_ratio(np.array([[v]]), np.array([[0.0]]),
                                           np.array([[means[i]]]), np.array([[tau / 2]]),
                                           W.row_sums[i:i + 1])
                    assert ratio[0, 0] == pytest.approx(kernel_at(v) - f0, abs=1e-8)


class TestModelSpec:
    def test_defaults(self):
        spec = ModelSpec()
        assert spec.sigma_theta_prior == GammaPrior(0.001, 0.001)
        assert spec.tau_c_prior == GammaPrior(0.1, 0.1)
        assert spec.default_coef_prior.variance == 1000.0

    def test_bad_prior(self):
        for make in (lambda: NormalPrior(0.0, 0.0), lambda: NormalPrior(float("nan"), 1.0),
                     lambda: NormalPrior("a", 1.0), lambda: GammaPrior(0.0, 1.0),
                     lambda: GammaPrior(1.0, float("inf"))):
            with pytest.raises(ValidationError):
                make()

    def test_json_round_trip(self, tmp_path):
        spec = ModelSpec(covariates=("access_density", "signal_density"),
                         coef_priors={"access_density": NormalPrior(0.1, 4.0)},
                         fixed_tau_c=2.0, include_theta=False)
        p = tmp_path / "spec.json"
        spec.to_json(p)
        spec2 = ModelSpec.from_json(p)
        assert spec2 == spec

    def test_field_names_stable(self, tmp_path):
        payload = json.loads(ModelSpec().to_json())
        expected = {"covariates", "include_pattern", "include_land_use", "standardize",
                    "offset_log_arterial_length", "default_coef_prior", "coef_priors",
                    "sigma_theta_prior", "tau_c_prior", "proximity_mode",
                    "include_theta", "include_phi", "fixed_tau_c", "fixed_sigma_theta2"}
        assert set(payload) == expected

    @pytest.mark.parametrize("field", ["include_pattern", "include_land_use", "standardize",
                                       "offset_log_arterial_length", "include_theta",
                                       "include_phi"])
    @pytest.mark.parametrize("value", ["no", -1, 0, 1, None, np.bool_(True)])
    def test_switch_must_be_a_bool(self, field, value):
        # a spec file's "no" or 0 is not read as a truth value
        with pytest.raises(ValidationError, match=f"{field} must be true or false"):
            ModelSpec(**{field: value})
        assert getattr(ModelSpec(**{field: False}), field) is False

    @pytest.mark.parametrize("field", ["fixed_tau_c", "fixed_sigma_theta2"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan"), 0.0, -1.0])
    def test_fixed_hyperparameter_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be finite and > 0"):
            ModelSpec(**{field: value})

    @pytest.mark.parametrize("field", ["fixed_tau_c", "fixed_sigma_theta2"])
    def test_json_infinity_rejected(self, tmp_path, field):
        p = tmp_path / "spec.json"
        p.write_text(f'{{"{field}": Infinity}}')
        with pytest.raises(ValidationError, match=rf"spec\.json: {field} must be finite"):
            ModelSpec.from_json(p)

    def test_invalid_json_rejected(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text("{not json")
        with pytest.raises(ValidationError, match="invalid JSON"):
            ModelSpec.from_json(p)

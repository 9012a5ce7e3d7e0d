import numpy as np
import pytest

from tazcar.errors import DomainError, ValidationError
from tazcar.evaluate import (
    alpha_spatial_share,
    compare_dic,
    deviance,
    dic,
    dic_verdict,
    percent_change,
    r_squared,
    render_comparison,
)
from tazcar.model import _alpha_share


class TestDeviance:
    @pytest.mark.parametrize("y,lam,expected", [
        ([0], [1.0], 2.0),
        ([1], [1.0], 2.0),
        ([2], [3.0], -2 * (2 * np.log(3) - 3 - np.log(2))),
    ])
    def test_values(self, y, lam, expected):
        assert deviance(y, lam) == pytest.approx(expected)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(DomainError):
            deviance([1], [0.0])

    def test_minimized_at_lambda_equals_y(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            y = rng.integers(1, 20, size=6)
            base = deviance(y, y.astype(float))
            for _ in range(5):
                lam = y + rng.uniform(-0.5, 0.5, size=6)
                lam = np.maximum(lam, 0.01)
                assert deviance(y, lam) >= base - 1e-9


class TestDic:
    def test_degenerate_trace(self):
        y = np.array([3, 5])
        lam = np.array([3.0, 5.0])
        d = deviance(y, lam)
        res = dic([d, d, d], y, lam)
        assert res.p_d == pytest.approx(0.0)
        assert res.dic == pytest.approx(res.d_bar)

    def test_two_iteration_arithmetic(self):
        # deviances 10 and 14 with D(mean) = 11: D_bar 12, p_D 1, DIC 13
        y = np.array([2])
        lam_at_mean = np.array([2.0])
        d_hat = deviance(y, lam_at_mean)
        trace = [d_hat + 1.0, d_hat + 3.0]
        res = dic(trace, y, lam_at_mean)
        assert res.d_bar == pytest.approx(d_hat + 2.0)
        assert res.p_d == pytest.approx(2.0)
        assert res.dic == pytest.approx(d_hat + 4.0)

    def test_negative_pd_flagged_not_fatal(self):
        y = np.array([4])
        lam = np.array([4.0])
        d_hat = deviance(y, lam)
        res = dic([d_hat - 1.0], y, lam)
        assert res.suspicious
        assert res.p_d < 0

    def test_empty_trace(self):
        with pytest.raises(ValidationError):
            dic([], np.array([1]), np.array([1.0]))


class TestCompareDic:
    def test_near_tie_is_equivalent(self):
        runs = {"m1": 1416.83, "m2": 1420.51, "m3": 1421.24}
        comparison = compare_dic(runs)
        assert [e["label"] for e in comparison["ranking"]] == ["m1", "m2", "m3"]
        assert all(p["verdict"] == "equivalent" for p in comparison["pairwise"])

    def test_decisive(self):
        comparison = compare_dic({"a": 100.0, "b": 112.0})
        assert comparison["pairwise"][0]["verdict"] == "decisive"

    def test_substantial(self):
        comparison = compare_dic({"a": 100.0, "b": 107.0})
        assert comparison["pairwise"][0]["verdict"] == "substantial"

    def test_verdict_boundaries(self):
        assert dic_verdict(4.99) == "equivalent"
        assert dic_verdict(5.0) == "substantial"
        assert dic_verdict(10.0) == "substantial"
        assert dic_verdict(10.01) == "decisive"

    def test_needs_two_runs(self):
        with pytest.raises(ValidationError):
            compare_dic({"only": 1.0})

    def test_render(self):
        comparison = compare_dic({"a": 100.0, "b": 112.0})
        text = render_comparison(comparison, {"a": {"d_bar": 90.0, "p_d": 10.0,
                                                    "r_squared": 0.7, "alpha": 0.8},
                                              "b": {"d_bar": 100.0, "p_d": 12.0,
                                                    "r_squared": 0.65, "alpha": None}})
        assert "decisive" in text
        assert "a" in text.splitlines()[1]


class TestRSquared:
    def test_perfect(self):
        assert r_squared([1, 2, 3], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_mean_predictor_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r_squared(y, np.full(3, y.mean())) == 0.0

    def test_hand_case(self):
        assert r_squared([1, 2, 3], [1.0, 2.0, 4.0]) == pytest.approx(0.5)

    def test_never_exceeds_one(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            y = rng.integers(0, 30, size=8)
            if np.ptp(y) == 0:
                continue
            yhat = rng.uniform(0, 30, size=8)
            assert r_squared(y, yhat) <= 1.0

    def test_constant_y_rejected(self):
        with pytest.raises(DomainError, match="constant"):
            r_squared([2, 2, 2], [1.0, 2.0, 3.0])


class TestAlpha:
    def test_equal_sds(self):
        theta = np.array([0.0, 1.0, 2.0])
        assert alpha_spatial_share(theta, theta + 5.0) == pytest.approx(0.5)

    def test_constant_phi_gives_zero(self):
        assert alpha_spatial_share([0.0, 1.0, 2.0], [3.0, 3.0, 3.0]) == 0.0

    def test_three_to_one(self):
        theta = np.array([-1.0, 0.0, 1.0])
        assert alpha_spatial_share(theta, 3.0 * theta) == pytest.approx(0.75)

    def test_undefined_when_both_flat(self):
        assert alpha_spatial_share([1.0, 1.0], [2.0, 2.0]) is None

    def test_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            a = alpha_spatial_share(rng.standard_normal(6), rng.standard_normal(6))
            assert 0.0 <= a <= 1.0

    def test_trace_marks_undefined_as_nan(self):
        # the sampler's per-draw kernel: one row per draw
        theta = np.array([[0.0, 1.0], [1.0, 1.0]])
        phi = np.array([[2.0, 0.0], [3.0, 3.0]])
        out = _alpha_share(theta, phi)
        assert out[0] == pytest.approx(2.0 / 3.0)
        assert np.isnan(out[1])
        assert np.isnan(_alpha_share(np.ones((2, 1)), np.zeros((2, 1)))).all()


class TestPercentChange:
    @pytest.mark.parametrize("beta,expected", [
        (0.443, 0.5574), (0.107, 0.1129), (0.314, 0.3689),
    ])
    def test_reference_effects(self, beta, expected):
        assert percent_change(beta) == pytest.approx(expected, abs=5e-5)

    def test_zero(self):
        assert percent_change(0.0) == 0.0

    def test_monotone(self):
        xs = np.linspace(-2, 2, 41)
        vals = [percent_change(x) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            percent_change(float("inf"))

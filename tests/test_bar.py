import numpy as np
import pytest

from barlineage import (
    BarModel,
    GwModel,
    ObservationTree,
    ReproductionLaw,
    ValueTree,
    asymptotic_covariance,
    coefficient_test,
    estimate_bar,
    fixed_point_test,
    ls_estimate,
    replica_stream,
    residual_noise_estimates,
    simulate_bar_values,
    simulate_observation_tree,
    sufficient_stats,
)
from barlineage.bar import BarEstimate, SufficientStats
from barlineage.errors import DegenerateVariance, NearUnitRoot, SingularDesign

from conftest import (
    brute_noise,
    brute_sandwich,
    brute_sufficient_stats,
    random_tree,
    random_values,
)

P0 = ReproductionLaw(0.04, 0.08, 0.08, 0.8)
ZERO_NOISE = BarModel(1.0, 0.5, 2.0, 0.25, 0.0, 0.0)


def full_tree(depth):
    return ObservationTree.from_indices(depth, range(1, 1 << (depth + 1)))


class TestBarModel:
    def test_rejects_unstable(self):
        with pytest.raises(ValueError):
            BarModel(0.0, 1.0, 0.0, 0.5, 1.0, 0.0)
        with pytest.raises(ValueError):
            BarModel(0.0, 0.0, 0.0, 0.0, 1.0, 0.0)

    def test_rejects_invalid_noise(self):
        with pytest.raises(ValueError):
            BarModel(0.0, 0.5, 0.0, 0.5, 1.0, 1.5)

    def test_fixed_points(self):
        m = BarModel(0.5, 0.5, 0.5, 0.4, 1.0, 0.0)
        assert m.fixed_point_even == pytest.approx(1.0)
        assert m.fixed_point_odd == pytest.approx(0.5 / 0.6)


class TestSimulateBarValues:
    def test_zero_noise_hand_iteration(self):
        v = simulate_bar_values(ZERO_NOISE, 2, 2.0, replica_stream(0))
        assert v.x[1:8].tolist() == [2.0, 2.0, 2.5, 2.0, 2.5, 2.25, 2.625]

    def test_perfectly_correlated_noise_gives_identical_sisters(self):
        m = BarModel(0.0, 0.1, 0.0, 0.1, 1.0, 1.0)
        v = simulate_bar_values(m, 6, 0.0, replica_stream(3))
        k = np.arange(1, 1 << 6)
        assert np.array_equal(v.x[2 * k], v.x[2 * k + 1])

    def test_deterministic_under_fixed_seed(self):
        m = BarModel(0.5, 0.5, 0.5, 0.4, 1.0, 0.5)
        a = simulate_bar_values(m, 5, 1.0, replica_stream(9, 1))
        b = simulate_bar_values(m, 5, 1.0, replica_stream(9, 1))
        assert np.array_equal(a.x, b.x)

    @pytest.mark.slow
    def test_mean_converges_to_fixed_point(self):
        # a = c, b = d: one AR fixed point a/(1-b) = 1
        m = BarModel(0.5, 0.5, 0.5, 0.5, 1.0, 0.0)
        means = []
        for r in range(200):
            v = simulate_bar_values(m, 11, m.fixed_point_odd, replica_stream(21, r))
            means.append(v.x[1 << 11 :].mean())
        se = np.std(means) / np.sqrt(len(means))
        assert abs(np.mean(means) - 1.0) <= 3 * se + 1e-12


class TestSufficientStats:
    def test_complete_depth1_single_mother(self):
        tree = full_tree(1)
        v = ValueTree(1, np.array([0.0, 3.0, 1.0, 2.0]))
        s = sufficient_stats(v, tree)
        assert np.allclose(s.s0, [[1.0, 3.0], [3.0, 9.0]])
        assert np.allclose(s.s0, s.s1)
        assert np.allclose(s.s0, s.s01)
        assert np.allclose(s.rhs, [1.0, 3.0, 2.0, 6.0])

    def test_no_odd_daughters(self):
        tree = ObservationTree.from_indices(2, {1, 2, 4})
        v = random_values(2, np.random.default_rng(0))
        s = sufficient_stats(v, tree)
        assert (s.s1 == 0).all()
        assert s.rhs[2] == 0 and s.rhs[3] == 0

    def test_matches_brute_force(self, rng):
        for _ in range(25):
            depth = int(rng.integers(2, 5))
            tree = random_tree(depth, rng)
            v = random_values(depth, rng)
            s = sufficient_stats(v, tree)
            s0, s1, s01, rhs = brute_sufficient_stats(v, tree)
            assert np.abs(s.s0 - s0).max() < 1e-12
            assert np.abs(s.s1 - s1).max() < 1e-12
            assert np.abs(s.s01 - s01).max() < 1e-12
            assert np.abs(s.rhs - rhs).max() < 1e-12

    def test_s01_dominated_by_each_type(self, rng):
        tree = random_tree(4, rng)
        v = random_values(4, rng)
        s = sufficient_stats(v, tree)
        assert s.s01[0, 0] <= s.s0[0, 0] and s.s01[0, 0] <= s.s1[0, 0]
        assert s.s01[1, 1] <= s.s0[1, 1] + 1e-12
        assert s.s01[1, 1] <= s.s1[1, 1] + 1e-12

    def test_counts(self):
        tree = ObservationTree.from_indices(2, {1, 2, 3, 6, 7})
        v = random_values(2, np.random.default_rng(1))
        s = sufficient_stats(v, tree)
        assert s.counts == (3, 2, 5)


class TestLsEstimate:
    def test_zero_noise_exact_recovery(self):
        tree = full_tree(2)
        v = simulate_bar_values(ZERO_NOISE, 2, 2.0, replica_stream(0))
        theta = ls_estimate(sufficient_stats(v, tree))
        assert np.abs(theta - [1.0, 0.5, 2.0, 0.25]).max() < 1e-10

    def test_zero_noise_recovery_with_missingness(self, rng):
        for seed in range(10):
            stream = replica_stream(55, seed)
            tree = simulate_observation_tree(GwModel(P0, P0), 6, stream)
            if tree.counts().extinct:
                continue
            v = simulate_bar_values(ZERO_NOISE, 6, 1.7, stream)
            theta = ls_estimate(sufficient_stats(v, tree))
            assert np.abs(theta - [1.0, 0.5, 2.0, 0.25]).max() < 1e-10

    def test_single_mother_is_singular(self):
        tree = full_tree(1)
        v = ValueTree(1, np.array([0.0, 3.0, 1.0, 2.0]))
        with pytest.raises(SingularDesign):
            ls_estimate(sufficient_stats(v, tree))

    @pytest.mark.slow
    def test_monte_carlo_consistency(self):
        model = BarModel(0.5, 0.5, 0.5, 0.5, 1.0, 0.5)
        gw_model = GwModel(P0, P0)
        errs = []
        for r in range(200):
            stream = replica_stream(88, r)
            tree = simulate_observation_tree(gw_model, 11, stream)
            if tree.counts().extinct:
                continue
            v = simulate_bar_values(model, 11, 1.0, stream)
            theta = ls_estimate(sufficient_stats(v, tree))
            errs.append(np.abs(theta - 0.5).max())
        errs = np.asarray(errs)
        # the intercept estimates dominate the sup error; at this depth
        # their replica-to-replica 95th percentile sits near 0.14
        assert np.median(errs) <= 0.1
        assert np.mean(errs <= 0.15) >= 0.95


class TestResidualNoise:
    def test_zero_noise_exact_theta(self):
        tree = full_tree(3)
        v = simulate_bar_values(ZERO_NOISE, 3, 2.0, replica_stream(0))
        noise = residual_noise_estimates(v, tree, [1.0, 0.5, 2.0, 0.25])
        assert noise.sigma2_hat == pytest.approx(0.0, abs=1e-24)
        assert noise.rho_hat == pytest.approx(0.0, abs=1e-24)

    def test_hand_built_seven_cell_tree(self):
        tree = full_tree(2)
        x = np.array([0.0, 1.0, 2.0, -1.0, 0.5, 3.0, 1.0, -2.0])
        v = ValueTree(2, x)
        theta = [0.2, 0.3, -0.1, 0.6]
        noise = residual_noise_estimates(v, tree, theta)
        s2, rho, _ = brute_noise(v, tree, theta)
        assert noise.sigma2_hat == pytest.approx(s2, abs=1e-12)
        assert noise.rho_hat == pytest.approx(rho, abs=1e-12)

    def test_matches_brute_force_random(self, rng):
        for _ in range(25):
            depth = int(rng.integers(2, 5))
            tree = random_tree(depth, rng)
            v = random_values(depth, rng)
            theta = rng.normal(size=4)
            noise = residual_noise_estimates(v, tree, theta)
            s2, rho, _ = brute_noise(v, tree, theta)
            assert noise.sigma2_hat == pytest.approx(s2, abs=1e-12)
            assert noise.rho_hat == pytest.approx(rho, abs=1e-12)

    def test_no_sister_pairs_flag(self):
        tree = ObservationTree.from_indices(2, {1, 2, 4})
        v = random_values(2, np.random.default_rng(2))
        noise = residual_noise_estimates(v, tree, [0.0, 0.1, 0.0, 0.1])
        assert noise.no_sister_pairs
        assert noise.rho_hat == 0.0

    @pytest.mark.slow
    def test_perfectly_correlated_noise_recovered(self):
        model = BarModel(0.5, 0.5, 0.5, 0.5, 1.0, 1.0)
        s2s, rhos = [], []
        for r in range(50):
            stream = replica_stream(31, r)
            tree = simulate_observation_tree(GwModel(P0, P0), 11, stream)
            if tree.counts().extinct:
                continue
            v = simulate_bar_values(model, 11, 1.0, stream)
            theta = ls_estimate(sufficient_stats(v, tree))
            noise = residual_noise_estimates(v, tree, theta)
            s2s.append(noise.sigma2_hat)
            rhos.append(noise.rho_hat)
        assert np.mean(rhos) == pytest.approx(np.mean(s2s), rel=0.1)


class TestAsymptoticCovariance:
    def test_zero_rho_block_diagonal(self, rng):
        tree = random_tree(4, rng)
        v = random_values(4, rng)
        s = sufficient_stats(v, tree)
        c = asymptotic_covariance(s, 2.0, 0.0)
        t = s.counts[0]
        expected = np.zeros((4, 4))
        expected[:2, :2] = t * 2.0 * np.linalg.inv(s.s0)
        expected[2:, 2:] = t * 2.0 * np.linalg.inv(s.s1)
        assert np.abs(c - expected).max() < 1e-8

    def test_zero_noise_gives_zero(self, rng):
        tree = random_tree(4, rng)
        v = random_values(4, rng)
        c = asymptotic_covariance(sufficient_stats(v, tree), 0.0, 0.0)
        assert (c == 0).all()

    def test_matches_matrix_product_oracle(self):
        rng = np.random.default_rng(7)
        tree = full_tree(2)  # 7 cells
        v = random_values(2, rng)
        s = sufficient_stats(v, tree)
        c = asymptotic_covariance(s, 1.3, 0.4)
        oracle = brute_sandwich(s.s0, s.s1, s.s01, s.counts[0], 1.3, 0.4)
        assert np.abs(c - oracle).max() < 1e-9

    def test_symmetric(self, rng):
        tree = random_tree(5, rng)
        v = random_values(5, rng)
        s = sufficient_stats(v, tree)
        c = asymptotic_covariance(s, 1.0, 0.5)
        assert np.abs(c - c.T).max() <= 1e-10 * np.abs(c).max()


def make_estimate(theta, cov, t=100, sigma2=1.0, rho=0.0):
    return BarEstimate(np.asarray(theta, float), sigma2, rho, np.asarray(cov, float), (t, t // 2, 2 * t))


class TestCoefficientTest:
    def test_equal_pairs_give_zero_statistic(self):
        est = make_estimate([0.5, 0.5, 0.5, 0.5], np.eye(4))
        rep = coefficient_test(est)
        assert rep.statistic == pytest.approx(0.0)
        assert rep.p_value == pytest.approx(1.0)
        assert rep.df == 2

    def test_swap_invariance(self, rng):
        a = rng.normal(size=(4, 4))
        cov = a @ a.T + np.eye(4)
        theta = np.array([0.3, 0.5, 0.1, 0.4])
        swap = np.zeros((4, 4))
        swap[0, 2] = swap[1, 3] = swap[2, 0] = swap[3, 1] = 1.0
        est = make_estimate(theta, cov)
        est_swapped = make_estimate(swap @ theta, swap @ cov @ swap.T)
        assert coefficient_test(est_swapped).statistic == pytest.approx(
            coefficient_test(est).statistic, rel=1e-10
        )

    def test_degenerate_variance(self):
        est = make_estimate([0.1, 0.2, 0.3, 0.4], np.zeros((4, 4)))
        with pytest.raises(DegenerateVariance):
            coefficient_test(est)


class TestFixedPointTest:
    def test_equal_fixed_points_give_zero(self):
        est = make_estimate([0.5, 0.5, 0.5, 0.5], np.eye(4))
        rep = fixed_point_test(est)
        assert rep.statistic == pytest.approx(0.0)
        assert rep.p_value == pytest.approx(1.0)
        assert rep.df == 1

    def test_published_alternative_difference(self):
        est = make_estimate([0.5, 0.5, 0.5, 0.4], np.eye(4))
        rep = fixed_point_test(est)
        assert rep.estimates["diff"] == pytest.approx(1.0 - 0.5 / 0.6)
        assert rep.estimates["diff"] == pytest.approx(1.0 / 6.0)

    def test_near_unit_root_guard(self):
        est = make_estimate([0.5, 1.0 - 1e-12, 0.5, 0.4], np.eye(4))
        with pytest.raises(NearUnitRoot):
            fixed_point_test(est)

    def test_degenerate_variance(self):
        est = make_estimate([0.5, 0.5, 0.5, 0.4], np.zeros((4, 4)))
        with pytest.raises(DegenerateVariance):
            fixed_point_test(est)


class TestEndToEndProperties:
    @staticmethod
    def simulate_pair(seed, depth=8, model=None):
        model = model or BarModel(0.4, 0.3, 0.7, 0.5, 1.0, 0.5)
        stream = replica_stream(seed)
        tree = simulate_observation_tree(GwModel(P0, P0), depth, stream)
        assert not tree.counts().extinct
        v = simulate_bar_values(model, depth, 1.0, stream)
        return tree, v

    def test_reflection_invariance(self):
        tree, v = self.simulate_pair(2024)
        est = estimate_bar(v, tree)
        est_r = estimate_bar(v.reflect(), tree.reflect())
        # reflection swaps the roles of the even/odd coefficient pairs
        assert np.abs(est_r.theta - est.theta[[2, 3, 0, 1]]).max() < 1e-10
        assert coefficient_test(est_r).statistic == pytest.approx(
            coefficient_test(est).statistic, rel=1e-10
        )
        assert fixed_point_test(est_r).statistic == pytest.approx(
            fixed_point_test(est).statistic, rel=1e-10
        )

    def test_location_equivariance(self):
        tree, v = self.simulate_pair(4048)
        mu = 2.5
        est = estimate_bar(v, tree)
        shifted = estimate_bar(ValueTree(v.depth, v.x + mu), tree)
        a, b, c, d = est.theta
        a2, b2, c2, d2 = shifted.theta
        assert b2 == pytest.approx(b, abs=1e-9)
        assert d2 == pytest.approx(d, abs=1e-9)
        assert a2 == pytest.approx(a + mu * (1 - b), abs=1e-9)
        assert c2 == pytest.approx(c + mu * (1 - d), abs=1e-9)
        # both fixed points shift by exactly mu, so their difference is invariant
        rep, rep2 = fixed_point_test(est), fixed_point_test(shifted)
        assert rep2.estimates["diff"] == pytest.approx(rep.estimates["diff"], abs=1e-9)

    def test_statistics_nonnegative(self):
        for seed in range(2100, 2110):
            tree, v = self.simulate_pair(seed)
            est = estimate_bar(v, tree)
            assert coefficient_test(est).statistic >= 0.0
            assert fixed_point_test(est).statistic >= 0.0

    @pytest.mark.slow
    def test_sandwich_matches_empirical_variance(self):
        # full observation, rho = 0: C should track the empirical
        # replica-to-replica variance of theta_hat
        model = BarModel(0.5, 0.5, 0.5, 0.5, 1.0, 0.0)
        tree = full_tree(8)
        thetas, diags = [], []
        for r in range(500):
            v = simulate_bar_values(model, 8, 1.0, replica_stream(61, r))
            est = estimate_bar(v, tree)
            thetas.append(est.theta)
            diags.append(np.diag(est.cov) / est.counts[0])
        empirical = np.var(np.array(thetas), axis=0)
        predicted = np.mean(np.array(diags), axis=0)
        ratio = predicted / empirical
        assert ((ratio > 0.7) & (ratio < 1.4)).all()

import copy

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from barlineage import (
    BarModel,
    GwModel,
    ObservationTree,
    ReproductionLaw,
    ValueTree,
    asymptotic_covariance,
    coefficient_test,
    estimate_bar,
    estimate_reproduction,
    fixed_point_test,
    ls_estimate,
    replica_stream,
    residual_noise_estimates,
    simulate_bar_values,
    simulate_observation_tree,
    sufficient_stats,
)
from barlineage.bar import BarEstimate, SufficientStats
from barlineage.errors import (
    DegenerateVariance,
    DepthError,
    IndexOutOfRange,
    NearUnitRoot,
    SingularDesign,
    StatError,
)
from barlineage.numerics import MAX_COND, VARIANCE_FLOOR

from conftest import (
    brute_noise,
    brute_sandwich,
    brute_simulate_bar_values,
    brute_sufficient_stats,
    coefficient_covariance,
    lapack_coefficient_statistic,
    lapack_estimate,
    overflowing_leaves,
    presence_arrays,
    random_tree,
    random_values,
    tree_of,
)

P0 = ReproductionLaw(0.04, 0.08, 0.08, 0.8)
ZERO_NOISE = BarModel(1.0, 0.5, 2.0, 0.25, 0.0, 0.0)


def full_tree(depth):
    return ObservationTree.from_indices(depth, range(1, 1 << (depth + 1)))


def _array_holders():
    tree = full_tree(3)
    values = simulate_bar_values(BarModel(0.5, 0.5, 0.5, 0.4, 1.0, 0.5), 3, 1.0,
                                 replica_stream(5))
    return {
        "ValueTree": values,
        "ObservedCounts": tree.counts(),
        "SufficientStats": sufficient_stats(values, tree),
        "ReproductionEstimate": estimate_reproduction(tree),
        "BarEstimate": estimate_bar(values, tree),
    }


@pytest.mark.parametrize("name", sorted(_array_holders()))
def test_array_holders_compare_by_identity(name):
    # the dataclass __eq__ would compare numpy arrays element-wise and raise
    obj = _array_holders()[name]
    assert type(obj).__name__ == name
    assert obj == obj
    assert obj != copy.deepcopy(obj)


class TestBarModel:
    def test_rejects_unstable(self):
        with pytest.raises(ValueError):
            BarModel(0.0, 1.0, 0.0, 0.5, 1.0, 0.0)
        with pytest.raises(ValueError):
            BarModel(0.0, 0.0, 0.0, 0.0, 1.0, 0.0)

    def test_rejects_invalid_noise(self):
        with pytest.raises(ValueError):
            BarModel(0.0, 0.5, 0.0, 0.5, 1.0, 1.5)

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError, match="sigma2 must be >= 0, got -1.0"):
            BarModel(0.0, 0.5, 0.0, 0.5, -1.0, 0.0)

    @pytest.mark.parametrize("i", range(6))
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, i, bad):
        params = [0.5, 0.5, 0.5, 0.4, 1.0, 0.5]
        params[i] = bad
        with pytest.raises(ValueError, match="must be finite"):
            BarModel(*params)

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

    @pytest.mark.parametrize("depth", [0, 40])
    def test_depth_outside_range_raises_before_allocating(self, depth):
        # a depth-40 trait array would take 16 TiB
        with pytest.raises(DepthError):
            simulate_bar_values(ZERO_NOISE, depth, 1.0, replica_stream(0))

    def test_deterministic_under_fixed_seed(self):
        m = BarModel(0.5, 0.5, 0.5, 0.4, 1.0, 0.5)
        a = simulate_bar_values(m, 5, 1.0, replica_stream(9, 1))
        b = simulate_bar_values(m, 5, 1.0, replica_stream(9, 1))
        assert np.array_equal(a.x, b.x)

    @settings(max_examples=60, deadline=None)
    @given(
        depth=st.integers(1, 11),
        sigma2=st.sampled_from([0.0]) | st.floats(0.01, 10.0),
        rho_frac=st.floats(-1.0, 1.0),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_matches_generation_loop(self, depth, sigma2, rho_frac, seed):
        # the whole-tree draw keeps the per-generation stream layout:
        # the same traits bit for bit, and the stream left at the same place
        model = BarModel(0.4, 0.3, -0.7, 0.6, sigma2, rho_frac * sigma2)
        ours, brute = replica_stream(seed, depth), replica_stream(seed, depth)
        v = simulate_bar_values(model, depth, 1.3, ours)
        x = brute_simulate_bar_values(model, depth, 1.3, brute)
        assert v.x.tobytes() == x.tobytes()
        assert ours.random() == brute.random()

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


class TestValueTree:
    def test_listed_traits_follow_the_tree(self):
        tree = ObservationTree.from_indices(2, {1, 2, 3, 6, 7})
        v = ValueTree(2, np.array([1.0, 2.0, 3.0, 4.0, 6.0, 7.0]), np.array([1, 2, 3, 4, 6, 7]))
        assert v.observed(tree).tolist() == [1.0, 2.0, 3.0, 6.0, 7.0]
        with pytest.raises(ValueError, match="no trait for observed cell 6"):
            ValueTree(2, np.array([1.0, 2.0, 3.0]), np.array([1, 2, 3])).observed(tree)
        with pytest.raises(ValueError, match="no trait for observed cell 7"):
            ValueTree(2, np.arange(1.0, 7.0), np.arange(1, 7)).observed(tree)

    @pytest.mark.parametrize("x,labels,match", [
        (np.zeros(7), None, r"x must have length 2\^\(depth\+1\) = 8"),
        (np.zeros(9), None, r"x must have length 2\^\(depth\+1\) = 8"),
        (np.zeros(2), np.array([1, 2, 3]), "x must hold one trait per label"),
        (np.zeros((1, 3)), np.array([1, 2, 3]), "x must hold one trait per label"),
    ], ids=["short-full-tree", "long-full-tree", "fewer-traits", "2-d-traits"])
    def test_traits_fit_their_cells(self, x, labels, match):
        with pytest.raises(ValueError, match=match):
            ValueTree(2, x, labels)

    def test_observed_needs_the_same_depth(self):
        tree = ObservationTree.from_indices(3, {1, 2, 3})
        for values in (ValueTree(2, np.zeros(8)), ValueTree(2, np.zeros(3), np.array([1, 2, 3]))):
            with pytest.raises(ValueError, match="must share the same depth"):
                values.observed(tree)

    def test_labels_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            ValueTree(1, np.zeros(3), np.array([1, 3, 2]))

    @pytest.mark.parametrize("labels,bad", [([0, 5, 7], 0), ([1, 5, 8], 8), ([0, 5, 100], 0)])
    def test_labels_inside_the_tree(self, labels, bad):
        with pytest.raises(IndexOutOfRange) as exc:
            ValueTree(2, np.zeros(3), labels)
        assert exc.value.k == bad


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
        for depth in (2, 5):  # chains of even daughters: 1, 2, 4, ...
            tree = ObservationTree.from_indices(depth, [1 << g for g in range(depth + 1)])
            v = random_values(depth, np.random.default_rng(0))
            s = sufficient_stats(v, tree)
            assert (s.s1 == 0).all()
            assert s.rhs[2] == 0 and s.rhs[3] == 0
            # only the odd block is singular, and only a fit reads it
            with pytest.raises(SingularDesign) as exc:
                ls_estimate(s)
            assert exc.value.cell_type == 1

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
        with pytest.raises(SingularDesign) as exc:
            ls_estimate(sufficient_stats(v, tree))
        assert exc.value.cell_type == 0  # both blocks are singular: block 0 is named

    def test_infinite_moment_is_singular(self):
        # det = 2 * inf is inf: only the finiteness bound rejects it
        s = SufficientStats(np.array([[2.0, 0.0], [0.0, np.inf]]), 3.0 * np.eye(2),
                            np.eye(2), np.zeros(4), (3, 1, 5))
        with pytest.raises(SingularDesign) as exc:
            ls_estimate(s)
        assert exc.value.cell_type == 0 and exc.value.cond == np.inf

    def test_design_inverse_matches_each_block(self, rng):
        tree = random_tree(5, rng)
        s = sufficient_stats(random_values(5, rng), tree)
        assert s.design_inverse.shape == (2, 2, 2)
        for inv, block in zip(s.design_inverse, (s.s0, s.s1)):
            ref = np.linalg.inv(block)
            assert np.abs(inv - ref).max() <= 1e-13 * np.abs(ref).max()
        assert s.design_inverse is s.design_inverse  # computed once

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

    def test_non_finite_covariance_is_degenerate(self):
        tree, values = overflowing_leaves()
        with np.errstate(all="ignore"):
            est = estimate_bar(values, tree)
            with pytest.raises(DegenerateVariance):
                coefficient_test(est)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_is_degenerate(self, bad):
        cov = np.eye(4)
        cov[0, 0] = bad
        with np.errstate(all="ignore"), pytest.raises(DegenerateVariance):
            coefficient_test(make_estimate([0.1, 0.2, 0.3, 0.4], cov))

    def test_variance_at_the_floor_is_degenerate(self):
        # an exact fit leaves a covariance of roundoff size: the same
        # floor as the other two tests applies, not a p-value of 0
        est = make_estimate([0.1, 0.2, 0.3, 0.4], 1e-30 * np.eye(4))
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

    def test_non_finite_variance_is_degenerate(self):
        tree, values = overflowing_leaves()
        with np.errstate(all="ignore"):
            est = estimate_bar(values, tree)
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


def _outcome(f, *args):
    """f(*args), or the StatError it raises."""
    try:
        return f(*args)
    except StatError as exc:
        return exc


def _kind(outcome):
    """The StatError class of an outcome, None for a value."""
    return type(outcome) if isinstance(outcome, StatError) else None


# the closed-form and SVD condition numbers of one shifted design differ
# by up to 6e-6 relative near MAX_COND, so a decision this close to a
# bound may go either way
BOUNDARY = 1e-4


def _near(x, bound):
    return abs(x / bound - 1.0) <= BOUNDARY


class TestClosedFormsMatchLapack:
    """The 2x2 closed forms against LAPACK inversion (conftest's lapack_*).

    Both lose about log10(cond) digits of the design blocks, each to its
    own roundoff, so values agree to 1e-12 relative on well-conditioned
    designs and to a bound that grows with the condition number beyond.
    """

    @staticmethod
    def tolerance(stats):
        cond = max(np.linalg.cond(stats.s0), np.linalg.cond(stats.s1))
        return max(1e-12, 64 * np.finfo(float).eps * cond)

    @staticmethod
    def values(tree, seed, log_cond=None):
        """Normal traits; with ``log_cond``, shifted so that the type-0
        mothers have mean beta, which makes that design's condition
        number about beta^4 / variance = 10^log_cond."""
        x = np.random.default_rng(seed).normal(size=1 << (tree.depth + 1))
        if log_cond is not None:
            xm0 = x[tree.observed_indices()[tree.observed_indices() % 2 == 0] // 2]
            x += (10.0 ** log_cond * xm0.var()) ** 0.25 - xm0.mean()
        return ValueTree(tree.depth, x)

    @settings(max_examples=150, deadline=None)
    @given(
        tree=presence_arrays(min_depth=2, max_depth=7),
        seed=st.integers(0, 2**32 - 1),
        log_cond=st.none() | st.floats(10.0, 14.0),
    )
    def test_same_outcomes_and_values(self, tree, seed, log_cond):
        tree = tree_of(*tree)
        # at most two daughters of a type fit exactly: the noise estimate
        # is then roundoff, and so is every decision against the floor
        odd = tree.observed_indices()[1:] % 2
        assume(3 <= odd.sum() <= odd.size - 3)
        values = self.values(tree, seed, log_cond)
        stats = sufficient_stats(values, tree)
        ref = _outcome(lapack_estimate, values, tree)
        est = _outcome(estimate_bar, values, tree)
        if any(_near(np.linalg.cond(m), MAX_COND) for m in (stats.s0, stats.s1)):
            return
        assert _kind(est) == _kind(ref)
        if isinstance(ref, SingularDesign):
            assert est.cell_type == ref.cell_type
            return
        tol = self.tolerance(stats)
        assert np.abs(est.theta - ref.theta).max() <= tol * np.abs(ref.theta).max()
        assert np.abs(est.cov - ref.cov).max() <= tol * np.abs(ref.cov).max()

        eigs = np.linalg.eigvalsh(coefficient_covariance(ref.cov))
        pairs = [
            (coefficient_test, lapack_coefficient_statistic, eigs[0] > 0 and (
                _near(eigs[0], VARIANCE_FLOOR) or _near(eigs[1] / eigs[0], MAX_COND))),
            (fixed_point_test, lambda e: fixed_point_test(e).statistic, False),
        ]
        for test, reference, near_bound in pairs:
            got, want = _outcome(test, est), _outcome(reference, ref)
            if near_bound:
                continue
            assert _kind(got) == _kind(want)
            if _kind(want) is None:
                # relative, and absolute below 1: a statistic near 0 is a
                # difference that cancels
                assert abs(got.statistic - want) <= tol * (1.0 + want)

    def test_design_bound_matches_svd(self):
        tree = full_tree(4)
        kinds = set()
        for log_cond in np.linspace(11.99, 12.01, 41):
            values = self.values(tree, 3, log_cond)
            stats = sufficient_stats(values, tree)
            cond = np.linalg.cond(stats.s0)
            if _near(cond, MAX_COND):
                continue
            est = _outcome(estimate_bar, values, tree)
            assert isinstance(est, SingularDesign) == (cond > MAX_COND), cond
            kinds.add(type(est))
        assert kinds == {BarEstimate, SingularDesign}

    @pytest.mark.parametrize("lmax,lmin", [
        (1.0, 1.0 / np.logspace(11.99, 12.01, 41)),
        (1e-9, VARIANCE_FLOOR * np.logspace(-0.01, 0.01, 41)),
    ], ids=["MAX_COND", "VARIANCE_FLOOR"])
    def test_coefficient_bounds_match_eigvalsh(self, lmax, lmin):
        c, s = np.cos(0.3), np.sin(0.3)
        rot = np.array([[c, -s], [s, c]])
        kinds = set()
        for lo in lmin:
            # C00 alone: the covariance of (a - c, b - d) is this block
            cov = np.zeros((4, 4))
            cov[:2, :2] = rot @ np.diag([lmax, lo]) @ rot.T
            eigs = np.linalg.eigvalsh(cov[:2, :2])
            if _near(eigs[0], VARIANCE_FLOOR) or _near(eigs[1] / eigs[0], MAX_COND):
                continue
            est = make_estimate([0.1, 0.2, 0.3, 0.4], cov)
            got, want = _outcome(coefficient_test, est), _outcome(lapack_coefficient_statistic, est)
            assert _kind(got) == _kind(want), lo
            kinds.add(_kind(got))
        assert kinds == {None, DegenerateVariance}

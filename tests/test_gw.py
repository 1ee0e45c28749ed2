import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barlineage import (
    GwModel,
    ObservationTree,
    ReproductionLaw,
    dominant_eigen,
    estimate_reproduction,
    gw_mean_test,
    reproduction_covariance,
    simulate_observation_tree,
    replica_stream,
)
from barlineage.errors import (
    DegenerateTypeProportion,
    DegenerateVariance,
    DepthError,
    InsufficientData,
    NotPositive,
)
from barlineage.gw import MEAN_DIFF_GRADIENT, ReproductionEstimate
from barlineage.tree import Forest, ObservedCounts

from conftest import brute_reproduction, brute_simulate_observation_tree, observation_trees

P0 = ReproductionLaw(0.04, 0.08, 0.08, 0.8)
P1 = ReproductionLaw(0.15, 0.08, 0.08, 0.69)
ALWAYS_BOTH = ReproductionLaw(0.0, 0.0, 0.0, 1.0)
ALWAYS_NONE = ReproductionLaw(1.0, 0.0, 0.0, 0.0)
# cumulative sums 0.25, 0.5, 0.75 and SHORT_TOP = 1 - 5e-13: a uniform can
# reach past the last one
SHORT = ReproductionLaw(0.25, 0.25, 0.25, 0.25 - 5e-13)
SHORT_TOP = float(np.cumsum(SHORT.as_array())[3])
HALF_EVEN = ReproductionLaw(0.0, 0.5, 0.0, 0.5)  # cumulative sums 0, 0.5, 0.5, 1


@st.composite
def reproduction_laws(draw):
    """Laws with zero entries, and some whose cumulative sum ends at
    1 - 5e-13, so that a uniform can land above every cumulative value."""
    w = np.array(draw(st.lists(st.sampled_from([0, 0, 1, 2, 5]), min_size=4, max_size=4)
                      .filter(any)), dtype=float)
    p = w / w.sum()
    if draw(st.booleans()):
        p[np.argmax(p)] -= 5e-13
    return ReproductionLaw(*p)


class FixedUniforms:
    """A stand-in for ``np.random.Generator`` whose ``random`` hands out
    the given uniforms in order, however the calls split them."""

    def __init__(self, u):
        self.u, self.used = np.asarray(u, dtype=float), 0

    def random(self, size):
        out = self.u[self.used : self.used + size]
        self.used += size
        return out


class TestReproductionLaw:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            ReproductionLaw(0.5, 0.5, 0.5, 0.5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ReproductionLaw(-0.1, 0.55, 0.55, 0.0)

    @pytest.mark.parametrize("probs", [
        (float("nan"), 0.5, 0.25, 0.25),
        (0.5, 0.5, 0.0, float("nan")),
    ])
    def test_rejects_non_finite(self, probs):
        with pytest.raises(ValueError, match="must lie in"):
            ReproductionLaw(*probs)

    def test_mean(self):
        # row i of the descendants matrix sums to type i's mean offspring
        rows = GwModel(P0, P1).descendants_matrix().sum(axis=1)
        assert rows == pytest.approx([1.76, 1.54])


class TestDominantEigen:
    def test_symmetric_all_equal(self):
        pi, z = dominant_eigen([[0.88, 0.88], [0.88, 0.88]])
        assert pi == pytest.approx(1.76, abs=1e-12)
        assert z[0] == pytest.approx(0.5, abs=1e-12)
        assert z[1] == pytest.approx(0.5, abs=1e-12)

    def test_near_identity(self):
        pi, z = dominant_eigen([[1.0, 0.1], [0.1, 1.0]])
        assert pi == pytest.approx(1.1, abs=1e-12)
        assert z == (pytest.approx(0.5), pytest.approx(0.5))

    def test_asymmetric_closed_form(self):
        pi, z = dominant_eigen([[0.9, 0.3], [0.6, 0.8]])
        assert pi == pytest.approx((1.7 + math.sqrt(0.01 + 0.72)) / 2)
        assert pi == pytest.approx(1.27720, abs=1e-5)

    def test_left_eigenvector_equation(self):
        for p in ([[0.88, 0.88], [0.88, 0.88]], [[0.9, 0.3], [0.6, 0.8]], [[0.5, 1.2], [0.7, 0.4]]):
            pi, z = dominant_eigen(p)
            z = np.array(z)
            assert np.abs(z @ np.asarray(p) - pi * z).max() < 1e-12
            assert z.sum() == pytest.approx(1.0)
            assert (z > 0).all()

    def test_rejects_nonpositive_entry(self):
        with pytest.raises(NotPositive):
            dominant_eigen([[0.9, 0.0], [0.6, 0.8]])

    @pytest.mark.parametrize("p", [[[0.9]], [0.9, 0.3, 0.6, 0.8], np.full((3, 3), 0.5),
                                   np.full((2, 2, 1), 0.5)])
    def test_rejects_a_matrix_not_2x2(self, p):
        with pytest.raises(ValueError, match="descendants matrix must be 2x2"):
            dominant_eigen(p)


class TestSimulateObservationTree:
    def test_deterministic_full_law_gives_complete_tree(self):
        model = GwModel(ALWAYS_BOTH, ALWAYS_BOTH)
        tree = simulate_observation_tree(model, 3, replica_stream(0))
        assert tree.observed_indices().tolist() == list(range(1, 16))
        assert tree.counts().g_star.tolist() == [2 ** n for n in range(4)]
        assert Forest.of([tree]).counts[0, 3:5].tolist() == [4, 4]  # z[3]

    def test_no_offspring_law_gives_root_only(self):
        model = GwModel(ALWAYS_NONE, ALWAYS_NONE)
        tree = simulate_observation_tree(model, 3, replica_stream(0))
        assert tree.observed_indices().tolist() == [1]

    @pytest.mark.parametrize("depth", [0, 40])
    def test_depth_outside_range_raises_before_allocating(self, depth):
        # a depth-40 presence array would take 2 TiB
        with pytest.raises(DepthError):
            simulate_observation_tree(GwModel(P0, P0), depth, replica_stream(0))

    def test_bit_for_bit_reproducible(self):
        model = GwModel(P0, P1)
        t1 = simulate_observation_tree(model, 6, replica_stream(11, 5))
        t2 = simulate_observation_tree(model, 6, replica_stream(11, 5))
        assert t1 == t2

    @settings(max_examples=150, deadline=None)
    @given(law0=reproduction_laws(), law1=reproduction_laws(), depth=st.integers(1, 12),
           key=st.integers(0, 2**63 - 1))
    def test_matches_generation_loop(self, law0, law1, depth, key):
        # one draw for the whole tree keeps the per-generation stream layout:
        # the same labels, and the stream left at the same place
        model = GwModel(law0, law1)
        ours, brute = replica_stream(key, depth), replica_stream(key, depth)
        tree = simulate_observation_tree(model, depth, ours)
        assert tree == brute_simulate_observation_tree(model, depth, brute)
        assert ours.random() == brute.random()

    @settings(max_examples=150, deadline=None)
    @given(law0=st.one_of(reproduction_laws(), st.just(SHORT)),
           law1=st.one_of(reproduction_laws(), st.just(SHORT)),
           depth=st.integers(1, 12), key=st.integers(0, 2**63 - 1))
    def test_unchecked_tree_equals_the_checked_one(self, law0, law1, depth, key):
        # the simulator skips the label checks; the checked constructor, on
        # the same labels, must find the same positions and counts
        ours = simulate_observation_tree(GwModel(law0, law1), depth, replica_stream(key))
        checked = ObservationTree(depth, ours.observed_indices())
        for read in (ObservationTree.observed_indices, lambda t: Forest.of([t]).mothers[1:],
                     lambda t: Forest.of([t]).pairs, lambda t: Forest.of([t]).counts):
            a, b = read(ours), read(checked)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert not ours.labels.flags.writeable and not checked.labels.flags.writeable
        for f in dataclasses.fields(ObservedCounts):
            a, b = getattr(ours.counts(), f.name), getattr(checked.counts(), f.name)
            assert np.asarray(a).dtype == np.asarray(b).dtype
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    @pytest.mark.parametrize("u,law,kept", [
        (0.0, SHORT, (0, 0)),
        (np.nextafter(0.25, 0.0), SHORT, (0, 0)),
        (0.25, SHORT, (1, 0)),
        (0.5, SHORT, (0, 1)),
        (0.75, SHORT, (1, 1)),
        (np.nextafter(SHORT_TOP, 0.0), SHORT, (1, 1)),
        (SHORT_TOP, SHORT, (0, 1)),  # outcome 4, at or past every cumulative value
        (np.nextafter(1.0, 0.0), SHORT, (0, 1)),
        (0.0, HALF_EVEN, (1, 0)),
        (np.nextafter(0.5, 0.0), HALF_EVEN, (1, 0)),
        (0.5, HALF_EVEN, (1, 1)),
    ])
    def test_outcome_is_the_number_of_cumulative_values_at_or_below_u(self, u, law, kept):
        # outcome 0 -> (0,0), 1 -> (1,0), 2 -> (0,1), 3 -> (1,1), 4 -> (0,1);
        # mother 1 (the root, type 1) in a depth-1 tree, then mother 2
        # (type 0, the root's only daughter) in a depth-2 tree
        even_only = ReproductionLaw(0.0, 1.0, 0.0, 0.0)
        for model, mother, uniforms in ((GwModel(SHORT, law), 1, [u]),
                                        (GwModel(law, even_only), 2, [0.0, u, 0.0])):
            depth = mother
            rng = FixedUniforms(uniforms)
            tree = simulate_observation_tree(model, depth, rng)
            expected = list(range(1, mother + 1)) + [2 * mother + i for i in (0, 1) if kept[i]]
            assert tree.observed_indices().tolist() == expected
            assert rng.used == len(uniforms)
            assert tree == brute_simulate_observation_tree(model, depth, FixedUniforms(uniforms))

    def test_peak_memory_per_label_slot(self):
        # a uniform per mother (4 bytes per slot) and a presence byte per
        # slot; a (4, 2^depth) table of thresholds would take 32 bytes
        depth = 18
        tracemalloc.start()
        try:
            simulate_observation_tree(GwModel(P0, P1), depth, replica_stream(3, depth))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** (depth + 1)

    def test_growth_rate_matches_dominant_eigenvalue(self):
        # all entries of the descendants matrix are 0.88 -> pi = 1.76
        model = GwModel(P0, P0)
        ratios = []
        for r in range(500):
            tree = simulate_observation_tree(model, 11, replica_stream(5, r))
            c = tree.counts()
            if c.extinct:
                continue
            g = c.g_star.astype(float)
            ratios.append(np.mean(g[1:] / g[:-1]))
        mean_ratio = float(np.mean(ratios))
        assert 1.70 <= mean_ratio <= 1.82


class TestEstimateReproduction:
    def test_complete_tree_point_mass(self):
        tree = ObservationTree.from_indices(3, range(1, 16))
        est = estimate_reproduction(tree)
        expected = np.zeros(8)
        expected[3] = expected[7] = 1.0
        assert np.array_equal(est.phat, expected)

    def test_partial_depth2_hand_enumeration(self):
        # mothers of record are cells 2 and 3; cell 2 lost both daughters,
        # cell 3 kept both
        tree = ObservationTree.from_indices(2, {1, 2, 3, 6, 7})
        est = estimate_reproduction(tree)
        assert est.phat[0] == 1.0   # type 0: (0,0)
        assert est.phat[7] == 1.0   # type 1: (1,1)
        assert est.mother_counts == (1, 1)

    def test_rejects_too_shallow(self):
        with pytest.raises(InsufficientData):
            estimate_reproduction(ObservationTree.from_indices(1, {1, 2, 3}))

    @given(observation_trees(min_depth=2, max_depth=4))
    def test_matches_brute_force(self, tree):
        est = estimate_reproduction(tree)
        phat, counts = brute_reproduction(tree)
        assert np.abs(est.phat - phat).max() < 1e-12
        assert list(est.mother_counts) == counts

    @given(observation_trees(min_depth=2, max_depth=4))
    def test_blocks_sum_to_one(self, tree):
        est = estimate_reproduction(tree)
        for i in (0, 1):
            block = est.phat[4 * i : 4 * i + 4]
            if est.mother_counts[i] > 0:
                assert abs(block.sum() - 1.0) < 1e-12
            else:
                assert (block == 0).all()

    @pytest.mark.slow
    def test_monte_carlo_consistency(self):
        # strong consistency of the estimator on surviving trees
        model = GwModel(P0, P0)
        truth = np.concatenate([P0.as_array(), P0.as_array()])
        sup_errs, mean_errs = [], []
        for r in range(200):
            tree = simulate_observation_tree(model, 11, replica_stream(77, r))
            if tree.counts().extinct:
                continue
            est = estimate_reproduction(tree)
            sup_errs.append(np.abs(est.phat - truth).max())
            mean_errs.append(np.abs(est.phat - truth).mean())
        # ~190 mothers of record per type at this depth: per-entry error
        # ~0.02, worst-of-eight ~0.03
        assert np.mean(mean_errs) <= 0.02
        assert np.mean(sup_errs) <= 0.04


class TestReproductionCovariance:
    @staticmethod
    def make_estimate(p0, p1, z0=0.5, z1=0.5):
        return ReproductionEstimate(
            np.concatenate([p0, p1]), (10, 10), (z0, z1), t_star=100
        )

    def test_point_mass_has_zero_block(self):
        est = self.make_estimate([1, 0, 0, 0], [0.25] * 4)
        v = reproduction_covariance(est)
        assert (v[:4, :4] == 0).all()

    def test_uniform_block(self):
        est = self.make_estimate([0.25] * 4, [0.25] * 4)
        v = reproduction_covariance(est)
        block = v[:4, :4]
        expected = 2.0 * (np.diag([0.25] * 4) - np.full((4, 4), 0.0625))
        assert np.allclose(block, expected)
        assert block[0, 0] == pytest.approx(0.375)
        assert block[0, 1] == pytest.approx(-0.125)

    def test_row_sums_vanish(self):
        est = self.make_estimate([0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1])
        v = reproduction_covariance(est)
        assert np.abs(v.sum(axis=1)).max() < 1e-12

    def test_blocks_are_psd(self, rng):
        p0 = rng.dirichlet(np.ones(4))
        p1 = rng.dirichlet(np.ones(4))
        v = reproduction_covariance(self.make_estimate(p0, p1, 0.4, 0.6))
        assert np.linalg.eigvalsh(v).min() > -1e-12

    def test_degenerate_type_proportion(self):
        est = self.make_estimate([0.25] * 4, [0.25] * 4, z0=0.0)
        with pytest.raises(DegenerateTypeProportion):
            reproduction_covariance(est)


class TestMeanDifference:
    def test_gradient_encodes_mean_difference(self):
        phat = np.array([0, 0, 0, 1, 0, 0.5, 0.5, 0], dtype=float)
        assert MEAN_DIFF_GRADIENT @ phat == pytest.approx(1.0)  # means 2 and 1

    def test_published_caption_effect_size(self):
        p = np.concatenate([P0.as_array(), P1.as_array()])
        assert MEAN_DIFF_GRADIENT @ p == pytest.approx(1.76 - 1.54)


class TestGwMeanTest:
    def test_symmetric_tree_gives_p_one(self):
        model = GwModel(P0, P0)
        tree = simulate_observation_tree(model, 8, replica_stream(1, 2))
        rep = gw_mean_test(tree)
        ref = gw_mean_test(tree.reflect())
        # reflection maps m_hat -> -m_hat and preserves the statistic
        assert ref.estimates["m_hat"] == pytest.approx(-rep.estimates["m_hat"], rel=1e-10)
        assert ref.statistic == pytest.approx(rep.statistic, rel=1e-10)

    def test_zero_difference_statistic(self):
        # both estimated laws are (0, 1/3, 1/3, 1/3): type-0 records
        # {2, 4, 6} and type-1 records {3, 5, 7} show the same outcomes
        tree = ObservationTree.from_indices(3, {1, 2, 3, 4, 5, 6, 7, 8, 10, 13, 15})
        rep = gw_mean_test(tree)
        assert rep.estimates["m_hat"] == pytest.approx(0.0, abs=1e-14)
        assert rep.statistic == pytest.approx(0.0, abs=1e-12)
        assert rep.p_value == pytest.approx(1.0)

    def test_degenerate_variance_on_complete_tree(self):
        tree = ObservationTree.from_indices(4, range(1, 32))
        with pytest.raises(DegenerateVariance):
            gw_mean_test(tree)

    def test_rejects_shallow_tree(self):
        with pytest.raises(InsufficientData):
            gw_mean_test(ObservationTree.from_indices(2, range(1, 8)))

    def test_insufficient_data_when_type_missing(self):
        # no even cell is ever observed: type-0 mother count is 0
        tree = ObservationTree.from_indices(3, {1, 3, 7, 15})
        with pytest.raises(InsufficientData):
            gw_mean_test(tree)

    def test_report_fields(self):
        model = GwModel(P0, P1)
        tree = simulate_observation_tree(model, 8, replica_stream(10, 0))
        rep = gw_mean_test(tree)
        assert rep.test == "gw_mean"
        assert rep.df == 1
        assert 0.0 <= rep.p_value <= 1.0
        assert rep.n_tstar == int(tree.counts().g_star[:8].sum())
        assert rep.statistic >= 0.0

import numpy as np
import pytest
from hypothesis import given

from barlineage import ObservationTree, observed_counts
from barlineage.errors import DepthError, IndexOutOfRange, MissingRoot, OrphanCell
from barlineage.tree import _reflect_array, gen_slice, generation

from conftest import brute_counts, observation_trees, random_tree


class TestIndexKinematics:
    def test_root(self):
        assert generation(1) == 0
        assert gen_slice(0) == slice(1, 2)

    def test_generic_odd_cell(self):
        assert generation(7) == 2
        assert gen_slice(2) == slice(4, 8)

    def test_deep_even_cell(self):
        # 2**11 = 2048 <= 2048 < 4096 = 2**12, so generation 11
        assert generation(2048) == 11
        assert generation(2047) == 10

    @pytest.mark.parametrize("bad", [0, -1, -17])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(IndexOutOfRange):
            generation(bad)

    def test_mother_daughter_round_trip(self):
        for k in range(2, 1 << 10):
            assert generation(k // 2) == generation(k) - 1
            assert generation(2 * k) == generation(2 * k + 1) == generation(k) + 1


class TestValidate:
    def test_complete_depth1(self):
        tree = ObservationTree.from_indices(1, {1, 2, 3})
        assert tree.delta[1:].tolist() == [1, 1, 1]

    def test_missing_root(self):
        with pytest.raises(MissingRoot):
            ObservationTree.from_indices(1, {2, 3})

    def test_orphan(self):
        with pytest.raises(OrphanCell) as exc:
            ObservationTree.from_indices(2, {1, 2, 6})
        assert exc.value.k == 6

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            ObservationTree.from_indices(1, {1, 2, 3, 9})

    def test_depth_cap(self):
        with pytest.raises(DepthError):
            ObservationTree(31, np.zeros(4, dtype=np.uint8))


class TestObservedCounts:
    def test_complete_depth2(self):
        tree = ObservationTree.from_indices(2, range(1, 8))
        c = observed_counts(tree)
        assert c.z[1].tolist() == [1, 1]
        assert c.z[2].tolist() == [2, 2]
        assert c.t_star[2] == 7
        assert not c.extinct

    def test_root_only(self):
        tree = ObservationTree.from_indices(3, {1})
        c = observed_counts(tree)
        assert (c.z[1:] == 0).all()
        assert (c.t_star == 1).all()
        assert c.extinct

    def test_partial_depth2(self):
        # cells 1 and 3 have both daughters observed, cell 2 has none
        tree = ObservationTree.from_indices(2, {1, 2, 3, 6, 7})
        c = observed_counts(tree)
        assert c.z[1].tolist() == [1, 1]
        assert c.z[2].tolist() == [1, 1]
        assert c.t01[2] == 2

    @given(observation_trees())
    def test_matches_brute_force(self, tree):
        c = observed_counts(tree)
        z, t01 = brute_counts(tree)
        assert c.z.tolist() == z
        assert c.t01.tolist() == t01
        assert c.t_star.tolist() == np.cumsum([sum(r) for r in z]).tolist()

    @given(observation_trees())
    def test_extinction_is_monotone(self, tree):
        g = observed_counts(tree).g_star
        dead = np.flatnonzero(g == 0)
        if dead.size:
            assert (g[dead[0]:] == 0).all()


class TestReflection:
    def test_involution(self, rng):
        tree = random_tree(5, rng)
        back = tree.reflect().reflect()
        assert (back.delta == tree.delta).all()

    def test_swaps_siblings(self, rng):
        tree = random_tree(4, rng)
        ref = tree.reflect()
        # the mirrored root daughters swap
        assert ref.delta[2] == tree.delta[3]
        assert ref.delta[3] == tree.delta[2]
        # per-generation observed totals are preserved
        assert (observed_counts(ref).g_star == observed_counts(tree).g_star).all()

    @pytest.mark.parametrize("depth", range(1, 8))
    def test_flips_non_leading_bits(self, depth):
        # entry k moves to the label with every binary digit below the
        # leading one flipped
        x = np.arange(1 << (depth + 1), dtype=float)
        out = _reflect_array(x, depth)
        for k in range(1, len(x)):
            assert out[k ^ ((1 << generation(k)) - 1)] == x[k]

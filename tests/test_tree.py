import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barlineage import (
    ObservationTree,
    ValueTree,
    estimate_reproduction,
    residual_noise_estimates,
    sufficient_stats,
)
from barlineage.errors import (
    DepthError,
    IndexOutOfRange,
    InsufficientData,
    MissingRoot,
    OrphanCell,
)
from barlineage.tree import Forest, as_labels, generation

from conftest import (
    brute_counts,
    brute_noise,
    brute_reproduction,
    brute_sufficient_stats,
    dense_delta,
    dense_reflect,
    observation_trees,
    presence_arrays,
    random_tree,
    tree_of,
)


# the three constructors that check labels
BUILDS = pytest.mark.parametrize("build", [
    ObservationTree.from_indices,
    ObservationTree,
    lambda depth, labels: ValueTree(depth, np.zeros(len(labels)), labels),
], ids=["from_indices", "ObservationTree", "ValueTree"])


class TestIndexKinematics:
    def test_root(self):
        assert generation(1) == 0
        assert generation(2) == generation(3) == 1

    def test_generic_odd_cell(self):
        assert generation(7) == 2
        assert generation(4) == 2 and generation(8) == 3

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
        assert tree.observed_indices().tolist() == [1, 2, 3]

    def test_labels_are_one_dimensional(self):
        with pytest.raises(ValueError, match="labels must be a 1-d array"):
            as_labels(np.array([[1, 2, 3]]), 2)

    def test_compares_by_depth_and_labels(self):
        tree, same = ObservationTree(2, [1, 2, 3]), ObservationTree.from_indices(2, [3, 2, 1, 2])
        assert tree == same and hash(tree) == hash(same)
        assert tree != ObservationTree(3, [1, 2, 3]) and tree != ObservationTree(2, [1, 2])
        assert tree.__eq__(3) is NotImplemented and tree != 3

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

    def test_presence_is_a_bit(self):
        # a label listed twice is one observed cell
        tree = ObservationTree.from_indices(2, [1, 3, 3, 2, 1])
        assert tree.observed_indices().tolist() == [1, 2, 3]
        assert tree.counts().g_star.tolist() == [1, 2, 0]
        assert Forest.of([tree]).counts[0, 2] == 3

    @BUILDS
    @pytest.mark.parametrize("labels,bad", [
        (np.array([1.0, 2.7, 3.2]), "2.7"),
        ([1, 2.9, 3], "2.9"),
        ([1, 2, float("nan")], "nan"),
        ([1.0, 2.5, 3.0], "2.5"),
        (["1", "2", "3"], "'1'"),
    ])
    def test_non_integral_label_is_named(self, build, labels, bad):
        with pytest.raises(ValueError, match=f"cell label {bad} is not an integer"):
            build(2, labels)

    # each is checked as given: none is cast to int64 first, wrapped or warned about
    @BUILDS
    @pytest.mark.parametrize("labels,bad", [
        ([1, 1 << 70], 1 << 70),
        (np.array([1.0, 1e300]), int(1e300)),
        (np.array([1, 2**64 - 1], dtype=np.uint64), 2**64 - 1),
        ([-1e300, 1.0], int(-1e300)),
    ], ids=["past-int64", "huge-float", "uint64-max", "huge-negative-float"])
    def test_out_of_range_label_is_named(self, build, labels, bad):
        with pytest.raises(IndexOutOfRange) as exc:
            build(3, labels)
        assert exc.value.k == bad
        assert str(exc.value) == f"cell label {bad} out of range"

    def test_integral_labels_of_any_type(self):
        for labels in (np.array([3.0, 1.0, 2.0]), [3, 1, 2], range(1, 4), {1: 0.5, 2: 0, 3: 0},
                       np.array([3, 1, 2], dtype=np.uint8)):
            assert ObservationTree.from_indices(1, labels).observed_indices().tolist() == [1, 2, 3]

    def test_labels_must_ascend(self):
        for labels in ([1, 3, 2], [1, 2, 2]):
            with pytest.raises(ValueError):
                ObservationTree(2, np.array(labels))

    def test_depth_cap(self):
        for depth in (0, 31):
            with pytest.raises(DepthError):
                ObservationTree(depth, np.array([1]))
            with pytest.raises(DepthError):
                ObservationTree.from_indices(depth, [1])


def row_counts(z, t01):
    """A depth-n row's counts from per-generation z and cumulative t01:
    (|T*_{n-1}|, |T*01_{n-1}|, |T*_n|, z[n] (two), n)."""
    t_star, n = np.cumsum([sum(r) for r in z]), len(z) - 1
    return [int(t_star[n - 1]), int(t01[n - 1]), int(t_star[n]), *map(int, z[n]), n]


class TestObservedCounts:
    # a row's counts: |T*_{n-1}|, |T*01_{n-1}|, |T*_n|, z[n] (two), n
    def test_complete_depth2(self):
        tree = ObservationTree.from_indices(2, range(1, 8))
        assert tree.counts().g_star.tolist() == [1, 2, 4]
        assert Forest.of([tree]).counts.tolist() == [[3, 3, 7, 2, 2, 2]]
        assert not tree.counts().extinct

    def test_root_only(self):
        tree = ObservationTree.from_indices(3, {1})
        assert tree.counts().g_star.tolist() == [1, 0, 0, 0]
        assert Forest.of([tree]).counts.tolist() == [[1, 0, 1, 0, 0, 3]]
        assert tree.counts().extinct

    def test_partial_depth2(self):
        # cells 1 and 3 have both daughters observed, cell 2 has none
        tree = ObservationTree.from_indices(2, {1, 2, 3, 6, 7})
        assert tree.counts().g_star.tolist() == [1, 2, 2]
        assert Forest.of([tree]).counts.tolist() == [[3, 2, 5, 1, 1, 2]]

    @given(observation_trees())
    def test_matches_brute_force(self, tree):
        z, t01 = brute_counts(tree)
        assert tree.counts().g_star.tolist() == [sum(r) for r in z]
        assert Forest.of([tree]).counts.tolist() == [row_counts(z, t01)]

    @given(observation_trees())
    def test_labels_and_pair_mothers(self, tree):
        n, delta = tree.depth, dense_delta(tree)
        labels = [k for k in range(1, 2 ** (n + 1)) if delta[k]]
        pairs = [k for k in range(1, 2 ** n) if delta[2 * k] and delta[2 * k + 1]]
        assert tree.observed_indices().tolist() == labels
        kids, row = tree.observed_indices()[1:], Forest.of([tree])
        assert (tree.observed_indices()[row.mothers[1:]] == kids >> 1).all()
        assert (tree.observed_indices()[row.pairs] >> 1).tolist() == pairs

    @given(observation_trees())
    def test_extinction_is_monotone(self, tree):
        g = tree.counts().g_star
        dead = np.flatnonzero(g == 0)
        if dead.size:
            assert (g[dead[0]:] == 0).all()


class TestReflection:
    def test_involution(self, rng):
        tree = random_tree(5, rng)
        back = tree.reflect().reflect()
        assert back == tree

    def test_swaps_siblings(self, rng):
        tree = random_tree(4, rng)
        ref = tree.reflect()
        # the mirrored root daughters swap
        delta, ref_delta = dense_delta(tree), dense_delta(ref)
        assert ref_delta[2] == delta[3]
        assert ref_delta[3] == delta[2]
        # per-generation observed totals are preserved
        assert (ref.counts().g_star == tree.counts().g_star).all()

    @pytest.mark.parametrize("depth", range(1, 8))
    def test_flips_non_leading_bits(self, depth):
        # the trait of cell k moves to the label with every binary digit
        # below the leading one flipped
        labels = np.arange(1, 1 << (depth + 1))
        out = ValueTree(depth, labels.astype(float), labels).reflect()
        assert out.labels.tolist() == labels.tolist()
        for k, v in zip(out.labels.tolist(), out.x.tolist()):
            assert k == int(v) ^ ((1 << generation(int(v))) - 1)


class TestDenseOracle:
    """Labels, counts, estimators and reflection against the brute-force
    loops over the presence bits, byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(presence_arrays(), st.integers(0, 2 ** 32 - 1))
    def test_bit_equal(self, drawn, seed):
        depth, delta = drawn
        rng = np.random.default_rng(seed)
        x = np.concatenate([[0.0], rng.normal(size=delta.size - 1)])
        theta = rng.normal(size=4)
        tree = tree_of(depth, delta)
        labels = np.array([k for k in range(1, delta.size) if delta[k]], dtype=np.int64)
        pair_mothers = np.array([k for k in range(1, 2 ** depth)
                                 if delta[2 * k] and delta[2 * k + 1]], dtype=np.int64)
        assert tree.observed_indices().tobytes() == labels.tobytes()
        assert (labels[Forest.of([tree]).pairs] >> 1).tobytes() == pair_mothers.tobytes()
        z, t01 = brute_counts(tree)
        g_star = np.array([sum(r) for r in z], dtype=np.int64)
        assert tree.counts().g_star.tobytes() == g_star.tobytes()
        row = np.array([row_counts(z, t01)], dtype=np.int64)
        assert Forest.of([tree]).counts.tobytes() == row.tobytes()

        if depth >= 2:
            rep = estimate_reproduction(tree)
            phat, mothers = brute_reproduction(tree)
            t_star = sum(sum(r) for r in z[:depth])
            zhat = tuple(sum(r[i] for r in z[1:depth]) / t_star for i in (0, 1))
            assert rep.phat.tobytes() == phat.tobytes()
            assert (rep.mother_counts, rep.t_star) == (tuple(mothers), t_star)
            assert np.array(rep.zhat).tobytes() == np.array(zhat).tobytes()
        else:
            with pytest.raises(InsufficientData):
                estimate_reproduction(tree)

        every = np.arange(1, delta.size)
        dense = ValueTree(depth, x)
        sums = brute_sufficient_stats(dense, tree)
        sigma2, rho, _ = brute_noise(dense, tree, theta)
        # the simulator's full draw, a file's cells, and a superset of them
        for values in (dense, ValueTree(depth, x[labels], tree.labels),
                       ValueTree(depth, x[1:], every)):
            s = sufficient_stats(values, tree)
            for got, want in zip((s.s0, s.s1, s.s01, s.rhs), sums):
                assert got.tobytes() == want.tobytes()
            assert list(s.counts) == row_counts(z, t01)[:3]
            noise = residual_noise_estimates(values, tree, theta)
            assert (np.array([noise.sigma2_hat, noise.rho_hat]).tobytes()
                    == np.array([sigma2, rho]).tobytes())

        ref = tree.reflect()
        ref_delta = dense_reflect(delta, depth)
        assert ref.observed_indices().tolist() == np.flatnonzero(ref_delta).tolist()
        mirrored = dense_reflect(x, depth)
        assert ValueTree(depth, x).reflect().x.tobytes() == mirrored.tobytes()
        sparse = ValueTree(depth, x[labels], tree.labels).reflect()
        assert sparse.labels.tolist() == ref.observed_indices().tolist()
        assert sparse.x.tobytes() == mirrored[ref.observed_indices()].tobytes()

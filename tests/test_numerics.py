import threading

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from barlineage import chi2_sf, replica_stream
from barlineage.numerics import (
    _stream_key,
    gaussian_pair,
    shared_stream,
    span_streams,
    symmetric_2x2,
)


class TestSymmetric2x2:
    def test_matches_lapack_on_a_stack(self, rng):
        a = rng.normal(size=(3, 5, 2, 2))
        m = a @ a.swapaxes(-1, -2) + 0.1 * np.eye(2)
        adj, det, lmax = symmetric_2x2(m)
        assert adj.shape == m.shape and det.shape == lmax.shape == (3, 5)
        inv = np.linalg.inv(m)
        assert np.abs(adj / det[..., None, None] - inv).max() <= 1e-12 * np.abs(inv).max()
        assert np.allclose(det, np.linalg.det(m), rtol=1e-12)
        assert np.allclose(lmax, np.linalg.eigvalsh(m)[..., 1], rtol=1e-12)

    def test_singular_matrix_has_zero_determinant(self):
        adj, det, lmax = symmetric_2x2(np.array([[1.0, 3.0], [3.0, 9.0]]))
        assert det == 0.0 and lmax == 10.0
        assert np.array_equal(adj, [[9.0, -3.0], [-3.0, 1.0]])


class TestChi2Sf:
    def test_at_zero(self):
        assert chi2_sf(0.0, 1) == 1.0
        assert chi2_sf(0.0, 2) == 1.0

    def test_five_percent_quantiles(self):
        assert abs(chi2_sf(3.841459, 1) - 0.05) < 1e-4
        assert abs(chi2_sf(5.991465, 2) - 0.05) < 1e-4

    @pytest.mark.parametrize("df", [1, 2])
    def test_against_scipy(self, df):
        for x in np.linspace(0.0, 40.0, 101):
            assert chi2_sf(float(x), df) == pytest.approx(
                scipy.stats.chi2.sf(x, df), rel=1e-10, abs=1e-300
            )

    @pytest.mark.parametrize("df", [1, 2])
    def test_strictly_decreasing(self, df):
        grid = np.linspace(0.0, 40.0, 100)
        vals = [chi2_sf(float(x), df) for x in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            chi2_sf(-0.1, 1)
        with pytest.raises(ValueError):
            chi2_sf(1.0, 3)
        for df in (1, 2):
            with pytest.raises(ValueError):
                chi2_sf(float("nan"), df)


class TestGaussianPair:
    def test_rank_one_covariance_means_identical_sisters(self):
        e0, e1 = gaussian_pair(1.0, 1.0, *replica_stream(5).standard_normal((2, 1000)))
        assert np.array_equal(e0, e1)

    def test_zero_correlation(self):
        e0, e1 = gaussian_pair(1.0, 0.0, *replica_stream(6).standard_normal((2, 100_000)))
        assert abs(np.corrcoef(e0, e1)[0, 1]) < 0.01

    def test_covariance_matches_target(self):
        e0, e1 = gaussian_pair(1.0, 0.5, *replica_stream(7).standard_normal((2, 1_000_000)))
        cov = np.cov(e0, e1)
        assert abs(cov[0, 0] - 1.0) < 0.01
        assert abs(cov[1, 1] - 1.0) < 0.01
        assert abs(cov[0, 1] - 0.5) < 0.01

    def test_rejects_invalid_correlation(self):
        with pytest.raises(ValueError):
            gaussian_pair(1.0, 1.5, np.zeros(1), np.zeros(1))
        with pytest.raises(ValueError):
            gaussian_pair(0.0, 0.0, np.zeros(1), np.zeros(1))

    def test_standard_normal_moments(self):
        g = replica_stream(99).standard_normal(1_000_000)
        assert abs(g.mean()) < 0.005
        assert abs(g.var() - 1.0) < 0.01


class TestReplicaStream:
    def test_reproducible(self):
        a = replica_stream(42, 1, 7, 3).random(8)
        b = replica_stream(42, 1, 7, 3).random(8)
        assert np.array_equal(a, b)

    def test_distinct_subkeys_give_distinct_streams(self):
        a = replica_stream(42, 1, 7, 3).random(8)
        b = replica_stream(42, 1, 7, 4).random(8)
        c = replica_stream(43, 1, 7, 3).random(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


# seeds and subkeys are folded mod 2**64, so negative ones and ones past
# 2**64 name streams too
KEYS = st.integers(-(2 ** 70), 2 ** 70)


def draws(g):
    """Uniforms, normals, then an odd number of uint32s (leaving half a
    word buffered) and uniforms again, as bytes."""
    return b"".join(a.tobytes() for a in (
        g.random(5), g.standard_normal(7),
        g.integers(0, 2 ** 32, size=3, dtype=np.uint32), g.random(2)))


class TestSharedStream:
    # what an earlier replica may have left in the shared generator
    EARLIER = {
        "random": lambda g: g.random(3),
        "standard_normal": lambda g: g.standard_normal(3),
        "uint32": lambda g: g.integers(0, 2 ** 32, size=1, dtype=np.uint32),
    }

    @settings(max_examples=150, deadline=None)
    @given(seed=KEYS, subkeys=st.lists(KEYS, max_size=4), earlier_key=KEYS,
           earlier=st.sampled_from(sorted(EARLIER)))
    def test_reads_the_replica_stream(self, seed, subkeys, earlier_key, earlier):
        g = shared_stream(earlier_key)
        self.EARLIER[earlier](g)
        if earlier == "uint32":  # half of a 64-bit word is left buffered
            assert g.bit_generator.state["has_uint32"] == 1
        assert draws(shared_stream(seed, *subkeys)) == draws(replica_stream(seed, *subkeys))

    def test_is_one_generator(self):
        assert shared_stream(1) is shared_stream(2, 3)

    def test_each_thread_has_its_own(self):
        ours = shared_stream(5, 1)
        head = ours.random(3)
        other = threading.Thread(target=lambda: shared_stream(9, 9).random(100))
        other.start()
        other.join(timeout=30)
        assert not other.is_alive()
        tail = ours.random(3)
        assert np.concatenate([head, tail]).tobytes() == replica_stream(5, 1).random(6).tobytes()

    @pytest.mark.parametrize("seed", [97, -5])
    def test_a_span_folds_its_prefix_once(self, seed):
        # one splitmix64 step per id after the (seed, 1, 9) prefix: the keys of
        # the streams it hands out are the full fold's, id by id
        keys = [g.bit_generator.state["state"]["key"].tolist()
                for g in span_streams(seed, (1, 9), range(1000))]
        assert keys == [list(_stream_key(seed, (1, 9, i))) for i in range(1000)]
        for i, g in zip(range(3), span_streams(seed, (1, 9), range(3))):
            assert draws(g) == draws(replica_stream(seed, 1, 9, i))

    @settings(max_examples=50, deadline=None)
    @given(a_key=st.lists(KEYS, min_size=1, max_size=3),
           b_key=st.lists(KEYS, min_size=1, max_size=3))
    def test_fresh_streams_held_at_once_do_not_interfere(self, a_key, b_key):
        a, b = replica_stream(*a_key), replica_stream(*b_key)
        shared = shared_stream(*a_key)
        interleaved = [(a.random(), b.standard_normal(), shared.random()) for _ in range(4)]
        assert [x for x, _, _ in interleaved] == replica_stream(*a_key).random(4).tolist()
        assert [y for _, y, _ in interleaved] == replica_stream(*b_key).standard_normal(4).tolist()
        assert [z for _, _, z in interleaved] == [x for x, _, _ in interleaved]

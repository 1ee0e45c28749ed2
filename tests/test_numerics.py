import numpy as np
import pytest
import scipy.stats

from barlineage import chi2_sf, gaussian_pair, invert, replica_stream
from barlineage.errors import Singular


class TestInvert:
    def test_identity(self):
        assert np.allclose(invert(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        assert np.allclose(invert([[2.0, 0.0], [0.0, 4.0]]), [[0.5, 0.0], [0.0, 0.25]])

    def test_spd_round_trip(self, rng):
        a = rng.normal(size=(4, 4))
        m = a @ a.T + 4 * np.eye(4)
        assert np.abs(m @ invert(m) - np.eye(4)).max() < 1e-9

    def test_round_trip_many_random_fixtures(self, rng):
        for _ in range(1000):
            n = rng.choice([2, 4])
            m = rng.normal(size=(n, n)) + 3 * np.eye(n)
            if np.linalg.cond(m) > 1e6:
                continue
            assert np.abs(m @ invert(m) - np.eye(n)).max() < 1e-9

    def test_singular_raises(self):
        with pytest.raises(Singular):
            invert([[1.0, 1.0], [1.0, 1.0]])


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


class TestGaussianPair:
    def test_rank_one_covariance_means_identical_sisters(self):
        stream = replica_stream(5)
        e0, e1 = gaussian_pair(1.0, 1.0, stream, size=1000)
        assert np.array_equal(e0, e1)

    def test_zero_correlation(self):
        stream = replica_stream(6)
        e0, e1 = gaussian_pair(1.0, 0.0, stream, size=100_000)
        assert abs(np.corrcoef(e0, e1)[0, 1]) < 0.01

    def test_covariance_matches_target(self):
        stream = replica_stream(7)
        e0, e1 = gaussian_pair(1.0, 0.5, stream, size=1_000_000)
        cov = np.cov(e0, e1)
        assert abs(cov[0, 0] - 1.0) < 0.01
        assert abs(cov[1, 1] - 1.0) < 0.01
        assert abs(cov[0, 1] - 0.5) < 0.01

    def test_rejects_invalid_correlation(self):
        with pytest.raises(ValueError):
            gaussian_pair(1.0, 1.5, replica_stream(0), size=1)
        with pytest.raises(ValueError):
            gaussian_pair(0.0, 0.0, replica_stream(0), size=1)

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

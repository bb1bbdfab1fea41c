"""Random variate generation and empirical frequencies."""

import itertools
import math

import numpy as np
import pytest

from negocc import sampler
from negocc import (
    INFINITE,
    DomainError,
    OccupancyParams,
    SampleConfig,
    conditional_params,
    mean_variance,
    pmf_vector,
    sample_negocc,
    truncation_point,
)
from negocc.oracles import empirical_pmf, sample_geometric
from negocc.sampler import _increment_probs, _sample_range


class TestSampleGeometric:
    def test_certain_success(self):
        for u in (0.01, 0.5, 0.999):
            assert sample_geometric(1.0, u) == 0

    def test_inverse_cdf_values(self):
        assert sample_geometric(0.5, 0.9) == 3  # floor(ln .1 / ln .5)
        assert sample_geometric(0.5, 0.1) == 0  # floor(ln .9 / ln .5)

    def test_matches_cdf_inversion(self):
        # floor-based inversion puts u in the cell [F(t-1), F(t))
        p = 0.3
        for u in (0.05, 0.3, 0.7, 0.29999, 0.95):
            t = sample_geometric(p, u)
            assert u >= 1.0 - (1.0 - p) ** t - 1e-12
            assert u < 1.0 - (1.0 - p) ** (t + 1)

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_geometric(0.0, 0.5)
        with pytest.raises(DomainError):
            sample_geometric(0.5, 1.0)


class TestSampleNegocc:
    def test_point_mass(self):
        config = SampleConfig(OccupancyParams(1, 1, 1.0), n=50, seed=3)
        assert np.all(sample_negocc(config) == 0)

    def test_deterministic_in_seed(self):
        config = SampleConfig(OccupancyParams(30, 14, 0.6), n=500, seed=99)
        np.testing.assert_array_equal(sample_negocc(config), sample_negocc(config))

    def test_chunk_size_invariance(self):
        # draws from any split of the index range into _sample_range calls
        # match one unsplit range and the public sampler
        config = SampleConfig(OccupancyParams(9, 4, 0.7), n=1000, seed=5)
        probs = _increment_probs(config)
        full = _sample_range(5, 0, 1000, probs)
        chunked = np.concatenate(
            [_sample_range(5, s, min(7, 1000 - s), probs) for s in range(0, 1000, 7)]
        )
        np.testing.assert_array_equal(full, chunked)
        np.testing.assert_array_equal(sample_negocc(config), full)

    def test_chunks_bounded_at_large_k(self, monkeypatch):
        # record the (draws, k) shape of every requested chunk instead of
        # drawing it: at k = 30000 one chunk of 65,536 draws would be 14.6 GiB
        shapes = []

        def record(seed, start, count, probs):
            shapes.append((start, count, probs.size))
            return np.zeros(count, dtype=np.int64)

        monkeypatch.setattr(sampler, "_sample_range", record)
        config = SampleConfig(OccupancyParams(100000, 30000, 0.5), n=200000, seed=0)
        assert sample_negocc(config).shape == (200000,)
        starts, counts, ks = zip(*shapes)
        assert set(ks) == {30000} and min(counts) >= 1
        assert max(counts) * 30000 <= sampler._CHUNK_DOUBLES
        assert list(starts) == [0, *itertools.accumulate(counts[:-1])]
        assert sum(counts) == 200000

    def test_chunk_holds_one_draw_beyond_the_cap(self, monkeypatch):
        counts = []

        def record(seed, start, count, probs):
            counts.append(count)
            return np.zeros(count, dtype=np.int64)

        monkeypatch.setattr(sampler, "_CHUNK_DOUBLES", 3)  # below k = 4
        monkeypatch.setattr(sampler, "_sample_range", record)
        sample_negocc(SampleConfig(OccupancyParams(9, 4, 0.7), n=5, seed=0))
        assert counts == [1, 1, 1, 1, 1]

    @pytest.mark.parametrize("m, k, theta, r", [
        (9, 4, 0.7, 0), (6, 6, 1.0, 0), (INFINITE, 3, 0.4, 0), (INFINITE, 2, 1.0, 0),
        (10, 3, 0.8, 4),
    ])
    def test_matches_scalar_geometric_sum(self, m, k, theta, r):
        # draw i is the sum of sample_geometric over uniforms i*k..(i+1)*k-1
        config = SampleConfig(OccupancyParams(m, k, theta), n=60, seed=13,
                              conditional_r=r)
        if m == INFINITE:
            probs = [theta] * k
        else:
            probs = [theta * (m - l + 1) / m for l in range(r + 1, r + k + 1)]
        u = np.random.Generator(np.random.PCG64(13)).random((60, k))
        expected = [sum(map(sample_geometric, probs, row)) for row in u.tolist()]
        assert sample_negocc(config).tolist() == expected

    @pytest.mark.filterwarnings("error")
    def test_tiny_theta_draws_fit_int64(self):
        # the longest draw at theta = 1e-17, m = 5, k = 2 is about 8.3e18,
        # just inside the int64 range
        probs = _increment_probs(SampleConfig(OccupancyParams(5, 2, 1e-17), n=1, seed=0))
        longest = np.floor(np.log1p(-sampler._LARGEST_UNIFORM) / np.log1p(-probs))
        assert 2.0**62 < math.fsum(longest) < 2.0**63
        draws = sample_negocc(SampleConfig(OccupancyParams(5, 2, 1e-17), n=400, seed=1))
        assert draws.min() >= 0

    @pytest.mark.parametrize("m, theta", [(5, 1e-19), (5, 1e-30), (INFINITE, 1e-18)])
    def test_theta_too_small_to_sample(self, m, theta):
        config = SampleConfig(OccupancyParams(m, 2, theta), n=4, seed=1)
        with pytest.raises(DomainError, match="theta is too small to sample"):
            sample_negocc(config)

    def test_seed_changes_stream(self):
        a = sample_negocc(SampleConfig(OccupancyParams(9, 4, 0.7), n=200, seed=1))
        b = sample_negocc(SampleConfig(OccupancyParams(9, 4, 0.7), n=200, seed=2))
        assert not np.array_equal(a, b)

    def test_moments_within_monte_carlo_tolerance(self):
        params = OccupancyParams(3, 2, 1.0)
        n = 10**6
        draws = sample_negocc(SampleConfig(params, n=n, seed=20260809))
        mean, var = mean_variance(params)
        assert abs(draws.mean() - mean) <= 4.0 * math.sqrt(var / n)
        assert abs(draws.var() - var) <= 0.05 * var

    def test_infinite_space_is_negative_binomial(self):
        params = OccupancyParams(INFINITE, 3, 0.6)
        draws = sample_negocc(SampleConfig(params, n=10**5, seed=11))
        mean, var = mean_variance(params)
        assert abs(draws.mean() - mean) <= 4.0 * math.sqrt(var / 10**5)

    def test_conditional_matches_transformed_params(self):
        # two-sample chi-square: conditional draws vs draws under the
        # transformed parameters
        scipy_stats = pytest.importorskip("scipy.stats")
        n = 10**5
        a = sample_negocc(
            SampleConfig(OccupancyParams(4, 2, 1.0), n=n, seed=7, conditional_r=2)
        )
        b = sample_negocc(SampleConfig(conditional_params(4, 2, 1.0, 2), n=n, seed=8))
        tmax = int(max(a.max(), b.max()))
        ca = np.bincount(a, minlength=tmax + 1).astype(float)
        cb = np.bincount(b, minlength=tmax + 1).astype(float)
        keep = (ca + cb) >= 10
        ca, cb = ca[keep], cb[keep]
        stat = float(np.sum((ca - cb) ** 2 / (ca + cb)))  # equal n both arms
        p_value = scipy_stats.chi2.sf(stat, df=keep.sum() - 1)
        assert p_value > 0.001

    def test_conditional_r_domain(self):
        with pytest.raises(DomainError):
            SampleConfig(OccupancyParams(4, 2, 1.0), n=10, seed=0, conditional_r=3)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7"])
    def test_seed_domain(self, seed):
        with pytest.raises(DomainError, match=r"^seed must satisfy seed >= 0$"):
            SampleConfig(OccupancyParams(4, 2, 1.0), n=10, seed=seed)


class TestEmpiricalPmf:
    def test_half_half(self):
        freqs, overflow = empirical_pmf([0, 0, 1, 1], 1)
        np.testing.assert_array_equal(freqs, [0.5, 0.5])
        assert overflow == 0.0

    def test_all_zero(self):
        freqs, overflow = empirical_pmf(np.zeros(10, dtype=int), 3)
        np.testing.assert_array_equal(freqs, [1.0, 0.0, 0.0, 0.0])
        assert overflow == 0.0

    def test_overflow_bucket(self):
        freqs, overflow = empirical_pmf([0, 5, 9], 3)
        assert freqs.sum() + overflow == pytest.approx(1.0)
        assert overflow == pytest.approx(2.0 / 3.0)

    def test_same_seed_same_frequencies(self):
        config = SampleConfig(OccupancyParams(6, 3, 0.8), n=2000, seed=13)
        f1, o1 = empirical_pmf(sample_negocc(config), 20)
        f2, o2 = empirical_pmf(sample_negocc(config), 20)
        np.testing.assert_array_equal(f1, f2)
        assert o1 == o2

    def test_frequencies_near_exact_pmf(self):
        params = OccupancyParams(6, 3, 0.8)
        t_cut = truncation_point(params)
        draws = sample_negocc(SampleConfig(params, n=200000, seed=4))
        freqs, _ = empirical_pmf(draws, t_cut)
        exact = pmf_vector(params, t_cut)
        assert np.max(np.abs(freqs - exact)) < 0.005

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            empirical_pmf([], 3)

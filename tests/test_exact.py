"""Exact pmf recursion, CDF and quantile."""

import math

import numpy as np
import pytest

from negocc import (
    INFINITE,
    DomainError,
    LogPmfBlock,
    OccupancyParams,
    cdf,
    cdf_vector,
    coupon_collector_pmf_vector,
    log_pmf_block,
    log_pmf_vector,
    negbin_log_pmf,
    pmf_vector,
    quantile,
    truncation_point,
)
from negocc.oracles import log_falling_factorial

NEG_INF = float("-inf")


def _reference_block(m, theta, k, tmax):
    """Literal logsumexp form of the column recursion (independent of the
    shipped scan implementation)."""
    L = np.full((tmax + 1, k), NEG_INF)
    for t in range(tmax + 1):
        if theta == 1.0:
            L[t, 0] = 0.0 if t == 0 else NEG_INF
        else:
            L[t, 0] = math.log(theta) + t * math.log1p(-theta)
    for r in range(1, k):
        const = math.log1p(-theta * (m - r) / m)
        prefix = math.log(theta * (m - r) / m)
        for t in range(tmax + 1):
            terms = [j * const + L[t - j, r - 1] for j in range(t + 1)]
            peak = max(terms)
            if peak == NEG_INF:
                L[t, r] = NEG_INF
            else:
                L[t, r] = prefix + peak + math.log(
                    sum(math.exp(x - peak) for x in terms)
                )
    return L


class TestBlockRecursion:
    def test_matches_literal_logsumexp_form(self):
        for (m, theta, k, tmax) in [
            (3, 1.0, 2, 8),
            (2, 1.0, 2, 10),
            (12, 0.25, 12, 40),
            (30, 0.6, 14, 45),
            (7, 0.6, 5, 30),
        ]:
            block = log_pmf_block(m, theta, k, tmax)
            ref = _reference_block(m, theta, k, tmax)
            finite = np.isfinite(ref)
            np.testing.assert_allclose(
                block.values[finite], ref[finite], rtol=1e-12, atol=1e-12
            )
            assert np.array_equal(np.isfinite(block.values), finite)

    def test_first_column_is_geometric_exactly(self):
        for theta in (0.25, 0.6, 1.0):
            block = log_pmf_block(9, theta, 4, 25)
            ts = np.arange(26)
            if theta == 1.0:
                expected = np.where(ts == 0, 0.0, NEG_INF)
            else:
                expected = math.log(theta) + ts * math.log1p(-theta)
            assert np.array_equal(block.log_column(1), expected)

    def test_columns_are_subprobability(self):
        for theta in (0.25, 0.6, 1.0):
            block = log_pmf_block(10, theta, 10, 400)
            assert np.all(block.values <= 0.0)
            sums = np.exp(block.values).sum(axis=0)
            assert np.all(sums <= 1.0 + 1e-12)

    def test_block_is_immutable(self):
        block = log_pmf_block(4, 1.0, 3, 5)
        with pytest.raises(ValueError):
            block.values[0, 0] = 1.0

    def test_no_nan_anywhere(self):
        for theta in (1e-9, 0.5, 1.0):
            block = log_pmf_block(6, theta, 6, 50)
            assert not np.any(np.isnan(block.values))

    def test_convolution_example(self):
        # Geom(1) * Geom(2/3) puts mass 2/3, 2/9 on t = 0, 1
        block = log_pmf_block(3, 1.0, 2, 1)
        np.testing.assert_allclose(
            block.column(2), [2.0 / 3.0, 2.0 / 9.0], rtol=1e-14
        )

    def test_half_geometric_example(self):
        # k = 2, m = 2, theta = 1: mass 2**-(t+1)
        block = log_pmf_block(2, 1.0, 2, 6)
        ts = np.arange(7)
        np.testing.assert_allclose(block.column(2), 0.5 ** (ts + 1), rtol=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_pmf_block(3, 1.0, 5, 4)
        with pytest.raises(DomainError):
            log_pmf_block(3, 0.0, 2, 4)
        with pytest.raises(DomainError):
            log_pmf_block(3, 1.0, 2, -1)


class TestPmfVector:
    def test_geometric_base_case(self):
        for m in (1, 5, 1000):
            got = pmf_vector(OccupancyParams(m, 1, 0.5), 2)
            np.testing.assert_allclose(got, [0.5, 0.25, 0.125], rtol=1e-14)

    def test_matches_block_final_column(self):
        params = OccupancyParams(9, 6, 0.6)
        block = log_pmf_block(9, 0.6, 6, 30)
        np.testing.assert_array_equal(
            log_pmf_vector(params, 30), block.log_column(6)
        )

    def test_infinite_space_is_negative_binomial(self):
        params = OccupancyParams(INFINITE, 3, 0.4)
        got = pmf_vector(params, 6)
        ref = [math.exp(negbin_log_pmf(3, 0.4, t)) for t in range(7)]
        np.testing.assert_allclose(got, ref, rtol=1e-14)

    def test_mass_at_zero_is_falling_factorial_ratio(self):
        # pmf(0) = theta**k * (m)_k / m**k: every increment succeeds at once
        for (m, k, theta) in [(5, 3, 0.7), (12, 12, 1.0), (40, 7, 0.25)]:
            logs = log_pmf_vector(OccupancyParams(m, k, theta), 0)
            expected = (
                k * math.log(theta) + log_falling_factorial(m, k) - k * math.log(m)
            )
            np.testing.assert_allclose(logs[0], expected, rtol=1e-12)

    def test_figure_scale_mass_within_truncation(self):
        params = OccupancyParams(30, 14, 0.6)
        t_cut = truncation_point(params)
        assert pmf_vector(params, t_cut).sum() >= 0.99

    def test_log_flag_roundtrip(self):
        params = OccupancyParams(8, 4, 0.6)
        logs = log_pmf_vector(params, 20)
        np.testing.assert_array_equal(np.exp(logs), pmf_vector(params, 20))

    def test_negbin_limit_monotone(self):
        # sup-norm gap to the negative binomial shrinks as m grows
        ref = np.array([math.exp(negbin_log_pmf(5, 0.5, t)) for t in range(80)])
        gaps = []
        for m in (10, 100, 1000, 10000):
            got = pmf_vector(OccupancyParams(m, 5, 0.5), 79)
            gaps.append(np.max(np.abs(got - ref)))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


class TestNegbinLogPmf:
    def test_geometric_case(self):
        assert negbin_log_pmf(1, 0.5, 1) == pytest.approx(math.log(0.25), rel=1e-14)

    def test_two_successes(self):
        assert negbin_log_pmf(2, 0.5, 0) == pytest.approx(math.log(0.25), rel=1e-14)

    def test_certain_success(self):
        assert negbin_log_pmf(4, 1.0, 0) == 0.0
        assert negbin_log_pmf(4, 1.0, 3) == NEG_INF
        logs = log_pmf_vector(OccupancyParams(INFINITE, 4, 1.0), 5)
        np.testing.assert_array_equal(logs, [0.0] + [NEG_INF] * 5)  # never NaN

    def test_argument_past_the_index_range_names_t(self):
        # bounded like tmax: a t past the float range used to overflow
        for t in (2**59, 10**400):
            with pytest.raises(DomainError, match=r"^t must satisfy t < 2\*\*59, got "):
                negbin_log_pmf(3, 0.5, t)
        with pytest.raises(DomainError, match=r"^t must satisfy t >= 0$"):
            negbin_log_pmf(3, 0.5, -1)

    def test_normalises(self):
        logs = [negbin_log_pmf(4, 0.35, t) for t in range(400)]
        assert math.fsum(math.exp(v) for v in logs) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 3, 1000, 10**6])
    @pytest.mark.parametrize("theta", [0.6, 1e-6, 0.999])
    def test_matches_extended_precision(self, k, theta):
        # t up to 1e6 against 40-digit mpmath: within a few ulps of the
        # largest term, and the scalar agrees with the vector bit for bit
        from mpmath import mp, mpf

        ts = sorted({*range(30), *np.geomspace(30, 10**6, 25).astype(int).tolist()})
        logs = log_pmf_vector(OccupancyParams(INFINITE, k, theta), 10**6)
        with mp.workdps(40):
            for t in ts:
                ref = (mp.loggamma(k + t) - mp.loggamma(t + 1) - mp.loggamma(k)
                       + k * mp.log(theta) + t * mp.log1p(-mpf(theta)))
                scale = (1.0 + math.lgamma(k + t) - k * math.log(theta)
                         - t * math.log1p(-theta))
                assert abs(mpf(float(logs[t])) - ref) <= 8 * 2.0**-52 * scale
                assert negbin_log_pmf(k, theta, t) == logs[t]


class TestCdf:
    def test_geometric_cdf(self):
        assert cdf(OccupancyParams(INFINITE, 1, 0.5), 1) == pytest.approx(0.75)

    def test_small_convolution(self):
        assert cdf(OccupancyParams(3, 2, 1.0), 1) == pytest.approx(8.0 / 9.0, rel=1e-13)

    def test_point_mass(self):
        assert cdf(OccupancyParams(1, 1, 1.0), 0) == 1.0

    def test_monotone_and_bounded(self):
        for params in (OccupancyParams(9, 5, 0.6), OccupancyParams(INFINITE, 4, 0.3)):
            values = cdf_vector(params, 200)
            assert np.all(np.diff(values) >= 0.0)
            assert values[0] > 0.0
            assert values[-1] <= 1.0


class TestQuantile:
    def test_geometric_median(self):
        assert quantile(OccupancyParams(INFINITE, 1, 0.5), 0.5) == 0

    def test_geometric_seventy(self):
        assert quantile(OccupancyParams(INFINITE, 1, 0.5), 0.7) == 1

    def test_zero_probability(self):
        for params in (OccupancyParams(4, 2, 0.5), OccupancyParams(INFINITE, 2, 0.9)):
            assert quantile(params, 0.0) == 0

    def test_far_tail_forces_doubling(self):
        params = OccupancyParams(3, 3, 1.0)
        t = quantile(params, 1.0 - 1e-9)
        assert cdf(params, t) >= 1.0 - 1e-9
        assert t > truncation_point(params)

    def test_quantile_cdf_galois(self):
        params = OccupancyParams(6, 4, 0.7)
        for t in range(0, 25, 3):
            assert quantile(params, cdf(params, t)) <= t

    def test_domain(self):
        with pytest.raises(DomainError):
            quantile(OccupancyParams(3, 2, 1.0), 1.0)
        with pytest.raises(DomainError):
            quantile(OccupancyParams(3, 2, 1.0), -0.1)


class TestCouponCollector:
    def test_single_bin_point_mass(self):
        got = coupon_collector_pmf_vector(1, 1.0, 4)
        np.testing.assert_array_equal(got, [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_two_bins(self):
        got = coupon_collector_pmf_vector(2, 1.0, 3)
        np.testing.assert_allclose(got, [0.5, 0.25, 0.125, 0.0625], rtol=1e-13)

    def test_equals_k_equals_m(self):
        np.testing.assert_array_equal(
            coupon_collector_pmf_vector(6, 0.6, 30),
            pmf_vector(OccupancyParams(6, 6, 0.6), 30),
        )

    def test_infinite_space_rejected(self):
        with pytest.raises(DomainError):
            coupon_collector_pmf_vector(INFINITE, 1.0, 5)


class TestParams:
    def test_theta_zero_rejected(self):
        with pytest.raises(DomainError):
            OccupancyParams(3, 1, 0.0)

    def test_k_zero_rejected(self):
        with pytest.raises(DomainError):
            OccupancyParams(3, 0, 0.5)

    def test_k_above_m_rejected(self):
        with pytest.raises(DomainError):
            OccupancyParams(3, 4, 0.5)

    def test_infinite_space_allows_any_k(self):
        params = OccupancyParams(INFINITE, 10**9, 0.5)
        assert params.is_infinite and not params.is_coupon_collector

    def test_coupon_collector_flag(self):
        assert OccupancyParams(4, 4, 0.8).is_coupon_collector
        assert not OccupancyParams(4, 3, 0.8).is_coupon_collector

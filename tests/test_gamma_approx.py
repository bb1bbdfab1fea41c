"""Moment-matched gamma approximation."""

import math

import numpy as np
import pytest

from negocc import (
    INFINITE,
    DomainError,
    OccupancyParams,
    approx_log_pmf,
    approx_params,
    approx_pmf,
    gamma_log_cdf_grid,
    mean_variance,
    pmf_vector,
    truncation_point,
)

NEG_INF = float("-inf")


class TestApproxParams:
    def test_matched_pairs(self):
        # moments of (2, 2, 1) and (3, 2, 1) respectively
        got = approx_params(1.0, 2.0)
        assert (got.alpha, got.beta) == pytest.approx((1.125, 0.75), rel=1e-15)
        got = approx_params(0.5, 0.75)
        assert (got.alpha, got.beta) == pytest.approx((4.0 / 3.0, 4.0 / 3.0), rel=1e-14)

    def test_half_unit_shift_identity(self):
        got = approx_params(3.7, 1.9)
        assert got.alpha / got.beta == pytest.approx(4.2, rel=1e-14)

    def test_inverse_consistency(self):
        # the gamma law's own (mean - 1/2, variance) maps back to (alpha, beta)
        alpha, beta = 2.7, 1.3
        got = approx_params(alpha / beta - 0.5, alpha / beta**2)
        assert got.alpha == pytest.approx(alpha, rel=1e-13)
        assert got.beta == pytest.approx(beta, rel=1e-13)

    def test_zero_variance_rejected(self):
        with pytest.raises(DomainError):
            approx_params(1.0, 0.0)


class TestApproxLogPmf:
    def test_degenerate_point_mass(self):
        got = approx_pmf(OccupancyParams(1, 1, 1.0), 4)
        np.testing.assert_array_equal(got, [1.0, 0.0, 0.0, 0.0, 0.0])
        logs = approx_log_pmf(OccupancyParams(1, 1, 1.0), 2)
        assert logs[0] == 0.0 and np.all(logs[1:] == NEG_INF)

    def test_exponential_first_cell(self):
        # synthetic alpha = beta = 1 (mean 1/2, variance 1): the t = 0
        # cell is the Exp(1) probability of [0, 1)
        from negocc.numerics import log_diff_grid

        gp = approx_params(0.5, 1.0)
        assert (gp.alpha, gp.beta) == pytest.approx((1.0, 1.0), rel=1e-15)
        grid = gamma_log_cdf_grid(np.array([0.0, 1.0]), gp.alpha, gp.beta)
        cell = math.exp(log_diff_grid(grid[1:], grid[:-1])[0])
        assert cell == pytest.approx(-math.expm1(-1.0), rel=1e-13)

    def test_cdf_telescoping(self):
        # summed cells equal the gamma CDF at the right endpoint exactly
        # (adjacent differences telescope)
        params = OccupancyParams(30, 14, 0.6)
        tmax = 60
        mean, var = mean_variance(params)
        gp = approx_params(mean, var)
        total = approx_pmf(params, tmax).sum()
        endpoint = math.exp(gamma_log_cdf_grid(tmax + 1.0, gp.alpha, gp.beta)[0])
        np.testing.assert_allclose(total, endpoint, rtol=1e-12)

    def test_cells_are_probabilities(self):
        for params in (
            OccupancyParams(30, 14, 0.6),
            OccupancyParams(289, 289, 1.0),
            OccupancyParams(INFINITE, 5, 0.5),
        ):
            probs = approx_pmf(params, truncation_point(params))
            assert np.all((probs >= 0.0) & (probs <= 1.0))
            assert not np.any(np.isnan(probs))
            assert probs.sum() <= 1.0 + 1e-12

    def test_left_tail_underestimated_at_figure_scale(self):
        # the approximation has extra positive skew at small parameters:
        # low arguments get too little mass
        params = OccupancyParams(30, 14, 0.6)
        exact = pmf_vector(params, 48)
        approx = approx_pmf(params, 48)
        assert np.all(approx[:4] < exact[:4])

    def test_deep_tail_goes_to_neg_inf_not_noise(self):
        params = OccupancyParams(4, 2, 0.9)
        logs = approx_log_pmf(params, 4000)
        tail = logs[-10:]
        assert np.all((tail == NEG_INF) | (tail < -500.0))

    def test_uses_negbin_moments_for_infinite_space(self):
        params = OccupancyParams(INFINITE, 5, 0.5)
        mean, var = mean_variance(params)
        assert (mean, var) == (5.0, 10.0)
        probs = approx_pmf(params, 80)
        ts = np.arange(81)
        assert float(probs @ ts) == pytest.approx(mean, abs=0.1)


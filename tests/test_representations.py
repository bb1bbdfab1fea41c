"""Cross-validation oracles and the conditional parameter transform."""

import math

import numpy as np
import pytest

from negocc import (
    INFINITE,
    DomainError,
    OccupancyParams,
    OracleRangeError,
    conditional_params,
    pmf_vector,
    truncation_point,
)
from negocc.oracles import (
    convolution_pmf,
    stirling_pmf,
    weight_vector,
    weighted_geometric_pmf,
)


class TestWeightVector:
    def test_small_examples(self):
        assert weight_vector(3, 2).weights == pytest.approx([-2.0, 3.0], rel=1e-13)
        assert weight_vector(3, 3).weights == pytest.approx([1.0, -3.0, 3.0], rel=1e-13)

    def test_single_geometric(self):
        assert weight_vector(7, 1).weights == (1.0,)

    def test_anchor_and_alternation(self):
        for (m, k) in [(5, 3), (9, 9), (12, 7)]:
            w = weight_vector(m, k).weights
            anchor = math.prod(range(m - k + 2, m + 1)) / math.factorial(k - 1)
            assert w[-1] == pytest.approx(anchor, rel=1e-12)
            for i, wi in enumerate(w, start=1):
                assert math.copysign(1.0, wi) == (-1.0) ** (k - i)

    def test_direct_product_formula(self):
        # w_{i,k} = (-1)**(k-i) (m)_k / ((m-i+1)(i-1)!(k-i)!)
        m, k = 8, 5
        falling = math.prod(range(m - k + 1, m + 1))
        w = weight_vector(m, k).weights
        for i in range(1, k + 1):
            expected = (
                (-1.0) ** (k - i)
                * falling
                / ((m - i + 1) * math.factorial(i - 1) * math.factorial(k - i))
            )
            assert w[i - 1] == pytest.approx(expected, rel=1e-12)

    def test_overflow_refused(self):
        # central weights grow like 2**m on the diagonal
        with pytest.raises(OracleRangeError):
            weight_vector(1200, 1200)
        with pytest.raises(OracleRangeError):
            weighted_geometric_pmf(OccupancyParams(1200, 1200, 1.0), 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            weight_vector(3, 4)

    def test_infinite_space_rejected(self):
        with pytest.raises(DomainError, match="requires finite m"):
            weight_vector(INFINITE, 3)


class TestWeightedGeometricPmf:
    def test_vanishing_unit_probability_term(self):
        params = OccupancyParams(3, 2, 1.0)
        assert weighted_geometric_pmf(params, 0) == pytest.approx(2.0 / 3.0, rel=1e-13)
        assert weighted_geometric_pmf(params, 1) == pytest.approx(2.0 / 9.0, rel=1e-13)

    def test_single_weight_geometric(self):
        params = OccupancyParams(6, 1, 0.3)
        for t in range(5):
            assert weighted_geometric_pmf(params, t) == pytest.approx(
                0.7**t * 0.3, rel=1e-13
            )

    def test_partial_sums_approach_one_from_below(self):
        params = OccupancyParams(6, 4, 0.8)
        total = 0.0
        partials = []
        for t in range(120):
            total += weighted_geometric_pmf(params, t)
            partials.append(total)
        assert all(p < 1.0 + 1e-12 for p in partials)
        assert all(b >= a for a, b in zip(partials, partials[1:]))
        assert partials[-1] == pytest.approx(1.0, abs=1e-10)

    def test_infinite_space_rejected(self):
        with pytest.raises(DomainError):
            weighted_geometric_pmf(OccupancyParams(INFINITE, 2, 0.5), 0)


class TestConvolutionPmf:
    def test_two_bin_coupon(self):
        got = convolution_pmf(OccupancyParams(2, 2, 1.0), 2)
        np.testing.assert_allclose(got, [0.5, 0.25, 0.125], rtol=1e-14)

    def test_single_geometric(self):
        got = convolution_pmf(OccupancyParams(9, 1, 0.5), 1)
        np.testing.assert_allclose(got, [0.5, 0.25], rtol=1e-14)

    def test_three_bin_pair(self):
        got = convolution_pmf(OccupancyParams(3, 2, 1.0), 1)
        np.testing.assert_allclose(got, [2.0 / 3.0, 2.0 / 9.0], rtol=1e-14)

    def test_truncation_is_lower_bound(self):
        params = OccupancyParams(7, 4, 0.5)
        short = convolution_pmf(params, 10)
        longer = convolution_pmf(params, 40)[:11]
        np.testing.assert_allclose(short, longer, rtol=1e-13)
        assert short.sum() < 1.0


class TestStirlingPmf:
    def test_unit_occupancy(self):
        assert stirling_pmf(OccupancyParams(3, 1, 1.0), 0) == pytest.approx(1.0)

    def test_small_examples(self):
        assert stirling_pmf(OccupancyParams(3, 2, 1.0), 0) == pytest.approx(
            2.0 / 3.0, rel=1e-13
        )
        assert stirling_pmf(OccupancyParams(2, 2, 1.0), 1) == pytest.approx(
            0.25, rel=1e-13
        )

    def test_no_underflow_with_log_prefactors(self):
        # (theta/m)**(k+t) alone underflows long before the mass does
        params = OccupancyParams(12, 10, 0.25)
        value = stirling_pmf(params, 40)
        assert 0.0 < value < 1.0

    def test_oracle_range(self):
        with pytest.raises(OracleRangeError):
            stirling_pmf(OccupancyParams(12, 10, 0.25), 60)


class TestFourWayAgreement:
    @pytest.mark.parametrize("theta", [0.6, 1.0])
    def test_small_grid(self, theta):
        # the acceptance suite runs the full m <= 12 grid; this keeps a
        # fast regression net under the unit tests
        for m in range(1, 8):
            for k in range(1, m + 1):
                params = OccupancyParams(m, k, theta)
                t_cut = min(truncation_point(params), 25)
                exact = pmf_vector(params, t_cut)
                conv = convolution_pmf(params, t_cut)
                np.testing.assert_allclose(conv, exact, rtol=1e-10, atol=1e-15)
                for t in range(t_cut + 1):
                    if exact[t] <= 1e-13:
                        continue
                    assert weighted_geometric_pmf(params, t) == pytest.approx(
                        exact[t], rel=1e-9
                    )
                    if k + t - 1 <= 60:
                        assert stirling_pmf(params, t) == pytest.approx(
                            exact[t], rel=1e-9
                        )


class TestConditionalParams:
    def test_unconditional_identity(self):
        assert conditional_params(9, 4, 0.7, 0) == OccupancyParams(9, 4, 0.7)

    def test_half_occupied_transform(self):
        assert conditional_params(4, 2, 1.0, 2) == OccupancyParams(2, 2, 0.5)

    def test_figure_parameters(self):
        got = conditional_params(30, 14, 0.6, 10)
        assert got.m == 20 and got.k == 14
        assert got.theta == pytest.approx(0.4, rel=1e-15)

    def test_closure_against_increment_convolution(self):
        # wait from occupancy r to r+k == convolution of the shifted
        # increments Geom(theta*(m-l+1)/m), l = r+1..r+k
        for (m, k, r, theta) in [(8, 3, 2, 0.5), (8, 2, 6, 1.0), (6, 4, 1, 0.8)]:
            cond = conditional_params(m, k, theta, r)
            t_cut = min(truncation_point(cond), 30)
            exact = pmf_vector(cond, t_cut)

            out = np.zeros(t_cut + 1)
            out[0] = 1.0
            for l in range(r + 1, r + k + 1):
                p = theta * (m - l + 1) / m
                ts = np.arange(t_cut + 1)
                geom = (
                    np.where(ts == 0, 1.0, 0.0)
                    if p == 1.0
                    else p * (1.0 - p) ** ts
                )
                out = np.convolve(out, geom)[: t_cut + 1]
            np.testing.assert_allclose(out, exact, rtol=1e-9, atol=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            conditional_params(5, 3, 1.0, 3)
        with pytest.raises(DomainError):
            conditional_params(5, 3, 1.0, -1)
        with pytest.raises(DomainError):
            conditional_params(INFINITE, 3, 0.5, 1)

    def test_theta_checked_before_the_transform(self):
        # theta' = 1.5 * 2/4 would be valid; the input theta is not
        with pytest.raises(DomainError, match="theta"):
            conditional_params(4, 2, 1.5, 2)

"""Exact pmf recursion, CDF and quantile."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negocc import (
    INFINITE,
    DomainError,
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
from negocc.exact import _SEGMENT_RISE, _log_cumsum_exp
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
                block.T[finite], ref[finite], rtol=1e-12, atol=1e-12
            )
            assert np.array_equal(np.isfinite(block.T), finite)

    def test_first_column_is_geometric_exactly(self):
        for theta in (0.25, 0.6, 1.0):
            block = log_pmf_block(9, theta, 4, 25)
            ts = np.arange(26)
            if theta == 1.0:
                expected = np.where(ts == 0, 0.0, NEG_INF)
            else:
                expected = math.log(theta) + ts * math.log1p(-theta)
            assert np.array_equal(block[0], expected)

    def test_columns_are_subprobability(self):
        for theta in (0.25, 0.6, 1.0):
            block = log_pmf_block(10, theta, 10, 400)
            assert np.all(block <= 0.0)
            sums = np.exp(block).sum(axis=1)
            assert np.all(sums <= 1.0 + 1e-12)

    def test_block_is_immutable(self):
        block = log_pmf_block(4, 1.0, 3, 5)
        with pytest.raises(ValueError):
            block[0, 0] = 1.0

    def test_no_nan_anywhere(self):
        for theta in (1e-9, 0.5, 1.0):
            block = log_pmf_block(6, theta, 6, 50)
            assert not np.any(np.isnan(block))

    def test_convolution_example(self):
        # Geom(1) * Geom(2/3) puts mass 2/3, 2/9 on t = 0, 1
        block = log_pmf_block(3, 1.0, 2, 1)
        np.testing.assert_allclose(
            np.exp(block[1]), [2.0 / 3.0, 2.0 / 9.0], rtol=1e-14
        )

    def test_half_geometric_example(self):
        # k = 2, m = 2, theta = 1: mass 2**-(t+1)
        block = log_pmf_block(2, 1.0, 2, 6)
        ts = np.arange(7)
        np.testing.assert_allclose(np.exp(block[1]), 0.5 ** (ts + 1), rtol=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_pmf_block(3, 1.0, 5, 4)
        with pytest.raises(DomainError):
            log_pmf_block(3, 0.0, 2, 4)
        with pytest.raises(DomainError):
            log_pmf_block(3, 1.0, 2, -1)


def _longdouble_log_block(m, theta, k, tmax):
    """The same column recursion in np.longdouble, with numpy's sequential
    logaddexp scan: the rows (k, tmax+1) to within a few longdouble ulps."""
    ts = np.arange(tmax + 1, dtype=np.longdouble)
    theta = np.longdouble(theta)
    if theta == 1:
        col = np.where(ts == 0, np.longdouble(0), np.longdouble(NEG_INF))
    else:
        col = np.log(theta) + ts * np.log1p(-theta)
    rows = [col]
    for r in range(1, k):
        coeff = theta * (m - r) / m
        shift = ts * np.log1p(-coeff)
        col = np.log(coeff) + shift + np.logaddexp.accumulate(col - shift)
        rows.append(col)
    return np.array(rows)


_RISE = np.arange(8) * 700.0
_SCAN_INPUTS = {
    "leading-neg-inf": np.concatenate([np.full(5, NEG_INF),
                                       np.linspace(-3.0, 2.0, 20)]),
    "all-neg-inf": np.full(7, NEG_INF),
    "one-point": np.array([-2.5]),
    "rise-700-every-step": _RISE,
    "rise-then-fall": np.concatenate([_RISE, _RISE[::-1] - 50.0]),
    "flat": np.full(2000, -1.25),
    "steady-rise": np.arange(3000) * 0.9,  # the carry matters at each cut
    "jump-1e4": np.concatenate([np.linspace(-10.0, 0.0, 50),
                                np.linspace(1e4, 1e4 - 5.0, 50)]),
    "neg-inf-between": np.array([0.0, NEG_INF, NEG_INF, 3.0, NEG_INF, 800.0]),
}


class TestLogCumsumExp:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", sorted(_SCAN_INPUTS))
    def test_matches_logaddexp_accumulate(self, name):
        x = _SCAN_INPUTS[name]
        got = _log_cumsum_exp(x, np.empty_like(x))
        ref = np.logaddexp.accumulate(x)
        assert not np.isnan(got).any()
        assert np.array_equal(np.isfinite(got), np.isfinite(ref))
        finite = np.isfinite(ref)
        assert np.all(np.abs(got[finite] - ref[finite])
                      <= 1e-13 * np.maximum(1.0, np.abs(ref[finite])))
        # in place, and prefix by prefix
        inplace = x.copy()
        _log_cumsum_exp(inplace, inplace)
        assert inplace.tobytes() == got.tobytes()
        for n in range(1, x.size):
            head = x[:n].copy()
            assert _log_cumsum_exp(head, head).tobytes() == got[:n].tobytes()


def _prefix_max_log_cumsum_exp(x, out):
    """The scan with its cuts found from a prefix maximum over all of x,
    as it was before the block search (the reference for byte identity)."""
    peak = np.fmax.accumulate(x)
    carry = NEG_INF
    start = 0
    while start < x.size:
        ref = max(carry, float(x[start]))
        end = start + 1 + int(peak[start + 1:].searchsorted(ref + _SEGMENT_RISE, "right"))
        seg = out[start:end]
        if ref == NEG_INF:
            seg.fill(NEG_INF)
        else:
            np.subtract(x[start:end], ref, out=seg)
            np.exp(seg, out=seg)
            seg[0] += math.exp(carry - ref)
            np.add.accumulate(seg, out=seg)
            np.log(seg, out=seg)
            seg += ref
        carry = float(seg[-1])
        start = end
    return out


def _assert_scan_is_reference(x):
    ref = _prefix_max_log_cumsum_exp(x, np.empty_like(x)).tobytes()
    assert _log_cumsum_exp(x, np.empty_like(x)).tobytes() == ref
    inplace = x.copy()
    _log_cumsum_exp(inplace, inplace)
    assert inplace.tobytes() == ref


def _first_crossing_at(n, index):
    # a gentle fall from 0, then the first point above the first limit
    x = np.linspace(0.0, -5.0, n)
    x[index] = _SEGMENT_RISE + 1.0
    x[index + 1:] += _SEGMENT_RISE  # later cuts measure from the new carry
    return x


_CUT_INPUTS = {
    **{f"first-cut-at-{i}": _first_crossing_at(1000, i)
       for i in (255, 256, 257, 511, 512, 999)},
    "two-cuts-in-one-block": np.concatenate([np.zeros(300), [700.0],
                                             np.full(9, 650.0), [1400.0],
                                             np.full(289, 1350.0)]),
    **{f"length-{n}": np.arange(n) * 5.0 for n in (1, 255, 256, 257)},
    "neg-inf-runs": np.concatenate([np.full(300, NEG_INF), np.arange(100) * 9.0,
                                    np.full(400, NEG_INF), [2000.0],
                                    np.full(200, NEG_INF), [4000.0]]),
}


class TestBlockSearch:
    """The cuts found from block maxima are the prefix-maximum cuts."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name", sorted(_CUT_INPUTS))
    def test_matches_prefix_max_scan(self, name):
        _assert_scan_is_reference(_CUT_INPUTS[name])

    @pytest.mark.filterwarnings("error")
    @given(st.lists(st.one_of(st.floats(-700.0, 700.0), st.just(NEG_INF)),
                    min_size=1, max_size=1500))
    @settings(max_examples=200, deadline=None)
    def test_random_walk_matches_prefix_max_scan(self, steps):
        steps = np.array(steps)
        gaps = np.isinf(steps)
        x = np.where(gaps, NEG_INF, np.cumsum(np.where(gaps, 0.0, steps)))
        _assert_scan_is_reference(x)

    def test_block_matches_prefix_max_scan(self, monkeypatch):
        # the pmf-cut-columns golden case: 388 columns cut, five of the
        # cuts within one point of a block edge
        import negocc.exact

        block = log_pmf_block(1000, 1.0, 1000, 3000)
        monkeypatch.setattr(negocc.exact, "_log_cumsum_exp", _prefix_max_log_cumsum_exp)
        assert block.tobytes() == log_pmf_block(1000, 1.0, 1000, 3000).tobytes()


class TestPrefixStability:
    # both triples cut their columns into more than one scan segment at t2
    @pytest.mark.parametrize("m, k, theta, t2", [
        (300, 120, 0.02, 60_000),
        (1000, 1000, 1.0, 3000),
    ])
    def test_values_do_not_depend_on_tmax(self, m, k, theta, t2):
        params = OccupancyParams(m, k, theta)
        full = log_pmf_vector(params, t2)
        for t1 in (0, 1, 37, 999, 1000, 2047, t2 // 2, t2 - 1):
            assert log_pmf_vector(params, t1).tobytes() == full[: t1 + 1].tobytes()
        cdfs = cdf_vector(params, t2)
        for t in (0, 1, 999, t2 // 3, t2):
            assert cdf(params, t) == cdfs[t]


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="longdouble is double on this platform")
class TestAccuracyGate:
    # at most about 3e6 column updates a case
    @pytest.mark.parametrize("m, theta, k, tmax", [
        (40, 0.05, 40, 8466),
        (300, 0.02, 120, 11027),
        (1000, 1.0, 1000, 2999),
        (2000, 0.9, 1500, 1908),
    ])
    def test_block_matches_longdouble_recursion(self, m, theta, k, tmax):
        block = log_pmf_block(m, theta, k, tmax)
        ref = _longdouble_log_block(m, theta, k, tmax)
        finite = np.isfinite(ref)
        assert np.array_equal(np.isfinite(block), finite)
        err = np.abs(block[finite] - ref[finite]).astype(float)
        assert np.all(err <= 2e-13 * np.maximum(1.0, np.abs(ref[finite]).astype(float)))


class TestPmfVector:
    def test_geometric_base_case(self):
        for m in (1, 5, 1000):
            got = pmf_vector(OccupancyParams(m, 1, 0.5), 2)
            np.testing.assert_allclose(got, [0.5, 0.25, 0.125], rtol=1e-14)

    def test_matches_block_final_column(self):
        # one read-only, C-contiguous row per occupancy r, bit for bit the
        # vector of (m, r, theta)
        for (m, theta, k, tmax) in [(9, 0.6, 6, 30), (5, 1.0, 5, 12),
                                    (40, 0.25, 17, 200), (1, 1.0, 1, 0)]:
            block = log_pmf_block(m, theta, k, tmax)
            assert block.shape == (k, tmax + 1)
            assert block.dtype == np.float64
            assert block.flags.c_contiguous and not block.flags.writeable
            for r in range(1, k + 1):
                vector = log_pmf_vector(OccupancyParams(m, r, theta), tmax)
                assert vector.tobytes() == block[r - 1].tobytes(), (m, theta, r)

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

"""Log-space primitives and special functions."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negocc import (
    DomainError,
    OracleRangeError,
    gamma_log_cdf_grid,
    harmonic_power_sum,
    harmonic_power_sums,
    stirling2,
)
from negocc.numerics import log_diff_grid
from negocc.oracles import (
    log_falling_factorial,
    log_sum_exp,
    regularized_gamma_p,
    stirling2_noncentral,
)

NEG_INF = float("-inf")

log_domain = st.floats(min_value=-700.0, max_value=0.0, allow_nan=False)


class TestLogSumExp:
    def test_two_unit_terms(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_neg_inf_is_identity(self):
        for x in (-3.5, 0.0, -700.0):
            assert log_sum_exp([NEG_INF, x]) == x

    def test_probability_sum(self):
        got = log_sum_exp([math.log(0.2), math.log(0.3)])
        assert got == pytest.approx(math.log(0.5), abs=1e-15)

    def test_all_neg_inf(self):
        assert log_sum_exp([NEG_INF, NEG_INF]) == NEG_INF

    def test_empty_sequence_rejected(self):
        with pytest.raises(DomainError):
            log_sum_exp([])

    @given(st.lists(log_domain, min_size=1, max_size=8))
    def test_permutation_invariant_and_padding_exact(self, xs):
        base = log_sum_exp(xs)
        assert log_sum_exp(list(reversed(xs))) == pytest.approx(base, abs=1e-13)
        assert log_sum_exp(xs + [NEG_INF]) == base
        assert not math.isnan(base)
        assert base <= math.log(len(xs)) + 1e-12  # inputs are log-probabilities


class TestLogDiffExp:
    def test_two_minus_one(self):
        assert log_diff_grid(math.log(2.0), 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_equal_arguments(self):
        assert log_diff_grid(-1.3, -1.3) == NEG_INF
        assert log_diff_grid(NEG_INF, NEG_INF) == NEG_INF

    def test_probability_difference(self):
        got = log_diff_grid(0.0, math.log(0.75))
        assert got == pytest.approx(math.log(0.25), abs=1e-15)

    def test_grid_edge_cases(self):
        upper = np.array([0.0, -1.0, -3.0, NEG_INF, -2.0])
        lower = np.array([-0.1, -20.0, -3.0, NEG_INF, NEG_INF])
        grid = log_diff_grid(upper, lower)
        assert grid[2] == grid[3] == NEG_INF and grid[4] == -2.0
        # a rounding-reversed pair in a grid gives -inf, not NaN
        assert log_diff_grid(np.array([-1.0]), np.array([-0.5]))[0] == NEG_INF

    @given(log_domain, log_domain)
    @settings(max_examples=300)
    def test_sum_then_diff_roundtrip(self, a, b):
        # exp(logdiffexp(logsumexp([a, b]), b)) recovers exp(a).  Once
        # exp(a) drops below the ulp resolution of the stored sum
        # (~eps * exp(b) * (1 + |b|)) the information cannot survive any
        # binary64 logsumexp, so that floor enters as an absolute term.
        total = log_sum_exp([a, b])
        back = log_diff_grid(total, b)
        floor = 2.0**-52 * math.exp(b) * (4.0 + 2.0 * abs(b))
        np.testing.assert_allclose(
            math.exp(back), math.exp(a), rtol=1e-12, atol=floor
        )
        assert not math.isnan(back)


class TestHarmonicNumbers:
    """H_m^(r), the generalised harmonic number, is
    harmonic_power_sum(m, m, 1.0, r) / m**r."""

    def test_small_values(self):
        assert harmonic_power_sum(3, 3, 1.0, 1) == pytest.approx(
            3 * 11.0 / 6.0, rel=1e-15
        )
        assert harmonic_power_sum(3, 3, 1.0, 2) == pytest.approx(
            9 * 49.0 / 36.0, rel=1e-15
        )

    def test_monotone_in_m_and_order(self):
        def h(m, r):
            return harmonic_power_sum(m, m, 1.0, r) / m**r

        for m in range(2, 30):
            assert h(m, 1) > h(m - 1, 1)
            for r in range(1, 4):
                assert h(m, r) > h(m, r + 1)

    def test_domain(self):
        with pytest.raises(DomainError):
            harmonic_power_sum(-1, 1, 1.0, 1)
        with pytest.raises(DomainError):
            harmonic_power_sum(3, 3, 1.0, 0)


def _exact_window_sum(m, k, theta, order):
    """The window sum in exact rational arithmetic, rounded once."""
    ratio = Fraction(m) / Fraction(theta)
    return float(sum((ratio / l) ** order for l in range(m - k + 1, m + 1)))


def _mp_window_sum(m, k, theta, order):
    """The window sum at 40 digits, through digamma / Hurwitz zeta."""
    from mpmath import mp, mpf, psi, zeta

    with mp.workdps(40):
        a = m - k + 1
        if order == 1:
            inverse_powers = psi(0, m + 1) - psi(0, a)
        else:
            inverse_powers = zeta(order, a) - zeta(order, m + 1)
        return (mpf(m) / mpf(theta)) ** order * inverse_powers


class TestHarmonicPowerSum:
    def test_small_values(self):
        assert harmonic_power_sum(3, 2, 1.0, 1) == pytest.approx(2.5, rel=1e-15)
        assert harmonic_power_sum(3, 2, 1.0, 2) == pytest.approx(3.25, rel=1e-15)

    def test_infinite_limit(self):
        # limit k / theta**order
        assert harmonic_power_sum(math.inf, 2, 0.5, 1) == pytest.approx(4.0)
        assert harmonic_power_sum(math.inf, 3, 0.25, 2) == pytest.approx(48.0)

    def test_matches_harmonic_difference(self):
        for (m, k, theta, order) in [(10, 4, 0.6, 1), (25, 25, 1.0, 2), (7, 3, 0.3, 3)]:
            ref = _exact_window_sum(m, k, theta, order)
            got = harmonic_power_sum(m, k, theta, order)
            np.testing.assert_allclose(got, ref, rtol=1e-12)

    @pytest.mark.parametrize("m, k, theta, order", [
        (10**6, 10**6, 1.0, 3),
        (10**6, 10**6, 1.0, 1),
        (10**6, 10**6, 0.05, 4),
        (10**6, 7, 0.7, 2),
        (10**5, 3000, 0.05, 1),
        (200, 200, 0.7, 4),
        (200, 1, 1.0, 2),
    ])
    def test_matches_mpmath(self, m, k, theta, order):
        ref = _mp_window_sum(m, k, theta, order)
        got = harmonic_power_sum(m, k, theta, order)
        assert abs(got - ref) <= 1e-14 * ref

    def test_monotone_in_parameters(self):
        # decreasing in m toward the k/theta**order limit, increasing in
        # k, decreasing in theta
        grid = [(8, 4, 0.5), (20, 10, 0.8), (15, 3, 1.0)]
        for order in (1, 2, 3):
            for m, k, theta in grid:
                here = harmonic_power_sum(m, k, theta, order)
                assert harmonic_power_sum(m + 1, k, theta, order) < here
                assert harmonic_power_sum(m, k + 1, theta, order) > here
                assert harmonic_power_sum(m, k, theta - 0.1, order) > here
                assert here > harmonic_power_sum(math.inf, k, theta, order)

    def test_limit_approached_from_above(self):
        limit = harmonic_power_sum(math.inf, 5, 0.5, 2)
        values = [harmonic_power_sum(10**j, 5, 0.5, 2) for j in (2, 3, 4, 5)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > limit for v in values)
        np.testing.assert_allclose(values[-1], limit, rtol=1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            harmonic_power_sum(3, 4, 1.0, 1)

    def test_overflow_names_theta(self):
        assert harmonic_power_sum(5, 2, 1e-300, 1) > 1e300
        for m in (5, math.inf):
            with pytest.raises(DomainError, match="theta"):
                harmonic_power_sum(m, 2, 1e-300, 2)
            with pytest.raises(DomainError, match="theta"):
                harmonic_power_sums(m, 2, 1e-300, 2)

    def test_memory_does_not_grow_with_k(self):
        import tracemalloc

        tracemalloc.start()
        try:
            harmonic_power_sum(10**7, 10**7, 1.0, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20  # the k = 10**7 terms alone would be 80 MB


class TestHarmonicPowerSums:
    """Entry j-1 is harmonic_power_sum(m, j, ...) for every window size j."""

    @pytest.mark.parametrize("m, k", [(200, 200), (10**5, 3000)])
    @pytest.mark.parametrize("theta", [1.0, 0.7, 0.05])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_prefixes_are_the_scalar_sums(self, m, k, theta, order):
        sums = harmonic_power_sums(m, k, theta, order)
        assert sums.shape == (k,)
        scalars = [harmonic_power_sum(m, j, theta, order) for j in range(1, k + 1)]
        assert sums.tolist() == scalars

    @pytest.mark.parametrize("m, k", [(200, 200), (10**5, 3000)])
    @pytest.mark.parametrize("theta", [1.0, 0.7, 0.05])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_chunking_changes_no_bit(self, monkeypatch, m, k, theta, order):
        import negocc.numerics

        whole = harmonic_power_sums(m, k, theta, order)
        monkeypatch.setattr(negocc.numerics, "_SUM_CHUNK", 7)
        assert harmonic_power_sums(m, k, theta, order).tolist() == whole.tolist()
        for j in (1, 6, 7, 8, 14, 15, 100, k - 1, k):
            assert harmonic_power_sum(m, j, theta, order) == whole[j - 1]

    def test_infinite_m(self):
        sums = harmonic_power_sums(math.inf, 4, 0.5, 2)
        assert sums.tolist() == [
            harmonic_power_sum(math.inf, j, 0.5, 2) for j in (1, 2, 3, 4)
        ]

    def test_domain(self):
        with pytest.raises(DomainError):
            harmonic_power_sums(3, 4, 1.0, 1)
        with pytest.raises(DomainError):
            harmonic_power_sums(3, 2, 1.0, 0)


class TestLogFallingFactorial:
    def test_values(self):
        assert log_falling_factorial(3, 2) == pytest.approx(math.log(6.0), rel=1e-15)
        assert log_falling_factorial(5, 5) == pytest.approx(math.log(120.0), rel=1e-15)

    def test_empty_product(self):
        assert log_falling_factorial(7, 0) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            log_falling_factorial(3, 4)


def _stirling2_exact(n: int, k: int) -> int:
    # alternating-sum closed form, evaluated in exact integer arithmetic
    total = Fraction(0)
    for i in range(k + 1):
        total += Fraction((-1) ** (k - i) * math.comb(k, i) * i**n)
    total /= Fraction(math.factorial(k))
    assert total.denominator == 1
    return int(total)


def _stirling2_noncentral_exact(n: int, k: int, phi: Fraction) -> Fraction:
    total = Fraction(0)
    for i in range(k + 1):
        total += Fraction((-1) ** (k - i) * math.comb(k, i)) * (i + phi) ** n
    return total / math.factorial(k)


class TestStirlingCentral:
    def test_known_values(self):
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7
        for r in range(1, 10):
            assert stirling2(r, 1) == 1

    def test_above_diagonal_is_zero(self):
        assert stirling2(3, 5) == 0

    def test_against_alternating_sum(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert stirling2(n, k) == _stirling2_exact(n, k)


class TestStirlingNoncentral:
    def test_base_case_power(self):
        assert stirling2_noncentral(2, 0, 3.0) == pytest.approx(9.0, rel=1e-14)
        assert stirling2_noncentral(0, 0, 0.0) == 1.0

    def test_one_telescoping_step(self):
        # phi + (1 + phi) at phi = 1
        assert stirling2_noncentral(2, 1, 1.0) == pytest.approx(3.0, rel=1e-14)

    def test_reduces_to_central_at_zero(self):
        for n in range(1, 13):
            for k in range(1, n + 1):
                got = stirling2_noncentral(n, k, 0.0)
                assert got == pytest.approx(_stirling2_exact(n, k), rel=1e-13)

    @pytest.mark.parametrize("phi", [Fraction(3, 2), Fraction(0), Fraction(9, 4)])
    def test_against_exact_rational_sum(self, phi):
        for n in range(0, 21):
            for k in range(0, n + 1):
                ref = float(_stirling2_noncentral_exact(n, k, phi))
                got = stirling2_noncentral(n, k, float(phi))
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)

    def test_oracle_range_is_enforced(self):
        with pytest.raises(OracleRangeError):
            stirling2_noncentral(61, 5, 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            stirling2_noncentral(3, 4, 1.0)


def _erlang_cdf_highprec(x: float, k: int, rate: float) -> float:
    from mpmath import mp, mpf

    with mp.workdps(50):
        lam = mpf(rate) * mpf(x)
        tail = sum(lam**j / mp.factorial(j) for j in range(k))
        return float(1 - mp.e ** (-lam) * tail)


class TestGammaLogCdf:
    def test_exponential_special_case(self):
        got = gamma_log_cdf_grid(1.0, 1.0, 1.0)[0]
        assert got == pytest.approx(math.log(-math.expm1(-1.0)), rel=1e-14)

    def test_zero_argument(self):
        assert gamma_log_cdf_grid(0.0, 2.5, 0.7)[0] == NEG_INF

    def test_erlang_shape_two(self):
        got = gamma_log_cdf_grid(2.0, 2.0, 1.0)[0]
        assert got == pytest.approx(math.log(1.0 - 3.0 * math.exp(-2.0)), rel=1e-13)

    @pytest.mark.parametrize("shape", [1, 2, 3, 4, 5])
    def test_erlang_closed_forms(self, shape):
        for rate in (0.5, 1.0, 2.0):
            for x in (0.05, 0.3, 1.0, 2.7, 6.0, 15.0, 40.0):
                ref = _erlang_cdf_highprec(x, shape, rate)
                got = math.exp(gamma_log_cdf_grid(x, float(shape), rate)[0])
                np.testing.assert_allclose(got, ref, rtol=1e-10)

    def test_monotone_and_bounded(self):
        for shape in (0.4, 3.0, 17.3, 80.0):
            xs = np.linspace(0.0, 6.0 * (shape + 1.0), 400)
            logs = gamma_log_cdf_grid(xs, shape, 1.0)
            probs = np.exp(logs)
            assert np.all(np.diff(logs) >= -1e-13)
            assert np.all((probs >= 0.0) & (probs <= 1.0))
            assert not np.any(np.isnan(logs))

    def test_deep_left_tail_stays_finite(self):
        got = gamma_log_cdf_grid(1e-3, 20.0, 1.0)[0]
        assert math.isfinite(got) and got < -100.0

    def test_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(1)
        for shape in (0.7, 4.0, 33.0):
            xs = rng.uniform(0.0, 4.0 * shape, 50)
            ref = scipy_stats.gamma.logcdf(xs, a=shape, scale=2.0)
            got = gamma_log_cdf_grid(xs, shape, 0.5)
            np.testing.assert_allclose(got, ref, rtol=1e-11, atol=1e-13)

    @pytest.mark.parametrize("shape", [600.0, 5e3, 1e5, 1e6])
    def test_large_shape_matches_mpmath(self, shape):
        # across mean +- 60 sd; at 1e6 gammainc alone is off by 3e-7 near
        # 5 sd below the mean, where its own series stops short
        from mpmath import inf, log, mp, mpf
        from mpmath import gammainc as mp_gammainc

        sd = math.sqrt(shape)
        xs = shape + sd * np.linspace(-60.0, 60.0, 49)
        xs = xs[xs > 0.0]
        got = gamma_log_cdf_grid(xs, shape, 1.0)
        with mp.workdps(40):
            a = mpf(shape)
            ref = [
                float(log(mp_gammainc(a, 0, mpf(x), regularized=True))) if x < shape
                else float(log(1 - mp_gammainc(a, mpf(x), inf, regularized=True)))
                for x in xs
            ]
        ref = np.array(ref)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    def test_huge_shape_stays_finite_and_monotone(self):
        shape = 1e9
        sd = math.sqrt(shape)
        xs = np.linspace(shape - 60.0 * sd, shape + 60.0 * sd, 100_000)
        logs = gamma_log_cdf_grid(xs, shape, 1.0)
        assert not np.any(np.isnan(logs))
        assert np.all(np.isfinite(logs)) and np.all(logs <= 0.0)
        assert np.all(np.diff(logs) >= 0.0)

    def test_shape_beyond_the_series_is_domain_error(self):
        # at shape 1e11 scipy's hyp1f1 stops short a few sd below the mean;
        # far tails still converge
        shape = 1e11
        assert gamma_log_cdf_grid(1.0, shape, 1.0)[0] < -1e12
        with pytest.raises(DomainError, match="shape is too large"):
            gamma_log_cdf_grid(shape - 5.0 * math.sqrt(shape), shape, 1.0)

    def test_ragged_call_matches_scalar_calls(self):
        # shapes on both sides of the capped-series switch, each over its
        # deep lower tail, the mean and the upper tail, in one call
        from negocc.numerics import _CAPPED_SHAPE, _gamma_log_cdf

        shapes = [3.7, 40.0, 900.0, 0.5 * _CAPPED_SHAPE, 1.2 * _CAPPED_SHAPE, 2e5]
        rates = [0.7, 1.0, 2.5, 1.0, 0.3, 1.0]
        segments = []
        for shape, rate in zip(shapes, rates):
            sd = math.sqrt(shape)
            z = np.concatenate([[0.0, 1e-3 * shape, 0.1 * shape, 0.6 * shape],
                                shape + sd * np.linspace(-12.0, 12.0, 25)])
            segments.append(np.maximum(z, 0.0) / rate)
        lengths = [seg.size for seg in segments]
        got = _gamma_log_cdf(np.concatenate(segments),
                             np.repeat(shapes, lengths), np.repeat(rates, lengths))
        pieces = np.split(got, np.cumsum(lengths)[:-1])
        for seg, piece, shape, rate in zip(segments, pieces, shapes, rates):
            scalar = gamma_log_cdf_grid(seg, shape, rate)
            assert piece.tobytes() == scalar.tobytes(), shape
            assert np.any(np.exp(scalar) < 1e-5)  # the tail series ran

    def test_ragged_call_keeps_the_checks(self):
        from negocc.numerics import _gamma_log_cdf

        with pytest.raises(DomainError, match="shape and rate"):
            _gamma_log_cdf(np.ones(2), np.array([1.0, 0.0]), np.ones(2))
        with pytest.raises(DomainError, match="shape and rate"):
            _gamma_log_cdf(np.ones(2), np.ones(2), np.array([1.0, -1.0]))
        with pytest.raises(DomainError, match="non-negative"):
            _gamma_log_cdf(np.array([1.0, -1.0]), np.ones(2), np.ones(2))
        with pytest.raises(DomainError, match="too large .*: 1e\\+11$"):
            shape = 1e11
            _gamma_log_cdf(np.array([1.0, shape - 5.0 * math.sqrt(shape)]),
                           np.array([2.0, shape]), np.ones(2))

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_log_cdf_grid(-1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            gamma_log_cdf_grid(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            gamma_log_cdf_grid(1.0, 1.0, -2.0)


def _two_call_log_cdf(x, shape, rate):
    """The kernel's route before the median bound: gammainc at every point,
    then gammaincc wherever P >= 1/2 (the reference for byte identity)."""
    from scipy.special import gammainc, gammaincc, hyp1f1

    from negocc.numerics import (
        _CAPPED_SHAPE,
        _P_CAPPED,
        _P_UNDERFLOW,
        _per_shape,
        _tail_anchor,
    )

    def at(values, mask):
        return values if np.ndim(values) == 0 else values[mask]

    z = rate * np.atleast_1d(np.asarray(x, dtype=float))
    p = gammainc(shape, z)
    with np.errstate(divide="ignore"):
        out = np.log(p)
    upper = p >= 0.5
    out[upper] = np.log1p(-gammaincc(at(shape, upper), z[upper]))
    tail = (p < np.where(shape < _CAPPED_SHAPE, _P_UNDERFLOW, _P_CAPPED)) & (z > 0.0)
    if tail.any():
        a, zt = at(shape, tail), z[tail]
        lead = a * np.log(zt) - zt - _per_shape(lambda s: math.lgamma(s + 1.0), a)
        near = zt >= 0.5 * a
        if near.any():
            an, zn = at(a, near), zt[near]
            lead[near] = (_per_shape(_tail_anchor, an)
                          + an * np.log1p((zn - an) / an) - (zn - an))
        out[tail] = lead + np.log(hyp1f1(1.0, a + 1.0, zt))
    return out


_ROUTE_SHAPES = [1e-3, 0.5, 1.0, 13.0, 600.0, 49_999.0, 5e4, 1e7]


def _straddling_grid(shape):
    """z over the lower tail, the mean and the upper tail of gamma(shape),
    with a run of neighbours on both sides of shape + 1 + 1e-6*shape."""
    bound = shape + 1.0 + 1e-6 * shape
    sd = math.sqrt(shape)
    near = bound + np.concatenate([np.arange(-4, 5) * np.spacing(bound),
                                   [-1e-3, -1e-9, 1e-9, 1e-3]])
    spread = shape + sd * np.linspace(-8.0, 8.0, 33)
    far = np.array([1e-3 * shape, 0.5 * shape, shape, 2.0 * shape + 5.0, 8.0 * bound])
    return np.sort(np.concatenate([near, spread[spread > 0.0], far]))


class TestGammaRoute:
    @pytest.mark.parametrize("shape", _ROUTE_SHAPES)
    def test_scalar_grid_matches_two_call_route(self, shape):
        for rate in (1.0, 0.3):
            x = _straddling_grid(shape) / rate
            got = gamma_log_cdf_grid(x, shape, rate)
            assert got.tobytes() == _two_call_log_cdf(x, shape, rate).tobytes()
        for z in _straddling_grid(shape).tolist():
            assert gamma_log_cdf_grid(z, shape, 1.0).tobytes() == \
                _two_call_log_cdf(z, shape, 1.0).tobytes()

    def test_ragged_grid_matches_two_call_route(self):
        from negocc.numerics import _gamma_log_cdf

        grids = [_straddling_grid(shape) for shape in _ROUTE_SHAPES]
        lengths = [grid.size for grid in grids]
        shapes = np.repeat(_ROUTE_SHAPES, lengths)
        rates = np.repeat(np.linspace(0.5, 2.0, len(grids)), lengths)
        x = np.concatenate(grids) / rates
        got = _gamma_log_cdf(x, shapes, rates)
        assert got.tobytes() == _two_call_log_cdf(x, shapes, rates).tobytes()

    def test_median_bound_leaves_a_margin(self):
        # P(a, a + 1 + 1e-6*a) - 1/2 stays far above scipy's rounding error,
        # so a point past the bound never needed gammainc to pick its side
        for a in np.geomspace(1e-4, 1e7, 67).tolist():
            assert regularized_gamma_p(a, a + 1.0 + 1e-6 * a) - 0.5 > 5e-4, a

    def test_gammainc_sees_only_points_below_the_bound(self, monkeypatch):
        import scipy.special

        from negocc.numerics import _gamma_log_cdf

        gammainc = scipy.special.gammainc
        seen = {"gammainc": [], "gammaincc": []}
        for name, calls in seen.items():
            def counted(a, z, _fn=getattr(scipy.special, name), _calls=calls):
                _calls.append(np.atleast_1d(z).copy())
                return _fn(a, z)
            monkeypatch.setattr(scipy.special, name, counted)
        # no deep lower tail, so the tail series (and its anchor) stays out
        shapes = [0.5, 13.0, 600.0, 1e7]
        grids = [shape + math.sqrt(shape) * np.linspace(-3.0, 3.0, 61) + 1.0
                 for shape in shapes]
        lengths = [grid.size for grid in grids]
        shape = np.repeat(shapes, lengths)
        z = np.maximum(np.concatenate(grids), 1e-3)
        out = _gamma_log_cdf(z, shape, 1.0)
        below = z < shape + 1.0 + 1e-6 * shape
        assert 0 < below.sum() < z.size
        assert len(seen["gammainc"]) == 1
        assert seen["gammainc"][0].tobytes() == z[below].tobytes()
        upper = ~below | (gammainc(shape, z) >= 0.5)
        assert np.all(np.isfinite(out))
        assert len(seen["gammaincc"]) == 1
        assert seen["gammaincc"][0].tobytes() == z[upper].tobytes()

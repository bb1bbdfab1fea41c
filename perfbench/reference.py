"""Independent reference values for checking CLI output.

Nothing here calls negocc.  The exact law comes from its
probability-space form: each occupancy step is a first-order linear filter
over t (scipy.signal.lfilter), where negocc runs a log-space accumulation.
Moments come from the per-increment geometric cumulants rather than from
harmonic power sums, and the gamma route from scipy.special.gammainc
rather than negocc's own incomplete-gamma kernel.
"""

import functools
import math

import numpy as np
from scipy.signal import lfilter, sosfilt
from scipy.special import gammainc, gammaln


#: Absolute tolerance for probabilities from two different algorithms.
PROB_ATOL = 1e-13


def success_probs(m, k: int, theta: float) -> np.ndarray:
    """Success probability of each geometric increment, in step order."""
    if m == math.inf:
        return np.full(k, theta)
    return theta * (m - np.arange(k, dtype=float)) / m


def cumulants(m, k: int, theta: float) -> tuple:
    """First four cumulants: sums of the geometric (failures) cumulants."""
    p = success_probs(m, k, theta)
    q = 1.0 - p
    k1 = math.fsum(q / p)
    k2 = math.fsum(q / p**2)
    k3 = math.fsum(q * (2.0 - p) / p**3)
    k4 = math.fsum(q * (p * p - 6.0 * p + 6.0) / p**4)
    return k1, k2, k3, k4


def rounding_bound(k: int, magnitude: float) -> float:
    """Error bound of a k-term double-precision sum whose terms have
    absolute values adding to ``magnitude``, with a factor 4 of headroom."""
    return 4.0 * k * 2.0**-53 * magnitude


def moment_tolerances(m, k: int, theta: float) -> tuple:
    """Absolute tolerances for mean, variance, skewness and kurtosis.

    negocc documents its cumulants as signed sums of the power sums
    h_i = sum of p**-i over the increments; each k-term sum carries
    rounding in proportion to the h_i it cancels, and skewness and
    kurtosis inherit the variance's error as well.
    """
    inv = 1.0 / success_probs(m, k, theta)
    h1, h2, h3, h4 = (math.fsum(inv**i) for i in range(1, 5))
    k1, k2, k3, k4 = cumulants(m, k, theta)
    d1 = rounding_bound(k, h1 + k)
    d2 = rounding_bound(k, h2 + h1)
    if k2 == 0.0:
        return d1, d2, 0.0, 0.0
    d3 = rounding_bound(k, h1 + 3 * h2 + 2 * h3)
    d4 = rounding_bound(k, h1 + 7 * h2 + 12 * h3 + 6 * h4)
    skew, excess = k3 / k2**1.5, k4 / k2**2
    return (d1, d2, d3 / k2**1.5 + 1.5 * abs(skew) * d2 / k2,
            d4 / k2**2 + 2.0 * abs(excess) * d2 / k2)


def truncation_candidates(m, k: int, theta: float) -> set:
    """Accepted values of ceil(mean + 5 sd).

    When mean + 5 sd lies within rounding error of an integer, either
    neighbour is a correct result.
    """
    mean, var = cumulants(m, k, theta)[:2]
    x = mean + 5.0 * math.sqrt(max(var, 0.0))
    n = round(x)
    if abs(x - n) <= 1e-9 * max(1.0, abs(x)):
        return {max(n, 0), max(n + 1, 0)}
    return {max(math.ceil(x), 0)}


def _columns(m: int, theta: float, k: int, tmax: int):
    """P(T = t), t = 0..tmax, for occupancy 1..k in turn."""
    col = theta * (1.0 - theta) ** np.arange(tmax + 1, dtype=float)
    yield col
    for r in range(1, k):
        c = theta * (m - r) / m
        col = lfilter([c], [1.0, -(1.0 - c)], col)
        yield col


def pmf_block(m: int, theta: float, k: int, tmax: int) -> np.ndarray:
    """(tmax+1) x k probabilities: column r-1 is occupancy r."""
    return np.column_stack(list(_columns(m, theta, k, tmax)))


def pmf(m, k: int, theta: float, tmax: int) -> np.ndarray:
    """P(T = t) for t = 0..tmax; m may be infinite (negative binomial)."""
    if m == math.inf:
        t = np.arange(tmax + 1, dtype=float)
        logs = (gammaln(k + t) - gammaln(t + 1.0) - gammaln(k)
                + k * math.log(theta) + t * math.log1p(-theta))
        return np.exp(logs)
    col = theta * (1.0 - theta) ** np.arange(tmax + 1, dtype=float)
    if k == 1:
        return col
    # the same first-order filters as _columns, cascaded in one call
    c = theta * (m - np.arange(1, k, dtype=float)) / m
    sos = np.zeros((k - 1, 6))
    sos[:, 0] = c
    sos[:, 3] = 1.0
    sos[:, 4] = c - 1.0
    return sosfilt(sos, col)


def gamma_pmf(mean: float, var: float, tmax: int) -> np.ndarray:
    """Continuity-corrected moment-matched gamma masses over [t, t+1)."""
    if var == 0.0:
        out = np.zeros(tmax + 1)
        out[0] = 1.0
        return out
    shifted = mean + 0.5
    alpha, beta = shifted**2 / var, shifted / var
    cdf = gammainc(alpha, beta * np.arange(tmax + 2, dtype=float))
    return np.diff(cdf)


def gamma_pmf_bound(mean: float, var: float, tmax: int) -> float:
    """Absolute rounding bound of a mass computed as a difference of gamma
    CDF values assembled in log space.

    log P(shape, z) = shape*log(z) - z - lgamma(shape + 1) + log(series)
    cancels terms of size ``scale`` to a value near 0, so each CDF carries
    an absolute error of about eps * scale, and so does their difference.
    """
    shifted = mean + 0.5
    shape, z = shifted**2 / var, shifted / var * (tmax + 1)
    scale = shape * abs(math.log(z)) + z + math.lgamma(shape + 1.0)
    return max(PROB_ATOL, rounding_bound(4, scale))


def rse_summary_bounds(M: int, theta: float) -> np.ndarray:
    """Bounds on (max_rse, mean_rse, diag_rse) for m = 1..M: shape (M, 3, 2).

    A cell whose truncation point is ambiguous within rounding has an RSE
    for each accepted point; the bounds span every choice.
    """
    out = np.empty((M, 3, 2))
    for m in range(1, M + 1):
        cells = []
        for k in range(1, m + 1):
            mean, var = cumulants(m, k, theta)[:2]
            cells.append((mean, max(var, 0.0), truncation_candidates(m, k, theta)))
        block = pmf_block(m, theta, m, max(max(c[2]) for c in cells))
        lo, hi = [], []
        for k, (mean, var, cuts) in enumerate(cells, start=1):
            rse = [math.sqrt(math.fsum((block[: t + 1, k - 1] - gamma_pmf(mean, var, t)) ** 2))
                   for t in cuts]
            lo.append(min(rse))
            hi.append(max(rse))
        out[m - 1] = [(max(lo), max(hi)), (math.fsum(lo) / m, math.fsum(hi) / m),
                      (lo[-1], hi[-1])]
    return out


@functools.lru_cache(maxsize=1)
def draws(m: int, k: int, theta: float, n: int, seed: int) -> np.ndarray:
    """The documented sampler stream: draw i consumes uniforms i*k..(i+1)*k-1
    of PCG64(seed) and sums inverse-CDF geometric waits."""
    probs = theta * (m - np.arange(1, k + 1) + 1) / m
    logq = np.array([math.log1p(-q) for q in probs])
    gen = np.random.Generator(np.random.PCG64(seed))
    out = np.empty(n, dtype=np.int64)
    chunk = 8192
    for start in range(0, n, chunk):
        count = min(chunk, n - start)
        u = gen.random((count, k))
        waits = np.floor(np.log1p(-u) / logq).astype(np.int64)
        waits[:, probs == 1.0] = 0
        out[start : start + count] = waits.sum(axis=1)
    return out


def log_generating_function(m, k: int, theta: float, kind: str, arg: float):
    """Log of the product of the increments' generating functions, and the
    rounding bound of its k-term sum."""
    p = success_probs(m, k, theta)
    if kind == "pgf":
        z = arg
    elif kind in ("mgf", "cgf"):
        z = math.exp(arg)
    else:
        z = complex(math.cos(arg), math.sin(arg))
        p = p.astype(complex)
    terms = np.log(p) - np.log(1.0 - (1.0 - p) * z)
    total = complex(np.sum(terms)) if kind == "cf" else math.fsum(terms)
    return total, rounding_bound(k, float(np.sum(np.abs(terms))))

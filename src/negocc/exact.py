"""Exact negative occupancy mass function via the log-space column recursion.

The mass function is built up over the occupancy parameter: column 1 is the
geometric law of the first increment, and column r+1 follows from column r
through

    L(t, r+1) = log(theta*(m-r)/m)
                + logsumexp_{j=0..t} ( j*L_r + L(t-j, r) ),

with the per-column constant L_r = log(1 - theta*(m-r)/m).  Writing
j*L_r + L(t-j, r) = t*L_r + (L(s, r) - s*L_r) with s = t - j turns the
logsumexp into a running accumulation over s <= t, so each column is one
O(T) stable scan instead of an O(T^2) convolution.  Infinite m short-cuts
to the negative binomial law.
"""

import itertools
import math

import numpy as np

from .errors import DomainError
from .numerics import NEG_INF
from .params import INFINITE, OccupancyParams, check_tmax, check_triple

__all__ = [
    "log_pmf_block",
    "log_pmf_vector",
    "pmf_vector",
    "coupon_collector_pmf_vector",
    "negbin_log_pmf",
    "cdf",
    "cdf_vector",
    "quantile",
]


def _geometric_log_column(theta: float, ts: np.ndarray, out: np.ndarray) -> np.ndarray:
    # base case: L(t, 1) = log(theta) + t*log(1 - theta), written into out
    if theta == 1.0:
        out.fill(NEG_INF)
        out[0] = 0.0
        return out
    np.multiply(ts, math.log1p(-theta), out=out)
    return np.add(math.log(theta), out, out=out)


def _next_log_column(col, m: int, theta: float, r: int, ts, spare, out) -> np.ndarray:
    """Column for occupancy r+1 from the column for occupancy r, written
    into ``out``; ``ts`` is the float grid 0..T and ``spare`` an array of
    its size that the call overwrites."""
    coeff = theta * (m - r) / m
    decay = 1.0 - coeff
    if decay == 0.0:
        # L_r = -inf: the logsumexp collapses to its j = 0 term.  Cannot
        # occur for theta <= 1 and r >= 1, but keeps the operation total.
        return np.add(math.log(coeff), col, out=out)
    shift = np.multiply(ts, math.log(decay), out=spare)
    np.subtract(col, shift, out=out)
    running = np.logaddexp.accumulate(out, out=out)
    np.add(math.log(coeff), shift, out=shift)
    np.add(shift, running, out=out)
    return np.minimum(out, 0.0, out=out)  # rounding guard: log-probabilities


def _log_columns(m: int, theta: float, tmax: int, rows):
    """Columns r = 1, 2, ... of the recursion, each written into the next
    array of ``rows`` and yielded in turn.  Column r+1 reads only column
    r, so ``rows`` may alternate between two buffers."""
    ts = np.arange(tmax + 1, dtype=float)
    spare = np.empty(tmax + 1)
    rows = iter(rows)
    col = _geometric_log_column(theta, ts, next(rows))
    yield col
    for r, out in enumerate(rows, start=1):
        col = _next_log_column(col, m, theta, r, ts, spare, out)
        yield col


def log_pmf_block(m: int, theta: float, k: int, tmax: int) -> np.ndarray:
    """Read-only (k, tmax+1) array of log-probabilities.

    Row r-1 is the exact log-pmf for parameters (m, r, theta) over
    arguments t = 0..tmax, so each occupancy is one contiguous row; the
    intermediate rows are retained because block consumers (parameter
    studies, block CLI output) need every occupancy value, not just the
    last.  The array is marked read-only and can be shared freely.
    """
    params = OccupancyParams(m, k, theta)
    if params.is_infinite:
        raise DomainError("log_pmf_block requires finite m")
    check_tmax(tmax)
    block = np.empty((k, tmax + 1))
    for _ in _log_columns(m, params.theta, tmax, block):
        pass  # each row is written in place
    block.setflags(write=False)
    return block


def negbin_log_pmf(k: int, theta: float, t: int) -> float:
    """Negative binomial log mass (the m = INFINITE law): the k-fold
    convolution of Geom(theta) on the failures support."""
    theta = check_triple(INFINITE, k, theta)
    check_tmax(t, "t")
    return float(_negbin_log_pmf(k, theta, np.float64(t)))


def _negbin_log_pmf(k: int, theta: float, ts):
    """log C(k+t-1, t) + k*log(theta) + t*log(1-theta) at each t in ts.

    The binomial coefficient is a difference of ``gammaln`` values, which
    keeps it closer to extended precision than ``-log(k+t) - betaln(k,
    t+1)`` for t up to 1e6 (and exact at k = 1).
    """
    if theta == 1.0:
        return np.where(ts == 0, 0.0, NEG_INF)
    # imported here: at module level scipy.special doubles the CLI's start-up
    from scipy.special import gammaln

    return (gammaln(k + ts) - gammaln(ts + 1.0) - gammaln(k)
            + k * math.log(theta) + ts * math.log1p(-theta))


def log_pmf_vector(params: OccupancyParams, tmax: int) -> np.ndarray:
    """Log-pmf over t = 0..tmax for one parameter triple."""
    check_tmax(tmax)
    if params.is_infinite:
        return _negbin_log_pmf(params.k, params.theta, np.arange(tmax + 1, dtype=float))
    buffers = itertools.cycle((np.empty(tmax + 1), np.empty(tmax + 1)))
    rows = itertools.islice(buffers, params.k)
    for col in _log_columns(int(params.m), params.theta, tmax, rows):
        pass  # only the last column, r = k, is wanted
    return col


def pmf_vector(params: OccupancyParams, tmax: int) -> np.ndarray:
    """Pmf over t = 0..tmax: the exponential of :func:`log_pmf_vector`."""
    return np.exp(log_pmf_vector(params, tmax))


def coupon_collector_pmf_vector(m: int, theta: float, tmax: int) -> np.ndarray:
    """Pmf of the coupon-collector distribution, the k = m case.

    Infinite m is rejected: with unboundedly many bins a full collection
    is never completed, so the law degenerates.
    """
    if m == INFINITE:
        raise DomainError("the coupon-collector distribution requires finite m")
    return pmf_vector(OccupancyParams(m, m, theta), tmax)


def cdf_vector(params: OccupancyParams, tmax: int) -> np.ndarray:
    """CDF over t = 0..tmax, accumulated in log-space then exponentiated."""
    logs = log_pmf_vector(params, tmax)
    return np.clip(np.exp(np.logaddexp.accumulate(logs)), 0.0, 1.0)


def cdf(params: OccupancyParams, t: int) -> float:
    """P(T <= t); non-decreasing in t and clamped to [0, 1]."""
    check_tmax(t, "t")
    return float(cdf_vector(params, t)[t])


def quantile(params: OccupancyParams, p: float) -> int:
    """Smallest t with cdf(t) >= p.

    p = 1 is rejected because the support is unbounded.  Blocks of
    doubling length are computed until the threshold is crossed, starting
    from the standard truncation point.
    """
    p = float(p)
    if not (0.0 <= p < 1.0):
        raise DomainError("p must satisfy 0 <= p < 1")
    from .accuracy import truncation_point

    tmax = max(truncation_point(params), 1)
    while True:
        probs = cdf_vector(params, tmax)
        hits = np.nonzero(probs >= p)[0]
        if hits.size:
            return int(hits[0])
        tmax *= 2

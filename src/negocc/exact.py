"""Exact negative occupancy mass function via the log-space column recursion.

The mass function is built up over the occupancy parameter: column 1 is the
geometric law of the first increment, and column r+1 follows from column r
through

    L(t, r+1) = log(theta*(m-r)/m)
                + logsumexp_{j=0..t} ( j*L_r + L(t-j, r) ),

with the per-column constant L_r = log(1 - theta*(m-r)/m).  Writing
j*L_r + L(t-j, r) = t*L_r + (L(s, r) - s*L_r) with s = t - j turns the
logsumexp into a running log-sum-exp over s <= t, so each column is one
O(T) scan instead of an O(T^2) convolution.  The scan is cut into segments
over which the terms rise by at most ``_SEGMENT_RISE`` nats; within one,
each term is shifted by the segment's reference and the exponentials are
summed with ``cumsum`` (the shifted log-sum-exp of Blanchard, Higham &
Higham 2021), so a column costs a few vectorised passes, not one
``exp``/``log1p`` round trip per point.  Infinite m short-cuts to the
negative binomial law.
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


#: The terms of one segment of :func:`_log_cumsum_exp` rise at most this
#: far above its reference, so none of their exponentials overflows.
_SEGMENT_RISE = 600.0

#: :func:`_log_cumsum_exp` finds each cut from the maxima of x over blocks
#: of this many points.
_SEARCH_BLOCK = 256


def _log_cumsum_exp(x, out) -> np.ndarray:
    """Running log-sum-exp, out[t] = log(sum_{s<=t} exp(x[s])), written into
    ``out`` (which may be ``x``).

    A segment starting at ``start`` takes as reference ``ref`` the larger
    of the running value before it and x[start], and ends before the first
    t whose prefix maximum exceeds ``limit = ref + _SEGMENT_RISE``.  Inside
    it no shifted term overflows, every value is at least ``ref`` (so a
    term that underflows is below exp(-700) of the running total), and the
    cut points depend only on the prefix of x, so out[t] does not depend on
    x's length.

    The cut is found without a prefix maximum over all of x.  ``blocks``
    is the running maximum of x's maxima over blocks of ``_SEARCH_BLOCK``
    points, taken before anything is written; its first entry above
    ``limit`` names the block holding the first point of x above
    ``limit``, and one compare inside that block finds the point.  No point
    up to ``start`` is above ``limit``, so this is the cut the prefix
    maximum gives: the unwritten points are at most the prefix maximum,
    the ones already overwritten in place hold running values, at most the
    carry, and both bounds are ``ref`` up to rounding far below
    ``_SEGMENT_RISE``.
    """
    blocks = np.fmax.accumulate(np.fmax.reduceat(x, np.arange(0, x.size, _SEARCH_BLOCK)))
    carry = NEG_INF
    start = 0
    while start < x.size:
        ref = max(carry, float(x[start]))
        limit = ref + _SEGMENT_RISE
        lo = int(blocks.searchsorted(limit, "right")) * _SEARCH_BLOCK
        end = (lo + int(np.argmax(x[lo:lo + _SEARCH_BLOCK] > limit)) if lo < x.size
               else x.size)
        seg = out[start:end]
        if ref == NEG_INF:
            seg.fill(NEG_INF)  # every term so far is exp(-inf) = 0
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


def _next_log_column(col, m: int, theta: float, r: int, ts, shift, out) -> np.ndarray:
    """Column for occupancy r+1 from the column for occupancy r, written
    into ``out``; ``ts`` is the float grid 0..T and ``shift`` an array of
    its size that the call overwrites."""
    coeff = theta * (m - r) / m
    decay = 1.0 - coeff
    if decay == 0.0:
        # L_r = -inf: the logsumexp collapses to its j = 0 term.  Cannot
        # occur for theta <= 1 and r >= 1, but keeps the operation total.
        return np.add(math.log(coeff), col, out=out)
    np.multiply(ts, math.log(decay), out=shift)
    np.subtract(col, shift, out=out)
    running = _log_cumsum_exp(out, out)
    np.add(math.log(coeff), shift, out=shift)
    np.add(shift, running, out=out)
    return np.minimum(out, 0.0, out=out)  # rounding guard: log-probabilities


def _log_columns(m: int, theta: float, tmax: int, rows):
    """Columns r = 1, 2, ... of the recursion, each written into the next
    array of ``rows`` and yielded in turn.  Column r+1 reads only column
    r, so ``rows`` may alternate between two buffers."""
    ts = np.arange(tmax + 1, dtype=float)
    shift = np.empty(tmax + 1)
    rows = iter(rows)
    col = _geometric_log_column(theta, ts, next(rows))
    yield col
    for r, out in enumerate(rows, start=1):
        col = _next_log_column(col, m, theta, r, ts, shift, out)
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
    running = _log_cumsum_exp(logs, logs)
    return np.clip(np.exp(running), 0.0, 1.0)


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

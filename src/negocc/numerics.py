"""Log-space primitives and special functions.

All log-probability values here are plain floats on the extended real
line: finite, or ``-inf`` for probability zero.  No routine in this module
returns ``+inf`` or NaN for inputs inside its domain.
"""

import math

import numpy as np

from .errors import DomainError
from .params import INFINITE, check_triple

NEG_INF = float("-inf")

_LN2 = math.log(2.0)


def log_diff_grid(upper, lower) -> np.ndarray:
    """Elementwise log(exp(upper) - exp(lower)), in log-space.

    The difference is ``upper + log(1 - exp(lower - upper))`` with the
    usual switch between ``log(-expm1(d))`` and ``log1p(-exp(d))`` so both
    small and large gaps keep full precision.  Where rounding or tail
    underflow makes the difference vanish or go negative, the entry is
    ``-inf`` rather than a noisy small value.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        d = lower - upper
        via_expm1 = upper + np.log(-np.expm1(d))
        via_log1p = upper + np.log1p(-np.exp(d))
        out = np.where(d > -_LN2, via_expm1, via_log1p)
        out = np.where(d < 0.0, out, NEG_INF)
    return np.where(np.isnan(out), NEG_INF, out)


#: Terms summed per numpy call, so the scalar sum's memory does not grow with k.
_SUM_CHUNK = 1 << 16


def _power_sums(m, k: int, theta: float, order: int, keep: bool):
    """Running sums of (m / (theta*l))**order from l = m down to m-k+1:
    all k of them when ``keep``, else the last.  Each chunk's first term
    carries the total so far, so the chunking changes no bit."""
    if not isinstance(order, int) or order < 1:
        raise DomainError("order must be a positive integer")
    theta = check_triple(m, k, theta)
    out = np.empty(k) if keep else None
    try:
        if m == INFINITE:
            step = theta ** -order
            total = k * step
            if keep:
                np.multiply(np.arange(1, k + 1), step, out=out)
        else:
            total = 0.0
            with np.errstate(over="ignore"):  # an infinite total is refused below
                for start in range(0, k, _SUM_CHUNK):
                    stop = min(start + _SUM_CHUNK, k)
                    ls = np.arange(m - start, m - stop, -1, dtype=float)
                    terms = (m / (theta * ls)) ** order
                    terms[0] += total
                    total = np.cumsum(terms, out=out[start:stop] if keep else terms)[-1]
        if not math.isfinite(total):
            raise OverflowError
    except OverflowError:
        raise DomainError(
            f"theta is too small: (m / theta)**{order} overflows a double"
        ) from None
    return out if keep else float(total)


def harmonic_power_sum(m, k: int, theta: float, order: int) -> float:
    """Sum of (m / (theta*l))**order over the window l = m-k+1 .. m.

    This is the cumulant building block of the distribution: the sum of
    ``order``-th powers of the inverse success probabilities of the k
    geometric increments.  Summed term-wise, smallest first (from l = m
    down), rather than as a difference of harmonic numbers, which would
    cancel catastrophically for small k and large m.  Infinite m returns
    the limit ``k / theta**order``, approached from above: the sum is
    decreasing in m (more bins make each occupancy step easier),
    increasing in k (more positive terms), and decreasing in theta.
    """
    return _power_sums(m, k, theta, order, keep=False)


def harmonic_power_sums(m, k: int, theta: float, order: int) -> np.ndarray:
    """harmonic_power_sum(m, j, theta, order) for j = 1..k, bit for bit:
    the windows are the prefixes of one running sum."""
    return _power_sums(m, k, theta, order, keep=True)


def stirling2(r: int, i: int) -> int:
    """Central Stirling number of the second kind S(r, i), exactly.

    Uses the standard recurrence S(r, i) = i*S(r-1, i) + S(r-1, i-1);
    i > r counts no partitions and returns 0.  Intended for the small
    orders arising in cumulant formulas.
    """
    if not isinstance(r, int) or r < 1:
        raise DomainError("r must be a positive integer")
    if not isinstance(i, int) or i < 1:
        raise DomainError("i must be a positive integer")
    if i > r:
        return 0
    row = [1]  # S(1, j) for j = 1
    for n in range(2, r + 1):
        new = [0] * n
        for j in range(1, n + 1):
            a = j * row[j - 1] if j <= len(row) else 0
            b = row[j - 2] if j >= 2 else 0
            new[j - 1] = a + b
        row = new
    return row[i - 1]


# -- regularized incomplete gamma, in log-space -----------------------------

#: Below these P the log comes from the power series instead of scipy's
#: gammainc: its P underflows near 1e-300, and its own series stops at 2000
#: terms, which converges only while shape < ~5e4; beyond that gammainc is
#: used only within ~4 sd of the mean, where Temme's expansion takes over.
_P_UNDERFLOW = 1e-290
_P_CAPPED = 1e-5
_CAPPED_SHAPE = 5e4


def gamma_log_cdf_grid(x, shape: float, rate: float) -> np.ndarray:
    """log of the gamma(shape, rate) CDF at each point of ``x``.

    With z = rate*x, the regularized incomplete gamma functions come from
    scipy (DiDonato & Morris 1986, with Temme's uniform expansion for large
    shape), as log P where P < 1/2 and log1p(-Q) above, so neither side
    cancels.  A point whose side is known beforehand makes one scipy call:

    - z >= shape + 1 + 1e-6*shape calls only ``gammaincc``.  The median of
      gamma(shape, 1) lies below shape (Chen & Rubin 1986), and there P
      exceeds 1/2 by more than 5e-4 (checked for shapes 1e-4 to 1e7; the
      1e-6*shape term widens the gap beyond), far beyond scipy's rounding,
      so ``gammainc`` would have chosen the same side;
    - every other point calls ``gammainc``, and those whose P comes out at
      least 1/2 call ``gammaincc`` too.

    In the lower tail where scipy's P underflows or its series stops
    short, the log is assembled from the power series
    ``z**shape e**-z / Gamma(shape+1) * 1F1(1; shape+1; z)`` instead, so
    deep lower tails come back as accurate finite logs.  x = 0 gives
    ``-inf``.  A shape too large for that series to converge near the mean
    (above about 1e10) is a domain error.
    """
    return _gamma_log_cdf(x, float(shape), float(rate))


def _per_shape(f, shape):
    """f of a scalar shape, or of each point's shape, evaluated once per
    distinct shape: the tail's shape constants cost O(sqrt(shape)) each."""
    if np.ndim(shape) == 0:
        return f(shape)
    distinct, where = np.unique(shape, return_inverse=True)
    return np.array([f(a) for a in distinct.tolist()])[where]


def _tail_anchor(a: float) -> float:
    """log z**a e**-z / Gamma(a+1) at z = a, from the same series over
    P(a, a), so that a*log(z) does not cancel near the mean."""
    from scipy.special import gammainc, hyp1f1

    return math.log(gammainc(a, a)) - math.log(hyp1f1(1.0, a + 1.0, a))


def _gamma_log_cdf(x, shape, rate) -> np.ndarray:
    """:func:`gamma_log_cdf_grid` with ``shape`` and ``rate`` either
    scalars or arrays of x's size, taken point by point: which scipy calls
    a point gets follows from its own z and shape alone.  scipy's kernels
    are ufuncs, so each point gets the same bits as in a scalar call; a
    scalar call builds no shape-sized array."""
    if np.any(shape <= 0.0) or np.any(rate <= 0.0):
        raise DomainError("shape and rate must be positive")
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x[np.newaxis]
    if np.any(x < 0.0) or not np.all(np.isfinite(x)):
        raise DomainError("x must be non-negative and finite")
    # imported here: at module level scipy.special doubles the CLI's start-up
    from scipy.special import gammainc, gammaincc, hyp1f1

    def at(values, mask):
        return values if np.ndim(values) == 0 else values[mask]

    z = rate * x
    p = np.ones_like(z)  # above the median bound: only gammaincc is needed
    low = z < shape + 1.0 + 1e-6 * shape
    p[low] = gammainc(at(shape, low), z[low])
    with np.errstate(divide="ignore"):
        out = np.log(p)
    upper = p >= 0.5
    out[upper] = np.log1p(-gammaincc(at(shape, upper), z[upper]))
    floor = np.where(shape < _CAPPED_SHAPE, _P_UNDERFLOW, _P_CAPPED)
    tail = (p < floor) & (z > 0.0)
    if tail.any():
        a, zt = at(shape, tail), z[tail]
        # log of the leading factor z**a e**-z / Gamma(a+1); within a factor
        # of two of a it is taken relative to its value at z = a
        lead = a * np.log(zt) - zt - _per_shape(lambda s: math.lgamma(s + 1.0), a)
        near = zt >= 0.5 * a
        if near.any():
            an, zn = at(a, near), zt[near]
            lead[near] = (_per_shape(_tail_anchor, an)
                          + an * np.log1p((zn - an) / an) - (zn - an))
        out[tail] = lead + np.log(hyp1f1(1.0, a + 1.0, zt))
        failed = np.isnan(out[tail])
        if failed.any():
            worst = np.broadcast_to(a, failed.shape)[failed].max()
            raise DomainError(
                f"shape is too large for the incomplete gamma series: {worst:.6g}"
            )
    return out

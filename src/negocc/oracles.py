"""Reference routes to the mass function and its building blocks, kept as
test oracles.

Three independent routes to the exact probabilities: the weighted sum of
geometric laws, the direct k-fold geometric convolution, and direct
evaluation of the noncentral-Stirling mass formula.  The weighted and
Stirling routes suffer catastrophic cancellation / combinatorial growth at
scale, so they run in extended precision and refuse instances outside
their trusted range rather than silently degrading.  Alongside them sit
plain scalar references for the log-space and sampling primitives.

This is the one module that needs mpmath; nothing on the library or CLI
path imports it.
"""

import math
import threading
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf

from .errors import DomainError, OracleRangeError
from .numerics import NEG_INF
from .params import OccupancyParams, check_tmax

__all__ = [
    "ORACLE_DPS",
    "STIRLING_ORACLE_MAX_N",
    "mp_lock",
    "stirling2_noncentral",
    "WeightVector",
    "weight_vector",
    "weighted_geometric_pmf",
    "convolution_pmf",
    "stirling_pmf",
    "log_sum_exp",
    "log_falling_factorial",
    "sample_geometric",
]

#: Largest first argument accepted by the noncentral Stirling oracle.
STIRLING_ORACLE_MAX_N = 60

#: Decimal digits used for extended-precision oracle arithmetic.
ORACLE_DPS = 50

#: Serialises every extended-precision section: mpmath's working precision
#: is process-global state, so concurrent callers take this lock.
mp_lock = threading.RLock()

_FLOAT_MAX = np.finfo(float).max

#: Raw mixture values below this are treated as cancellation breakdown.
_BREAKDOWN = -1e-9


def _require_finite(params: OccupancyParams, oracle: str) -> None:
    if params.is_infinite:
        raise DomainError(f"the {oracle} oracle requires finite m")


# -- noncentral Stirling numbers --------------------------------------------
#
# Built column by column from the base case S(n, 0, phi) = phi**n via the
# telescoping sum
#
#   S(n, j, phi) = sum_{r=0}^{n-j} (j + phi)**r * S(n-1-r, j-1, phi),
#
# in ORACLE_DPS-digit arithmetic.  The table is memoised per (column, phi)
# because callers typically sweep n at fixed column.

_stirling_cache: dict = {}


def _stirling_column(j: int, phi: float, n_max: int) -> list:
    """mpf values S(n, j, phi) for n = j..n_max (column j of the table)."""
    key = (j, phi)
    with mp_lock:
        col = _stirling_cache.get(key)
        if col is not None and len(col) >= n_max - j + 1:
            return col
    if j == 0:
        col = [mpf(phi) ** n for n in range(n_max + 1)]
    else:
        below = _stirling_column(j - 1, phi, n_max - 1)
        base = mpf(j) + mpf(phi)
        powers = [mpf(1)]
        for _ in range(n_max - j):
            powers.append(powers[-1] * base)
        col = []
        for n in range(j, n_max + 1):
            # telescoping sum over r = 0..n-j; below[n-1-r - (j-1)] is
            # S(n-1-r, j-1, phi)
            acc = mpf(0)
            for r in range(n - j + 1):
                acc += powers[r] * below[n - 1 - r - (j - 1)]
            col.append(acc)
    with mp_lock:
        kept = _stirling_cache.get(key)
        if kept is None or len(kept) < len(col):
            _stirling_cache[key] = col
            kept = col
    return kept


def _stirling2_noncentral_mp(n: int, k: int, phi: float):
    """S(n, k, phi) as an mpf."""
    with mp_lock, mp.workdps(ORACLE_DPS):
        col = _stirling_column(k, float(phi), n)
    if k == 0:
        return col[n]
    return col[n - k]


def stirling2_noncentral(n: int, k: int, phi: float) -> float:
    """Noncentral Stirling number of the second kind S(n, k, phi).

    For small instances only: the telescoping recursion is evaluated in
    extended precision, and n is capped at ``STIRLING_ORACLE_MAX_N``
    because the values grow combinatorially.  ``phi = 0`` reduces to the
    central numbers.
    """
    if not isinstance(n, int) or n < 0:
        raise DomainError("n must be a non-negative integer")
    if not isinstance(k, int) or k < 0 or k > n:
        raise DomainError("k must satisfy 0 <= k <= n")
    if not (phi >= 0.0):
        raise DomainError("phi must be non-negative")
    if n > STIRLING_ORACLE_MAX_N:
        raise OracleRangeError(
            f"noncentral Stirling oracle is limited to n <= {STIRLING_ORACLE_MAX_N}"
        )
    return float(_stirling2_noncentral_mp(n, k, phi))


# -- alternative forms of the mass function ---------------------------------


@dataclass(frozen=True)
class WeightVector:
    """Signed weights w_{1,k}..w_{k,k} of the geometric mixture form.

    The leading weight w_{k,k} is positive and signs alternate downward;
    the weights depend on m and k only, never on theta.
    """

    m: int
    k: int
    weights: tuple


def _weights_mp(m: int, k: int) -> list:
    """Mixture weights in extended precision, anchor-down recursion.

    Anchor w_{k,k} = (m)_{k-1} / (k-1)!, then
    w_{i+1,k} / w_{i,k} = -((m-i+1)/(m-i)) * ((k-i)/i).
    """
    anchor = mpf(1)
    for i in range(k - 1):
        anchor *= m - i
    anchor /= mp.factorial(k - 1)
    w = [mpf(0)] * k
    w[k - 1] = anchor
    for i in range(k - 1, 0, -1):
        ratio = -(mpf(m - i + 1) * (k - i)) / (mpf(m - i) * i)
        w[i - 1] = w[i] / ratio
    if any(abs(x) > _FLOAT_MAX for x in w):
        raise OracleRangeError(
            "mixture weights exceed the representable range; "
            "this oracle only serves small instances"
        )
    return w


def weight_vector(m: int, k: int) -> WeightVector:
    """Weights of the weighted-geometric representation for (m, k)."""
    _require_finite(OccupancyParams(m, k, 1.0), "weighted-geometric")
    with mp_lock, mp.workdps(ORACLE_DPS):
        w = _weights_mp(m, k)
        weights = tuple(float(x) for x in w)
    return WeightVector(m=m, k=k, weights=weights)


def weighted_geometric_pmf(params: OccupancyParams, t: int) -> float:
    """Mass at t from the weighted sum of geometric laws.

    sum_i w_{i,k} * Geom(t + k - 1 | theta*(m-i+1)/m), evaluated in
    extended precision.  A raw value below the cancellation threshold
    signals oracle breakdown and raises; small negative rounding residue
    is clamped to zero.
    """
    _require_finite(params, "weighted-geometric")
    check_tmax(t, "t")
    m, k, theta = int(params.m), params.k, params.theta
    with mp_lock, mp.workdps(ORACLE_DPS):
        w = _weights_mp(m, k)
        total = mpf(0)
        power = t + k - 1
        for i in range(1, k + 1):
            q = mpf(theta) * (m - i + 1) / m
            total += w[i - 1] * (1 - q) ** power * q
        raw = float(total)
    if raw < _BREAKDOWN:
        raise OracleRangeError(
            f"weighted-geometric oracle broke down (raw mass {raw:.3e} < {_BREAKDOWN})"
        )
    return max(raw, 0.0)


def _geometric_pmf_vector(p: float, tmax: int) -> np.ndarray:
    if p == 1.0:
        out = np.zeros(tmax + 1)
        out[0] = 1.0
        return out
    ts = np.arange(tmax + 1)
    return np.exp(math.log(p) + ts * math.log1p(-p))


def convolution_pmf(params: OccupancyParams, tmax: int) -> np.ndarray:
    """k-fold truncated convolution of the geometric increment laws.

    Each increment l = 1..k contributes Geom(theta*(m-l+1)/m) on the
    failures support.  Truncation at tmax only removes mass, so every
    entry is an exact lower bound on the pmf.
    """
    _require_finite(params, "convolution")
    check_tmax(tmax)
    m, k, theta = int(params.m), params.k, params.theta
    out = _geometric_pmf_vector(theta, tmax)
    for l in range(2, k + 1):
        nxt = _geometric_pmf_vector(theta * (m - l + 1) / m, tmax)
        out = np.convolve(out, nxt)[: tmax + 1]
    return out


def stirling_pmf(params: OccupancyParams, t: int) -> float:
    """Mass at t evaluated directly from the noncentral-Stirling formula.

    (theta/m)**(k+t) * (m)_k * S(k+t-1, k-1, m*(1-theta)/theta), with the
    vanishing prefactor kept in extended precision so nothing underflows
    before the final conversion.  Limited by the Stirling oracle range.
    """
    _require_finite(params, "Stirling")
    check_tmax(t, "t")
    m, k, theta = int(params.m), params.k, params.theta
    n = k + t - 1
    if n > STIRLING_ORACLE_MAX_N:
        raise OracleRangeError(
            f"Stirling oracle is limited to k + t - 1 <= {STIRLING_ORACLE_MAX_N}"
        )
    phi = m * (1.0 - theta) / theta
    stirling = _stirling2_noncentral_mp(n, k - 1, phi)
    with mp_lock, mp.workdps(ORACLE_DPS):
        prefactor = (mpf(theta) / m) ** (k + t)
        falling = mpf(1)
        for i in range(k):
            falling *= m - i
        value = float(prefactor * falling * stirling)
    return value


# -- scalar references for the primitives -----------------------------------


def log_sum_exp(terms) -> float:
    """log(sum(exp(t) for t in terms)), shifted by the maximum term.

    An all ``-inf`` input returns ``-inf``; an empty input is a domain
    error (the empty sum has no log).  One instance of the peak is kept
    symbolic and the rest folded in through log1p, so contributions as
    far as 700 logs below the maximum survive at full relative precision
    and ``numerics.log_diff_grid`` can recover them.
    """
    values = [float(t) for t in terms]
    if not values:
        raise DomainError("log_sum_exp requires a non-empty sequence")
    finite = [t for t in values if t != NEG_INF]
    if not finite:
        return NEG_INF
    lead = finite.index(max(finite))
    peak = finite[lead]
    rest = math.fsum(
        math.exp(t - peak) for i, t in enumerate(finite) if i != lead
    )
    return peak + math.log1p(rest)


def log_falling_factorial(m: int, k: int) -> float:
    """log of m*(m-1)*...*(m-k+1); the empty product (k = 0) gives 0."""
    if not isinstance(m, int) or m < 1:
        raise DomainError("m must be a positive integer")
    if not isinstance(k, int) or k < 0 or k > m:
        raise DomainError("k must satisfy 0 <= k <= m")
    total = 0.0
    for i in range(k):
        total += math.log(m - i)
    return total


def sample_geometric(p: float, u: float) -> int:
    """Inverse-CDF geometric draw on the failures support 0, 1, 2, ...

    floor(log(1-u) / log(1-p)) for p < 1; p = 1 is a certain success and
    returns 0.  p <= 0 would mean an infinite expected wait.  The scalar
    reference for one column of ``sampler.sample_negocc``.
    """
    p = float(p)
    if not 0.0 < p <= 1.0:
        raise DomainError("p must satisfy 0 < p <= 1")
    u = float(u)
    if not 0.0 < u < 1.0:
        raise DomainError("u must lie strictly inside (0, 1)")
    if p == 1.0:
        return 0
    return int(math.floor(math.log1p(-u) / math.log1p(-p)))

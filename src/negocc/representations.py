"""Alternative exact forms of the mass function, used as test oracles.

Three independent routes to the same probabilities: the weighted sum of
geometric laws, the direct k-fold geometric convolution, and direct
evaluation of the noncentral-Stirling mass formula.  The weighted and
Stirling routes suffer catastrophic cancellation / combinatorial growth at
scale, so they run in extended precision and refuse instances outside
their trusted range rather than silently degrading.
"""

import math
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf

from .errors import DomainError, OracleRangeError
from .numerics import (
    ORACLE_DPS,
    STIRLING_ORACLE_MAX_N,
    _stirling2_noncentral_mp,
    mp_lock,
)
from .params import INFINITE, OccupancyParams, check_tmax, check_triple

__all__ = [
    "WeightVector",
    "weight_vector",
    "weighted_geometric_pmf",
    "convolution_pmf",
    "stirling_pmf",
    "conditional_params",
]

_FLOAT_MAX = np.finfo(float).max

#: Raw mixture values below this are treated as cancellation breakdown.
_BREAKDOWN = -1e-9


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
    if not isinstance(m, int) or m < 1:
        raise DomainError("m must be a positive integer")
    if not isinstance(k, int) or not 1 <= k <= m:
        raise DomainError("k must satisfy 0 < k <= m")
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
    if params.is_infinite:
        raise DomainError("the weighted-geometric oracle requires finite m")
    if not isinstance(t, int) or t < 0:
        raise DomainError("t must satisfy t >= 0")
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
    if params.is_infinite:
        raise DomainError("the convolution oracle requires finite m")
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
    if params.is_infinite:
        raise DomainError("the Stirling oracle requires finite m")
    if not isinstance(t, int) or t < 0:
        raise DomainError("t must satisfy t >= 0")
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


def conditional_params(m: int, k: int, theta: float, r: int) -> OccupancyParams:
    """Parameters of the excess hitting time from occupancy r to r + k.

    The family is closed under conditioning: with r bins already occupied,
    the remaining wait is negative occupancy with the occupied bins folded
    out of the space and into the probability parameter,
    (m', k', theta') = (m - r, k, theta*(m-r)/m).
    """
    if not isinstance(r, int) or r < 0:
        raise DomainError("r must satisfy r >= 0")
    theta = check_triple(m, k, theta)
    if m == INFINITE:
        raise DomainError("conditioning requires finite m")
    if r + k > m:
        raise DomainError("conditioning requires r + k <= m")
    return OccupancyParams(m - r, k, theta * (m - r) / m)

"""Cumulants, moments, generating functions, and their large-m asymptotics.

Every cumulant is a signed combination of the harmonic power sums

    h_i = sum_{l=m-k+1}^{m} (m / (theta*l))**i,

the i-th power sums of the inverse success probabilities of the geometric
increments; infinite m replaces h_i by its limit k/theta**i, which turns
all formulas into their negative binomial counterparts.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMomentsError, DomainError, SingularityError
from .numerics import _SUM_CHUNK, harmonic_power_sum, stirling2
from .params import INFINITE, OccupancyParams, check_triple

__all__ = [
    "MomentSummary",
    "AsymptoticMoments",
    "cumulant",
    "cumulant_set",
    "mean_variance",
    "skewness",
    "kurtosis",
    "moment_summary",
    "total_hitting_moments",
    "generating_function",
    "cgf_maclaurin",
    "asymptotic_cgf",
    "asymptotic_moments",
    "GENERATING_FUNCTION_KINDS",
]

GENERATING_FUNCTION_KINDS = ("pgf", "cf", "mgf", "cgf")

#: Relative guard band on domain-of-convergence bounds: the product-form
#: denominators vanish at the bound, so evaluation at or within one part
#: in 1e12 of it is rejected.
_BOUND_GUARD = 1.0 - 1e-12

_MAX_CUMULANT_ORDER = 20


@dataclass(frozen=True)
class MomentSummary:
    """Mean, variance, skewness and kurtosis.

    For the degenerate point mass (variance zero) the shape fields are
    ``None``; the corresponding accessors raise instead of returning NaN.
    """

    mean: float
    variance: float
    skewness: float | None = None
    kurtosis: float | None = None

    @property
    def is_degenerate(self) -> bool:
        return self.skewness is None


@dataclass(frozen=True)
class AsymptoticMoments:
    """First four asymptotic cumulants; all scale linearly in m at fixed
    occupancy fraction and theta."""

    mu_star: float
    sigma2_star: float
    kappa3_star: float
    kappa4_star: float


def _h(params: OccupancyParams, order: int) -> float:
    return harmonic_power_sum(params.m, params.k, params.theta, order)


def cumulant_set(params: OccupancyParams, order: int) -> tuple:
    """kappa_1..kappa_order from one pass over h_1..h_order:

    kappa_r = sum_{i=1}^{r} (-1)**(r-i) * S(r, i) * (i-1)! * h_i  -  k*[r == 1].

    kappa_1 and kappa_2 come out bit-identical to the direct two-sum
    h_1 - k and h_2 - h_1, which :func:`mean_variance` takes from here.
    """
    if not isinstance(order, int) or order < 1:
        raise DomainError("order must be a positive integer")
    if order > _MAX_CUMULANT_ORDER:
        raise DomainError(f"cumulant order is limited to r <= {_MAX_CUMULANT_ORDER}")
    h = [_h(params, i) for i in range(1, order + 1)]
    kappas = []
    for r in range(1, order + 1):
        total = 0.0
        for i in range(1, r + 1):
            sign = -1.0 if (r - i) % 2 else 1.0
            total += sign * stirling2(r, i) * math.factorial(i - 1) * h[i - 1]
        kappas.append(total - params.k if r == 1 else total)
    return tuple(kappas)


def cumulant(params: OccupancyParams, r: int) -> float:
    """r-th cumulant from its closed form (see :func:`cumulant_set`)."""
    return cumulant_set(params, r)[-1]


def mean_variance(params: OccupancyParams) -> tuple:
    """(mean, variance) = (h_1 - k, h_2 - h_1); variance clamped at 0."""
    mean, variance = cumulant_set(params, 2)
    return mean, max(variance, 0.0)


def moment_summary(params: OccupancyParams) -> MomentSummary:
    """Mean/variance always; skewness/kurtosis unless degenerate.

    One pass over h_1..h_4 (four harmonic power sums) serves all four.
    """
    k1, k2, k3, k4 = cumulant_set(params, 4)
    var = max(k2, 0.0)
    if var == 0.0:
        return MomentSummary(mean=k1, variance=var)
    return MomentSummary(
        mean=k1, variance=var, skewness=k3 / var**1.5, kurtosis=3.0 + k4 / var**2
    )


def _shape_summary(params: OccupancyParams, name: str) -> MomentSummary:
    summary = moment_summary(params)
    if summary.is_degenerate:
        raise DegenerateMomentsError(f"{name} is undefined for a point mass")
    return summary


def skewness(params: OccupancyParams) -> float:
    """kappa_3 / kappa_2**1.5; degenerate distributions are rejected."""
    return _shape_summary(params, "skewness").skewness


def kurtosis(params: OccupancyParams) -> float:
    """3 + kappa_4 / kappa_2**2; degenerate distributions are rejected."""
    return _shape_summary(params, "kurtosis").kurtosis


def total_hitting_moments(params: OccupancyParams) -> tuple:
    """Mean and variance of the total ball count (the +k location shift):
    (h_1, h_2 - h_1)."""
    h1 = _h(params, 1)
    h2 = _h(params, 2)
    return h1, max(h2 - h1, 0.0)


# -- generating functions ----------------------------------------------------


def _pgf_radius(params: OccupancyParams) -> float:
    """|z| bound of the PGF; the MGF/CF bound is its logarithm."""
    if params.is_infinite:
        if params.theta == 1.0:
            return math.inf
        return 1.0 / (1.0 - params.theta)
    m, k, theta = params.m, params.k, params.theta
    denom = m - (m - k + 1) * theta
    if denom <= 0.0:
        return math.inf
    return m / denom


def _check_bound(value: float, bound: float, label: str, two_sided: bool) -> None:
    mag = abs(value) if two_sided else value
    if not mag < bound * _BOUND_GUARD:
        raise DomainError(f"{label} (domain bound {bound:.17g})")


def _log_factors(params: OccupancyParams, arg) -> complex | float:
    """sum over l = m-k+1..m of log( l / (m - (m - l*theta)*arg) ).

    ``arg`` is z for the PGF, exp(s) for the MGF/CGF and exp(i*s) for the
    CF.  Inside the domain of convergence every real denominator is
    strictly positive.  Summed by numpy ``_SUM_CHUNK`` terms at a time, so
    memory does not grow with k.
    """
    m, k, theta = params.m, params.k, params.theta
    total = 0.0
    for start in range(m - k + 1, m + 1, _SUM_CHUNK):
        ls = np.arange(start, min(start + _SUM_CHUNK, m + 1), dtype=float)
        total += np.log(ls / (m - (m - ls * theta) * arg)).sum()
    return total.item()


def generating_function(params: OccupancyParams, kind: str, arg: float):
    """Evaluate one of the generating functions at ``arg``.

    kind is one of ``pgf`` (argument z), ``mgf``/``cgf`` (argument s), or
    ``cf`` (argument s; returns a complex value).  The product form

        theta**k * prod_{l=m-k+1}^{m} l / (m - (m - l*theta)*<arg>)

    is evaluated through its log-sum for stability; the CGF returns that
    log-sum directly.  The CF exists for every real s; pgf/mgf/cgf
    arguments outside their domain of convergence raise a domain error
    naming the bound.  A non-finite ``arg`` is a domain error, and so is an
    mgf/cgf s whose exp(s) overflows (only a point mass, whose bound is
    infinite, admits one), and so is a pgf/mgf value past the double
    range, whose log the cgf still gives.
    """
    if kind not in GENERATING_FUNCTION_KINDS:
        raise DomainError(f"kind must be one of {GENERATING_FUNCTION_KINDS}")
    arg = float(arg)
    if not math.isfinite(arg):
        raise DomainError("arg must be finite")
    k, theta = params.k, params.theta

    if kind == "pgf":
        radius = _pgf_radius(params)
        _check_bound(arg, radius, "pgf argument must satisfy |z| < bound", True)
        transformed = arg
    elif kind == "mgf" or kind == "cgf":
        log_radius = math.log(_pgf_radius(params))  # log(inf) is inf
        _check_bound(arg, log_radius, f"{kind} argument must satisfy s < log-bound", False)
        try:
            transformed = math.exp(arg)
        except OverflowError:  # only a point mass, whose bound is inf, gets here
            raise DomainError(
                f"{kind} argument is too large: exp(s) overflows a double"
            ) from None
    else:  # cf: |exp(i*s)| = 1 lies inside the pgf disc for every real s
        transformed = cmath.exp(1j * arg)

    try:
        if params.is_infinite:
            # negative binomial closed form (theta / (1 - (1-theta)*z))**k
            if kind == "cgf":
                return k * (math.log(theta) - math.log(1.0 - (1.0 - theta) * transformed))
            return (theta / (1.0 - (1.0 - theta) * transformed)) ** k

        log_sum = k * math.log(theta) + _log_factors(params, transformed)
        if kind == "cgf":
            return float(log_sum)
        return cmath.exp(log_sum) if isinstance(log_sum, complex) else math.exp(log_sum)
    except OverflowError:  # only a pgf/mgf value: its log, the cgf, is finite
        at = " at s = log(z)" if kind == "pgf" else ""
        raise DomainError(
            f"{kind} value overflows a double; --kind cgf{at} gives its log"
        ) from None


def cgf_maclaurin(params: OccupancyParams, s: float, n_terms: int) -> float:
    """Partial Maclaurin sum of the cumulant generating function,

        K(s) ~ -k*s + sum_{n=1}^{N} (1 - exp(-s))**n / n * h_n.

    Converges for |1 - exp(-s)| < (m-k+1)*theta/m (theta at infinite m);
    used as an independent cross-check of the product-form CGF.
    """
    if not isinstance(n_terms, int) or n_terms < 1:
        raise DomainError("n_terms must be a positive integer")
    s = float(s)
    x = -math.expm1(-s)  # 1 - exp(-s)
    if params.is_infinite:
        radius = params.theta
    else:
        radius = (params.m - params.k + 1) * params.theta / params.m
    _check_bound(x, radius, "cgf series argument must satisfy |1 - exp(-s)| < bound", True)
    total = -params.k * s
    power = 1.0
    for n in range(1, n_terms + 1):
        power *= x
        total += power / n * _h(params, n)
    return total


# -- asymptotics (m, k large at fixed occupancy fraction) --------------------


def _finite_space(m, k, theta) -> float:
    """Validated theta of a finite-m triple; the limits scale with m."""
    if m == INFINITE:
        raise DomainError("asymptotic forms require finite m")
    return check_triple(m, k, theta)


def asymptotic_cgf(m: int, occupancy_fraction: float, theta: float, s: float) -> float:
    """Limiting cumulant function, m times a function of (k/m, theta, s).

    With lam = k/m fixed in (0, 1):

        K(s) ~ m * [ lam*log(theta) - (1-lam)*log|1-lam|
                     - ((1-(1-theta)e^s)/(theta e^s)) * log|1-(1-theta)e^s|
                     + ((1-(1-theta)e^s-lam theta e^s)/(theta e^s))
                       * log|1-(1-theta)e^s-lam theta e^s| ],

    reducing to the two-term classical form at theta = 1.  A log argument
    of exactly zero is a singular point and raises.
    """
    lam = float(occupancy_fraction)
    if not (0.0 < lam < 1.0):
        raise DomainError("occupancy_fraction must lie strictly inside (0, 1)")
    theta = _finite_space(m, 1, theta)  # k = 1 stands in: the fraction sets k/m
    es = math.exp(float(s))
    if theta == 1.0:
        a2 = 1.0 - lam * es
        if a2 == 0.0:
            raise SingularityError("asymptotic cumulant function is singular here")
        return m * (
            -(1.0 - lam) * math.log1p(-lam) + (a2 / es) * math.log(abs(a2))
        )
    a1 = 1.0 - (1.0 - theta) * es
    a2 = a1 - lam * theta * es
    if a1 == 0.0 or a2 == 0.0:
        raise SingularityError("asymptotic cumulant function is singular here")
    te = theta * es
    return m * (
        lam * math.log(theta)
        - (1.0 - lam) * math.log1p(-lam)
        - (a1 / te) * math.log(abs(a1))
        + (a2 / te) * math.log(abs(a2))
    )


def asymptotic_moments(m: int, k: int, theta: float) -> AsymptoticMoments:
    """Closed-form asymptotic cumulants at lam = k/m < 1.

        mu*      = -k - (m/theta) * log((m-k)/m)
        sigma*^2 = (m/theta^2) * k/(m-k) + (m/theta) * log((m-k)/m)

    with the third and fourth cumulants from the derivatives of the
    limiting cumulant function.  k >= m makes the logarithm singular.
    """
    theta = _finite_space(m, k, theta)
    if k >= m:
        raise SingularityError("asymptotic moments require k < m")
    lam = k / m
    log1m = math.log1p(-lam)  # log((m-k)/m)
    mu = -k - (m / theta) * log1m
    sigma2 = (m / theta**2) * (k / (m - k)) + (m / theta) * log1m
    base = m * lam / theta
    kappa3 = base * (
        (2.0 - lam - 3.0 * theta + 3.0 * lam * theta) / (theta**2 * (1.0 - lam) ** 2)
        - log1m / lam
    )
    kappa4 = base * (
        (
            6.0
            - 6.0 * lam
            + 2.0 * lam**2
            - 12.0 * theta
            + 18.0 * theta * lam
            - 6.0 * theta * lam**2
            + 7.0 * theta**2
            - 14.0 * theta**2 * lam
            + 7.0 * theta**2 * lam**2
        )
        / (theta**3 * (1.0 - lam) ** 3)
        + log1m / lam
    )
    return AsymptoticMoments(
        mu_star=mu, sigma2_star=sigma2, kappa3_star=kappa3, kappa4_star=kappa4
    )

"""Moment-matched gamma approximation with continuity correction.

The discrete mass at t is approximated by the gamma probability of the
unit interval [t, t+1), with the gamma parameters matched to the exact
mean and variance through the half-unit continuity correction:

    alpha = (mu + 1/2)**2 / sigma^2,    beta = (mu + 1/2) / sigma^2,

so alpha/beta = mu + 1/2 exactly.  Mass values come out of adjacent
log-CDF differences; each grid point costs one incomplete-gamma
evaluation because the upper CDF value of one interval is reused as the
lower value of the next.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .moments import mean_variance
from .numerics import NEG_INF, gamma_log_cdf_grid, log_diff_grid
from .params import OccupancyParams, check_tmax

__all__ = [
    "GammaApproxParams",
    "approx_params",
    "approx_log_pmf",
    "approx_pmf",
]


@dataclass(frozen=True)
class GammaApproxParams:
    """Shape/rate pair of the approximating gamma law."""

    alpha: float
    beta: float


def approx_params(mean: float, variance: float) -> GammaApproxParams:
    """Moment-matched gamma parameters for a given (mean, variance).

    Zero variance has no gamma counterpart; degenerate distributions take
    the point-mass branch of :func:`approx_log_pmf` instead.
    """
    mean = float(mean)
    variance = float(variance)
    if not variance > 0.0:
        raise DomainError(
            "variance must be positive (degenerate laws use the point-mass branch)"
        )
    if not mean + 0.5 > 0.0:
        raise DomainError("mean + 1/2 must be positive")
    shifted = mean + 0.5
    return GammaApproxParams(alpha=shifted**2 / variance, beta=shifted / variance)


def approx_log_pmf(params: OccupancyParams, tmax: int) -> np.ndarray:
    """Approximate log-pmf over t = 0..tmax.

    The exact mean and variance are computed first; zero variance emits
    the point mass at t = 0, otherwise each entry is the log-CDF
    difference of the matched gamma law over [t, t+1).
    """
    return _moment_log_pmf(*mean_variance(params), check_tmax(tmax))


def _moment_log_pmf(mean: float, variance: float, tmax: int) -> np.ndarray:
    """:func:`approx_log_pmf` from the mean and variance it matches."""
    if variance == 0.0:
        out = np.full(tmax + 1, NEG_INF)
        out[0] = 0.0
        return out
    gp = approx_params(mean, variance)
    grid = gamma_log_cdf_grid(np.arange(tmax + 2, dtype=float), gp.alpha, gp.beta)
    return log_diff_grid(grid[1:], grid[:-1])


def approx_pmf(params: OccupancyParams, tmax: int) -> np.ndarray:
    """Probability-space counterpart of :func:`approx_log_pmf`."""
    return np.exp(approx_log_pmf(params, tmax))


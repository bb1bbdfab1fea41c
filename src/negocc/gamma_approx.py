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
from .numerics import NEG_INF, _gamma_log_cdf, gamma_log_cdf_grid, log_diff_grid
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
    mean, variance = mean_variance(params)
    return _log_pmf_cells([mean], [variance], [check_tmax(tmax)])


def _log_pmf_cells(means, variances, tmaxes) -> np.ndarray:
    """:func:`approx_log_pmf` of several cells, one after another in one
    array: cell i, of the given mean and variance, fills the next
    tmaxes[i]+1 entries with its values at t = 0..tmaxes[i].

    The grid points 0..T+1 of every gamma cell, with that cell's shape and
    rate repeated over them, go through one kernel call and one
    :func:`log_diff_grid`, and the differences that straddle two cells are
    dropped.  Both act point by point, so each cell gets the same bits as
    it would alone; a single cell takes the scalar kernel.
    """
    sizes = np.array(tmaxes) + 1
    fitted = np.array(variances) != 0.0
    fits = [approx_params(mean, variance)
            for mean, variance, fit in zip(means, variances, fitted) if fit]
    # the grids are built in the calls, so they are freed before the differences
    if len(fits) == 1:
        grid = gamma_log_cdf_grid(np.arange(sizes[fitted][0] + 1, dtype=float),
                                  fits[0].alpha, fits[0].beta)
        values = log_diff_grid(grid[1:], grid[:-1])
    elif fits:
        points = sizes[fitted] + 1
        ends = np.cumsum(points)
        grid = _gamma_log_cdf(
            np.arange(ends[-1], dtype=float) - np.repeat(ends - points, points),
            np.repeat([gp.alpha for gp in fits], points),
            np.repeat([gp.beta for gp in fits], points),
        )
        values = np.delete(log_diff_grid(grid[1:], grid[:-1]), ends[:-1] - 1)
    if fitted.all():
        return values
    out = np.full(sizes.sum(), NEG_INF)
    out[(np.cumsum(sizes) - sizes)[~fitted]] = 0.0  # point masses at t = 0
    if fits:
        out[np.repeat(fitted, sizes)] = values
    return out


def approx_pmf(params: OccupancyParams, tmax: int) -> np.ndarray:
    """Probability-space counterpart of :func:`approx_log_pmf`."""
    return np.exp(approx_log_pmf(params, tmax))


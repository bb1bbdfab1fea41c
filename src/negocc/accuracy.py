"""Gamma-approximation accuracy study over parameter blocks.

For each (m, k) the exact pmf and its gamma approximation are compared by
root-squared-error over t = 0..T(m, k), with the truncation point T set
five standard deviations above the mean so the discarded tail contributes
negligibly (truncation can only shrink the measure).  One exact block per
m serves every k: the recursion produces all intermediate occupancy
columns anyway, so the block study reuses what a single-k computation
would waste.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, WorkBudgetError
from .exact import log_pmf_block
from .gamma_approx import _moment_log_pmf
from .moments import mean_variance
from .numerics import harmonic_power_sums
from .params import OccupancyParams

__all__ = [
    "RseReport",
    "RseSummary",
    "truncation_point",
    "rse",
    "estimate_block_work",
    "rse_block",
    "rse_summaries",
    "DEFAULT_WORK_BUDGET",
]

#: Default ceiling on estimated block work, in units of sum_k T(m, k)^2.
#: M = 1000 (the full study) costs about 4.5e11 units and is allowed;
#: anything much larger must be requested explicitly.
DEFAULT_WORK_BUDGET = 1.0e12


@dataclass(frozen=True)
class RseReport:
    """Truncated root-squared-error of the gamma approximation at (m, k)."""

    m: int
    k: int
    theta: float
    truncation: int
    rse: float


@dataclass(frozen=True)
class RseSummary:
    """Per-m reductions of the RSE map over k = 1..m."""

    m: int
    max_rse: float
    mean_rse: float
    diag_rse: float


def _truncation(mean, variance):
    """ceil(mean + 5*sd), floored at zero, of numbers or arrays."""
    return np.maximum(np.ceil(mean + 5.0 * np.sqrt(variance)), 0.0)


def truncation_point(params: OccupancyParams) -> int:
    """ceil(mean + 5*sd), floored at zero."""
    return int(_truncation(*mean_variance(params)))


def rse(exact, approx) -> float:
    """Euclidean distance between two equal-length probability vectors."""
    exact = np.asarray(exact, dtype=float)
    approx = np.asarray(approx, dtype=float)
    if exact.shape != approx.shape:
        raise DomainError("rse requires equal-length vectors")
    return float(np.sqrt(np.sum((exact - approx) ** 2)))


def _moment_table(m: int, theta: float) -> tuple:
    """(mean, variance, T(m, k)) arrays over k = 1..m, one pass per power."""
    h1 = harmonic_power_sums(m, m, theta, 1)
    variance = np.maximum(harmonic_power_sums(m, m, theta, 2) - h1, 0.0)
    mean = h1 - np.arange(1, m + 1)
    return mean, variance, _truncation(mean, variance)


def _block_work(M: int, theta: float):
    """Work units of each m = 1..M in turn: sum over k of T(m, k)^2.

    Lazy, one table at a time: O(M) memory for any M, and a consumer that
    stops early builds no table past the m where it stopped.
    """
    if not isinstance(M, int) or M < 1:
        raise DomainError("M must be a positive integer")
    cuts = (_moment_table(m, theta)[2] for m in range(1, M + 1))
    return (float(np.dot(cut, cut)) for cut in cuts)


def estimate_block_work(M: int, theta: float) -> float:
    """Work units for rse_block(M, theta): sum over m, k of T(m, k)^2."""
    return sum(_block_work(M, theta), 0.0)


def rse_block(
    M: int,
    theta: float,
    budget: float = DEFAULT_WORK_BUDGET,
    sink=None,
) -> list:
    """RSE reports for every 0 < k <= m <= M.

    Each m costs one exact block up to max_k T(m, k) plus one gamma
    approximation per k, both read from one moment table per m.  Requests
    whose estimated work exceeds ``budget`` (a non-negative number;
    ``inf`` disables the check) are refused up front; the count stops at
    the first m that passes the budget, so the error carries the work
    counted so far, a lower bound on the estimate.  When ``sink`` is given
    it receives the list of reports for each m as soon as that m
    completes, so partial progress survives interruption of large blocks;
    reports are emitted in (m, k) order either way.
    """
    if not budget >= 0.0:  # NaN fails the comparison too
        raise DomainError("budget must satisfy budget >= 0")
    for counted in itertools.accumulate(_block_work(M, theta)):
        if counted > budget:
            raise WorkBudgetError(counted, budget)

    reports: list = []
    for m in range(1, M + 1):
        means, variances, cuts = _moment_table(m, theta)
        block = log_pmf_block(m, theta, m, int(cuts.max()))
        cells = zip(means.tolist(), variances.tolist(), cuts.astype(int).tolist())
        rows = []
        for k, (mean, variance, t_cut) in enumerate(cells, start=1):
            exact = np.exp(block[k - 1, : t_cut + 1])
            approx = np.exp(_moment_log_pmf(mean, variance, t_cut))
            rows.append(RseReport(m=m, k=k, theta=theta, truncation=t_cut,
                                  rse=rse(exact, approx)))
        reports.extend(rows)
        if sink is not None:
            sink(rows)
    return reports


def rse_summaries(reports) -> list:
    """Per-m max, mean and diagonal (k = m) RSE.

    Every m present must be covered by all of k = 1..m; partial coverage
    would silently bias the reductions, so it is rejected.
    """
    by_m: dict = {}
    for rep in reports:
        by_m.setdefault(rep.m, {})[rep.k] = rep.rse
    summaries = []
    for m in sorted(by_m):
        rows = by_m[m]
        if sorted(rows) != list(range(1, m + 1)):
            raise DomainError(f"reports for m = {m} must cover every k = 1..m")
        values = [rows[k] for k in range(1, m + 1)]
        summaries.append(
            RseSummary(
                m=m,
                max_rse=max(values),
                mean_rse=float(sum(values) / m),
                diag_rse=rows[m],
            )
        )
    return summaries

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

import numpy as np

from .errors import DomainError, WorkBudgetError
from .exact import log_pmf_block
from .gamma_approx import _log_pmf_cells
from .moments import mean_variance
from .numerics import harmonic_power_sums
from .params import OccupancyParams

__all__ = [
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


#: Gamma grid points per kernel call in :func:`rse_block`.  One call covers
#: many cells of one m, and the ragged grid's temporaries stay bounded
#: however large m grows: at M = 1000, a grid per m would hold 686k points.
_GRID_CHUNK = 1 << 15


def _cell_chunks(points):
    """Slices of consecutive cells whose grids of ``points`` add up to at
    most _GRID_CHUNK points; a cell larger than that makes a chunk alone."""
    ends = np.cumsum(points)
    start = 0
    while start < len(ends):
        limit = (ends[start - 1] if start else 0) + _GRID_CHUNK
        stop = max(int(np.searchsorted(ends, limit, side="right")), start + 1)
        yield slice(start, stop)
        start = stop


def _cell_rse(m: int, theta: float) -> tuple:
    """(T(m, k), RSE) arrays over k = 1..m.

    One exact block up to max_k T(m, k) and one gamma-kernel pass over the
    grids of all k cells (one per _GRID_CHUNK points), both read from one
    moment table; each cell's RSE is one sum over its own slice, so it has
    the same bits as :func:`rse` of that cell alone.  The block and every
    temporary built from it die on return.
    """
    means, variances, cuts = _moment_table(m, theta)
    cuts = cuts.astype(np.int64)
    block = log_pmf_block(m, theta, m, int(cuts.max()))
    sums = []
    for cells in _cell_chunks(cuts + 2):
        approx = _log_pmf_cells(means[cells].tolist(), variances[cells].tolist(),
                                cuts[cells])
        # each cell's prefix block[k-1, :T+1], end to end, as approx has them
        part = block[cells]
        exact = part[np.arange(part.shape[1]) <= cuts[cells, np.newaxis]]
        squares = (np.exp(exact) - np.exp(approx)) ** 2
        ends = np.cumsum(cuts[cells] + 1).tolist()
        sums += [np.sum(squares[start:end]) for start, end in zip([0] + ends, ends)]
    return cuts, np.sqrt(sums)


def rse_block(
    M: int,
    theta: float,
    budget: float = DEFAULT_WORK_BUDGET,
    sink=None,
) -> np.recarray:
    """Truncation point and RSE of every 0 < k <= m <= M, in (m, k) order.

    The result is a record array with fields ``m, k, truncation, rse``.
    Only one exact block, that of the m being computed, is alive at a
    time.  Requests whose estimated work exceeds ``budget`` (a
    non-negative number; ``inf`` disables the check) are refused up front;
    the count stops at the first m that passes the budget, so the error
    carries the work counted so far, a lower bound on the estimate.  When
    ``sink`` is given it receives each m's slice of the result, a view, as
    soon as that m completes, so partial progress survives interruption
    of large blocks.
    """
    if not budget >= 0.0:  # NaN fails the comparison too
        raise DomainError("budget must satisfy budget >= 0")
    for counted in itertools.accumulate(_block_work(M, theta)):
        if counted > budget:
            raise WorkBudgetError(counted, budget)

    rows = np.recarray(M * (M + 1) // 2, dtype=[
        ("m", np.int64), ("k", np.int64), ("truncation", np.int64), ("rse", np.float64)])
    for m in range(1, M + 1):
        part = rows[m * (m - 1) // 2:m * (m + 1) // 2]
        part.m = m
        part.k = np.arange(1, m + 1)
        part.truncation, part.rse = _cell_rse(m, theta)
        if sink is not None:
            sink(part)
    return rows


def rse_summaries(rows) -> np.recarray:
    """Per-m max, mean and diagonal (k = m) RSE of :func:`rse_block` rows.

    The result is a record array with fields ``m, max_rse, mean_rse,
    diag_rse``, in increasing m.  The rows of every m present must be one
    slice covering k = 1..m in order; partial coverage would silently bias
    the reductions, so it is rejected.  The mean is a sequential sum over
    k divided by m.
    """
    ms, starts, counts = np.unique(rows["m"], return_index=True, return_counts=True)
    summaries = np.recarray(len(ms), dtype=[
        ("m", np.int64), ("max_rse", np.float64), ("mean_rse", np.float64),
        ("diag_rse", np.float64)])
    for i, (m, start, count) in enumerate(zip(ms.tolist(), starts.tolist(),
                                              counts.tolist())):
        if count != m or not np.array_equal(rows["k"][start:start + m],
                                            np.arange(1, m + 1)):
            raise DomainError(f"reports for m = {m} must cover every k = 1..m")
        values = rows["rse"][start:start + m]
        summaries[i] = (m, values.max(), np.add.accumulate(values)[-1] / m, values[-1])
    return summaries

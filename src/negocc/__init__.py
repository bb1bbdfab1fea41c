"""Negative occupancy and coupon-collector distributions.

Exact log-space computation of the excess hitting-time laws of the
extended occupancy problem, their moments and generating functions, a
moment-matched gamma approximation, reproducible sampling, and an
accuracy study comparing the two computation routes.

The extended-precision cross-validation oracles live in
:mod:`negocc.oracles`, which only the tests import.
"""

from .accuracy import (
    DEFAULT_WORK_BUDGET,
    RseReport,
    RseSummary,
    estimate_block_work,
    rse,
    rse_block,
    rse_summaries,
    truncation_point,
)
from .errors import (
    DegenerateMomentsError,
    DomainError,
    OracleRangeError,
    SingularityError,
    WorkBudgetError,
)
from .exact import (
    cdf,
    cdf_vector,
    coupon_collector_pmf_vector,
    log_pmf_block,
    log_pmf_vector,
    negbin_log_pmf,
    pmf_vector,
    quantile,
)
from .gamma_approx import GammaApproxParams, approx_log_pmf, approx_params, approx_pmf
from .moments import (
    AsymptoticMoments,
    MomentSummary,
    asymptotic_cgf,
    asymptotic_moments,
    cumulant,
    cumulant_set,
    generating_function,
    kurtosis,
    mean_variance,
    moment_summary,
    skewness,
    total_hitting_moments,
)
from .numerics import (
    gamma_log_cdf_grid,
    harmonic_power_sum,
    harmonic_power_sums,
    stirling2,
)
from .params import INFINITE, OccupancyParams, conditional_params
from .sampler import SampleConfig, sample_negocc

__version__ = "0.1.0"

"""Seeded operation lists for the three benchmark workloads.

Every operation is one argument vector for ``negocc.cli.execute`` plus the
parameters its output is checked against.  A list depends on nothing but
the workload name and the seed.

Why these workloads:

* ``study`` is the paper's headline computation, ``rse-block --m 150
  --theta 1 --summaries``: 11,325 ``(m, k)`` cells, dominated by the
  incomplete-gamma kernel.  The grid is fixed by the paper, so the seed
  does not change it.
* ``query`` is a mix of 576 single queries: exact pmf/cdf/quantile, the
  gamma route of ``pmf --method auto``, ``m = inf`` and analytic
  moments/generating functions.  It exercises the single-column recursion,
  the truncation point, the quantile doubling loop and the Python-loop
  harmonic sums.  The cost of a query spans three decades, so the list is
  long and its parameters come from scrambled Sobol points: each one
  follows the stated law exactly, and a list's total cost varies little
  from seed to seed.  About two thirds of the gamma-route draws hit the known
  incomplete-gamma ``ConvergenceError`` and count as failed operations.
* ``bulk`` is the output-heavy operations: 100,000 sampler draws at
  ``k = 1000`` in CSV and JSON, and the full ``(t, r)`` block at
  ``m = k = 200`` in CSV and as log-values in JSON.  It is the only
  workload that exercises the sampler and bulk row output; the gamma
  kernel does no work here.  ``k`` stays at 1000 so the sampler's fixed
  65,536-draw chunk (chunk * k doubles) fits in memory.
"""

import math
import random
from dataclasses import dataclass, field

from scipy.stats import qmc

WORKLOADS = ("study", "query", "bulk")

STUDY_M = 150
STUDY_CELLS = STUDY_M * (STUDY_M + 1) // 2
QUERY_P = (0.5, 0.99, 1.0 - 1e-6)
BULK_SAMPLE = {"m": 1000, "k": 1000, "n": 100_000}
BULK_BLOCK = {"m": 200, "k": 200}


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output is checked against.

    ``kind`` selects the check; ``params`` holds the numeric inputs the
    argument vector was built from.
    """

    kind: str
    argv: tuple
    params: dict = field(default_factory=dict, compare=False)


def _num(x: float) -> str:
    return repr(float(x))


def _unit_points(rng: random.Random, n: int, d: int):
    """n points uniform in [0, 1)^d from a scrambled Sobol sequence.

    Every coordinate is exactly uniform, but the points fill the cube far
    more evenly than independent draws, so a list's total cost varies
    much less from seed to seed.  n should be a power of two.
    """
    return qmc.Sobol(d=d, scramble=True, rng=rng.randrange(2**32)).random(n)


def _log_uniform(u: float, lo: float, hi: float) -> int:
    return int(round(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))))


def _triples(rng, n, m_lo, m_hi, theta_lo=0.5, theta_hi=1.0):
    """(m, k, theta): m log-uniform, k uniform in 1..m, theta uniform."""
    out = []
    for um, uk, ut in _unit_points(rng, n, 3):
        m = _log_uniform(um, m_lo, m_hi)
        k = 1 + min(int(uk * m), m - 1)
        out.append((m, k, theta_lo + ut * (theta_hi - theta_lo)))
    return out


def _common(m, k, theta):
    return ["--m", str(m), "--k", str(k), "--theta", _num(theta)]


def study_ops(seed: int) -> list:
    del seed  # the grid is fixed by the paper
    argv = ("rse-block", "--m", str(STUDY_M), "--theta", "1", "--summaries")
    return [Op("rse_summaries", argv, {"M": STUDY_M, "theta": 1.0})]


def query_ops(seed: int) -> list:
    rng = random.Random(f"query:{seed}")
    ops = []
    for m, k, theta in _triples(rng, 128, 10, 2000):
        params = {"m": m, "k": k, "theta": theta}
        ops.append(Op("pmf", ("pmf", *_common(m, k, theta)), params))
    for m, k, theta in _triples(rng, 128, 10, 2000):
        params = {"m": m, "k": k, "theta": theta}
        ops.append(Op("cdf", ("cdf", *_common(m, k, theta)), params))
    for p in QUERY_P:
        for m, k, theta in _triples(rng, 32, 10, 2000):
            params = {"m": m, "k": k, "theta": theta, "p": p}
            argv = ("quantile", *_common(m, k, theta), "--p", _num(p))
            ops.append(Op("quantile", argv, params))
    for m, k, theta in _triples(rng, 128, 1001, 100_000):
        params = {"m": m, "k": k, "theta": theta}
        argv = ("pmf", *_common(m, k, theta), "--method", "auto")
        ops.append(Op("pmf_gamma", argv, params))
    for uk, ut in _unit_points(rng, 32, 2):
        k = _log_uniform(uk, 1, 10_000)
        theta = 0.5 + 0.5 * ut
        params = {"m": math.inf, "k": k, "theta": theta}
        argv = ("pmf", "--m", "inf", "--k", str(k), "--theta", _num(theta))
        ops.append(Op("pmf_inf", argv, params))
    for m, k, theta in _triples(rng, 32, 10, 1_000_000):
        params = {"m": m, "k": k, "theta": theta}
        ops.append(Op("moments", ("moments", *_common(m, k, theta)), params))
    for kind in ("pgf", "mgf", "cgf", "cf"):
        for m, k, theta in _triples(rng, 8, 10, 1_000_000):
            # arguments inside the documented domain of convergence
            if kind == "pgf":
                arg = rng.uniform(-1.0, 1.0)
            elif kind == "cf":
                radius = m / (m - (m - k + 1) * theta)
                arg = rng.uniform(-0.9, 0.9) * math.log(radius)
            else:
                arg = rng.uniform(-1.0, 0.0)
            params = {"m": m, "k": k, "theta": theta, "kind": kind, "arg": arg}
            argv = ("gfun", *_common(m, k, theta), "--kind", kind, "--arg", _num(arg))
            ops.append(Op("gfun", argv, params))
    rng.shuffle(ops)
    return ops


def bulk_ops(seed: int) -> list:
    rng = random.Random(f"bulk:{seed}")
    ops = []
    s = BULK_SAMPLE
    # the same draws in both formats
    theta = rng.uniform(0.6, 0.8)
    sample_seed = rng.randrange(2**32)
    for fmt in ("csv", "json"):
        argv = ("sample", *_common(s["m"], s["k"], theta), "--n", str(s["n"]),
                "--seed", str(sample_seed), "--format", fmt)
        params = {**s, "theta": theta, "seed": sample_seed, "format": fmt}
        ops.append(Op("sample", argv, params))
    b = BULK_BLOCK
    # antithetic pair: each theta is uniform on [0.6, 0.8], and the two
    # blocks' total size hardly depends on the seed
    theta = rng.uniform(0.6, 0.8)
    for kind, extra, t in (("block_csv", (), theta),
                           ("block_json_log", ("--log", "--format", "json"), 1.4 - theta)):
        argv = ("pmf", "--block", *_common(b["m"], b["k"], t), *extra)
        ops.append(Op(kind, argv, {**b, "theta": t}))
    return ops


def ops_for(workload: str, seed: int) -> list:
    makers = {"study": study_ops, "query": query_ops, "bulk": bulk_ops}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return makers[workload](seed)

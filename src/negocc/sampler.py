"""Random variate generation by summing the geometric increments.

A draw is the sum of k independent geometric waits, increment l having
success probability theta*(m-l+1)/m (theta itself when m is infinite,
and l shifted by the conditioning occupancy).  Each draw consumes exactly
k uniforms from one PCG64 stream, so draw i always sees uniforms
i*k..(i+1)*k-1 however the work is tiled.  The draws stream through one
reused float tile and one int64 tile of ``_CHUNK_DOUBLES`` values each
(512 KiB, but always at least one draw), so sampler memory is bounded in
n, and in k while k <= ``_CHUNK_DOUBLES``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .params import OccupancyParams

__all__ = ["SampleConfig", "sample_negocc"]

#: Uniforms per tile (512 KiB of doubles); a tile holds at least one draw.
_CHUNK_DOUBLES = 1 << 16

#: The largest uniform ``Generator.random`` returns; it gives the longest wait.
_LARGEST_UNIFORM = 1.0 - 2.0**-53


@dataclass(frozen=True)
class SampleConfig:
    """A reproducible sampling request.

    ``conditional_r`` starts the increment sum at occupancy
    ``conditional_r`` instead of zero, sampling the excess wait from
    occupancy r to r + k.  Identical configs yield bit-identical draws.
    """

    params: OccupancyParams
    n: int
    seed: int
    conditional_r: int = 0

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise DomainError("n must be a positive integer")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise DomainError("seed must satisfy seed >= 0")
        if not isinstance(self.conditional_r, int) or self.conditional_r < 0:
            raise DomainError("conditional_r must satisfy conditional_r >= 0")
        if (
            not self.params.is_infinite
            and self.conditional_r + self.params.k > self.params.m
        ):
            raise DomainError("conditioning requires conditional_r + k <= m")


def _increment_probs(config: SampleConfig) -> np.ndarray:
    params = config.params
    k, theta, r = params.k, params.theta, config.conditional_r
    if params.is_infinite:
        return np.full(k, theta)
    m = int(params.m)  # Python ints: m may pass the int64 range
    return np.fromiter((theta * (m - l + 1) / m for l in range(r + 1, r + k + 1)),
                       dtype=float, count=k)


def sample_negocc(config: SampleConfig) -> np.ndarray:
    """n draws from the (possibly conditional) negative occupancy law.

    Deterministic in the seed and order-stable by draw index.  A theta so
    small that a draw could pass the int64 range is a ``DomainError``.
    """
    probs = _increment_probs(config)
    # a certain success (p = 1) divides by -inf: the uniform is consumed,
    # the wait is 0
    log_failure = np.array([math.log1p(-p) if p < 1.0 else -math.inf for p in probs])
    # a zero or subnormal probability gives an infinite wait, refused below
    with np.errstate(over="ignore", divide="ignore"):
        longest = np.floor(np.log1p(-_LARGEST_UNIFORM) / log_failure)
    if math.fsum(longest) >= 2.0**63:
        raise DomainError("theta is too small to sample: a draw can exceed 2**63 - 1")
    rows = max(_CHUNK_DOUBLES // probs.size, 1)
    uniforms = np.empty((min(rows, config.n), probs.size))
    waits = np.empty(uniforms.shape, dtype=np.int64)
    stream = np.random.Generator(np.random.PCG64(config.seed))
    out = np.empty(config.n, dtype=np.int64)
    for start in range(0, config.n, rows):
        u, w = uniforms[:config.n - start], waits[:config.n - start]
        stream.random(out=u)
        np.log1p(np.negative(u, out=u), out=u)
        np.divide(u, log_failure, out=u)
        # every wait is finite and >= 0 past the guard, so truncation is floor
        np.copyto(w, u, casting="unsafe")
        w.sum(axis=1, out=out[start:start + len(w)])
    return out

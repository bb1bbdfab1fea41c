"""Random variate generation by summing the geometric increments.

A draw is the sum of k independent geometric waits, increment l having
success probability theta*(m-l+1)/m (theta itself when m is infinite,
and l shifted by the conditioning occupancy).  Each draw consumes exactly
k uniforms from a PCG64 stream, so draw i always sees uniforms
i*k..(i+1)*k-1 regardless of how the work is chunked: sequences are
bit-reproducible under any chunking and across parallel ranges.  A chunk
holds at most ``_CHUNK_DOUBLES`` uniforms but always at least one draw, so
peak memory does not grow with k while k <= ``_CHUNK_DOUBLES``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .params import OccupancyParams

__all__ = ["SampleConfig", "sample_negocc"]

#: Uniforms per chunk (32 MiB of doubles); a chunk holds at least one draw.
_CHUNK_DOUBLES = 1 << 22

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
    m = int(params.m)
    ls = np.arange(r + 1, r + k + 1)
    return theta * (m - ls + 1) / m


def _sample_range(seed: int, start: int, count: int, probs: np.ndarray) -> np.ndarray:
    """Draws for indices start..start+count-1 of the stream.

    PCG64 emits one 64-bit word per double, so advancing by start*k words
    positions the stream exactly at draw ``start``.
    """
    k = probs.size
    bits = np.random.PCG64(seed)
    if start:
        bits.advance(start * k)
    u = np.random.Generator(bits).random((count, k))
    waits = np.log1p(-u, out=u)
    waits /= _log_failure(probs)
    return np.floor(waits, out=waits).astype(np.int64).sum(axis=1)


def _log_failure(probs: np.ndarray) -> np.ndarray:
    # a certain success (p = 1) divides by -inf: the uniform is consumed,
    # the wait is 0
    return np.array([math.log1p(-p) if p < 1.0 else -math.inf for p in probs])


def sample_negocc(config: SampleConfig) -> np.ndarray:
    """n draws from the (possibly conditional) negative occupancy law.

    Deterministic in the seed and order-stable by draw index.  A theta so
    small that a draw could pass the int64 range is a ``DomainError``.
    """
    probs = _increment_probs(config)
    with np.errstate(over="ignore"):  # an infinite wait is refused below
        longest = np.floor(np.log1p(-_LARGEST_UNIFORM) / _log_failure(probs))
    if math.fsum(longest) >= 2.0**63:
        raise DomainError("theta is too small to sample: a draw can exceed 2**63 - 1")
    chunk = max(_CHUNK_DOUBLES // probs.size, 1)
    out = np.empty(config.n, dtype=np.int64)
    for start in range(0, config.n, chunk):
        count = min(chunk, config.n - start)
        out[start : start + count] = _sample_range(config.seed, start, count, probs)
    return out

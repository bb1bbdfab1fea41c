"""Parameter triple for the negative occupancy family.

The space parameter may be the distinguished value ``INFINITE``
(``math.inf``), in which case the distribution reduces to the negative
binomial.  Everywhere in this package, probability zero is represented in
log-space as ``-inf``; no operation produces NaN.
"""

import math
from dataclasses import dataclass

from .errors import DomainError

#: Distinguished space-parameter value for an unbounded number of bins.
INFINITE = math.inf

#: The smallest integer that ``float()`` rounds past the largest double.
_FLOAT_OVERFLOW = 2**1024 - 2**970


def check_triple(m, k, theta) -> float:
    """Validate a parameter triple and return theta as a float.

    The one place the constraints on (m, k, theta) are checked:
    :class:`OccupancyParams` runs it on construction, and the functions
    that take a bare triple call it directly.
    """
    if m != INFINITE:
        if type(m) is not int:  # rejects bool, which is an int subclass
            raise DomainError("m must be a positive integer or INFINITE")
        if m < 1:
            raise DomainError("m must satisfy m >= 1")
        if m >= _FLOAT_OVERFLOW:
            raise DomainError("m must satisfy m < 2**1024 - 2**970 to convert to a double")
    if type(k) is not int:
        raise DomainError("k must be a positive integer")
    if k < 1:
        raise DomainError("k must satisfy k >= 1")
    if k > m:
        raise DomainError("k must satisfy 0 < k <= m")
    theta = float(theta)
    if not 0.0 < theta <= 1.0:  # NaN fails the comparison too
        raise DomainError("theta must satisfy 0 < theta <= 1")
    return theta


def check_tmax(tmax, name: str = "tmax") -> int:
    """Validate a largest argument tmax (or one argument called ``name``):
    an integer in [0, 2**59)."""
    if not isinstance(tmax, int) or tmax < 0:
        raise DomainError(f"{name} must satisfy {name} >= 0")
    if tmax >= 2**59:  # 2**62 bytes of doubles: past what numpy can allocate
        # Decimal, unlike float, also renders integers past 1.8e308
        from decimal import Context, Decimal

        got = format(Decimal(tmax).normalize(Context(prec=6)), "g")
        raise DomainError(f"{name} must satisfy {name} < 2**59, got {got}")
    return tmax


@dataclass(frozen=True)
class OccupancyParams:
    """Parameters (m, k, theta) of a negative occupancy distribution.

    Parameters
    ----------
    m : int or INFINITE
        Space parameter (number of bins); ``INFINITE`` selects the
        negative binomial limit.
    k : int
        Occupancy parameter (number of bins to fill), ``0 < k <= m``.
    theta : float
        Probability that an allocated ball occupies its bin, in (0, 1].
        ``theta = 0`` is rejected: the hitting time would be infinite.

    The coupon-collector case is exactly ``k == m`` with finite ``m``.
    """

    m: int | float
    k: int
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", check_triple(self.m, self.k, self.theta))

    @property
    def is_infinite(self) -> bool:
        return self.m == INFINITE

    @property
    def is_coupon_collector(self) -> bool:
        return not self.is_infinite and self.k == self.m


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

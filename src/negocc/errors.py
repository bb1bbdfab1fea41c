"""Exception types shared across the package."""


class DomainError(ValueError):
    """A parameter or argument lies outside its permitted domain.

    The message always names the violated constraint so callers (and the
    CLI) can surface it verbatim.
    """


class OracleRangeError(ValueError):
    """A cross-validation oracle was asked for an instance outside the
    small-instance range where its arithmetic is trustworthy, or its
    cancellation guard tripped."""


class DegenerateMomentsError(DomainError):
    """Skewness/kurtosis requested for a point-mass distribution."""


class SingularityError(DomainError):
    """An asymptotic formula was evaluated exactly at a singular point."""


class WorkBudgetError(RuntimeError):
    """A block computation was refused because its estimated work exceeds
    the configured budget.

    Attributes
    ----------
    estimated : float
        Work units counted for the request before the count passed the
        budget; the full estimate is at least this.
    budget : float
        The configured budget it exceeded.
    """

    def __init__(self, estimated: float, budget: float):
        self.estimated = estimated
        self.budget = budget
        super().__init__(
            f"estimated work of at least {estimated:.3e} units exceeds budget "
            f"{budget:.3e}; raise the budget to proceed"
        )

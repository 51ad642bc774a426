"""Exception types shared across the package, one family per CLI exit code.

A failed precondition raises a `ValueError` (exit 2), as does a two-cycle
that the exact criterion proves but float arithmetic cannot locate; singular
or forbidden input raises a `SingularInput` (exit 3)."""


class RatdynError(Exception):
    """Base class for package-specific errors."""


class DigitLimit(RatdynError, ValueError):
    """An exact value has more digits than a limit, such as CPython's int->str limit."""

    def __init__(self, limit):
        super().__init__(f"exact value exceeds {limit} digits")


class SingularInput(RatdynError):
    """Base class for singular or forbidden input (CLI exit code 3)."""


class ZeroDenominator(SingularInput):
    """A denominator that must be nonzero vanished."""


class ForbiddenInitialCondition(SingularInput):
    """Initial condition whose forward orbit hits a zero denominator."""

    def __init__(self, depth):
        self.depth = depth
        super().__init__(f"initial condition hits a singularity at step {depth}")


class NearSingularity(SingularInput):
    """Floating-plane step tripped the near-zero denominator guard."""

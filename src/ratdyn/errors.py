"""Exception types shared across the package."""


class RatdynError(Exception):
    """Base class for package-specific errors."""


class DigitLimit(RatdynError):
    """An exact value has more digits than a limit, such as CPython's int->str limit."""

    def __init__(self, limit):
        super().__init__(f"exact value exceeds {limit} digits")


class NonRealRoots(RatdynError):
    """The characteristic discriminant p^2 + 4q is not positive."""


class SpecNotCanonical(RatdynError):
    """Operation requires the canonical seeds (W0, W1) = (0, 1)."""


class IndexConstraintViolated(RatdynError):
    """Identity index tuple violates its admissibility constraints."""


class SingularInput(RatdynError):
    """Base class for singular or forbidden input (CLI exit code 3)."""


class ZeroDenominator(SingularInput):
    """A denominator that must be nonzero vanished."""


class ForbiddenInitialCondition(SingularInput):
    """Initial condition whose forward orbit hits a zero denominator."""

    def __init__(self, depth, message=None):
        self.depth = depth
        super().__init__(message or f"initial condition hits a singularity at step {depth}")


class InitialAtMinusPhiPlus(SingularInput):
    """Initial condition sits on the repelling fixed point excluded from product limits."""


class Singularity(SingularInput):
    """Exact-plane step produced a zero denominator."""


class NearSingularity(SingularInput):
    """Floating-plane step tripped the near-zero denominator guard."""


class WrongBranch(RatdynError):
    """Operation is only defined for the other sign branch."""


class OrbitTooShort(RatdynError):
    """Orbit has too few recorded values for the requested analysis."""


class NotAnEquilibrium(RatdynError):
    """Reported value does not satisfy the equilibrium polynomial."""

"""Exception types shared across the package."""


class CentercutError(Exception):
    """Base class for all package-specific errors."""


class Infeasible(CentercutError):
    """Constraint system has no feasible point."""


class Unbounded(CentercutError):
    """Constraint system admits a recession direction."""


class BudgetExceeded(CentercutError):
    """An enumeration or evaluation cap was hit before completion."""


class EmptyRegion(CentercutError):
    """A restriction left the measure with zero total mass."""


class EmptyLattice(CentercutError):
    """No lattice point (or integer fiber) meets the feasible set."""


class RejectionStall(CentercutError):
    """Rejection sampling acceptance rate fell below the safety floor."""


class DimensionTooLarge(CentercutError):
    """Requested exact computation beyond the supported dimension."""


class InfeasibleStart(CentercutError):
    """Solver started with an empty search region."""


class ZeroSubgradient(CentercutError):
    """A zero subgradient was returned: the queried point is optimal."""

    def __init__(self, point=None, value=None):
        super().__init__("zero subgradient: queried point is a minimizer")
        self.point = point
        self.value = value


class OutsideRegion(CentercutError):
    """Adversary was queried at a point outside its game arena."""


class ParseError(CentercutError):
    """Problem file is not syntactically valid JSON."""


class SchemaError(CentercutError):
    """Problem file is valid JSON but violates the document schema."""

"""Halfspace-depth centerpoints of constrained measures and a
centerpoint-driven cutting-plane solver for convex mixed-integer
minimization, with adversarial instances realizing the matching
query lower bounds."""

from . import adversary, centerpoint, cutplane, depth, geom, measures
from .errors import (
    BudgetExceeded,
    CentercutError,
    DimensionTooLarge,
    EmptyLattice,
    EmptyRegion,
    Infeasible,
    InfeasibleStart,
    OutsideRegion,
    ParseError,
    RejectionStall,
    SchemaError,
    Unbounded,
    ZeroSubgradient,
)

__all__ = [
    "adversary",
    "centerpoint",
    "cutplane",
    "depth",
    "geom",
    "measures",
    "BudgetExceeded",
    "CentercutError",
    "DimensionTooLarge",
    "EmptyLattice",
    "EmptyRegion",
    "Infeasible",
    "InfeasibleStart",
    "OutsideRegion",
    "ParseError",
    "RejectionStall",
    "SchemaError",
    "Unbounded",
    "ZeroSubgradient",
]

__version__ = "0.1.0"

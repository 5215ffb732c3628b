"""Exception types shared across the package.

Division by zero in the scalar field raises the builtin ZeroDivisionError;
everything domain-specific gets a named class so callers can assert on the
exact failure mode.
"""


class BudgetExceeded(RuntimeError):
    """A Groebner computation exceeded its reduction-step budget."""


class ForbiddenParameter(ValueError):
    """A surface parameter took one of the excluded rational values."""


class NotAntiInvolution(ValueError):
    """The candidate map is not an anti-regular involution of the presentation."""


class NotAutomorphism(ValueError):
    """The candidate map does not preserve the presentation ideal."""


class NotIsomorphism(ValueError):
    """The candidate map is not an isomorphism of presentations."""


class NotConjugationStable(ValueError):
    """A point configuration is not stable under coordinatewise conjugation."""


class IdenticalPoints(ValueError):
    """Two points that must be distinct are projectively equal."""


class FNotInIdeal(ValueError):
    """The inverted element of a modification does not lie in the center ideal."""


class PointNotOnVariety(ValueError):
    """A point handed to a local computation does not satisfy the ideal."""


class NotACurveClass(ValueError):
    """A divisor class outside the shape expected of a curve class."""

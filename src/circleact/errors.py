"""Exception types shared across the package."""


class CircleActionError(Exception):
    """Base class for all errors raised by this package."""


class NotEffective(CircleActionError):
    """Weights have a common divisor greater than 1."""


class LengthMismatch(CircleActionError):
    """An exponent vector or point has the wrong number of coordinates."""


class EmptyAction(CircleActionError):
    """The action has no weighted coordinates (m = 0)."""


class TooManyFaces(CircleActionError):
    """An explicit face listing would exceed its fixed size bound."""


class TooManyWeights(CircleActionError):
    """A diagram claims more weights than the fixed bound on recovery."""


class TooManyCandidates(CircleActionError):
    """A Hilbert basis completion would pass its fixed bound on grown
    vectors or on domination comparisons, or the basis would hold more
    conjugate pairs than the bound on grown vectors."""


class MalformedDiagram(CircleActionError):
    """A stratification diagram that cannot have come from an effective
    linear circle action."""


class NoDistinguishedStratum(MalformedDiagram):
    """The diagram lacks a unique infinite-order stratum, or yields m = 0."""


class ParityError(MalformedDiagram):
    """A dimension difference that must be even is odd."""


class NegativeMultiplicity(MalformedDiagram):
    """The weight-count recursion went negative at some stratum."""


class CountMismatch(MalformedDiagram):
    """The recovered weight count disagrees with the inferred m."""


class UncertifiedDiagram(MalformedDiagram):
    """No action produces the diagram: its recovered action's diagram differs."""

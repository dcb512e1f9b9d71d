"""Exception types raised across the package."""


class HopfCyclicError(Exception):
    """Base class for all package errors."""


# linear algebra
class CompositionNotZero(HopfCyclicError):
    """d_out . d_in is not the zero map; upstream sign/convention bug.
    Carries the degree of d_in."""

    def __init__(self, message, degree):
        self.degree = degree
        super().__init__(message)


# structure builders / checkers
class NotAGroup(HopfCyclicError):
    pass


class CharTwo(HopfCyclicError):
    pass


class Singular(HopfCyclicError):
    pass


class AxiomFailure(HopfCyclicError):
    pass


class NotInverse(HopfCyclicError):
    pass


class NotIntertwining(HopfCyclicError):
    pass


class ClosedFormMismatch(HopfCyclicError):
    pass


class NotWellDefined(HopfCyclicError):
    pass


class NotRestricting(HopfCyclicError):
    pass


# homology engine
class MixedIdentityFailure(HopfCyclicError):
    pass


class TruncationTooShallow(HopfCyclicError):
    pass


class _NotSquareZero(HopfCyclicError):
    """delta delta != 0 on the (co)bar complex; carries the degree."""

    def __init__(self, degree):
        self.degree = degree
        super().__init__("delta delta != 0 at degree %d" % degree)


class BoundaryNotSquareZero(_NotSquareZero):
    pass


class CoboundaryNotSquareZero(_NotSquareZero):
    pass


class NotSemisimple(HopfCyclicError):
    pass


class NotCosemisimple(HopfCyclicError):
    pass


class HomotopyFailure(HopfCyclicError):
    pass


class TotalNotSquareZero(HopfCyclicError):
    pass


class FiltrationViolation(HopfCyclicError):
    pass


# cli / io
class ParseError(HopfCyclicError):
    pass


class MissingBlock(HopfCyclicError):
    pass


class TooLarge(HopfCyclicError):
    """A job would build spaces beyond desk scale; refused before building."""

"""Exception types raised across the package."""


class HopfCyclicError(Exception):
    """Base class for all package errors."""


# linear algebra
class CompositionNotZero(HopfCyclicError):
    """d_out . d_in is not the zero map; upstream sign/convention bug."""


# structure builders / checkers
class NotAGroup(HopfCyclicError):
    pass


class CharTwo(HopfCyclicError):
    pass


class Singular(HopfCyclicError):
    pass


class AxiomFailure(HopfCyclicError):
    pass


class IdentityFailure(HopfCyclicError):
    """A (co)cyclic / bi-paracyclic identity failed; carries identity name and cell."""

    def __init__(self, identity, p=None, q=None):
        self.identity = identity
        self.p = p
        self.q = q
        loc = "" if p is None else " at (p=%s, q=%s)" % (p, q)
        super().__init__(identity + loc)


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

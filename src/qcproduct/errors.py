"""Exception taxonomy shared by every module in the package.

All domain errors derive from :class:`QcError` so callers (and the CLI) can
distinguish precondition violations from genuine bugs with a single except
clause.  Each class is deliberately tiny: the type itself carries the meaning,
the message carries the particulars.
"""


class QcError(Exception):
    """Base class for all domain errors raised by this package."""


class NotPrime(QcError):
    """A field characteristic (or claimed prime-power order) is not valid."""


class NotIrreducible(QcError):
    """A supplied modulus polynomial factors over its prime field."""


class DegreeMismatch(QcError):
    """A polynomial does not have the degree its role requires."""


class FieldMismatch(QcError):
    """Operands belong to different fields."""


class DivisionByZero(QcError, ZeroDivisionError):
    """Division or inversion by the zero element / zero polynomial."""


class NoSuchRoot(QcError):
    """The requested root of unity does not exist in the field."""


class BothZero(QcError):
    """gcd/egcd of (0, 0) is undefined."""


class NotCoprime(QcError):
    """Two integers required to be coprime are not."""


class CoefficientNotInBaseField(QcError):
    """Internal consistency failure: a minimal-polynomial coefficient
    computed in an extension field did not land in the base field."""


class NotADivisor(QcError):
    """A polynomial (or integer) required to divide another does not."""


class DegreeOverflow(QcError):
    """A component polynomial exceeds the degree bound of its container."""


class NonPrefixPattern(QcError):
    """The diagonal of a reduced basis mixes full and proper divisors of
    X^m - 1 in a non-prefix pattern, so the level is undefined."""


class IndexOutOfRange(QcError):
    """A matrix or mapping index lies outside its declared range."""


class ParamMismatch(QcError):
    """Construction parameters disagree with the objects they describe."""


class NotOneLevel(QcError):
    """An operation requiring a 1-level code received something else."""


class RankMismatch(QcError):
    """The rank of an expanded generator array disagrees with the
    dimension formula (signals a reduction bug)."""


class TooLarge(QcError):
    """An exhaustive enumeration would exceed the configured guard."""


class ShapeMismatch(QcError):
    """Two objects that must share (ell, m, field) shape do not."""


class PolyParseError(QcError):
    """A polynomial text string could not be parsed."""

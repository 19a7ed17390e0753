"""Exception types shared across the package.

Every error the library raises itself derives from CertifyError, so callers
can catch the whole family; a division by zero in QQ is the builtin
ZeroDivisionError that ``fractions.Fraction`` raises.
"""


class CertifyError(Exception):
    """Base class for all errors raised by heis8_certify."""


# exact arithmetic
class DenominatorVanishes(CertifyError):
    pass


# polynomials and matrices
class ArityMismatch(CertifyError):
    pass


class NonInvertibleMap(CertifyError):
    pass


class NotSkewSymmetric(CertifyError):
    pass


class BadSize(CertifyError):
    pass


class BadDimension(CertifyError):
    pass


# group action
class MissingRootOfUnity(CertifyError):
    pass


# linear algebra
class DimensionMismatch(CertifyError):
    pass


class InhomogeneousInput(CertifyError):
    pass


class NotInDegree(CertifyError):
    """The target has no representation in its own degree.

    This is an exact statement about the degree-d slice of the ideal over
    the field the solve ran in, GF(p) or QQ; for a homogeneous target and
    homogeneous generators that slice decides membership in the ideal.
    """


class NotUnipotent(CertifyError):
    pass


# geometry
class ZeroPoint(CertifyError):
    pass


class PointNotOnVariety(CertifyError):
    pass


class DegeneratePoint(CertifyError):
    pass


class UnluckyPrime(CertifyError):
    pass


# cli
class UnknownCheckId(CertifyError):
    pass


class EmptySelection(CertifyError):
    pass


class InvalidPrime(CertifyError):
    pass


class InvalidSeed(CertifyError):
    pass

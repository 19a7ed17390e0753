"""Exception types shared across the package.

Every error raised by the library derives from CertifyError so callers can
catch the whole family; DivisionByZero additionally derives from the builtin
ZeroDivisionError so the three coefficient fields share one division contract.
"""


class CertifyError(Exception):
    """Base class for all errors raised by heis8_certify."""


# exact arithmetic
class DivisionByZero(CertifyError, ZeroDivisionError):
    pass


class ModulusMismatch(CertifyError):
    pass


class BadPrime(CertifyError):
    pass


class BadRoot(CertifyError):
    pass


class DenominatorVanishes(CertifyError):
    pass


# polynomials, matrices, series
class ArityMismatch(CertifyError):
    pass


class NonInvertibleMap(CertifyError):
    pass


class NotSkewSymmetric(CertifyError):
    pass


class BadSize(CertifyError):
    pass


class NonUnitSeries(CertifyError):
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
    """No representation of the target in its own degree was found.

    Over GF(p) this is an exact statement about the degree-d slice of the
    ideal mod p.  Over the rationals it is degree-bounded evidence gathered
    through reference primes, not a proof of non-membership.
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

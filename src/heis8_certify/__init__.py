"""heis8-certify: exact, replayable certificates for the computational claims
behind a level-8 Heisenberg-invariant (2,2,2,2) complete intersection in P⁷.

Everything is computed in exact arithmetic (arbitrary-precision rationals,
prime fields, the 8th cyclotomic field); the only floating point in the
package is wall-clock timing.
"""
from .report import VERSION as __version__  # noqa: F401

from . import exactmath, geometry, heisenberg, linalg, multipoly  # noqa: F401
from .exactmath import GF, QI8, QQ, Cyclo, ModInt  # noqa: F401
from .report import CertificateResult, Report, RunConfig  # noqa: F401

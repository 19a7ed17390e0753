"""heis8-certify: exact, replayable certificates for the computational claims
behind a level-8 Heisenberg-invariant (2,2,2,2) complete intersection in P⁷.

Everything is computed in exact arithmetic (arbitrary-precision rationals
and prime fields); the only floating point in the package is wall-clock
timing.
"""
from .report import VERSION as __version__  # noqa: F401

"""heis8-certify: exact, replayable certificates for the computational claims
behind a level-8 Heisenberg-invariant (2,2,2,2) complete intersection in P⁷.

Everything is computed in exact arithmetic, over the integers, the rationals
and int residues mod p; the only floating point in the package is wall-clock
timing.
"""
__version__ = "0.1.0"

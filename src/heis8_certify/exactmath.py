"""Exact coefficient arithmetic over ℚ, and residues mod p.

Rationals are ``fractions.Fraction``, always stored reduced, so equality is
structural.  The field object ``QQ`` carries the constants and coercions that
generic code (polynomials, matrices) needs.  A value mod p is a plain int in
[0, p): ``residue`` reduces a rational to it, and the modular code (the
membership solve and replay, the sweeps of P²(GF(p)), the singular-scheme
count) computes on such ints alone.  No claim needs arithmetic in ℚ(ξ8):
geometry.quadric_span_images decides the ℚ(ξ8) one on integers.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import DenominatorVanishes, MissingRootOfUnity


def is_prime(n: int) -> bool:
    """Trial division; entirely adequate for the word-sized moduli used here."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def is_prime_1_mod_8(p: int) -> bool:
    """Whether p is a prime ≡ 1 mod 8, the primes whose GF(p) contains the
    primitive 8th roots of unity (every such prime is odd)."""
    return is_prime(p) and p % 8 == 1


def residue(c, p: int) -> int:
    """The residue in [0, p) of a QQ value (an int or a Fraction) mod p."""
    d = c.denominator % p
    if d == 0:
        raise DenominatorVanishes(f"{c} has no image in GF({p})")
    return c.numerator * pow(d, -1, p) % p


_FRAC_ZERO = Fraction(0)
_FRAC_ONE = Fraction(1)


class RationalField:
    name = "QQ"
    zero = _FRAC_ZERO
    one = _FRAC_ONE

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        raise TypeError(f"cannot coerce {x!r} into QQ")

    def root_of_unity(self, k: int):
        k %= 8
        if k == 0:
            return _FRAC_ONE
        if k == 4:
            return -_FRAC_ONE
        raise MissingRootOfUnity(f"QQ has no primitive 8th root of unity (needed zeta8^{k})")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return self.name


QQ = RationalField()


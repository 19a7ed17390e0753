"""Exact coefficient arithmetic: ℚ and GF(p).

Two element types share one contract (add/sub/mul/div/neg/pow/==, all exact):

* rationals are ``fractions.Fraction``, always stored reduced, so equality is
  structural;
* ``ModInt`` is a residue carrying its modulus; mixing moduli raises
  ModulusMismatch.

Field *objects* (``QQ``, ``PrimeField(p)``) carry the constants and coercions
that generic code (polynomials, matrices) needs.  No claim needs arithmetic
in ℚ(ξ8): geometry.quadric_span_images decides the ℚ(ξ8) one on integers.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import (
    BadPrime,
    DenominatorVanishes,
    DivisionByZero,
    MissingRootOfUnity,
    ModulusMismatch,
)


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


class ModInt:
    """An element of GF(p), reduced to [0, p)."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, ModInt):
            if other.p != self.p:
                raise ModulusMismatch(f"GF({self.p}) vs GF({other.p})")
            return other
        if isinstance(other, int):
            return ModInt(other, self.p)
        if isinstance(other, Fraction):
            if other.denominator % self.p == 0:
                raise DenominatorVanishes(f"{other} has no image in GF({self.p})")
            return ModInt(other.numerator * pow(other.denominator, -1, self.p), self.p)
        return None

    def __add__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else ModInt(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else ModInt(self.value - o.value, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else ModInt(o.value - self.value, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else ModInt(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else o * self.inverse()

    def __neg__(self):
        return ModInt(-self.value, self.p)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return ModInt(pow(self.value, e, self.p), self.p)

    def inverse(self) -> "ModInt":
        if self.value == 0:
            raise DivisionByZero(f"inverse of 0 in GF({self.p})")
        return ModInt(pow(self.value, self.p - 2, self.p), self.p)

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, ModInt):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __repr__(self):
        return f"{self.value}"


_FRAC_ZERO = Fraction(0)
_FRAC_ONE = Fraction(1)


@lru_cache(maxsize=None)
def find_order8_root(p: int) -> int:
    """Smallest residue of exact multiplicative order 8 in GF(p). Needs p ≡ 1 (mod 8).
    Memoized: PrimeField.root_of_unity asks for it on every call."""
    if not is_prime_1_mod_8(p):
        raise BadPrime(f"p={p} is not a prime congruent to 1 mod 8")
    for r in range(2, p):
        if pow(r, 8, p) == 1 and pow(r, 4, p) != 1:
            return r
    raise BadPrime(f"no element of order 8 mod {p}")  # unreachable for p ≡ 1 mod 8


class FieldBase:
    """Shared helpers; concrete fields define zero/one/coerce/name/random and
    root_of_unity."""

    def __repr__(self):
        return self.name


class RationalField(FieldBase):
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

    def random(self, rng, bound: int = 10):
        num = rng.randint(-bound, bound)
        den = rng.randint(1, bound)
        return Fraction(num, den)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField(FieldBase):
    """GF(p) as a field object; elements are ModInt."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise BadPrime(f"{p} is not prime")
        self.p = p
        self.zero = ModInt(0, p)
        self.one = ModInt(1, p)
        self.name = f"GF({p})"

    def coerce(self, x):
        if isinstance(x, ModInt):
            if x.p != self.p:
                raise ModulusMismatch(f"GF({x.p}) element in GF({self.p})")
            return x
        if isinstance(x, int):
            return ModInt(x, self.p)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise DenominatorVanishes(f"{x} has no image in GF({self.p})")
            return ModInt(x.numerator * pow(x.denominator, -1, self.p), self.p)
        raise TypeError(f"cannot coerce {x!r} into GF({self.p})")

    def root_of_unity(self, k: int):
        k %= 8
        if is_prime_1_mod_8(self.p):
            return ModInt(pow(find_order8_root(self.p), k, self.p), self.p)
        if k == 0:
            return self.one
        if k == 4:
            return -self.one
        raise MissingRootOfUnity(f"GF({self.p}) has no primitive 8th root of unity")

    def random(self, rng):
        return ModInt(rng.randrange(self.p), self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    return PrimeField(p)

"""Exact coefficient arithmetic: ℚ, GF(p), and ℚ(ξ) with ξ a primitive 8th root of unity.

Three element types share one contract (add/sub/mul/div/neg/pow/==, all exact):

* rationals are ``fractions.Fraction``, always stored reduced, so equality is
  structural;
* ``ModInt`` is a residue carrying its modulus; mixing moduli raises
  ModulusMismatch;
* ``Cyclo`` is an element of ℚ[t]/(t⁴+1) on the power basis {1, ξ, ξ², ξ³},
  never a numerical approximation.

Field *objects* (``QQ``, ``PrimeField(p)``, ``QI8``) carry the constants and
coercions that generic code (polynomials, matrices) needs.
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


class Cyclo:
    """c0 + c1·ξ + c2·ξ² + c3·ξ³ with ξ⁴ = −1, coefficients exact rationals."""

    __slots__ = ("coeffs",)

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        self.coeffs = (Fraction(c0), Fraction(c1), Fraction(c2), Fraction(c3))

    @classmethod
    def _raw(cls, coeffs) -> "Cyclo":
        obj = object.__new__(cls)
        obj.coeffs = tuple(coeffs)
        return obj

    @staticmethod
    def zeta(k: int = 1) -> "Cyclo":
        """ξ^k for any integer k (ξ has order 8)."""
        k %= 8
        sign = _FRAC_ONE if k < 4 else -_FRAC_ONE
        c = [_FRAC_ZERO] * 4
        c[k % 4] = sign
        return Cyclo._raw(c)

    def _lift(self, other):
        if isinstance(other, Cyclo):
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclo(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Cyclo._raw(a + b for a, b in zip(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return Cyclo._raw(a - b for a, b in zip(self.coeffs, o.coeffs))

    def __rsub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else o - self

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        out = [_FRAC_ZERO] * 4
        for i in range(4):
            ai = a[i]
            if not ai:
                continue
            for j in range(4):
                if not b[j]:
                    continue
                k = i + j
                if k < 4:
                    out[k] += ai * b[j]
                else:
                    out[k - 4] -= ai * b[j]
        return Cyclo._raw(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else o * self.inverse()

    def __neg__(self):
        return Cyclo._raw(-a for a in self.coeffs)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        acc = Cyclo(1)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def inverse(self) -> "Cyclo":
        """1/a = σ3(a)·σ5(a)·σ7(a) / N(a), σk being ξ ↦ ξ^k.  b = a·σ5(a) is
        fixed by σ5, so lies in ℚ(ξ²); σ3(a)·σ7(a) = σ3(b) and N(a) = b·σ3(b)."""
        if not self:
            raise DivisionByZero("inverse of 0 in Q(zeta8)")
        c0, c1, c2, c3 = self.coeffs
        s5 = Cyclo._raw((c0, -c1, c2, -c3))
        b0, _, b2, _ = (self * s5).coeffs
        norm = b0 * b0 + b2 * b2
        return s5 * Cyclo._raw((b0 / norm, _FRAC_ZERO, -b2 / norm, _FRAC_ZERO))

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            mon = ("", "zeta8", "zeta8^2", "zeta8^3")[i]
            if not mon:
                parts.append(str(c))
            elif c == 1:
                parts.append(mon)
            elif c == -1:
                parts.append(f"-{mon}")
            else:
                parts.append(f"{c}*{mon}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def find_order8_root(p: int) -> int:
    """Smallest residue of exact multiplicative order 8 in GF(p). Needs p ≡ 1 (mod 8)."""
    if not is_prime_1_mod_8(p):
        raise BadPrime(f"p={p} is not a prime congruent to 1 mod 8")
    for r in range(2, p):
        if pow(r, 8, p) == 1 and pow(r, 4, p) != 1:
            return r
    raise BadPrime(f"no element of order 8 mod {p}")  # unreachable for p ≡ 1 mod 8


class FieldBase:
    """Shared helpers; concrete fields define zero/one/coerce/name/random."""

    def root_of_unity(self, k: int):
        raise MissingRootOfUnity(self.name)

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


class CyclotomicField(FieldBase):
    """ℚ(ξ₈) = ℚ[t]/(t⁴+1)."""

    name = "QQ(zeta8)"
    zero = Cyclo(0)
    one = Cyclo(1)

    def coerce(self, x):
        if isinstance(x, Cyclo):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclo(x)
        raise TypeError(f"cannot coerce {x!r} into QQ(zeta8)")

    def root_of_unity(self, k: int):
        return Cyclo.zeta(k)

    def random(self, rng, bound: int = 10):
        return Cyclo(*(Fraction(rng.randint(-bound, bound), rng.randint(1, 3)) for _ in range(4)))

    def __eq__(self, other):
        return isinstance(other, CyclotomicField)

    def __hash__(self):
        return hash("QQ(zeta8)")


QQ = RationalField()
QI8 = CyclotomicField()


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    return PrimeField(p)

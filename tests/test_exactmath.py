"""Field arithmetic: worked examples with independent oracles, then
property suites over both coefficient fields.  The 8th roots of unity are
worked in GF(p), p ≡ 1 mod 8, where they exist."""
import random
from fractions import Fraction

import pytest

from heis8_certify.errors import DenominatorVanishes
from heis8_certify.exactmath import QQ, is_prime, residue

from helpers import (
    GF,
    BadPrime,
    DivisionByZero,
    ModInt,
    ModulusMismatch,
    find_order8_root,
    multiplicative_order,
    random_element,
)

ZETA_PRIMES = (17, 41, 73)


def xgcd_inverse_oracle(a: int, p: int) -> int:
    """Independent oracle: the extended Euclidean algorithm on integers."""
    r0, r1, s0, s1 = p, a % p, 0, 1
    while r1:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    assert r0 == 1
    return s0 % p


def test_zeta_times_zeta_cubed_is_minus_one():
    for p in ZETA_PRIMES:
        z = GF(p).root_of_unity
        assert z(1) * z(3) == -GF(p).one


def test_ring_expansion_example():
    for p in ZETA_PRIMES:
        one, z = GF(p).one, GF(p).root_of_unity
        assert (one + z(1)) * (one - z(1)) == one - z(2)


def test_inverse_of_zeta_matches_xgcd_oracle():
    for p in ZETA_PRIMES:
        z = GF(p).root_of_unity
        inv = z(1).inverse()
        assert inv == -z(3)
        assert z(1) * inv == GF(p).one
        assert inv.value == xgcd_inverse_oracle(z(1).value, p)


def test_find_order8_root_examples():
    # oracle: exhaustive multiplicative-order scan
    for p, expected in ((17, 2), (41, 3), (73, 10), (89, 12), (97, 33)):
        r = find_order8_root(p)
        assert multiplicative_order(r, p) == 8
        assert all(multiplicative_order(s, p) != 8 for s in range(2, r))
        if p in (17, 41):
            assert r == expected


def test_find_order8_root_rejects_bad_primes():
    with pytest.raises(BadPrime):
        find_order8_root(7)
    with pytest.raises(BadPrime):
        find_order8_root(33)  # 33 ≡ 1 mod 8 but composite


@pytest.mark.parametrize("field", [QQ, GF(17), GF(41), GF(73)], ids=lambda f: f.name)
def test_field_axioms(field):
    rng = random.Random(1234)
    one, zero = field.one, field.zero
    for _ in range(1000):
        a, b, c = (random_element(field, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + zero == a and a * one == a
        assert a + (-a) == zero
        if b:
            assert b * (one / b) == one
            assert (a / b) * b == a


def test_division_by_zero_uniform_contract():
    for field in (QQ, GF(17)):
        with pytest.raises(ZeroDivisionError):
            field.one / field.zero


def test_prime_field_modulus_mismatch():
    with pytest.raises(ModulusMismatch):
        ModInt(1, 17) + ModInt(1, 41)


def test_modint_basics():
    a = ModInt(20, 17)
    assert a == 3 and a.value == 3
    assert (a ** (17 - 1)).value == 1
    assert a.inverse() * a == ModInt(1, 17)
    with pytest.raises(DivisionByZero):
        ModInt(0, 17).inverse()


def test_rational_canonical_form():
    # Fractions keep gcd-reduced canonical form, so equality is structural
    x = Fraction(6, -4)
    assert (x.numerator, x.denominator) == (-3, 2)
    assert QQ.coerce(3) == Fraction(3)


def test_root_of_unity_availability():
    assert QQ.root_of_unity(4) == Fraction(-1)
    assert GF(17).root_of_unity(1) == ModInt(2, 17)
    assert GF(17).root_of_unity(5) == ModInt(2**5, 17)
    from heis8_certify.errors import MissingRootOfUnity

    with pytest.raises(MissingRootOfUnity):
        QQ.root_of_unity(2)
    with pytest.raises(MissingRootOfUnity):
        GF(7).root_of_unity(1)


def test_residue_matches_the_reference_field():
    assert residue(20, 17) == 3
    assert residue(Fraction(-3, 2), 17) == 7  # 2·7 ≡ −3 mod 17
    for c in (0, -4, Fraction(5, 7), Fraction(-22, 9), 10**30 + 1):
        for p in ZETA_PRIMES:
            assert residue(c, p) == GF(p).coerce(c).value
    with pytest.raises(DenominatorVanishes):
        residue(Fraction(1, 34), 17)


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

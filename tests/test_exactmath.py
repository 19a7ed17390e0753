"""Field arithmetic: worked examples with independent oracles, then
property suites over all three coefficient fields."""
import random
from fractions import Fraction

import pytest

from heis8_certify.errors import (
    BadPrime,
    DenominatorVanishes,
    DivisionByZero,
    ModulusMismatch,
)
from heis8_certify.exactmath import (
    GF,
    QI8,
    QQ,
    Cyclo,
    ModInt,
    find_order8_root,
    is_prime,
)

from helpers import BadRoot, embed_cyclo_mod_p, multiplicative_order

Z = Cyclo.zeta


def poly_mulmod_oracle(a, b):
    """Independent oracle: multiply degree-3 coefficient lists as polynomials,
    then reduce by t^4 = -1."""
    raw = [Fraction(0)] * 7
    for i in range(4):
        for j in range(4):
            raw[i + j] += a[i] * b[j]
    return tuple(raw[k] - raw[k + 4] if k < 3 else raw[k] for k in range(4))


def cyclo_xgcd_inverse_oracle(a):
    """Independent oracle: extended Euclid in Q[t] for gcd(a(t), t^4+1)."""

    def degree(p):
        d = len(p) - 1
        while d >= 0 and not p[d]:
            d -= 1
        return d

    def sub_scaled(p, q, c, shift):
        out = list(p) + [Fraction(0)] * max(0, len(q) + shift - len(p))
        for i, v in enumerate(q):
            out[i + shift] -= c * v
        return out

    r0, r1 = [Fraction(1), 0, 0, 0, Fraction(1)], list(a) + [Fraction(0)]
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while degree(r1) > 0:
        while degree(r0) >= degree(r1):
            d = degree(r0) - degree(r1)
            c = r0[degree(r0)] / r1[degree(r1)]
            r0 = sub_scaled(r0, r1, c, d)
            s0 = sub_scaled(s0, s1, c, d)
        r0, r1, s0, s1 = r1, r0, s1, s0
    unit = r1[0]
    inv = [v / unit for v in s1[:4]] + [Fraction(0)] * (4 - len(s1))
    return tuple(inv[:4])


def test_zeta_times_zeta_cubed_is_minus_one():
    assert Z(1) * Z(3) == Cyclo(-1)


def test_ring_expansion_example():
    assert (Cyclo(1) + Z(1)) * (Cyclo(1) - Z(1)) == Cyclo(1) - Z(2)


def test_inverse_of_zeta_matches_xgcd_oracle():
    inv = Z(1).inverse()
    assert inv == -Z(3)
    assert Z(1) * inv == Cyclo(1)
    assert inv.coeffs == cyclo_xgcd_inverse_oracle(Z(1).coeffs)


def test_cyclo_inverse_matches_xgcd_oracle_randomized():
    rng = random.Random(7)
    for _ in range(50):
        a = QI8.random(rng)
        if not a:
            continue
        assert a.inverse().coeffs == cyclo_xgcd_inverse_oracle(a.coeffs)


def test_cyclo_mul_matches_polynomial_reduction_on_basis_grid():
    # all 256 products of (scalar * basis) pairs
    scalars = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 2))
    for i in range(4):
        for j in range(4):
            for s in scalars:
                for t in scalars:
                    a = [Fraction(0)] * 4
                    b = [Fraction(0)] * 4
                    a[i], b[j] = s, t
                    got = (Cyclo(*a) * Cyclo(*b)).coeffs
                    assert got == poly_mulmod_oracle(a, b)


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


def test_embed_examples():
    assert embed_cyclo_mod_p(Z(4), 17, 2) == ModInt(16, 17)
    assert embed_cyclo_mod_p(Cyclo(1), 17, 2) == ModInt(1, 17)
    assert embed_cyclo_mod_p(Z(2), 17, 2) == ModInt(4, 17)


def test_embed_rejects_bad_inputs():
    with pytest.raises(BadPrime):
        embed_cyclo_mod_p(Z(1), 7, 2)
    with pytest.raises(BadRoot):
        embed_cyclo_mod_p(Z(1), 17, 4)  # 4 has order 4 mod 17
    with pytest.raises(DenominatorVanishes):
        embed_cyclo_mod_p(Cyclo(Fraction(1, 17)), 17, 2)


def test_embed_is_ring_homomorphism():
    rng = random.Random(42)
    for p in (17, 41, 73):
        root = find_order8_root(p)
        for _ in range(1000):
            a, b = QI8.random(rng), QI8.random(rng)
            ea = embed_cyclo_mod_p(a, p, root)
            eb = embed_cyclo_mod_p(b, p, root)
            assert embed_cyclo_mod_p(a + b, p, root) == ea + eb
            assert embed_cyclo_mod_p(a * b, p, root) == ea * eb


@pytest.mark.parametrize("field", [QQ, GF(17), GF(41), GF(73), QI8], ids=lambda f: f.name)
def test_field_axioms(field):
    rng = random.Random(1234)
    one, zero = field.one, field.zero
    for _ in range(1000):
        a, b, c = field.random(rng), field.random(rng), field.random(rng)
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
    for field in (QQ, GF(17), QI8):
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
    assert QI8.root_of_unity(5) == Z(5)
    from heis8_certify.errors import MissingRootOfUnity

    with pytest.raises(MissingRootOfUnity):
        QQ.root_of_unity(2)
    with pytest.raises(MissingRootOfUnity):
        GF(7).root_of_unity(1)


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

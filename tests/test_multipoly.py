"""Sparse polynomials, polynomial matrices, Pfaffians, truncated integer
series products, and the complete-intersection invariants."""
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heis8_certify.errors import (
    ArityMismatch,
    BadDimension,
    BadSize,
    NonInvertibleMap,
    NotSkewSymmetric,
)
from heis8_certify.exactmath import QQ
from heis8_certify.multipoly import (
    PolyMatrix,
    PolyRing,
    SparsePoly,
    apply_variable_map,
    ci_invariants,
    pfaffian4,
    truncated_product,
)

from helpers import GF

RX = PolyRing(QQ, tuple(f"x{i}" for i in range(8)))


def xvars():
    return RX.gens()


def standard_f0_f1_f2():
    x = xvars()
    return x[0] ** 2 + x[4] ** 2, x[1] * x[7] + x[3] * x[5], x[2] * x[6]


def shift_map(k=1):
    return tuple((i - k) % 8 for i in range(8))


def det_by_permutations(m: PolyMatrix):
    """Independent determinant oracle: full permutation expansion."""
    n = m.shape[0]
    acc = m.ring.zero()
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = m.ring.one()
        for i in range(n):
            term = term * m[i, perm[i]]
        acc = acc + term if sign == 1 else acc - term
    return acc


def test_square_expansion():
    x = xvars()
    assert (x[0] + x[1]) ** 2 == x[0] ** 2 + x[0] * x[1] * 2 + x[1] ** 2


def test_f2_at_embedded_point_is_minus_y2_squared():
    # direct-substitution oracle into the plane coordinates
    plane = PolyRing(QQ, ("y1", "y2", "y3"))
    y1, y2, y3 = plane.gens()
    zero = plane.zero()
    _, _, f2 = standard_f0_f1_f2()
    image = f2.substitute([zero, y1, y2, y3, zero, -y3, -y2, -y1], plane)
    assert image == -(y2 ** 2)


def test_degree_of_f0():
    f0, _, _ = standard_f0_f1_f2()
    assert f0.degree() == 2
    assert f0.homogeneous_degree() == 2


def test_shift_of_f0():
    # shift sends x_i to x_{i-1}, so x0^2 + x4^2 becomes x7^2 + x3^2
    f0, _, _ = standard_f0_f1_f2()
    x = xvars()
    got = apply_variable_map(shift_map(), [QQ.one] * 8, f0)
    assert got == x[7] ** 2 + x[3] ** 2


def test_twist_fixes_f1():
    # the twist scales x1*x7 and x3*x5 by zeta^-8 = 1, over GF(17) where zeta exists
    field = GF(17)
    ring = PolyRing(field, RX.names)
    x = ring.gens()
    f1 = x[1] * x[7] + x[3] * x[5]
    scalars = [field.root_of_unity(-i) for i in range(8)]
    assert apply_variable_map(tuple(range(8)), scalars, f1) == f1


def test_shift_order_eight():
    for f in standard_f0_f1_f2():
        g = f
        for _ in range(8):
            g = apply_variable_map(shift_map(), [QQ.one] * 8, g)
        assert g == f


def test_fourth_shift_fixes_f():
    # symbolic-expansion oracle with numeric plane coefficients
    f0, f1, f2 = standard_f0_f1_f2()
    y1, y2, y3 = Fraction(1), Fraction(2), Fraction(3)
    f = f0 * (y1 * y3) - f1 * (y2 * y2) + f2 * (y1 * y1 + y3 * y3)
    assert apply_variable_map(shift_map(4), [QQ.one] * 8, f) == f


def test_variable_map_rejects_bad_maps():
    f0, _, _ = standard_f0_f1_f2()
    with pytest.raises(NonInvertibleMap):
        apply_variable_map((0,) * 8, [QQ.one] * 8, f0)
    with pytest.raises(NonInvertibleMap):
        apply_variable_map(tuple(range(8)), [QQ.zero] + [QQ.one] * 7, f0)


def test_arity_mismatch():
    other = PolyRing(QQ, ("a", "b"))
    with pytest.raises(ArityMismatch):
        xvars()[0] + other.var(0)


def test_eval_is_ring_homomorphism():
    field = GF(41)
    ring = PolyRing(field, ("a", "b", "c"))
    rng = random.Random(99)

    def random_poly():
        out = ring.zero()
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(0, 3) for _ in range(3))
            out = out + ring.monomial(exps, rng.randrange(41))
        return out

    for _ in range(1000):
        p, q = random_poly(), random_poly()
        v = [field.random(rng) for _ in range(3)]
        assert (p * q).eval(v) == p.eval(v) * q.eval(v)
        assert (p + q).eval(v) == p.eval(v) + q.eval(v)


def test_grevlex_text_rendering():
    ring = PolyRing(QQ, ("x0", "x1", "x2"))
    x0, x1, x2 = ring.gens()
    p = x0 * x2 + x1 ** 2 + x0 ** 2 * 2 + ring.one()
    # descending grevlex in degree 2: x0^2 > x1^2 > x0*x2
    assert p.text() == "2*x0^2 + x1^2 + x0*x2 + 1"
    q = x1 ** 2 - x0 * x2
    assert q.text() == "x1^2 - x0*x2"


def test_pfaffian_canonical_symplectic():
    ring = PolyRing(QQ, ("t",))
    one, zero = ring.one(), ring.zero()
    m = PolyMatrix(ring, [
        [zero, one, zero, zero],
        [-one, zero, zero, zero],
        [zero, zero, zero, one],
        [zero, zero, -one, zero],
    ])
    assert pfaffian4(m) == one


def test_pfaffian_rejects_non_skew():
    ring = PolyRing(QQ, ("t",))
    one = ring.one()
    rows = [[one] * 4 for _ in range(4)]
    with pytest.raises(NotSkewSymmetric):
        pfaffian4(PolyMatrix(ring, rows))


def test_pfaffian_squared_is_det_randomized():
    field = GF(41)
    ring = PolyRing(field, ())
    rng = random.Random(5)
    for _ in range(100):
        vals = [[ring.constant(rng.randrange(41)) for _ in range(4)] for _ in range(4)]
        zero = ring.zero()
        rows = [[zero] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                rows[i][j] = vals[i][j]
                rows[j][i] = -vals[i][j]
        m = PolyMatrix(ring, rows)
        pf = pfaffian4(m)
        assert pf * pf == det_by_permutations(m)


def test_minor_counts_and_identity_minors():
    ring = PolyRing(QQ, ("t",))
    entries = [[ring.constant(1 if i == j else 0) for j in range(4)] for i in range(4)]
    m = PolyMatrix(ring, entries)
    minors = m.minors(2)
    assert len(minors) == 36
    assert all(v == ring.one() or not v for v in minors)
    with pytest.raises(BadSize):
        m.minors(5)


def test_minor_ordering_row_major_lex():
    ring = PolyRing(QQ, tuple(f"m{i}{j}" for i in range(2) for j in range(3)))
    g = ring.gens()
    m = PolyMatrix(ring, [[g[0], g[1], g[2]], [g[3], g[4], g[5]]])
    minors = m.minors(1)
    # row-major over (row-set, col-set): entries in reading order
    assert minors == [g[0], g[1], g[2], g[3], g[4], g[5]]


def binomial_series_oracle(c, e, order):
    """Independent oracle for (1 + c·h)^e with integer e, via binomial coefficients."""
    out = []
    for k in range(order + 1):
        num = Fraction(1)
        for i in range(k):
            num *= Fraction(e - i, i + 1)
        out.append(num * c**k)
    return out


def binomial_product_oracle(pairs, order):
    """Coefficients of Π (1 + c·h)^e up to h^order, convolving the binomial
    oracles term by term."""
    out = [Fraction(1)] + [Fraction(0)] * order
    for c, e in pairs:
        b = binomial_series_oracle(Fraction(c), e, order)
        out = [sum(out[j] * b[k - j] for j in range(k + 1)) for k in range(order + 1)]
    return out


def binomial_factors(c, e, order):
    """(1 + c·h)^e as integer factor lists: e copies of [1, c], or −e copies
    of (1 + c·h)⁻¹ = Σ (−c)ᵏhᵏ."""
    if e >= 0:
        return [[1, c]] * e
    return [[(-c) ** k for k in range(order + 1)]] * -e


def test_truncated_product_matches_binomial_oracle():
    # (1+h)⁸·(1+2h)⁻⁴, the Chern series of a (2,2,2,2) intersection in P⁷
    factors = binomial_factors(1, 8, 3) + binomial_factors(2, -4, 3)
    assert truncated_product(factors, 3) == [1, 0, 4, -8]
    rng = random.Random(11)
    for _ in range(200):
        order = rng.randint(0, 6)
        pairs = [(rng.randint(-4, 4), rng.randint(-5, 5)) for _ in range(rng.randint(0, 3))]
        factors = [f for c, e in pairs for f in binomial_factors(c, e, order)]
        product = truncated_product(factors, order)
        assert product == binomial_product_oracle(pairs, order)
        assert all(type(v) is int for v in product)


def test_truncated_product_hilbert_numerator():
    # (1-t²)⁴ times the series Σ C(k+3, 3)·tᵏ of (1-t)⁻⁴ is the polynomial (1+t)⁴
    series = [math.comb(k + 3, 3) for k in range(5)]
    assert truncated_product([[1, 0, -1]] * 4 + [series], 4) == [1, 4, 6, 4, 1]
    # long-division oracle: (1+t)⁴ times (1-t)⁴ reproduces (1-t²)⁴
    assert truncated_product([[1, 4, 6, 4, 1]] + [[1, -1]] * 4, 8) == truncated_product([[1, 0, -1]] * 4, 8)


def test_truncated_product_is_commutative_associative_and_distributive():
    rng = random.Random(12)
    for _ in range(200):
        a, b, c = ([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))] for _ in range(3))
        ab = truncated_product([a, b], 4)
        assert ab == truncated_product([b, a], 4)
        abc = truncated_product([a, b, c], 4)
        assert truncated_product([ab, c], 4) == abc
        assert truncated_product([a, truncated_product([b, c], 4)], 4) == abc
        a_plus_b = [x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)]
        sums = zip(truncated_product([a, c], 4), truncated_product([b, c], 4))
        assert truncated_product([a_plus_b, c], 4) == [x + y for x, y in sums]


def test_ci_invariants_2222():
    inv = ci_invariants(7, (2, 2, 2, 2))
    assert inv.degree == 16
    assert inv.c2_hyperplane_degree == 64
    assert inv.euler == -128
    assert inv.euler + 2 * 64 == 0
    assert inv.chern == (1, 0, 4, -8)
    assert all(type(c) is int for c in inv.chern)
    # independent series oracle
    series = binomial_product_oracle([(1, 8)] + [(2, -1)] * 4, 3)
    assert inv.c2_hyperplane_degree == series[2] * 16
    assert inv.euler == series[3] * 16


@pytest.mark.parametrize(
    "n, degrees, euler, c2h",
    [
        (4, (5,), -200, 50),  # the quintic threefold
        (5, (3, 3), -144, 54),
        (5, (2, 4), -176, 56),
        (6, (2, 2, 3), -144, 60),
        (7, (2, 2, 2, 2), -128, 64),
        (3, (3,), 9, 9),  # the cubic surface, P² blown up in six points
        (3, (4,), 24, 24),  # the quartic K3 surface
    ],
)
def test_ci_invariants_known_values(n, degrees, euler, c2h):
    inv = ci_invariants(n, degrees)
    assert (inv.euler, inv.c2_hyperplane_degree) == (euler, c2h)
    assert inv.degree == math.prod(degrees)
    assert all(type(c) is int for c in inv.chern)
    pairs = [(1, n + 1)] + [(d, -1) for d in degrees]
    assert list(inv.chern) == binomial_product_oracle(pairs, inv.dimension)


def test_ci_invariants_quartic_surface():
    inv = ci_invariants(3, (4,))
    assert inv.degree == 4
    assert inv.euler == 24


def test_ci_invariants_plane_quartic_genus():
    inv = ci_invariants(2, (4,))
    d = 4
    assert (2 - inv.euler) // 2 == (d - 1) * (d - 2) // 2 == 3


def test_ci_invariants_bad_dimension():
    with pytest.raises(BadDimension):
        ci_invariants(2, (2, 2, 2))


_R3 = PolyRing(QQ, ("a", "b", "c"))


@st.composite
def small_polys(draw):
    terms = draw(st.lists(
        st.tuples(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
            st.integers(-9, 9),
        ),
        max_size=4,
    ))
    out = _R3.zero()
    for exps, coeff in terms:
        out = out + _R3.monomial(exps, coeff)
    return out


@settings(max_examples=200, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_poly_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=200, deadline=None)
@given(small_polys(), small_polys())
def test_poly_eval_respects_product(p, q):
    point = [Fraction(1), Fraction(-2), Fraction(3)]
    assert (p * q).eval(point) == p.eval(point) * q.eval(point)

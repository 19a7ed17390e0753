"""Exact linear algebra, Smith normal form, exterior powers, the wedge-lemma
sweep, and graded membership with certificate replay."""
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heis8_certify.errors import (
    DimensionMismatch,
    InhomogeneousInput,
    NotInDegree,
    NotUnipotent,
)
from heis8_certify.exactmath import GF, QQ
from heis8_certify.kernels import solve_mod_p
from heis8_certify.linalg import (
    REFERENCE_PRIMES,
    Matrix,
    MembershipProblem,
    exterior_power,
    graded_membership,
    monomials_of_degree,
    replay_certificate,
    smith_normal_form,
    unipotent_log,
    _bareiss_solve,
    wedge_lemma_exhaustive,
)
from heis8_certify.multipoly import PolyRing, grevlex_key
from heis8_certify.registry import MONODROMY_MATRIX


def test_rank_examples():
    assert Matrix.identity(QQ, 4).rank() == 4
    assert Matrix(QQ, [[0] * 3 for _ in range(3)]).rank() == 0
    m = Matrix(QQ, MONODROMY_MATRIX) - Matrix.identity(QQ, 4)
    assert m.rank() == 1


def test_solve_examples():
    eye = Matrix.identity(QQ, 3)
    assert eye.solve([1, 2, 3]) == [Fraction(1), Fraction(2), Fraction(3)]
    inconsistent = Matrix(QQ, [[0], [0]])
    assert inconsistent.solve([1, 0]) is None
    with pytest.raises(DimensionMismatch):
        eye.solve([1, 2])


def test_solve_random_consistent_over_gf73():
    field = GF(73)
    rng = random.Random(4)
    for _ in range(50):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = Matrix(field, [[field.random(rng) for _ in range(n)] for _ in range(m)])
        x0 = [field.random(rng) for _ in range(n)]
        b = a.apply(x0)
        x = a.solve(b)
        assert x is not None
        assert a.apply(x) == b  # residual exactly zero


def test_rank_nullity():
    rng = random.Random(17)
    field = GF(41)
    for _ in range(100):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a = Matrix(field, [[field.random(rng) for _ in range(n)] for _ in range(m)])
        assert a.rank() + len(a.kernel_basis()) == n


def int_det(rows):
    return Matrix(QQ, rows).det()


def test_snf_examples():
    assert smith_normal_form([[2, 0], [0, 4]]).factors == (2, 4)
    snf = smith_normal_form([[8 if i == j else 0 for j in range(4)] for i in range(4)])
    assert snf.factors == (8, 8, 8, 8)
    n = [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    assert smith_normal_form(n).factors == (1,)


def test_snf_transforms_are_unimodular_and_exact():
    rng = random.Random(23)
    for _ in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        snf = smith_normal_form(a)
        assert abs(int_det(snf.left)) == 1
        assert abs(int_det(snf.right)) == 1
        u, v = Matrix(QQ, snf.left), Matrix(QQ, snf.right)
        d = u * Matrix(QQ, a) * v
        for i in range(m):
            for j in range(n):
                expect = snf.diagonal[i] if i == j and i < len(snf.diagonal) else 0
                assert d[i, j] == expect
        for x, y in zip(snf.factors, snf.factors[1:]):
            assert y % x == 0


def random_unimodular(n, rng):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randint(-3, 3)
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def test_snf_invariant_under_unimodular_multiplication():
    rng = random.Random(29)
    for _ in range(100):
        n = rng.randint(2, 4)
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        u, v = random_unimodular(n, rng), random_unimodular(n, rng)
        ua = (Matrix(QQ, u) * Matrix(QQ, a) * Matrix(QQ, v)).rows
        b = [[int(x) for x in row] for row in ua]
        assert smith_normal_form(a).factors == smith_normal_form(b).factors


def test_unipotent_log_examples():
    eye = Matrix.identity(QQ, 4)
    assert unipotent_log([[int(i == j) for j in range(4)] for i in range(4)]).is_zero()
    m = Matrix(QQ, MONODROMY_MATRIX)
    n = m - eye
    assert (n * n).is_zero()
    assert unipotent_log(MONODROMY_MATRIX) == n


def test_unipotent_log_additive_on_commuting_pairs():
    e12 = [[1 if (i == j or (i, j) == (0, 1)) else 0 for j in range(4)] for i in range(4)]
    e13 = [[1 if (i == j or (i, j) == (0, 2)) else 0 for j in range(4)] for i in range(4)]
    a, b = Matrix(QQ, e12), Matrix(QQ, e13)
    assert a * b == b * a
    assert unipotent_log((a * b).rows) == unipotent_log(e12) + unipotent_log(e13)
    # random commuting pairs: polynomials in one strictly-upper nilpotent
    rng = random.Random(37)
    for _ in range(100):
        n4 = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                n4[i][j] = rng.randint(-3, 3)
        nmat = Matrix(QQ, n4)
        if not (nmat * nmat * nmat).is_zero():
            continue
        eye = Matrix.identity(QQ, 4)
        p = eye + nmat.scale(rng.randint(-2, 2)) + (nmat * nmat).scale(rng.randint(-2, 2))
        q = eye + nmat.scale(rng.randint(-2, 2)) + (nmat * nmat).scale(rng.randint(-2, 2))
        assert p * q == q * p
        assert unipotent_log((p * q).rows) == unipotent_log(p.rows) + unipotent_log(q.rows)


def test_unipotent_log_rejects_non_unipotent():
    with pytest.raises(NotUnipotent):
        unipotent_log([[2, 0], [0, 1]])


def test_exterior_power_examples():
    assert exterior_power(Matrix.identity(QQ, 4), 2) == Matrix.identity(QQ, 6)
    rng = random.Random(41)
    m = Matrix(QQ, [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)])
    top = exterior_power(m, 4)
    assert top.shape == (1, 1)
    assert top[0, 0] == m.det()


def test_exterior_power_functorial():
    rng = random.Random(43)
    field = GF(17)
    for _ in range(100):
        n = rng.randint(2, 5)
        k = rng.randint(1, n)
        a = Matrix(field, [[field.random(rng) for _ in range(n)] for _ in range(n)])
        b = Matrix(field, [[field.random(rng) for _ in range(n)] for _ in range(n)])
        assert exterior_power(a * b, k) == exterior_power(a, k) * exterior_power(b, k)


def test_monodromy_wedge_fixed_space():
    wedge = exterior_power(Matrix(GF(2), MONODROMY_MATRIX), 2)
    fixed_dim = 6 - (wedge - Matrix.identity(GF(2), 6)).rank()
    assert fixed_dim == 4


def test_wedge_lemma_basis_case_and_sweep():
    from heis8_certify.linalg import _wedge_vf, _wedge_vv

    e1, e2 = 0b0001, 0b0010
    f = _wedge_vv(0b0100, 0b1000)  # e3 ∧ e4
    assert _wedge_vf(e1, f) != 0
    sweep = wedge_lemma_exhaustive()
    assert sweep.passed and sweep.counterexample is None
    assert sweep.cases == 13020
    assert sweep.cases <= 210 * 64


def test_monomial_enumeration():
    mons = monomials_of_degree(3, 2)
    assert len(mons) == 6
    assert mons[0] == (2, 0, 0)
    assert len(monomials_of_degree(8, 8)) == 6435
    assert len(monomials_of_degree(8, 4)) == 330


# --- membership -------------------------------------------------------------


def test_membership_target_equals_generator():
    ring = PolyRing(QQ, ("a", "b"))
    a, b = ring.gens()
    gens = [a * a + b * b, a * b]
    cert = graded_membership(gens, gens[0])
    assert cert.entries == ((0, (0, 0), Fraction(1)),)
    assert replay_certificate(cert, gens) == gens[0]


def test_membership_x0_squared_example():
    ring = PolyRing(QQ, ("x0", "x1"))
    x0, x1 = ring.gens()
    cert = graded_membership([x0, x1], x0 * x0)
    assert cert.entries == ((0, (1, 0), Fraction(1)),)


def test_membership_not_in_degree():
    ring = PolyRing(GF(41), ("x0", "x1"))
    x0, x1 = ring.gens()
    with pytest.raises(NotInDegree):
        graded_membership([x0 * x0], x1 * x1)


def test_membership_rejects_inhomogeneous():
    ring = PolyRing(QQ, ("x0", "x1"))
    x0, x1 = ring.gens()
    with pytest.raises(InhomogeneousInput):
        graded_membership([x0 + x0 * x1], x0 * x1)


def test_membership_replay_randomized():
    rng = random.Random(53)
    field = GF(41)
    ring = PolyRing(field, ("a", "b", "c"))

    def random_homogeneous(deg, terms):
        mons = monomials_of_degree(3, deg)
        out = ring.zero()
        for _ in range(terms):
            out = out + ring.monomial(rng.choice(mons), rng.randrange(1, 41))
        return out

    for _ in range(100):
        gdeg = rng.randint(1, 2)
        gens = [random_homogeneous(gdeg, rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        gens = [g for g in gens if g]
        if not gens:
            continue
        d = gdeg + rng.randint(0, 2)
        mults = monomials_of_degree(3, d - gdeg)
        target = ring.zero()
        for g in gens:
            target = target + g * ring.monomial(rng.choice(mults), rng.randrange(41))
        if not target:
            continue
        cert = graded_membership(gens, target)
        assert replay_certificate(cert, gens) == target


def test_membership_rational_path_with_fractional_coefficients():
    ring = PolyRing(QQ, ("a", "b"))
    a, b = ring.gens()
    gens = [a * a * Fraction(1, 2) + b * b, a * b * Fraction(3, 1)]
    target = gens[0] * a * 2 + gens[1] * (b * Fraction(5, 7))
    cert = graded_membership(gens, target)
    assert cert.field_name == "QQ"
    assert replay_certificate(cert, gens) == target


def test_membership_zero_target_trivial_certificate():
    ring = PolyRing(QQ, ("a", "b"))
    a, b = ring.gens()
    cert = graded_membership([a, b], ring.zero())
    assert cert.entries == ()


def test_membership_rational_retries_when_reference_prime_drops_a_term():
    # the coefficient 17 vanishes mod the first reference prime, so the
    # proposed support misses a needed column and the solver must move on
    ring = PolyRing(QQ, ("a", "b"))
    a, b = ring.gens()
    gens = [a * a, b * b]
    target = gens[0] * (a * 17) + gens[1] * (b * 3)
    cert = graded_membership(gens, target)
    assert cert.field_name == "QQ"
    assert replay_certificate(cert, gens) == target


def test_rational_solve_reuses_the_reference_prime_certificate(monkeypatch):
    ring = PolyRing(QQ, ("a", "b"))
    a, b = ring.gens()
    gens = [a * a + b * b, a * b]
    problem = MembershipProblem(gens, gens[0] * a + gens[1] * (b * 3))
    cert17 = problem.solve_mod(17)

    def solve_again(self, p):
        pytest.fail(f"GF({p}) solved a second time")

    monkeypatch.setattr(MembershipProblem, "solve_mod", solve_again)
    cert = problem.solve_rational()
    assert problem.replays(cert17) and problem.replays(cert)


def test_graded_membership_raises_when_the_replay_fails(monkeypatch):
    ring = PolyRing(QQ, ("a", "b"))
    a, b = ring.gens()
    monkeypatch.setattr(MembershipProblem, "replays", lambda self, cert: False)
    with pytest.raises(AssertionError):
        graded_membership([a, b], a * b)


def test_membership_zero_generator_keeps_indices():
    ring = PolyRing(QQ, ("a", "b"))
    a, b = ring.gens()
    gens = [ring.zero(), a, b]
    cert = graded_membership(gens, a * a)
    assert cert.entries == ((1, (1, 0), Fraction(1)),)
    assert replay_certificate(cert, gens) == a * a


PARITY_PRIME = 41
PARITY_RING = PolyRing(GF(PARITY_PRIME), ("a", "b", "c", "d"))
RATIONAL_RING = PolyRing(QQ, PARITY_RING.names)


def _poly(draw, monomials, ring):
    coeffs = st.integers(1, PARITY_PRIME - 1)
    out = ring.zero()
    for e in draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=3, unique=True)):
        out = out + ring.monomial(e, draw(coeffs))
    return out


def _combination(draw, gens, ring):
    out = ring.zero()
    for g in gens:
        out = out + g * draw(st.integers(0, PARITY_PRIME - 1))
    return out


@st.composite
def blocked_systems(draw, ring=PARITY_RING):
    """Quadrics whose supports lie in three or more disjoint groups of degree-2
    monomials, with a degree-2 target, so each group is a union of components
    of the system.  The first group holds a generator and a multiple of it (a
    rank-deficient component) and the target misses it; the next group may
    have no generator at all while the target reaches into it, and the target
    may be perturbed off the span of the last group's generators."""
    mons = draw(st.permutations(monomials_of_degree(4, 2)))
    cuts = sorted(draw(st.sets(st.integers(1, len(mons) - 1), min_size=2, max_size=4)))
    groups = [mons[a:b] for a, b in zip([0, *cuts], [*cuts, len(mons)])]
    g = _poly(draw, groups[0], ring)
    gens = [g, g * draw(st.integers(1, PARITY_PRIME - 1))]
    target = ring.zero()
    unreached = draw(st.booleans())
    for k, group in enumerate(groups[1:]):
        if unreached and k == 0:
            target = target + _poly(draw, group, ring)
            continue
        group_gens = [_poly(draw, group, ring) for _ in range(draw(st.integers(1, 3)))]
        gens += group_gens
        target = target + _combination(draw, group_gens, ring)
    if draw(st.booleans()):
        target = target + _poly(draw, groups[-1], ring)
    return gens, target


@st.composite
def multiplier_systems(draw):
    """Generators of degree 1 or 2 and a target up to two degrees higher, so
    the columns are multiplier·generator products."""
    gdeg, mdeg = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    gens = [_poly(draw, monomials_of_degree(4, gdeg), PARITY_RING) for _ in range(draw(st.integers(1, 3)))]
    mults = monomials_of_degree(4, mdeg)
    target = PARITY_RING.zero()
    for g in gens:
        target = target + g * _poly(draw, mults, PARITY_RING)
    if draw(st.booleans()):
        target = target + _poly(draw, monomials_of_degree(4, gdeg + mdeg), PARITY_RING)
    return gens, target


def _dense_solve(gens, target):
    """The whole system, rows and columns enumerated here, as one dense
    augmented matrix solved by the kernel.  Returns the shape of the system
    and the nonzero entries of its solution by column, or None."""
    d = target.homogeneous_degree()
    rows = monomials_of_degree(4, d)
    row_index = {e: i for i, e in enumerate(rows)}
    columns = [
        (gi, mult)
        for gi, g in enumerate(gens)
        if g.homogeneous_degree() <= d
        for mult in monomials_of_degree(4, d - g.homogeneous_degree())
    ]
    aug = np.zeros((len(rows), len(columns) + 1), dtype=np.int64)
    for k, (gi, mult) in enumerate(columns):
        for e, c in (gens[gi] * PARITY_RING.monomial(mult)).terms.items():
            aug[row_index[e], k] = c.value
    for e, c in target.terms.items():
        aug[row_index[e], -1] = c.value
    x, _, _ = solve_mod_p(aug, PARITY_PRIME)
    solution = None if x is None else {columns[k]: int(x[k]) for k in np.nonzero(x)[0]}
    return (len(rows), len(columns)), solution


@settings(max_examples=150, deadline=None)
@given(st.one_of(blocked_systems(), multiplier_systems()))
def test_membership_blocks_match_dense_solve(system):
    gens, target = system
    if not target:
        return
    problem = MembershipProblem(gens, target)
    shape, dense = _dense_solve(gens, target)
    assert problem.shape == shape
    if dense is None:
        with pytest.raises(NotInDegree):
            problem.solve_mod(PARITY_PRIME)
        return
    cert = problem.solve_mod(PARITY_PRIME)
    assert {(gi, mult): c.value for gi, mult, c in cert.entries} == dense


def _whole_support_solve(problem, gens, target):
    """solve_rational's search with one Bareiss solve over the whole proposed
    support, products multiplied out here: the nonzero entries by column for
    the first reference prime whose support lifts, or None."""
    for p in REFERENCE_PRIMES:
        try:
            cert_p = problem.solve_mod(p)
        except NotInDegree:
            continue
        support = [(gi, mult) for gi, mult, _ in cert_p.entries]
        products = [(gens[gi] * RATIONAL_RING.monomial(mult)).terms for gi, mult in support]
        rows = {e for terms in products for e in terms} | set(target.terms)
        aug = [
            [int(terms.get(e, 0)) for terms in products] + [int(target.terms.get(e, 0))]
            for e in sorted(rows, key=grevlex_key)
        ]
        x = _bareiss_solve(aug, len(support))
        if x is not None:
            return {col: v for col, v in zip(support, x) if v}
    return None


@settings(max_examples=100, deadline=None)
@given(blocked_systems(RATIONAL_RING))
def test_rational_blocks_match_one_whole_support_solve(system):
    gens, target = system  # integer coefficients, so no denominators to clear
    if not target:
        return
    problem = MembershipProblem(gens, target)
    whole = _whole_support_solve(problem, gens, target)
    if whole is None:
        with pytest.raises(NotInDegree):
            problem.solve_rational()
        return
    cert = problem.solve_rational()
    assert {(gi, mult): c for gi, mult, c in cert.entries} == whole


# --- array kernels ----------------------------------------------------------


def test_elimination_matches_exact_rref():
    from heis8_certify.kernels import eliminate_mod_p

    rng = np.random.default_rng(7)
    for p in (17, 41, 97):
        for trial in range(20):
            m, n = int(rng.integers(2, 12)), int(rng.integers(2, 12))
            a = rng.integers(0, p, size=(m, n + 1)).astype(np.int64)
            if trial % 3 == 1:  # a repeated row and a zero column: rank deficient
                a[-1] = 3 * a[0] % p
                a[:, int(rng.integers(0, n))] = 0
            _, exact_pivots, exact_rank = Matrix(GF(p), a[:, :n].tolist()).rref()
            rank_, pivots = eliminate_mod_p(a.copy(), p)
            assert rank_ == exact_rank
            assert tuple(int(c) for c in pivots) == exact_pivots
            sol, _, _ = solve_mod_p(a.copy(), p)
            exact = Matrix(GF(p), a[:, :n].tolist()).solve(a[:, n].tolist())
            assert (sol is None) == (exact is None)
            if sol is not None:
                lhs = a[:, :n] @ sol % p
                assert (lhs == a[:, n] % p).all()


def test_required_dtype_bounds():
    from heis8_certify.kernels import required_dtype

    assert required_dtype(6435, 97) == np.int32
    assert required_dtype(6435, 10**6) == np.int64
    with pytest.raises(OverflowError):
        required_dtype(10**6, 10**8)

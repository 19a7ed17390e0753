"""Exact linear algebra, Smith normal form, the F2 wedges of the monodromy
check and the wedge-lemma sweep, and graded membership with certificate replay."""
import itertools
import json
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heis8_certify import cli, linalg, membership, moore
from heis8_certify.errors import (
    DenominatorVanishes,
    DimensionMismatch,
    InhomogeneousInput,
    NotInDegree,
    NotUnipotent,
)
from heis8_certify.exactmath import QQ
from heis8_certify.kernels import solve_mod_p
from heis8_certify.linalg import (
    Matrix,
    WedgeLemmaSweep,
    smith_normal_form,
    unipotent_log,
    wedge2_fixed_dim_mod_2,
    wedge_lemma_exhaustive,
)
from heis8_certify.membership import (
    MERSENNE_EXPONENTS,
    MembershipCertificate,
    MembershipProblem,
    graded_membership,
    replay_certificate,
    solve_over_qq,
    sparse_solve_mod_p,
)
from heis8_certify.multipoly import PolyRing
from heis8_certify.registry import MONODROMY_MATRIX

from helpers import GF, apply, map_coefficients, monomials_of_degree, solve


def test_rank_examples():
    assert Matrix.identity(QQ, 4).rank() == 4
    assert Matrix(QQ, [[0] * 3 for _ in range(3)]).rank() == 0
    m = Matrix(QQ, MONODROMY_MATRIX) - Matrix.identity(QQ, 4)
    assert m.rank() == 1


def test_solve_examples():
    eye = Matrix.identity(QQ, 3)
    assert solve(eye, [1, 2, 3]) == [Fraction(1), Fraction(2), Fraction(3)]
    inconsistent = Matrix(QQ, [[0], [0]])
    assert solve(inconsistent, [1, 0]) is None
    with pytest.raises(DimensionMismatch):
        solve(eye, [1, 2])


def test_solve_random_consistent_over_gf73():
    field = GF(73)
    rng = random.Random(4)
    for _ in range(50):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = Matrix(field, [[field.random(rng) for _ in range(n)] for _ in range(m)])
        x0 = [field.random(rng) for _ in range(n)]
        b = apply(a, x0)
        x = solve(a, b)
        assert x is not None
        assert apply(a, x) == b  # residual exactly zero


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
    assert smith_normal_form([[2, 0], [0, 4]]) == (2, 4)
    assert smith_normal_form([[8 if i == j else 0 for j in range(4)] for i in range(4)]) == (8, 8, 8, 8)
    n = [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    assert smith_normal_form(n) == (1,)
    assert smith_normal_form([[0, 0], [0, 0]]) == ()


def determinantal_divisor_factors(a):
    """Invariant factors d_k / d_(k-1), with d_k the gcd of the k×k minors and
    d_0 = 1, for each k up to the rank (past it every minor is zero)."""
    m, n = len(a), len(a[0])
    factors, prev = [], 1
    for k in range(1, min(m, n) + 1):
        d = 0
        for rset in itertools.combinations(range(m), k):
            for cset in itertools.combinations(range(n), k):
                d = math.gcd(d, int(int_det([[a[i][j] for j in cset] for i in rset])))
        if not d:
            break
        factors.append(d // prev)
        prev = d
    return tuple(factors)


def test_snf_factors_are_determinantal_divisor_ratios():
    rng = random.Random(23)
    for _ in range(80):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        # scaled rows give factor chains beyond (1, …, 1, d)
        for i in range(m):
            a[i] = [v * rng.choice((1, 1, 2, 4, 6)) for v in a[i]]
        if rng.random() < 0.3:
            a[rng.randrange(m)] = [0] * n
        if rng.random() < 0.3:
            j = rng.randrange(n)
            for row in a:
                row[j] = 0
        factors = smith_normal_form(a)
        assert factors == determinantal_divisor_factors(a)
        assert all(d > 0 for d in factors)
        assert all(y % x == 0 for x, y in zip(factors, factors[1:]))


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
        assert smith_normal_form(a) == smith_normal_form(b)


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


def _wedge2_fixed_dim_by_minors(m) -> int:
    """6 − rank(∧²m − I) over F2, with ∧²m the matrix of 2×2 minors of m on
    the lexicographic pairs."""
    field = GF(2)
    pairs = list(itertools.combinations(range(4), 2))
    wedge = [[Matrix(field, [[m[i][j] for j in cs] for i in rs]).det() for cs in pairs] for rs in pairs]
    return 6 - (Matrix(field, wedge) - Matrix.identity(field, 6)).rank()


def test_monodromy_wedge_fixed_space():
    assert wedge2_fixed_dim_mod_2(MONODROMY_MATRIX) == _wedge2_fixed_dim_by_minors(MONODROMY_MATRIX) == 4
    rng = random.Random(47)
    for _ in range(200):
        m = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
        assert wedge2_fixed_dim_mod_2(m) == _wedge2_fixed_dim_by_minors(m)


def _wedge_sweep_oracle() -> WedgeLemmaSweep:
    """Every triple (e1, e2, f) in order, one wedge at a time."""
    cases = 0
    for e1 in range(1, 16):
        for e2 in range(1, 16):
            if e2 == e1:
                continue
            w12 = linalg._wedge_vv(e1, e2)
            for f in range(64):
                if f == 0 or f == w12:
                    continue
                cases += 1
                if linalg._wedge_vf(e1, f) == 0 and linalg._wedge_vf(e2, f) == 0:
                    return WedgeLemmaSweep(False, cases, (e1, e2, f))
    return WedgeLemmaSweep(True, cases, None)


def test_wedge_lemma_basis_case_and_sweep():
    from heis8_certify.linalg import _wedge_vf, _wedge_vv

    e1, e2 = 0b0001, 0b0010
    f = _wedge_vv(0b0100, 0b1000)  # e3 ∧ e4
    assert _wedge_vf(e1, f) != 0
    sweep = wedge_lemma_exhaustive()
    assert sweep.passed and sweep.counterexample is None
    assert sweep.cases == 13020
    assert sweep == _wedge_sweep_oracle()


@pytest.mark.parametrize(
    "e, a, b",
    # e∧(a∧b) zeroed with e outside span(a, b), where a∧b is decomposable:
    # the pairs (e, e2) with e2 in span(a, b) become counterexamples
    [(0b0001, 0b0010, 0b0100), (0b1111, 0b0001, 0b0010), (0b1000, 0b0011, 0b0101), (0b0100, 0b1001, 0b1010)],
)
def test_wedge_lemma_fails_when_one_wedge_is_zeroed(monkeypatch, tmp_path, capsys, e, a, b):
    real = linalg._wedge_vf
    f = linalg._wedge_vv(a, b)
    monkeypatch.setattr(linalg, "_wedge_vf", lambda v, g: 0 if (v, g) == (e, f) else real(v, g))
    oracle = _wedge_sweep_oracle()
    assert not oracle.passed
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--checks", "wedge-lemma", "--json", str(out)]) == 1
    (result,) = json.loads(out.read_text())["results"]
    assert result["status"] == "fail"
    assert result["payload"] == {"cases": str(oracle.cases), "counterexample": str(oracle.counterexample)}
    assert "FAIL" in capsys.readouterr().out


def test_wedge_lemma_keeps_passing_when_an_indecomposable_wedge_is_zeroed(monkeypatch):
    # e1∧e2 + e3∧e4 is killed by no nonzero vector, so one zeroed wedge with
    # it leaves every pair with a nonzero wedge
    real = linalg._wedge_vf
    f = linalg._wedge_vv(0b0001, 0b0010) ^ linalg._wedge_vv(0b0100, 0b1000)
    monkeypatch.setattr(linalg, "_wedge_vf", lambda v, g: 0 if (v, g) == (0b0001, f) else real(v, g))
    assert wedge_lemma_exhaustive() == _wedge_sweep_oracle() == WedgeLemmaSweep(True, 13020, None)


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
    ring = PolyRing(QQ, ("x0", "x1"))
    x0, x1 = ring.gens()
    with pytest.raises(NotInDegree):
        graded_membership([x0 * x0], x1 * x1)


def test_membership_rejects_inhomogeneous():
    ring = PolyRing(QQ, ("x0", "x1"))
    x0, x1 = ring.gens()
    with pytest.raises(InhomogeneousInput):
        graded_membership([x0 + x0 * x1], x0 * x1)


def test_membership_rejects_a_gf_p_ring():
    ring = PolyRing(GF(41), ("x0", "x1"))
    x0, x1 = ring.gens()
    with pytest.raises(InhomogeneousInput, match="over QQ"):
        MembershipProblem([x0], x0 * x1)
    qq_x0, qq_x1 = PolyRing(QQ, ring.names).gens()
    with pytest.raises(InhomogeneousInput, match="over QQ"):
        MembershipProblem([x0], qq_x0 * qq_x1)


def test_membership_replay_randomized():
    rng = random.Random(53)
    ring = PolyRing(QQ, ("a", "b", "c"))

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
    assert cert.prime is None
    assert replay_certificate(cert, gens) == target


def test_membership_zero_target_trivial_certificate():
    ring = PolyRing(QQ, ("a", "b"))
    a, b = ring.gens()
    cert = graded_membership([a, b], ring.zero())
    assert cert.entries == ()


def test_membership_rational_retries_when_reference_prime_drops_a_term():
    # the coefficient 17 vanishes mod the first ladder prime, which the
    # rational solve never reduces by
    ring = PolyRing(QQ, ("a", "b"))
    a, b = ring.gens()
    gens = [a * a, b * b]
    target = gens[0] * (a * 17) + gens[1] * (b * 3)
    cert = graded_membership(gens, target)
    assert cert.prime is None
    assert replay_certificate(cert, gens) == target


def test_rational_solve_never_calls_solve_mod(monkeypatch):
    ring = PolyRing(QQ, ("a", "b"))
    a, b = ring.gens()
    gens = [a * a + b * b, a * b]
    problem = MembershipProblem(gens, gens[0] * a + gens[1] * (b * 3))
    cert17 = problem.solve_mod(17)

    def solve_mod(self, p):
        pytest.fail(f"solve_rational solved over GF({p})")

    monkeypatch.setattr(MembershipProblem, "solve_mod", solve_mod)
    cert = problem.solve_rational()
    assert problem.replays(cert17) and problem.replays(cert)


@pytest.mark.parametrize("p", [17, 41, 73])
def test_residue_replay_agrees_with_the_reference_replay(p):
    # replays multiplies a GF(p) certificate out on int residues; the
    # reference replays it in PolyRing(GF(p)) through replay_certificate
    problem = moore.psi_membership_problem()
    ring_p = PolyRing(GF(p), problem.ring.names)
    gens_p = [map_coefficients(g, GF(p).coerce, ring_p) for g in problem.generators]
    target_p = map_coefficients(problem.target, GF(p).coerce, ring_p)
    cert = problem.solve_mod(p)
    (gi, mult, coeff), *rest = cert.entries
    corrupted = cert._replace(entries=((gi, mult, (coeff + 1) % p), *rest))
    for c, expected in ((cert, True), (corrupted, False)):
        assert problem.replays(c) is expected
        assert (replay_certificate(c, gens_p) == target_p) is expected


@pytest.mark.parametrize("p", [17, 41, 73])
def test_residue_replay_raises_when_a_denominator_vanishes(p):
    ring = PolyRing(QQ, ("a", "b"))
    a, b = ring.gens()
    problem = MembershipProblem([a * Fraction(1, p), b], a * b)
    cert = MembershipCertificate(prime=p, entries=((0, (0, 1), 1),))
    with pytest.raises(DenominatorVanishes):
        problem.replays(cert)


# the primes ≡ 1 mod 8 below 250, a ladder a modular shortcut might try
LADDER_PRIMES = (17, 41, 73, 89, 97, 113, 137, 193, 233, 241)


@pytest.mark.parametrize("case", ["in-the-ideal", "not-in-the-ideal"])
def test_rational_membership_is_decided_over_qq_not_by_the_ladder(case):
    ring = PolyRing(QQ, ("x0", "x1"))
    x0, x1 = ring.gens()
    n = math.prod(LADDER_PRIMES)
    if case == "in-the-ideal":
        # g2 − g1 = N·x1, though g2 ≡ g1 and N·x1 ≡ 0 mod every ladder prime
        cert = graded_membership([x0 + x1, x0 + x1 * (1 + n)], x1 * n)
        assert cert.entries == ((0, (0, 0), Fraction(-1)), (1, (0, 0), Fraction(1)))
    else:
        # x0 + (1+N)·x1 ≡ x0 + x1 mod every ladder prime, but is no multiple of it over QQ
        with pytest.raises(NotInDegree, match="no representation over QQ"):
            graded_membership([x0 + x1], x0 + x1 * (1 + n))


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
RATIONAL_RING = PolyRing(QQ, ("a", "b", "c", "d"))


def _poly(draw, monomials):
    coeffs = st.integers(1, PARITY_PRIME - 1)
    out = RATIONAL_RING.zero()
    for e in draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=3, unique=True)):
        out = out + RATIONAL_RING.monomial(e, draw(coeffs))
    return out


def _combination(draw, gens):
    out = RATIONAL_RING.zero()
    for g in gens:
        out = out + g * draw(st.integers(0, PARITY_PRIME - 1))
    return out


@st.composite
def blocked_systems(draw):
    """Quadrics whose supports lie in three or more disjoint groups of degree-2
    monomials, with a degree-2 target, so each group is a union of components
    of the system.  The first group holds a generator and a multiple of it (a
    rank-deficient component) and the target misses it; the next group may
    have no generator at all while the target reaches into it, and the target
    may be perturbed off the span of the last group's generators."""
    mons = draw(st.permutations(monomials_of_degree(4, 2)))
    cuts = sorted(draw(st.sets(st.integers(1, len(mons) - 1), min_size=2, max_size=4)))
    groups = [mons[a:b] for a, b in zip([0, *cuts], [*cuts, len(mons)])]
    g = _poly(draw, groups[0])
    gens = [g, g * draw(st.integers(1, PARITY_PRIME - 1))]
    target = RATIONAL_RING.zero()
    unreached = draw(st.booleans())
    for k, group in enumerate(groups[1:]):
        if unreached and k == 0:
            target = target + _poly(draw, group)
            continue
        group_gens = [_poly(draw, group) for _ in range(draw(st.integers(1, 3)))]
        gens += group_gens
        target = target + _combination(draw, group_gens)
    if draw(st.booleans()):
        target = target + _poly(draw, groups[-1])
    return gens, target


@st.composite
def multiplier_systems(draw):
    """Generators of degree 1 or 2 and a target up to two degrees higher, so
    the columns are multiplier·generator products."""
    gdeg, mdeg = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    gens = [_poly(draw, monomials_of_degree(4, gdeg)) for _ in range(draw(st.integers(1, 3)))]
    mults = monomials_of_degree(4, mdeg)
    target = RATIONAL_RING.zero()
    for g in gens:
        target = target + g * _poly(draw, mults)
    if draw(st.booleans()):
        target = target + _poly(draw, monomials_of_degree(4, gdeg + mdeg))
    return gens, target


def _dense_system(gens, target):
    """The whole system, rows and columns enumerated here: its columns
    (generator index, multiplier) in canonical order and its augmented rows
    [A | b] in descending grevlex, every coefficient in QQ."""
    d = target.homogeneous_degree()
    columns = [
        (gi, mult)
        for gi, g in enumerate(gens)
        if g.homogeneous_degree() <= d
        for mult in monomials_of_degree(4, d - g.homogeneous_degree())
    ]
    products = [(gens[gi] * RATIONAL_RING.monomial(mult)).terms for gi, mult in columns]
    zero = QQ.zero
    aug = [
        [terms.get(e, zero) for terms in products] + [target.terms.get(e, zero)]
        for e in monomials_of_degree(4, d)
    ]
    return columns, aug


def _dense_solve(gens, target):
    """The whole integer system reduced mod PARITY_PRIME as one dense
    augmented matrix, solved by the kernel.  Returns the shape of the system
    and the nonzero entries of its solution by column, or None."""
    columns, aug = _dense_system(gens, target)
    rows = [[c.numerator % PARITY_PRIME for c in row] for row in aug]  # integer coefficients
    x, _, _ = solve_mod_p(np.array(rows, dtype=np.int64), PARITY_PRIME)
    solution = None if x is None else {columns[k]: int(x[k]) for k in np.nonzero(x)[0]}
    return (len(aug), len(columns)), solution


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
    assert {(gi, mult): c for gi, mult, c in cert.entries} == dense


def _bareiss_solve(rows, ncols):
    """Fraction-free elimination on integer rows [A | b]; returns a rational
    solution vector (free variables zero) or None if inconsistent."""
    a = [list(r) for r in rows]
    m = len(a)
    n = ncols
    prev = 1
    piv = 0
    pivots = []
    for col in range(n):
        sel = next((r for r in range(piv, m) if a[r][col]), None)
        if sel is None:
            continue
        a[piv], a[sel] = a[sel], a[piv]
        pec = a[piv][col]
        for r in range(piv + 1, m):
            arc = a[r][col]
            row = a[r]
            prow = a[piv]
            for j in range(col, n + 1):
                num = row[j] * pec - arc * prow[j]
                q, rem = divmod(num, prev)
                assert not rem, "non-exact division in fraction-free elimination"
                row[j] = q
        prev = pec
        pivots.append((piv, col))
        piv += 1
        if piv == m:
            break
    for r in range(piv, m):
        if a[r][n]:
            return None
    x = [Fraction(0)] * n
    for i, col in reversed(pivots):
        acc = Fraction(a[i][n])
        for j in range(col + 1, n):
            if a[i][j] and x[j]:
                acc -= a[i][j] * x[j]
        x[col] = acc / a[i][col]
    return x


def _dense_qq_solve(gens, target):
    """The whole system over QQ solved by the reduced row echelon form: the
    nonzero entries of the solution with every free variable zero, by
    column, or None if it is inconsistent."""
    columns, aug = _dense_system(gens, target)
    x = solve(Matrix(QQ, [row[:-1] for row in aug]), [row[-1] for row in aug])
    return None if x is None else {col: v for col, v in zip(columns, x) if v}


@settings(max_examples=200, deadline=None)
@given(blocked_systems())
def test_rational_certificate_is_the_dense_qq_solution(system):
    gens, target = system  # integer coefficients, so no denominators to clear
    if not target:
        return
    problem = MembershipProblem(gens, target)
    dense = _dense_qq_solve(gens, target)
    if dense is None:
        with pytest.raises(NotInDegree):
            problem.solve_rational()
        return
    cert = problem.solve_rational()
    assert {(gi, mult): c for gi, mult, c in cert.entries} == dense


# --- the sparse block solver ------------------------------------------------


@st.composite
def augmented_systems(draw):
    """A small augmented system [A | b] mod p, as integer rows, sometimes
    with a row that repeats a combination of two others (rank deficient,
    and inconsistent when its right-hand side is bumped) and a zero column."""
    p = draw(st.sampled_from([17, 41, 241]))
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    entry = st.one_of(st.just(0), st.integers(-p, 2 * p))
    a = [[draw(entry) for _ in range(n + 1)] for _ in range(m)]
    if m >= 2 and draw(st.booleans()):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        c = draw(st.integers(1, p - 1))
        a.append([x + c * y for x, y in zip(a[i], a[j])])
        if draw(st.booleans()):
            a[-1][n] += draw(st.integers(1, p - 1))
    if draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        for row in a:
            row[k] = 0
    return p, a


@settings(max_examples=200, deadline=None)
@given(augmented_systems())
def test_sparse_block_solver_matches_the_dense_references(system):
    p, a = system
    n = len(a[0]) - 1
    rows = [{j: v for j, v in enumerate(row) if v} for row in a]
    x, pivots = sparse_solve_mod_p(rows, n, p)
    field = GF(p)
    exact = solve(Matrix(field, [row[:n] for row in a]), [row[n] for row in a])
    dense, rank, dense_pivots = solve_mod_p(np.asarray(a, dtype=np.int64) % p, p)
    assert pivots == Matrix(field, [row[:n] for row in a]).rref()[1]
    assert (x is None) == (exact is None) == (dense is None)
    if x is None:
        return
    assert rank == len(pivots) and tuple(dense_pivots.tolist()) == pivots
    assert all(0 < v < p for v in x.values()) and set(x) <= set(pivots)
    solution = [x.get(j, 0) for j in range(n)]
    assert solution == [v.value for v in exact] == dense.tolist()


def test_sparse_block_solver_edge_cases():
    # inconsistent: 0 = 1
    assert sparse_solve_mod_p([{1: 1}], 1, 17) == (None, ())
    # an empty system and a zero right-hand side
    assert sparse_solve_mod_p([], 3, 17) == ({}, ())
    assert sparse_solve_mod_p([{0: 17, 2: 0}], 2, 17) == ({}, ())
    # a zero column is free; the dependent column 2 = 2·column 0 is free too
    x, pivots = sparse_solve_mod_p([{0: 1, 2: 2, 3: 5}, {1: 3, 3: 6}], 3, 241)
    assert pivots == (0, 1) and x == {0: 5, 1: 2}


# --- the rational solve ------------------------------------------------------


def test_membership_lives_in_its_own_module_and_linalg_forwards_two_names():
    # the forwarding keeps the traced benchmark's two linalg reads working
    assert MembershipProblem.__module__ == "heis8_certify.membership"
    assert "MembershipProblem" not in vars(linalg)
    assert linalg.MembershipProblem is membership.MembershipProblem
    assert linalg.replay_certificate is membership.replay_certificate
    with pytest.raises(AttributeError):
        linalg.sparse_solve_mod_p


def _solve_over_qq_and_prime(a):
    """solve_over_qq on dense rows [A | b], and the one prime it solved at."""
    with mock.patch.object(membership, "sparse_solve_mod_p", wraps=membership.sparse_solve_mod_p) as spy:
        x = solve_over_qq([{j: v for j, v in enumerate(row) if v} for row in a], len(a[0]) - 1)
    ((_rows, _ncols, p),) = [call.args for call in spy.call_args_list]
    return x, p


def _agrees_with_bareiss(x, a):
    oracle = _bareiss_solve(a, len(a[0]) - 1)
    if oracle is None:
        return x is None
    return x == {j: v for j, v in enumerate(oracle) if v}


@settings(max_examples=150, deadline=None)
@given(augmented_systems())
def test_rational_solve_matches_bareiss_on_small_systems(system):
    _, a = system
    x, p = _solve_over_qq_and_prime(a)
    assert p == 2 ** MERSENNE_EXPONENTS[0] - 1
    assert _agrees_with_bareiss(x, a)


_LARGE = st.tuples(st.integers(2**69, 2**70), st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


@st.composite
def large_systems(draw):
    """3×3 systems A·x = b with 70-bit entries of A and small x, so that 2·H²
    lies between the first two Mersenne primes.  A may have a column twice
    another (a free variable), a fourth row may be the sum of two others
    with its right-hand side bumped (inconsistent), and b may be bumped."""
    a = [[draw(_LARGE) for _ in range(3)] for _ in range(3)]
    if draw(st.booleans()):
        for row in a:
            row[2] = 2 * row[0]
    x = [draw(st.integers(-3, 3)) for _ in range(3)]
    a = [row + [sum(v * c for v, c in zip(row, x))] for row in a]
    if draw(st.booleans()):
        a.append([u + v for u, v in zip(a[0], a[1])])
        a[-1][3] += draw(st.sampled_from([0, 1, 2**70]))
    if draw(st.booleans()):
        a[2][3] += draw(_LARGE)
    return a


@settings(max_examples=100, deadline=None)
@given(large_systems())
def test_rational_solve_climbs_to_the_second_mersenne_prime(a):
    cols = [[row[j] for row in a] for j in range(4)]
    bound = 2 * math.prod(sum(v * v for v in col) for col in cols if any(col))
    assume(2 ** MERSENNE_EXPONENTS[0] - 1 < bound < 2 ** MERSENNE_EXPONENTS[1] - 1)
    x, p = _solve_over_qq_and_prime(a)
    assert p == 2 ** MERSENNE_EXPONENTS[1] - 1
    assert _agrees_with_bareiss(x, a)


def test_rational_solve_raises_past_the_largest_mersenne_prime():
    # 2^600·x = 2^600: 2·H² = 2^2401 exceeds 2^2281 − 1, the largest prime
    with pytest.raises(ArithmeticError, match="larger prime"):
        solve_over_qq([{0: 2**600, 1: 2**600}], 1)
    # 2^500·x = 3·2^500: 2·H² = 9·2^2001, inside the list
    x, p = _solve_over_qq_and_prime([[2**500, 3 * 2**500]])
    assert x == {0: Fraction(3)} and p == 2**2203 - 1


def test_psi_blocks_are_solved_at_the_first_mersenne_prime():
    problem = MembershipProblem(list(moore.moore_minor_generators()), moore.psi_quartic_target())
    with mock.patch.object(membership, "sparse_solve_mod_p", wraps=membership.sparse_solve_mod_p) as spy:
        cert = problem.solve_rational()
    assert problem.replays(cert)
    primes = [call.args[2] for call in spy.call_args_list]
    assert primes.count(2 ** MERSENNE_EXPONENTS[0] - 1) == 2  # one solve per target block
    assert set(primes) == {2 ** MERSENNE_EXPONENTS[0] - 1}


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
            exact = solve(Matrix(GF(p), a[:, :n].tolist()), a[:, n].tolist())
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

"""The quadric system, Moore pipeline, minus-plane intersection, membership
instance, plane quartic, and topology numbers."""
import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heis8_certify import geometry as geo
from heis8_certify import moore
from heis8_certify.errors import (
    DegeneratePoint,
    NotInDegree,
    PointNotOnVariety,
    UnluckyPrime,
    ZeroPoint,
)
from heis8_certify.exactmath import QQ
from heis8_certify.heisenberg import SHIFT, TWIST, HeisenbergElement, ProjPoint, orbit
from heis8_certify.linalg import Matrix
from heis8_certify.membership import replay_certificate
from heis8_certify.multipoly import PolyRing, grevlex_key

from helpers import (
    GF,
    find_order8_root,
    jacobian_rank_at,
    map_coefficients,
    monomials_of_degree,
    plane_point,
    restricted_cone_rank,
    solve,
)


Y123 = geo.MinusPlanePoint.rational(1, 2, 3)

# ζ8 exists in GF(p) for p ≡ 1 mod 8, a reduction of QQ(zeta8) mod a prime
# above p: points distinct there are distinct over QQ(zeta8), and a rank
# there bounds the rank over QQ(zeta8) from below
ORBIT_PRIME = 12289


def mod_p(y, p):
    """The minus-plane point y over GF(p)."""
    return geo.MinusPlanePoint(GF(p), *y.coords)


def test_minus_plane_point_validation():
    with pytest.raises(ZeroPoint):
        geo.MinusPlanePoint.rational(0, 0, 0)
    e = Y123.embed()
    assert [str(c) for c in e.coords] == ["0", "1", "2", "3", "0", "-3", "-2", "-1"]


def test_build_system_quadrics_vanish_at_base():
    system = geo.build_system(Y123)
    assert len(system.quadrics) == 4
    emb = Y123.embed().coords
    for q in system.quadrics:
        assert q.homogeneous_degree() == 2
        assert not q.eval(emb)


def test_f0_vanishes_on_minus_plane():
    f0, _, _ = geo.standard_quadrics(geo.x_ring(QQ).gens())
    assert not f0.eval(Y123.embed().coords)


def test_symbolic_base_identities_vanish():
    assert all(not r for r in geo.symbolic_base_identities())


_small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=5)
_plane_points = st.tuples(_small_fractions, _small_fractions, _small_fractions).filter(any)


@settings(max_examples=30, deadline=None)
@given(_plane_points, _plane_points, st.lists(st.integers(-9, 9), min_size=13, max_size=13))
def test_conventions_agree_at_random_plane_points(base, abc, other):
    """The embedding, the base quadric and both minus-plane restrictions
    describe one construction: restricting a polynomial and then evaluating
    at (a, b, c) equals evaluating it at the embedded point."""
    system = geo.build_system(geo.MinusPlanePoint.rational(*base))
    embedded = geo.MinusPlanePoint.rational(*abc).embed().coords
    for q in system.quadrics:
        assert geo.restrict_to_minus_plane(q).eval(abc) == q.eval(embedded)

    # the x-slot of the Moore restriction reads x1, x2, x3 only, y untouched
    yv = other[5:]
    full = moore.moore_matrix_full()
    restricted = moore.restrict_moore_to_minus_plane(full)
    x_any = [other[0], *abc, *other[1:5]]
    for i in range(4):
        for j in range(4):
            assert restricted[i, j].eval(x_any + yv) == full[i, j].eval(list(embedded) + yv)

    # the symbolic quadrics, at u = base, are build_system's
    symbolic = geo.symbolic_quadrics()
    x_ring = system.ring
    images = [*x_ring.gens(), *(x_ring.constant(c) for c in base)]
    assert [f.substitute(images, x_ring) for f in symbolic] == list(system.quadrics)


def test_jacobian_rank_three_at_base_point():
    system = geo.build_system(Y123)
    assert jacobian_rank_at(system, Y123.embed()) == 3


def test_jacobian_rank_rejects_off_variety_points():
    system = geo.build_system(Y123)
    v = ProjPoint(QQ, [1, 0, 0, 0, 0, 0, 0, 0])
    with pytest.raises(PointNotOnVariety):
        jacobian_rank_at(system, v)


@lru_cache(maxsize=None)
def orbit_of_base_point(y):
    """The group orbit of the embedded base point over GF(ORBIT_PRIME), memoized."""
    return tuple(orbit(mod_p(y, ORBIT_PRIME).embed()))


def _orbit_mod_p(y, p):
    """The exact QQ(zeta8) orbit of the rational point y, reduced mod a prime
    above p.  By the module docstring of heisenberg, shift^a·twist^b moves
    the point v to the point with coordinates ζ8^(b·(a+i))·v_(i+a), i = 0 … 7:
    monomials in ζ8 that reduce by sending ζ8 to an order-8 residue."""
    root = find_order8_root(p)
    field = GF(p)
    v = [field.coerce(c) for c in y.embed().coords]
    return {
        ProjPoint(field, [pow(root, b * (a + i), p) * v[(i + a) % 8] for i in range(8)])
        for a, b in itertools.product(range(8), repeat=2)
    }


def test_jacobian_rank_four_at_smooth_sample_points():
    # points of V over GF(17) from the array sampler, kept as a test reference;
    # rejection density is n/p^4, so p = 17 keeps the draw count practical
    from heis8_certify.kernels import sample_quadric_points

    p = 17
    field = GF(p)
    system = geo.build_system(mod_p(Y123, p))
    ti, tj, tc, offsets = [], [], [], [0]
    for q in system.quadrics:
        for e, c in q.sorted_terms():
            i, j = [v for v in range(8) for _ in range(e[v])]
            ti.append(i)
            tj.append(j)
            tc.append(c.value)
        offsets.append(len(ti))
    _hits, rows = sample_quadric_points(ti, tj, tc, offsets, p, 10**6, 5)
    points = {ProjPoint(field, [int(v) for v in row]) for row in rows}
    assert points
    orbit_set = _orbit_mod_p(Y123, p)
    smooth_seen = 0
    for pt in points:
        r = jacobian_rank_at(system, pt)
        if pt not in orbit_set:
            assert r == 4
            smooth_seen += 1
        else:
            assert r == 3
    assert smooth_seen > 0


def test_orbit_singularity_data_for_two_generic_points():
    for coords in ((1, 2, 3), (3, 1, 4)):
        data = geo.orbit_singularity_data(geo.MinusPlanePoint.rational(*coords))
        assert data["orbit_size"] == "64"
        assert data["rank3_points"] == "64"
        assert data["base_cone_rank"] == "4"


def test_degenerate_base_point_is_rejected():
    with pytest.raises(DegeneratePoint):
        geo.orbit_singularity_data(geo.MinusPlanePoint.rational(1, 0, 0))


def test_odp_proxy_full_sweep():
    assert geo.odp_proxy_sweep(Y123) == (64, 4)


def test_group_transport_matches_the_explicit_orbit_loop():
    # the per-point sweep that the base-point evidence replaces: every orbit
    # point, over GF(ORBIT_PRIME), has Jacobian rank 3 (else the call raises)
    # and a rank-4 cone, as carried from the base point by the group
    system = geo.build_system(mod_p(Y123, ORBIT_PRIME))
    orbit = orbit_of_base_point(Y123)
    ranks = [geo.odp_normal_hessian_rank(system, pt) for pt in orbit]
    assert len(orbit) == 64
    assert ranks.count(4) == 64
    assert geo.odp_proxy_sweep(Y123) == (64, 4)


@pytest.mark.parametrize("coords", [(1, 2, 3), (3, 1, 4), (5, -3, 7), (2, 5, 1), (7, 11, -13)])
def test_bordered_cone_rank_matches_the_restriction_method_over_qq(coords):
    y = geo.MinusPlanePoint.rational(*coords)
    system, v = geo.build_system(y), y.embed()
    assert geo.odp_normal_hessian_rank(system, v) == restricted_cone_rank(system, v) == 4


def test_bordered_cone_rank_matches_the_restriction_method_on_a_gf17_orbit():
    p = 17
    system = geo.build_system(mod_p(Y123, p))
    points = _orbit_mod_p(Y123, p)
    assert len(points) == 64
    for pt in points:
        assert geo.odp_normal_hessian_rank(system, pt) == restricted_cone_rank(system, pt)


@pytest.mark.parametrize("coords", [(1, 1, 13), (1, 5, 7)])
def test_bordered_cone_rank_sees_a_degenerate_cone_mod_73(coords):
    y = geo.MinusPlanePoint(GF(73), *coords)
    system, v = geo.build_system(y), y.embed()
    assert geo.odp_normal_hessian_rank(system, v) == restricted_cone_rank(system, v) == 2


def test_orbit_lists_distinct_images_in_first_seen_order():
    v = mod_p(geo.MinusPlanePoint.rational(3, 1, 4), ORBIT_PRIME).embed()
    orbit_points = orbit(v)
    # the oracle: projective equality, images of shift^a twist^b in (a, b) order
    expect = []
    for a, b in itertools.product(range(8), repeat=2):
        w = HeisenbergElement(a, b, 0).act_on_point(v)
        if all(w != u for u in expect):
            expect.append(w)
    assert [w.coords for w in orbit_points] == [w.coords for w in expect]


def test_quadric_span_images_shift_and_twist():
    images = dict(geo.quadric_span_images())
    assert list(images) == [f"{g}_q{i}" for g in ("shift", "twist") for i in range(4)]
    for i in range(4):
        # shift permutes the quadrics cyclically: q_i -> q_{i+1}
        assert images[f"shift_q{i}"] == tuple("1" if j == (i + 1) % 4 else "0" for j in range(4))
        # q_i has the one twist weight 2i: twist scales it by ζ8^(2i)
        assert images[f"twist_q{i}"] == tuple(geo.ZETA8_POWERS[2 * i] if j == i else "0" for j in range(4))


@pytest.mark.parametrize("p", [17, 41])
def test_span_images_agree_with_the_polynomial_action_mod_p(p):
    # the weights, read on integers, against act_on_poly at a point over GF(p)
    field = GF(p)
    quadrics = geo.build_system(mod_p(Y123, p)).quadrics
    for i, (q, symbolic) in enumerate(zip(quadrics, geo.symbolic_quadrics())):
        (w,) = geo.twist_weights(symbolic)
        assert TWIST.act_on_poly(q) == q * field.root_of_unity(w)
        assert SHIFT.act_on_poly(q) == quadrics[(i + 1) % 4]


SPAN_PRIME = 97


def _dense_span_solve(quadrics, image):
    """The GF(SPAN_PRIME) solve of image = Σ c_j·q_j over the monomials that occur."""
    field = GF(SPAN_PRIME)
    monomials = sorted({e for poly in (*quadrics, image) for e in poly.terms}, key=grevlex_key)
    a = Matrix(field, [[poly.terms.get(e, field.zero) for poly in quadrics] for e in monomials])
    sol = solve(a, [image.terms.get(e, field.zero) for e in monomials])
    return None if sol is None else tuple(sol)


_RATIONAL = st.fractions(min_value=-6, max_value=6, max_denominator=4)
_RESIDUE = st.integers(0, SPAN_PRIME - 1)
_PLANE_POINTS = st.one_of(
    st.tuples(_RATIONAL, _RATIONAL, _RATIONAL),
    st.tuples(_RATIONAL, st.just(0), _RATIONAL),  # y2 = 0
    st.tuples(_RATIONAL, _RATIONAL, st.sampled_from([1, -1])).map(lambda t: (t[0], t[1], t[2] * t[0])),  # y1 = ±y3
).filter(any)


@settings(max_examples=40, deadline=None)
@given(_PLANE_POINTS, st.lists(_RESIDUE, min_size=4, max_size=4), st.sampled_from(monomials_of_degree(8, 2)), _RESIDUE)
@example((1, 0, 0), [1] * 4, (0, 0, 1, 0, 0, 0, 1, 0), 1)  # f = x2·x6, one monomial
def test_span_read_off_matches_the_dense_solve(y, coeffs, monomial, scale):
    field = GF(SPAN_PRIME)
    quadrics = geo.build_system(geo.MinusPlanePoint(field, *y)).quadrics
    coeffs = [field.coerce(c) for c in coeffs]
    ring = quadrics[0].ring
    combination = sum((q * c for q, c in zip(quadrics, coeffs)), ring.zero())
    perturbed = combination + ring.monomial(monomial, scale)
    images = [g.act_on_poly(q) for g in (SHIFT, TWIST) for q in quadrics]
    for image in (*images, combination, perturbed):
        assert geo.span_coefficients(quadrics, image) == _dense_span_solve(quadrics, image)
    assert geo.span_coefficients(quadrics, combination) == tuple(coeffs)
    if scale and not any(monomial in q.terms for q in quadrics):
        assert geo.span_coefficients(quadrics, perturbed) is None


def test_span_read_off_refuses_overlapping_supports():
    quadrics = geo.build_system(Y123).quadrics
    with pytest.raises(AssertionError):
        geo.span_coefficients((quadrics[0], quadrics[0] + quadrics[1]), quadrics[0])


def test_orbit_has_64_points_exactly_when_no_involution_fixes_the_base_point():
    # every projective point (y1 : y2 : y3) with coprime |y_i| ≤ 4, one sign each
    fixed = free = 0
    try:
        for y in itertools.product(range(-4, 5), repeat=3):
            if math.gcd(*y) != 1 or next(c for c in y if c) < 0:
                continue
            point = geo.MinusPlanePoint.rational(*y)
            v = point.embed()
            is_fixed = any(g.act_on_point(v) == v for g in geo.INVOLUTIONS)
            assert (len(orbit_of_base_point(point)) == 64) == (not is_fixed)
            fixed += is_fixed
            free += not is_fixed
    finally:
        orbit_of_base_point.cache_clear()
    assert fixed and free


def test_named_points_on_restricted_system_exactly():
    ok, payload = geo.minus_plane_certificate(Y123)
    assert ok and payload["exact_membership_of_named_points"] is True
    named = geo.named_intersection_points(Y123)
    plane_pts = {plane_point(p) for p in named}
    expect = {
        ProjPoint(QQ, [1, 2, 3]),
        ProjPoint(QQ, [3, 2, 1]),
        ProjPoint(QQ, [1, -2, 3]),
        ProjPoint(QQ, [3, -2, 1]),
    }
    assert plane_pts == expect


def test_some_plane_linear_form_misses_every_named_point():
    # each named point is S_k·y for a fixed signed permutation S_k, read off
    # the unit vectors; form ℓ meets it exactly when (ℓ·S_k)·y = 0.  So unless
    # one choice of k per form gives a singular 3×3 system, no nonzero y puts
    # a named point on every form, and minus_plane_certificate finds its ℓ
    units = [
        [pt.coords for pt in geo.named_intersection_points(geo.MinusPlanePoint.rational(*e))]
        for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    ]
    maps = [[[units[j][k][i] for j in range(3)] for i in range(3)] for k in range(4)]
    for s in maps:
        assert all(sorted(map(abs, line)) == [0, 0, 1] for line in (*s, *zip(*s)))
    for y in ((1, 2, 3), (5, -3, 7), (-9, -8, 5), (1, 0, 2)):
        named = [pt.coords for pt in geo.named_intersection_points(geo.MinusPlanePoint.rational(*y))]
        assert named == [tuple(sum(a * b for a, b in zip(row, y)) for row in s) for s in maps]
    # conditions[f][k]: the row ℓ_f·S_k, zero at y exactly when ℓ_f meets S_k·y
    conditions = [
        [[sum(l[i] * s[i][j] for i in range(3)) for j in range(3)] for s in maps] for l in geo.PLANE_LINEAR_FORMS
    ]
    dets = [Matrix(QQ, rows).det() for rows in itertools.product(*conditions)]
    assert len(dets) == 64 and all(dets)


def named_points_mod_p(y, p):
    """The reductions of the four named points mod p, as normalized int
    triples (first nonzero coordinate 1), which must stay four distinct
    points of P²(GF(p)) for the zeros mod p to be comparable."""
    field = GF(p)
    named = set()
    for pt in geo.named_intersection_points(y):
        reduced = [field.coerce(c) for c in pt.coords]
        if not any(reduced):
            raise UnluckyPrime(f"named point vanishes mod {p}")
        named.add(tuple(c.value for c in ProjPoint(field, reduced).canonical()))
    if len(named) != 4:
        raise UnluckyPrime(f"named points collide mod {p}")
    return named


@pytest.mark.parametrize("p,total", [(17, 307), (41, 1723)])
def test_minus_plane_enumeration(p, total):
    # the GF(p) oracle for minus_plane_certificate: at base points where it
    # passes, the zeros mod p are exactly the reductions of the named points
    assert len(geo.plane_zeros_mod_p([geo.plane_ring(QQ).zero()], p)) == total
    for y in (Y123, geo.MinusPlanePoint.rational(5, -3, 7)):
        assert geo.minus_plane_certificate(y)[0]
        assert set(geo.minus_plane_solutions_mod_p(y, p)) == named_points_mod_p(y, p)


def test_plane_zeros_in_enumeration_order():
    # y1·y2 vanishes on the lines y1 = 0 and y2 = 0: the 17 points (1:0:t),
    # the 17 points (0:1:t) and (0:0:1), each listed once, in that order
    ring = geo.plane_ring(QQ)
    y1, y2, _y3 = ring.gens()
    expect = [(1, 0, t) for t in range(17)] + [(0, 1, t) for t in range(17)] + [(0, 0, 1)]
    assert geo.plane_zeros_mod_p([y1 * y2], 17) == expect
    everything = geo.plane_zeros_mod_p([ring.zero()], 17)
    assert len(everything) == len(set(everything)) == 307


def test_minus_plane_unlucky_prime_when_named_points_collide():
    # y1 ≡ y3 mod 17 makes two named points coincide in GF(17): the oracle
    # cannot compare there, though the certificate over QQ passes
    y = geo.MinusPlanePoint.rational(1, 2, 18)
    assert geo.minus_plane_certificate(y)[0]
    with pytest.raises(UnluckyPrime):
        named_points_mod_p(y, 17)
    assert set(geo.minus_plane_solutions_mod_p(y, 41)) == named_points_mod_p(y, 41)


def test_orbit_mod_p_agrees_with_cyclotomic_reduction():
    # the exact orbit reduces to the orbit computed over GF(p) itself
    for p in (17, 41):
        direct = set(orbit(mod_p(Y123, p).embed()))
        assert _orbit_mod_p(Y123, p) == direct
        assert len(direct) == 64


# --- Moore pipeline ----------------------------------------------------------


def test_moore_full_corner_entry():
    full = moore.moore_matrix_full()
    g = moore.xy_ring().gens()
    assert full[0, 0] == g[0] * g[8] + g[4] * g[12]
    restricted = moore.restrict_moore_to_minus_plane(full)
    assert not restricted[0, 0]


def test_moore_restricted_entry_0_1():
    restricted = moore.restrict_moore_to_minus_plane(moore.moore_matrix_full())
    g = moore.xy_ring().gens()
    x, y = g[:8], g[8:]
    assert restricted[0, 1] == -(x[3] * y[3]) + x[1] * y[7]


def test_moore_restriction_matches_reference_entrywise():
    data = moore.moore_pipeline()
    expected = moore.expected_restricted_moore()
    for i in range(4):
        for j in range(4):
            assert data.restricted[i, j] == expected[i, j]
    assert data.skew.is_skew_symmetric()
    assert not data.restricted.is_skew_symmetric()


def test_pfaffian_identity_and_recorded_sign():
    data = moore.moore_pipeline()
    assert data.sign == moore.RECORDED_PFAFFIAN_SIGN == 1
    reference = (
        data.w[0] * data.pullbacks[0]
        + data.w[1] * data.pullbacks[1]
        + data.w[2] * data.pullbacks[2]
    )
    assert data.pfaffian == reference
    assert data.pfaffian * data.pfaffian == data.skew.det()


def test_pfaffian_pipeline_commutes_with_specialization():
    # evaluating the symbolic Pfaffian equals running the pipeline on numbers
    data = moore.moore_pipeline()
    rng = random.Random(6)
    for _ in range(3):
        point = [Fraction(rng.randint(-5, 5)) for _ in range(16)]
        entries = [[e.eval(point) for e in row] for row in data.skew.rows]
        direct = (
            entries[0][1] * entries[2][3]
            - entries[0][2] * entries[1][3]
            + entries[0][3] * entries[1][2]
        )
        assert data.pfaffian.eval(point) == direct


def test_moore_at_yy_is_diagonal_substitution_of_full():
    full = moore.moore_matrix_full()
    ring = moore.y_ring()
    yv = ring.gens()
    images = list(yv) + list(yv)
    specialized = full.map_entries(lambda q: q.substitute(images, ring))
    direct = moore.moore_at_yy()
    for i in range(4):
        for j in range(4):
            assert specialized[i, j] == direct[i, j]


def test_moore_minors_structure():
    gens = moore.moore_minor_generators()
    assert len(gens) == 36
    zero_count = sum(1 for g in gens if not g)
    assert zero_count == 6  # columns 1 and 3 of M(y,y) coincide
    for g in gens:
        if g:
            assert g.homogeneous_degree() == 4


def test_psi_target_degree_and_specialization_consistency():
    target = moore.psi_quartic_target()
    assert target.homogeneous_degree() == 8
    # evaluate-then-combine must equal substitute-then-evaluate
    rng = random.Random(2)
    for _ in range(3):
        point = [Fraction(rng.randint(-4, 4)) for _ in range(8)]
        a, b, c = moore.conic_pullbacks(moore.y_ring(), 0)
        av, bv, cv = a.eval(point), b.eval(point), c.eval(point)
        assert target.eval(point) == bv**4 - 8 * av**3 * cv - 8 * av * cv**3


def test_psi_membership_full_instance_mod_17():
    problem = moore.psi_membership_problem()
    assert problem.shape == (6435, 11880)
    cert = problem.solve_mod(17)
    assert cert.support() == 82
    ring17 = PolyRing(GF(17), moore.Y_NAMES)
    gens17 = [map_coefficients(g, GF(17).coerce, ring17) for g in moore.moore_minor_generators()]
    target17 = map_coefficients(moore.psi_quartic_target(), GF(17).coerce, ring17)
    assert replay_certificate(cert, gens17) == target17


def test_psi_membership_blocks_skip_zero_and_repeated_minors():
    problem = moore.psi_membership_problem()
    # of the 36 minors, 6 are zero and 12 are ±1 times an earlier minor
    assert len(problem._block_generators) == 18
    blocks = problem._target_blocks()
    assert [(len(b.rows), len(b.cols)) for b in blocks] == [(103, 113), (104, 116)]


def test_psi_membership_rational_binding():
    problem = moore.psi_membership_problem()
    cert = problem.solve_rational()
    assert cert.prime is None
    assert replay_certificate(cert, list(moore.moore_minor_generators())) == moore.psi_quartic_target()
    heights = [max(abs(c.numerator), c.denominator) for _, _, c in cert.entries]
    assert max(heights) <= 1000  # observed height is tiny; keep a loose regression bound


# --- plane quartic and topology ----------------------------------------------


def test_quartic_partials_at_unit_point():
    # differentiation oracle: gradient at (1:0:0) is (0, 0, -8)
    parts = moore.quartic_partials()
    vals = [g.eval([Fraction(1), Fraction(0), Fraction(0)]) for g in parts]
    assert vals == [Fraction(0), Fraction(0), Fraction(-8)]


@pytest.mark.parametrize("p", [17, 41, 73])
def test_quartic_sweeps(p):
    assert geo.quartic_smooth_mod_p(p)


def test_quartic_smooth_over_Q_and_genus():
    # the quartic is smooth over Q exactly when all three QQ certificates exist
    certs = moore.quartic_nullstellensatz_certificates()
    assert [cert.prime for cert in certs] == [None] * 3
    assert moore.quartic_genus() == 3


def test_quartic_nullstellensatz():
    certs = moore.quartic_nullstellensatz_certificates()
    assert len(certs) == 3
    parts = list(moore.quartic_partials())
    ring = moore.conic_ring()
    for i, cert in enumerate(certs):
        assert replay_certificate(cert, parts) == ring.var(i) ** 7


def test_nullstellensatz_certificates_raise_on_singular_quartic(monkeypatch):
    # w1⁴ − 8·w0³·w2 is singular at (0:0:1): no w2⁷ certificate in degree 7
    w0, w1, w2 = moore.conic_ring().gens()
    monkeypatch.setattr(moore, "quartic_curve_poly", lambda: w1**4 - w0**3 * w2 * 8)
    with pytest.raises(NotInDegree):
        moore.quartic_nullstellensatz_certificates()


def test_topology_numbers():
    # the identity reads the node count it is given: 64 nodes give e = 0
    data = moore.topology_numbers(64)
    assert data["degree"] == 16
    assert data["c2_hyperplane_degree"] == 64
    assert data["euler_smooth"] == -128
    assert data["node_identity"] == 0
    assert data["hilbert_numerator_at_1"] == 16
    assert data["hilbert_coeffs"] == "1,4,6,4,1"
    assert moore.topology_numbers(32)["node_identity"] == -64

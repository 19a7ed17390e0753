"""The quadric system, Moore pipeline, minus-plane intersection, sampling,
membership instance, plane quartic, and topology numbers."""
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heis8_certify import geometry as geo
from heis8_certify.errors import (
    BadPrime,
    DegeneratePoint,
    NotInDegree,
    PointNotOnVariety,
    ZeroPoint,
)
from heis8_certify.exactmath import GF, QI8, QQ, Cyclo
from heis8_certify.heisenberg import HeisenbergElement, ProjPoint
from heis8_certify.linalg import monomials_of_degree, replay_certificate
from heis8_certify.multipoly import PolyRing


Y123 = geo.MinusPlanePoint.rational(1, 2, 3)


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
    full = geo.moore_matrix_full()
    restricted = geo.restrict_moore_to_minus_plane(full)
    x_any = [other[0], *abc, *other[1:5]]
    for i in range(4):
        for j in range(4):
            assert restricted[i, j].eval(x_any + yv) == full[i, j].eval(list(embedded) + yv)

    # the symbolic system of symbolic_base_identities, at u = base, is build_system's
    ring = PolyRing(QQ, geo.X_NAMES + ("u1", "u2", "u3"))
    g = ring.gens()
    symbolic = geo.shifted_quadrics(geo.base_quadric(g, *g[8:]))
    x_ring = system.ring
    images = [*x_ring.gens(), *(x_ring.constant(c) for c in base)]
    assert [f.substitute(images, x_ring) for f in symbolic] == list(system.quadrics)


def test_jacobian_rank_three_at_base_point():
    system = geo.build_system(Y123)
    assert geo.jacobian_rank_at(system, Y123.embed()) == 3


def test_jacobian_rank_rejects_off_variety_points():
    system = geo.build_system(Y123)
    v = ProjPoint(QQ, [1, 0, 0, 0, 0, 0, 0, 0])
    with pytest.raises(PointNotOnVariety):
        geo.jacobian_rank_at(system, v)


def test_jacobian_rank_four_at_smooth_sample_points():
    # rejection density is n/p^4, so p = 17 keeps the draw count practical
    p = 17
    system = geo.build_system(Y123.to_field(GF(p)))
    points, _hits = geo.sample_points(system, p, 10**6, seed=5)
    assert points
    orbit_set = set(geo.orbit_mod_p(Y123, p))
    smooth_seen = 0
    for pt in points:
        r = geo.jacobian_rank_at(system, pt)
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
    assert geo.odp_proxy_sweep(Y123) == 64


def test_group_transport_matches_the_explicit_orbit_loop():
    # the per-point sweep that the base-point evidence replaces: every orbit
    # point, over QQ(zeta8), has Jacobian rank 3 (else the call raises) and a
    # rank-4 cone, as carried from the base point by the group
    system = geo.build_system(Y123.to_field(QI8))
    orbit = geo.orbit_of_base_point(Y123)
    ranks = [geo.odp_normal_hessian_rank(system, pt) for pt in orbit]
    assert len(orbit) == 64
    assert ranks.count(4) == 64 == geo.odp_proxy_sweep(Y123)


def test_orbit_inverts_once_per_nonzero_coordinate_in_first_seen_order(monkeypatch):
    # (0 : 3 : 1 : 4 : 0 : -4 : -1 : -3) has six nonzero coordinates
    y = geo.MinusPlanePoint.rational(3, 1, 4)
    calls = []
    real = Cyclo.inverse

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Cyclo, "inverse", counted)
    geo.orbit_of_base_point.cache_clear()
    orbit = geo.orbit_of_base_point(y)
    assert len(calls) == 6
    assert geo.orbit_of_base_point(y) is orbit  # memoized: no further inversions
    assert len(calls) == 6
    monkeypatch.undo()
    # the oracle: projective equality, images of shift^a twist^b in (a, b) order
    v = y.to_field(QI8).embed()
    expect = []
    for a, b in itertools.product(range(8), repeat=2):
        w = HeisenbergElement(a, b, 0).act_on_point(v)
        if all(w != u for u in expect):
            expect.append(w)
    assert [w.coords for w in orbit] == [w.coords for w in expect]


def test_quadric_span_images_shift_and_twist():
    images = dict(geo.quadric_span_images(Y123))
    assert list(images) == [f"{g}_q{i}" for g in ("shift", "twist") for i in range(4)]
    assert all(sol is not None for sol in images.values())
    # shift permutes the quadrics cyclically: q_i -> q_{i+1}
    for i in range(4):
        assert images[f"shift_q{i}"] == tuple(QI8.one if j == (i + 1) % 4 else QI8.zero for j in range(4))


def test_named_points_on_restricted_system_exactly():
    assert geo.minus_plane_intersection_exact(Y123)
    named = geo.named_intersection_points(Y123)
    plane_pts = {p.plane_point() for p in named}
    expect = {
        ProjPoint(QQ, [1, 2, 3]),
        ProjPoint(QQ, [3, 2, 1]),
        ProjPoint(QQ, [1, -2, 3]),
        ProjPoint(QQ, [3, -2, 1]),
    }
    assert plane_pts == expect


def _brute_force_zeros(polys, p):
    """The oracle: every one of the p²+p+1 points of P²(GF(p)), first
    nonzero coordinate 1, evaluated in every polynomial.  Returns the
    number of points and the set of common zeros."""
    points = [(1, a, t) for a in range(p) for t in range(p)]
    points += [(0, 1, t) for t in range(p)] + [(0, 0, 1)]
    terms = [[(e, c.value) for e, c in f.sorted_terms()] for f in polys]
    zeros = {
        pt
        for pt in points
        if all(
            sum(c * pt[0] ** e[0] * pt[1] ** e[1] * pt[2] ** e[2] for e, c in f) % p == 0
            for f in terms
        )
    }
    return len(points), zeros


def _restricted_conics(y, p):
    field = GF(p)
    ring = geo.plane_ring(field)
    return [
        geo.restrict_to_minus_plane(q).map_coefficients(field.coerce, ring)
        for q in geo.build_system(y).quadrics
    ]


@pytest.mark.parametrize("p,total", [(17, 307), (41, 1723)])
def test_minus_plane_enumeration(p, total):
    count, zeros = _brute_force_zeros(_restricted_conics(Y123, p), p)
    assert count == total
    solutions, named = geo.minus_plane_solutions_mod_p(Y123, p)
    assert solutions == named == {ProjPoint(GF(p), pt) for pt in zeros}
    payload = geo.minus_plane_intersection(Y123, p)
    assert payload[f"solutions_mod_{p}"] == "4"


SWEEP_PRIMES = (17, 41, 97)


@st.composite
def plane_systems(draw):
    """One to three conics or cubics over GF(p), often sparse, sometimes
    sharing a linear factor (a whole line of common zeros)."""
    p = draw(st.sampled_from(SWEEP_PRIMES))
    ring = geo.plane_ring(GF(p))
    coeff = st.one_of(st.sampled_from([0, 0, 0, 1, -1]), st.integers(0, p - 1))
    factor = None
    if draw(st.booleans()):
        factor = sum(
            (ring.monomial(e, draw(coeff)) for e in monomials_of_degree(3, 1)), ring.zero()
        )
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.sampled_from([2, 3]))
        if factor:
            degree -= 1
        monomials = monomials_of_degree(3, degree)
        f = sum((ring.monomial(e, draw(coeff)) for e in monomials), ring.zero())
        polys.append(f * factor if factor else f)
    return p, polys


def _plane_system(p, *rows):
    """Polynomials over GF(p) from (coefficient, exponent triple) rows."""
    ring = geo.plane_ring(GF(p))
    return p, [sum((ring.monomial(e, c) for c, e in row), ring.zero()) for row in rows]


@settings(max_examples=60, deadline=None)
@given(plane_systems())
# every restriction vanishes on the pencil line (1:3:t): a common factor x1 − 3·x0
@example(_plane_system(
    17,
    [(1, (0, 1, 1)), (-3, (1, 0, 1))],
    [(1, (1, 1, 0)), (-3, (2, 0, 0)), (1, (0, 1, 1)), (-3, (1, 0, 1))],
))
# a common zero at (0:0:1): no pure power of the last coordinate
@example(_plane_system(41, [(1, (1, 0, 1)), (1, (0, 2, 0))], [(1, (0, 1, 1)), (5, (2, 0, 0))]))
# common zeros on the line (0:1:t): x0 divides one, the other vanishes at (0:1:±5)
@example(_plane_system(
    97,
    [(1, (1, 1, 0)), (2, (1, 0, 1))],
    [(1, (0, 0, 2)), (-25, (0, 2, 0)), (1, (2, 0, 0))],
))
def test_sweep_matches_brute_force_enumeration(system):
    p, polys = system
    _count, zeros = _brute_force_zeros(polys, p)
    swept = geo.plane_zeros_mod_p(polys, p)
    assert len(swept) == len(set(swept))
    assert set(swept) == zeros


@pytest.mark.parametrize("point", [(1, 0, 2), (2, 1, 2)])
@pytest.mark.parametrize("p", SWEEP_PRIMES)
def test_sweep_matches_brute_force_at_degenerate_base_points(point, p):
    # two named points collide here, so minus_plane_intersection is unlucky
    conics = _restricted_conics(geo.MinusPlanePoint.rational(*point), p)
    _count, zeros = _brute_force_zeros(conics, p)
    assert set(geo.plane_zeros_mod_p(conics, p)) == zeros


def test_minus_plane_rejects_bad_prime():
    with pytest.raises(BadPrime):
        geo.minus_plane_intersection(Y123, 7)


def test_minus_plane_unlucky_prime_when_named_points_collide():
    from heis8_certify.errors import UnluckyPrime

    # y1 ≡ y3 mod 17 makes two named points coincide in GF(17)
    y = geo.MinusPlanePoint.rational(1, 2, 18)
    with pytest.raises(UnluckyPrime):
        geo.minus_plane_intersection(y, 17)
    payload = geo.minus_plane_intersection(y, 41)
    assert payload["solutions_mod_41"] == "4"


def test_sample_points_frozen_count():
    system = geo.build_system(Y123.to_field(GF(17)))
    points, hits = geo.sample_points(system, 17, 10**6, seed=42)
    # deterministic counter RNG: the exact count is reproducible; the scale
    # matches the expected density n/p^4 ≈ 12 at Poisson tolerance
    assert hits == 19
    assert len(points) == 19
    for pt in points:
        assert all(not q.eval(pt.coords) for q in system.quadrics)


def test_off_orbit_sampling_clean():
    payload = geo.off_orbit_sampling_check(Y123, 17, 10**6, 42)
    assert payload["sample_rank3_off_orbit"] == "0"


def test_orbit_mod_p_agrees_with_cyclotomic_reduction():
    assert len(geo.orbit_mod_p(Y123, 17)) == 64
    assert len(geo.orbit_mod_p(Y123, 41)) == 64


# --- Moore pipeline ----------------------------------------------------------


def test_moore_full_corner_entry():
    full = geo.moore_matrix_full()
    g = geo.xy_ring().gens()
    assert full[0, 0] == g[0] * g[8] + g[4] * g[12]
    restricted = geo.restrict_moore_to_minus_plane(full)
    assert not restricted[0, 0]


def test_moore_restricted_entry_0_1():
    restricted = geo.restrict_moore_to_minus_plane(geo.moore_matrix_full())
    g = geo.xy_ring().gens()
    x, y = g[:8], g[8:]
    assert restricted[0, 1] == -(x[3] * y[3]) + x[1] * y[7]


def test_moore_restriction_matches_reference_entrywise():
    data = geo.moore_pipeline()
    expected = geo.expected_restricted_moore()
    for i in range(4):
        for j in range(4):
            assert data.restricted[i, j] == expected[i, j]
    assert data.skew.is_skew_symmetric()
    assert not data.restricted.is_skew_symmetric()


def test_pfaffian_identity_and_recorded_sign():
    data = geo.moore_pipeline()
    assert data.sign == geo.RECORDED_PFAFFIAN_SIGN == 1
    reference = (
        data.w[0] * data.pullbacks[0]
        + data.w[1] * data.pullbacks[1]
        + data.w[2] * data.pullbacks[2]
    )
    assert data.pfaffian == reference
    assert data.pfaffian * data.pfaffian == data.skew.det()


def test_pfaffian_pipeline_commutes_with_specialization():
    # evaluating the symbolic Pfaffian equals running the pipeline on numbers
    data = geo.moore_pipeline()
    rng = random.Random(6)
    for _ in range(3):
        point = [Fraction(rng.randint(-5, 5)) for _ in range(16)]
        entries = data.skew.eval(point)
        direct = (
            entries[0][1] * entries[2][3]
            - entries[0][2] * entries[1][3]
            + entries[0][3] * entries[1][2]
        )
        assert data.pfaffian.eval(point) == direct


def test_moore_at_yy_is_diagonal_substitution_of_full():
    full = geo.moore_matrix_full()
    ring = geo.y_ring()
    yv = ring.gens()
    images = list(yv) + list(yv)
    specialized = full.map_entries(lambda q: q.substitute(images, ring))
    direct = geo.moore_at_yy()
    for i in range(4):
        for j in range(4):
            assert specialized[i, j] == direct[i, j]


def test_moore_minors_structure():
    gens = geo.moore_minor_generators()
    assert len(gens) == 36
    zero_count = sum(1 for g in gens if not g)
    assert zero_count == 6  # columns 1 and 3 of M(y,y) coincide
    for g in gens:
        if g:
            assert g.homogeneous_degree() == 4


def test_psi_target_degree_and_specialization_consistency():
    target = geo.psi_quartic_target()
    assert target.homogeneous_degree() == 8
    # evaluate-then-combine must equal substitute-then-evaluate
    rng = random.Random(2)
    for _ in range(3):
        point = [Fraction(rng.randint(-4, 4)) for _ in range(8)]
        a, b, c = geo.conic_pullbacks(geo.y_ring(), 0)
        av, bv, cv = a.eval(point), b.eval(point), c.eval(point)
        assert target.eval(point) == bv**4 - 8 * av**3 * cv - 8 * av * cv**3


def test_psi_membership_full_instance_mod_17():
    problem = geo.psi_membership_problem()
    assert problem.shape == (6435, 11880)
    cert = problem.solve_mod(17)
    assert cert.support() == 82
    ring17 = PolyRing(GF(17), geo.Y_NAMES)
    gens17 = [g.map_coefficients(GF(17).coerce, ring17) for g in geo.moore_minor_generators()]
    target17 = geo.psi_quartic_target().map_coefficients(GF(17).coerce, ring17)
    assert replay_certificate(cert, gens17) == target17


def test_psi_membership_blocks_skip_zero_and_repeated_minors():
    problem = geo.psi_membership_problem()
    # of the 36 minors, 6 are zero and 12 are ±1 times an earlier minor
    assert len(problem._block_generators) == 18
    blocks = problem._target_blocks()
    assert [(len(b.rows), len(b.cols)) for b in blocks] == [(103, 113), (104, 116)]


def test_psi_membership_rational_binding():
    problem = geo.psi_membership_problem()
    cert = problem.solve_rational()
    assert cert.field_name == "QQ"
    assert replay_certificate(cert, list(geo.moore_minor_generators())) == geo.psi_quartic_target()
    heights = [max(abs(c.numerator), c.denominator) for _, _, c in cert.entries]
    assert max(heights) <= 1000  # observed height is tiny; keep a loose regression bound


# --- plane quartic and topology ----------------------------------------------


def test_quartic_partials_at_unit_point():
    # differentiation oracle: gradient at (1:0:0) is (0, 0, -8)
    parts = geo.quartic_partials()
    vals = [g.eval([Fraction(1), Fraction(0), Fraction(0)]) for g in parts]
    assert vals == [Fraction(0), Fraction(0), Fraction(-8)]


@pytest.mark.parametrize("p", [17, 41, 73])
def test_quartic_sweeps(p):
    assert geo.quartic_smooth_mod_p(p)


def test_quartic_smooth_over_Q_and_genus():
    # the quartic is smooth over Q exactly when all three QQ certificates exist
    certs = geo.quartic_nullstellensatz_certificates()
    assert [cert.field_name for cert in certs] == ["QQ"] * 3
    assert geo.quartic_genus() == 3


def test_quartic_nullstellensatz():
    certs = geo.quartic_nullstellensatz_certificates()
    assert len(certs) == 3
    parts = list(geo.quartic_partials())
    ring = geo.conic_ring()
    for i, cert in enumerate(certs):
        assert replay_certificate(cert, parts) == ring.var(i) ** 7


def test_nullstellensatz_certificates_raise_on_singular_quartic(monkeypatch):
    # w1⁴ − 8·w0³·w2 is singular at (0:0:1): no w2⁷ certificate in degree 7
    w0, w1, w2 = geo.conic_ring().gens()
    monkeypatch.setattr(geo, "quartic_curve_poly", lambda: w1**4 - w0**3 * w2 * 8)
    with pytest.raises(NotInDegree):
        geo.quartic_nullstellensatz_certificates()


def test_topology_numbers():
    data = geo.topology_numbers()
    assert data["degree"] == 16
    assert data["c2_hyperplane_degree"] == 64
    assert data["euler_smooth"] == -128
    assert data["node_identity"] == 0
    assert data["hilbert_numerator_at_1"] == 16
    assert data["hilbert_coeffs"] == "1,4,6,4,1"

"""Group law, enumeration, center/quotient, and the point action with its
adjoint contract against the polynomial action."""
import random

import pytest

from heis8_certify.errors import MissingRootOfUnity, ZeroPoint
from heis8_certify.exactmath import QQ
from heis8_certify.heisenberg import (
    CENTRAL,
    SHIFT,
    TWIST,
    HeisenbergElement,
    ProjPoint,
    center_and_quotient,
    enumerate_group,
    orbit,
)

from helpers import GF

def test_shift_order_eight():
    assert (SHIFT * SHIFT**7).is_identity()
    assert not (SHIFT**4).is_identity()


def test_twist_shift_reordering():
    # substitution oracle: shift∘twist maps x_i to zeta^-i x_{i-1},
    # twist∘shift maps x_i to zeta^(1-i) x_{i-1}; they differ by central zeta
    st = SHIFT * TWIST
    ts = TWIST * SHIFT
    perm_st, exps_st = st.substitution()
    perm_ts, exps_ts = ts.substitution()
    for i in range(8):
        assert perm_st[i] == perm_ts[i] == (i - 1) % 8
        assert exps_st[i] == (-i) % 8
        assert exps_ts[i] == (1 - i) % 8
    assert ts == CENTRAL * st


def test_central_order():
    assert ((CENTRAL**4) * (CENTRAL**4)).is_identity()
    assert not (CENTRAL**4).is_identity()


def test_commutator_is_central_generator():
    assert TWIST * SHIFT * TWIST.inverse() * SHIFT.inverse() == CENTRAL


def test_enumeration():
    els = enumerate_group()
    assert len(els) == 512
    assert len(set(els)) == 512
    assert HeisenbergElement.identity() in els
    assert all((g**512).is_identity() for g in els)


def test_composition_closure_and_inverses():
    els = enumerate_group()
    universe = set(els)
    rng = random.Random(3)
    for _ in range(2000):
        g, h = rng.choice(els), rng.choice(els)
        assert g * h in universe
    for g in els:
        assert (g * g.inverse()).is_identity()
        assert (g.inverse() * g).is_identity()


def test_associativity_random_triples():
    els = enumerate_group()
    rng = random.Random(11)
    for _ in range(10000):
        g, h, k = rng.choice(els), rng.choice(els), rng.choice(els)
        assert (g * h) * k == g * (h * k)


def test_center_and_quotient():
    cq = center_and_quotient()
    assert len(cq.center) == 8
    assert set(cq.center) == {HeisenbergElement(0, 0, c) for c in range(8)}
    assert cq.quotient_order == 64
    assert cq.invariant_factors == (8, 8)


def test_center_and_quotient_deterministic():
    assert center_and_quotient() == center_and_quotient()


def test_center_matches_all_pairs_commutation():
    # the oracle: an element is central when it commutes with all 512 elements
    elements = enumerate_group()
    center = tuple(g for g in elements if all(g.commutes_with(h) for h in elements))
    assert center_and_quotient().center == center


# ζ8 exists in GF(ZETA_P), a reduction of QQ(zeta8) mod a prime above it:
# points distinct there are distinct over QQ(zeta8)
ZETA_P = 12289
QZ = GF(ZETA_P)


def embedded(field, y1, y2, y3):
    c = [field.coerce(v) for v in (0, y1, y2, y3, 0, -y3, -y2, -y1)]
    return ProjPoint(field, c)


def test_central_elements_act_trivially():
    v = embedded(QZ, 1, 2, 3)
    for c in range(8):
        assert HeisenbergElement(0, 0, c).act_on_point(v) == v


def test_twist4_on_embedded_point():
    v = embedded(QQ, 1, 2, 3)
    w = (TWIST**4).act_on_point(v)
    expected = ProjPoint(QQ, [QQ.coerce(t) for t in (0, -1, 2, -3, 0, 3, -2, 1)])
    assert w.coords == expected.coords


def test_point_action_needs_root_of_unity_only_when_twisting():
    v = embedded(QQ, 1, 2, 3)
    (SHIFT**3).act_on_point(v)          # pure shifts act over QQ
    (TWIST**4).act_on_point(v)          # only ±1 scalars needed
    with pytest.raises(MissingRootOfUnity):
        TWIST.act_on_point(v)           # needs a genuine 8th root


def test_orbit_of_coordinate_point_has_8_elements():
    e0 = ProjPoint(QQ, [QQ.one] + [QQ.zero] * 7)
    orb = orbit(e0)
    assert len(orb) == 8
    canon = {tuple(1 if i == k else 0 for i in range(8)) for k in range(8)}
    assert {pt.canonical() for pt in orb} == {
        tuple(QQ.coerce(v) for v in c) for c in canon
    }


def test_orbit_of_generic_point_is_64():
    rng = random.Random(42)
    v = embedded(QZ, rng.randint(1, 9), rng.randint(1, 9), rng.randint(1, 9))
    assert len(orbit(v)) == 64


def test_orbit_size_divides_64():
    rng = random.Random(8)
    candidates = [embedded(QZ, 1, 0, 0), embedded(QZ, 1, 1, 1), embedded(QZ, 0, 1, 0)]
    for _ in range(5):
        candidates.append(
            embedded(QZ, rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(0, 3) or 1)
        )
    for v in candidates:
        assert 64 % len(orbit(v)) == 0


def test_point_action_is_homomorphism():
    field = GF(17)
    els = enumerate_group()
    rng = random.Random(21)
    for _ in range(1000):
        g, h = rng.choice(els), rng.choice(els)
        coords = [field.random(rng) for _ in range(8)]
        if not any(coords):
            coords[0] = field.one
        v = ProjPoint(field, coords)
        assert g.act_on_point(h.act_on_point(v)) == (g * h).act_on_point(v)


def test_adjoint_contract_on_quadrics():
    # eval(g·q, g·v) = λ·eval(q, v) with one λ for all four quadrics
    from heis8_certify.geometry import MinusPlanePoint, build_system

    system = build_system(MinusPlanePoint(QZ, 1, 2, 3))
    rng = random.Random(31)
    els = enumerate_group()
    for _ in range(40):
        g = rng.choice(els)
        coords = [QZ.random(rng) for _ in range(8)]
        if not any(coords):
            coords[0] = QZ.one
        v = ProjPoint(QZ, coords)
        w = g.act_on_point(v)
        lam = None
        for q in system.quadrics:
            left = g.act_on_poly(q).eval(w.coords)
            right = q.eval(v.coords)
            if right:
                ratio = left / right
                if lam is None:
                    lam = ratio
                assert ratio == lam
            else:
                assert not left
        # with the raw (uncanonicalized) action the scalar is exactly 1
        assert lam is None or lam == QZ.one


def test_projective_point_basics():
    with pytest.raises(ZeroPoint):
        ProjPoint(QQ, [0, 0, 0])
    a = ProjPoint(QQ, [2, 4])
    b = ProjPoint(QQ, [1, 2])
    c = ProjPoint(QQ, [1, 3])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a.canonical()[0] == QQ.one

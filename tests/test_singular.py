"""The singular-scheme count: packed rank mod p, the lane-wise reduction,
packed normal forms against the dict rewriting, maximal minors, the quotient
by the quadrics against the Macaulay matrix in S, the prime ladder, and the
y1·y3 gauntlet."""
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heis8_certify import geometry as geo
from heis8_certify import singular
from heis8_certify.errors import BadSize, DegeneratePoint, UnluckyPrime
from heis8_certify.linalg import Matrix, sparse_solve_mod_p

from helpers import GF, monomials_of_degree, symbolic_jacobian

Y123 = geo.MinusPlanePoint.rational(1, 2, 3)
WIDTH = singular.PACKED_WIDTH


def pack(values) -> int:
    """Pack nonnegative field values (each below 2⁴⁰), column 0 lowest."""
    return int.from_bytes(b"".join(v.to_bytes(WIDTH // 8, "little") for v in values), "little")


def unpack(row: int, n: int) -> list:
    return [(row >> (WIDTH * j)) & ((1 << WIDTH) - 1) for j in range(n)]


def dict_normal_form(quotient, key, memo):
    """The normal form of a monomial in the quotient as a dict from standard
    monomials to residues, by the same rewriting rules, one dict per step."""
    out = memo.get(key)
    if out is None:
        p = quotient.p
        i = next((i for i in range(4) if (key >> (4 * i)) & 15 >= 2), None)
        if i is None:
            out = {key: 1}
        else:
            base = key - (2 << (4 * i))
            acc = {}
            for t, c in quotient.rules[i]:
                for s, v in dict_normal_form(quotient, base + t, memo).items():
                    acc[s] = acc.get(s, 0) + c * v
            out = {s: v % p for s, v in acc.items() if v % p}
        memo[key] = out
    return out


def test_packed_rank_matches_exact_rank():
    rng = random.Random(11)
    for p in (17, 41, 32713):
        for trial in range(30):
            m, n = rng.randint(1, 14), rng.randint(1, 14)
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
            if trial % 3 == 1:  # a combination of two rows and a zero column
                rows.append([(3 * a + 5 * b) % p for a, b in zip(rows[0], rows[-1])])
                zero = rng.randrange(n)
                for row in rows:
                    row[zero] = 0
            ranker = singular.PackedRankMod(n, p)
            grew = []
            for row in rows:
                # unreduced fields: each entry plus a multiple of p
                grew.append(ranker.add(pack([v + p * rng.randrange(2**20) for v in row])))
                assert ranker.rank == Matrix(GF(p), rows[: len(grew)]).rank()
            assert sum(grew) == ranker.rank


def test_packed_rank_refuses_fields_that_can_overflow():
    # pivot fields below 2p: ncols·2p² must stay below 2³⁹, so 256 columns
    # fit at the top Hilbert prime and 257 do not
    singular.PackedRankMod(119, 32713)
    singular.PackedRankMod(256, 32713)
    with pytest.raises(BadSize):
        singular.PackedRankMod(257, 32713)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((17, 41, 32713)), st.integers(1, 119), st.data())
@example(17, 119, None)
@example(32713, 118, None)
def test_lane_reduction_matches_per_field_mod(p, ncols, data):
    if data is None:  # the largest fields, an odd and an even row length
        fields = [(1 << WIDTH) - 1] * ncols
    else:
        length = data.draw(st.integers(1, ncols))
        fields = data.draw(st.lists(st.integers(0, (1 << WIDTH) - 1), min_size=length, max_size=length))
    reduced = singular.PackedRankMod(ncols, p).reduce(pack(fields))
    assert reduced >> (WIDTH * len(fields)) == 0
    out = unpack(reduced, len(fields))
    assert [v % p for v in out] == [v % p for v in fields]
    assert all(v < 2 * p for v in out)


def test_packed_normal_forms_match_the_dict_rewriting():
    # every monomial of the degree-7 weight blocks at the top Hilbert prime,
    # and of both parity blocks of degree 5 after cutting by x4 + 3·x6 mod 41
    for p, cut, degree, modulus in ((singular.HILBERT_PRIMES[0], None, 7, 8), (41, 3, 5, 2)):
        quadrics, _minors = singular.singular_ideal_mod_p(Y123, p)
        high = (4, 5, 6, 7)
        if cut is not None:
            quadrics, high = [singular._eliminate_x4(q, cut, p) for q in quadrics], (5, 6, 7)
        quotient = singular.QuadricQuotient(quadrics, p, high=high)
        memo = {}
        variables = (0, 1, 2, 3, *high)
        monomials = [sum(1 << (4 * i) for i in m) for m in itertools.combinations_with_replacement(variables, degree)]
        for block, columns in quotient.weight_blocks(degree, modulus).items():
            cols = {s: j for j, s in enumerate(columns)}
            ranker = singular.PackedRankMod(len(cols), p)
            normal_form = quotient.packed_normal_forms(cols, ranker.reduce)
            keys = [k for k in monomials if singular._twist_weight(k) % modulus == block]
            assert keys
            for key in keys:
                expect = [0] * len(cols)
                for s, v in dict_normal_form(quotient, key, memo).items():
                    expect[cols[s]] = v
                packed = normal_form(key)
                assert packed >> (WIDTH * len(cols)) == 0
                fields = unpack(packed, len(cols))
                assert all(v < 2 * p for v in fields)
                assert [v % p for v in fields] == expect


def _block_count(y, p, weight=0):
    """dim over GF(p) of one twist-weight block of (S/I)_7, every row reduced."""
    quadrics, minors = singular.singular_ideal_mod_p(y, p)
    rank, ncols, _ = singular.QuadricQuotient(quadrics, p).block_rank(minors, 7, 8, weight)
    return ncols - rank


def _macaulay_weight0_corank(y, p):
    """429 − rank of the weight-0 block of degree 7 of S over the quadrics and
    the maximal minors (from PolyMatrix.minors), by sparse_solve_mod_p."""
    system = geo.build_system(geo.MinusPlanePoint(GF(p), *y.coords))
    gens = [g for g in (*system.quadrics, *symbolic_jacobian(system).minors(4)) if g]

    def weight(e):
        return sum(i * k for i, k in enumerate(e)) % 8

    rows = [e for e in monomials_of_degree(8, 7) if weight(e) == 0]
    row_pos = {e: i for i, e in enumerate(rows)}
    columns = [
        (g, m)
        for g in gens
        for m in monomials_of_degree(8, 7 - g.homogeneous_degree())
        if (weight(m) + weight(next(iter(g.terms)))) % 8 == 0
    ]
    system_rows = [{} for _ in rows]
    for j, (g, m) in enumerate(columns):
        for e, c in g.terms.items():
            system_rows[row_pos[tuple(a + b for a, b in zip(e, m))]][j] = c.value
    _x, pivots = sparse_solve_mod_p(system_rows, len(columns), p)
    return (len(rows), len(columns)), len(rows) - len(pivots)


def test_hilbert_block_matches_the_macaulay_block_in_S():
    p = singular.HILBERT_PRIMES[0]
    shape, corank = _macaulay_weight0_corank(Y123, p)
    assert shape == (429, 1446)
    assert _block_count(Y123, p, 0) == corank == 8


def test_hilbert_blocks_agree_across_weights():
    # shift carries block w onto block w − 7: every block has the same count
    p = singular.HILBERT_PRIMES[0]
    assert [_block_count(Y123, p, w) for w in range(8)] == [8] * 8


def test_singular_scheme_certificate_at_generic_points():
    for coords, seed in (((1, 2, 3), 42), ((2, 5, 1), 7), ((3, 7, -4), 5)):
        y = geo.MinusPlanePoint.rational(*coords)
        payload, prime = singular.singular_scheme_certificate(y, seed, 64)
        assert prime == singular.HILBERT_PRIMES[0]
        assert payload["hilbert_prime"] == str(prime)
        assert payload["hilbert_deg7_block0_rank"] == "111/119"
        assert payload["hilbert_deg5_mod_form_rank"] == "84/84,84/84"
        assert payload["hilbert_deg7_bound"] == "64"
        assert not any(k.startswith("hilbert_unlucky") for k in payload)


def test_singular_scheme_climbs_past_an_unlucky_prime(monkeypatch):
    # HF(S/I, 7) reads 80 mod 17 at (1,2,3): 17 is unlucky and 41 certifies
    assert 8 * _block_count(Y123, 17) == 80
    assert 8 * _block_count(Y123, 41) == 64
    monkeypatch.setattr(singular, "HILBERT_PRIMES", (17, 41))
    payload, prime = singular.singular_scheme_certificate(Y123, 42, 64)
    assert prime == 41
    # the row budget runs out before the rank reaches its value 109 mod 17
    assert payload["hilbert_unlucky_17"] == "degree-7 weight-0 rank 108/119 after 127 rows mod 17, 111 needed"
    assert payload["hilbert_deg7_bound"] == "64"


def test_singular_scheme_needs_the_square_terms():
    # y1·y3 = 0: the quadrics have no square terms; the gauntlet rejects the point
    for coords in ((0, 1, 2), (1, 2, 0)):
        with pytest.raises(DegeneratePoint):
            geo.odp_proxy_sweep(geo.MinusPlanePoint.rational(*coords))
    with pytest.raises(UnluckyPrime):
        singular.QuadricQuotient(singular.singular_ideal_mod_p(geo.MinusPlanePoint.rational(0, 1, 2), 41)[0], 41)


def test_maximal_minors_match_polymatrix_minors():
    p = 41
    system = geo.build_system(geo.MinusPlanePoint(GF(p), *Y123.coords))
    quadrics, minors = singular.singular_ideal_mod_p(Y123, p)
    reference = symbolic_jacobian(system).minors(4)
    assert len(minors) == len(reference) == 70
    for mine, ref in zip(minors, reference):
        assert mine == {singular._key(e): c.value for e, c in ref.terms.items()}

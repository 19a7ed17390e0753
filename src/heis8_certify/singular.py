"""The singular scheme of V at a base point, bounded by one Hilbert-function
count mod p (singular_scheme_mod_p).

Polynomials mod p are dicts from packed monomials to residues.  A packed
monomial holds the exponent of x_i in bits [4i, 4i+4); no degree here
exceeds 7, so the key of a product of monomials is the sum of their keys.
Rows of the count are packed too, a 40-bit field per column, and reduced
mod p a lane of fields at a time (PackedRankMod.reduce).

Only orbit-64-singular uses this module, and it imports it when it runs:
runs without that check neither load it nor, when no bytecode is cached,
compile it, which keeps their peak memory where it was.
"""
from __future__ import annotations

import itertools
import random
from functools import lru_cache

from .errors import BadSize, DenominatorVanishes, UnluckyPrime
from .exactmath import residue
from .geometry import MinusPlanePoint, build_system
from .multipoly import SparsePoly, grevlex_key

PACKED_WIDTH = 40  # bits per column of a packed row: five bytes


class PackedRankMod:
    """Incremental rank mod p of rows packed into single integers.

    A packed row holds column j in bits [40·j, 40·(j+1)) as a nonnegative
    integer whose residue mod p is the entry.  Each pivot row has a residue
    1 at its pivot column, fields below 2p (reduce) and exact zeros below
    the pivot, and is stored shifted down to that column.  A row being
    reduced is shifted right one field per column it clears, so eliminating
    one pivot is one multiply-add on the whole integer, and the integer
    shrinks as the reduction goes.

    Fields only grow: by less than 2p² per elimination, and a row meets at
    most ncols pivots.  So the fields of added rows must stay below 2³⁹ and
    ncols·2p² below 2³⁹, which keeps every field inside its 40 bits.

    `pivots` is indexed by column, None where no pivot row is kept, and
    `rank` counts the pivot rows.
    """

    def __init__(self, ncols: int, p: int):
        if ncols * 2 * p * p >= 1 << (PACKED_WIDTH - 1):
            raise BadSize(f"{ncols} packed columns mod {p} can overflow a {PACKED_WIDTH}-bit field")
        self.p = p
        self.barrett = (1 << PACKED_WIDTH) // p
        # the even fields: the low half of each 80-bit lane
        self.lanes = int.from_bytes((b"\xff" * 5 + bytes(5)) * ((ncols + 1) // 2), "little")
        self.pivots = [None] * ncols  # column -> its normalized row, shifted down to the column
        self.rank = 0

    def reduce(self, row: int) -> int:
        """The packed row (at most ncols fields, each below 2⁴⁰) with every
        field brought below 2p and kept in its residue class.

        Barrett reduction on all even fields at once, then on all odd ones:
        masked into 80-bit lanes, a field x times m = ⌊2⁴⁰/p⌋ stays below 2⁸⁰
        inside its lane, and q = ⌊x·m/2⁴⁰⌋ is ⌊x/p⌋ or one less, as x·m/2⁴⁰
        exceeds x/p − 1.  So x − q·p lies in [0, 2p) and no lane borrows.
        """
        lanes, m, p = self.lanes, self.barrett, self.p
        even = row & lanes
        odd = (row >> PACKED_WIDTH) & lanes
        even -= ((even * m >> PACKED_WIDTH) & lanes) * p
        odd -= ((odd * m >> PACKED_WIDTH) & lanes) * p
        return even | odd << PACKED_WIDTH

    def add(self, row: int) -> bool:
        """Reduce a packed row against the pivots; keep it as a new pivot row
        (and return True) when it is independent of them mod p."""
        p, pivots, mask = self.p, self.pivots, (1 << PACKED_WIDTH) - 1
        col = 0  # the column in the lowest field of row
        while row:
            r = (row & mask) % p
            if r:
                pivot = pivots[col]
                if pivot is None:
                    # scaled by 1/r: fields below 2p·p before the second reduction
                    pivots[col] = self.reduce(self.reduce(row) * pow(r, -1, p))
                    self.rank += 1
                    return True
                row += (p - r) * pivot  # the lowest field becomes ≡ 0 mod p
            row >>= PACKED_WIDTH
            col += 1
        return False


HILBERT_PRIMES = (32713, 32633, 32609)  # the largest primes ≡ 1 mod 8 below 2¹⁵
HILBERT_DEGREE = 7
FINITENESS_DEGREE = 5
HILBERT_ROW_SLACK = 16  # rows past the expected rank before a prime is called unlucky


def _key(exps) -> int:
    return sum(e << (4 * i) for i, e in enumerate(exps))


def _exponents(key: int) -> tuple:
    return tuple((key >> (4 * i)) & 15 for i in range(8))


@lru_cache(maxsize=None)
def _twist_weight(key: int) -> int:
    """Σ i·e_i: the exponent of ξ⁻¹ by which twist scales the monomial."""
    return sum(i * ((key >> (4 * i)) & 15) for i in range(1, 8))


def _packed_mod_p(poly: SparsePoly, p: int) -> dict:
    out = {}
    for e, c in poly.terms.items():
        v = residue(c, p)
        if v:
            out[_key(e)] = v
    return out


def _values_mod_p(polys, point, p: int) -> list:
    """The value of each polynomial at the point mod p, each distinct
    monomial of the polynomials evaluated once."""
    powers = [[pow(c, e, p) for e in range(8)] for c in point]
    monomials = {k: 0 for poly in polys for k in poly}
    for k in monomials:
        v = 1
        for i in range(8):
            v *= powers[i][(k >> (4 * i)) & 15]
        monomials[k] = v % p
    return [sum(v * monomials[k] for k, v in poly.items()) % p for poly in polys]


def _poly_mul(a: dict, b: dict, p: int) -> dict:
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            out[ka + kb] = out.get(ka + kb, 0) + va * vb
    return {k: v % p for k, v in out.items() if v % p}


def _partial(poly: dict, i: int, p: int) -> dict:
    unit = 1 << (4 * i)
    return {k - unit: v * ((k >> (4 * i)) & 15) % p for k, v in poly.items() if (k >> (4 * i)) & 15}


def maximal_minors(rows, p: int) -> list:
    """All maximal minors of a k×8 matrix of polynomials mod p, column sets
    in lexicographic order, by Laplace expansion along the top row; every
    minor of the lower rows is computed once."""
    k = len(rows)
    memo = {(): {0: 1}}  # columns -> the minor of the last len(columns) rows

    def minor(cols):
        out = memo.get(cols)
        if out is None:
            row = rows[k - len(cols)]
            acc = {}
            for m, j in enumerate(cols):
                sign = -1 if m % 2 else 1
                for key, v in _poly_mul(row[j], minor(cols[:m] + cols[m + 1 :]), p).items():
                    acc[key] = acc.get(key, 0) + sign * v
            out = memo[cols] = {key: v % p for key, v in acc.items() if v % p}
        return out

    return [minor(cols) for cols in itertools.combinations(range(8), k)]


class QuadricQuotient:
    """S/(four quadrics) over GF(p), for quadrics whose grevlex leading terms
    are x0², x1², x2², x3² in some order.

    Leading terms that are pairwise coprime make the quadrics a Gröbner
    basis (Buchberger's first criterion), so the standard monomials, those
    squarefree in x0 … x3, are a basis of every degree, and the normal form
    of a monomial follows from the rewriting rules x_i² → −tail/lead
    coefficient, as a packed row of its block (packed_normal_forms).  `high`
    lists the other variables that occur.  Raises UnluckyPrime when the
    leading terms mod p are not the four squares.
    """

    def __init__(self, quadrics, p: int, high=(4, 5, 6, 7)):
        self.p = p
        self.high = high
        self.rules = {}
        for q in quadrics:
            lead = min(q, key=lambda k: grevlex_key(_exponents(k)))
            i = next((i for i in range(4) if lead == 2 << (4 * i)), None)
            if i is None or i in self.rules:
                raise UnluckyPrime(f"the quadrics mod {p} do not lead with x0², x1², x2², x3²")
            scale = p - pow(q[lead], -1, p)
            self.rules[i] = [(k, v * scale % p) for k, v in q.items() if k != lead]
        self._blocks = {}

    def weight_blocks(self, degree: int, modulus: int) -> dict:
        """The standard monomials of a degree by twist weight mod `modulus`."""
        out = self._blocks.get((degree, modulus))
        if out is None:
            out = self._blocks[degree, modulus] = {w: [] for w in range(modulus)}
            for k in range(min(4, degree) + 1):
                # (key, twist weight) of each high part, added to each low part's
                highs = [
                    (sum(1 << (4 * i) for i in high), sum(high))
                    for high in itertools.combinations_with_replacement(self.high, degree - k)
                ]
                for low in itertools.combinations(range(4), k):
                    low_key, low_weight = sum(1 << (4 * i) for i in low), sum(low)
                    for key, weight in highs:
                        out[(low_weight + weight) % modulus].append(low_key + key)
        return out

    def packed_normal_forms(self, cols: dict, reduce):
        """The memoized map from a monomial of one block to its normal form
        as a packed row over the block's standard monomials `cols` (monomial
        -> column), every field reduced below 2p by `reduce`.  Each rule
        x_i² → tail keeps degree and twist weight, so every monomial met on
        the way is a column or rewrites into columns."""
        rules = self.rules
        packed = {s: 1 << (PACKED_WIDTH * j) for s, j in cols.items()}

        def normal_form(key):
            v = packed.get(key)
            if v is None:
                i = next(i for i in range(4) if (key >> (4 * i)) & 15 >= 2)
                base = key - (2 << (4 * i))
                v = packed[key] = reduce(sum(c * normal_form(base + t) for t, c in rules[i]))
            return v

        return normal_form

    def block_rank(self, gens, degree: int, modulus: int, block: int, order=None, corank=0, slack=None):
        """Rank mod p of the products generator × standard monomial in one
        block of degree `degree` of the quotient: the standard monomials of
        twist weight ≡ block mod `modulus`.  Returns (rank, columns, rows
        reduced).

        The rows are reduced in the order `order` shuffles them into (as
        listed when it is None) until the rank reaches columns − corank,
        when the rows run out, or once columns − corank + slack rows are
        reduced, whichever comes first.  Every generator must be homogeneous
        for the weight mod `modulus`.
        """
        p = self.p
        cols = {s: j for j, s in enumerate(self.weight_blocks(degree, modulus)[block])}
        rows = []
        for g in gens:
            if g:
                lead = next(iter(g))
                shifts = self.weight_blocks(degree - sum(_exponents(lead)), modulus)
                rows += [(g, s) for s in shifts[(block - _twist_weight(lead)) % modulus]]
        if order is not None:
            order.shuffle(rows)
        target = len(cols) - corank
        budget = len(rows) if slack is None else target + slack
        # a row sums len(g) fields below p·2p, a rewriting len(tail) of them
        if max(map(len, (*gens, *self.rules.values())), default=0) * 2 * p * p >= 1 << (PACKED_WIDTH - 1):
            raise BadSize("a generator or a rule has enough terms to overflow a packed field")
        ranker = PackedRankMod(len(cols), p)
        normal_form = self.packed_normal_forms(cols, ranker.reduce)
        used = 0
        for g, s in rows[:budget]:
            if ranker.rank >= target:
                break
            used += 1
            ranker.add(sum(c * normal_form(t + s) for t, c in g.items()))
        return ranker.rank, len(cols), used


def singular_ideal_mod_p(y: MinusPlanePoint, p: int):
    """The quadrics at y mod p and the maximal minors of their Jacobian:
    generators of the ideal of the singular scheme of V."""
    quadrics = [_packed_mod_p(q, p) for q in build_system(y).quadrics]
    jacobian = [[_partial(q, j, p) for j in range(8)] for q in quadrics]
    return quadrics, maximal_minors(jacobian, p)


def finiteness_form_coefficient(rng: random.Random, p: int) -> int:
    """c in the linear form ℓ = x4 + c·x6, drawn from the prime's stream."""
    return rng.randrange(1, p)


def _eliminate_x4(poly: dict, c: int, p: int) -> dict:
    """poly with x4 ↦ −c·x6: its image in S/(x4 + c·x6)."""
    out = {}
    for k, v in poly.items():
        e = (k >> 16) & 15
        if e:
            k += e * ((1 << 24) - (1 << 16))
            v = v * pow(-c, e, p)
        out[k] = out.get(k, 0) + v
    return {k: v % p for k, v in out.items() if v % p}


def singular_scheme_mod_p(y: MinusPlanePoint, p: int, points: int) -> dict:
    """At one prime, that the singular scheme of V at y is finite and has
    length at most `points` (a multiple of 8); raises UnluckyPrime when the
    prime does not show both, and DenominatorVanishes when a coefficient has
    no residue mod p.

    I = (quadrics, maximal minors of the Jacobian) cuts out the singular
    scheme, and R = S/(quadrics) has the standard monomials as a basis
    (QuadricQuotient), over QQ and mod p alike, as the leading terms are
    the same when p leaves their coefficient y1·y3 alone.

    (b) Degree 7.  The products minor × standard cubic in the weight-0 block
        of R_7 are reduced mod p, in an order drawn from random.Random(p),
        until the rank reaches columns − points/8; a prime still short of it
        HILBERT_ROW_SLACK rows later is unlucky.  A rank mod p bounds the
        rank over QQ from below, so dim (S/I)_7 has at most points/8 in
        weight 0 over QQ.  Shift permutes the variables and maps the span of
        the quadrics onto itself (quadric_span_images), so it maps I onto
        itself and block w onto block w − 7; 7 is prime to 8, so every block
        has the same dimension and HF(S/I, 7) ≤ points.
    (a) Finiteness.  With ℓ = x4 + c·x6, the products minor × standard
        linear form fill both parity blocks of (R/ℓR)_5 mod p, hence over
        QQ: (I + ℓ)_5 = S_5, so V(I) misses the hyperplane ℓ = 0 and is
        finite.  Multiplication by ℓ then maps (S/I)_{d−1} onto (S/I)_d for
        d ≥ 5, so HF(S/I, d) does not increase from degree 4 on and
        HF(S/I, 7) is at least the length of the scheme.
    So the singular scheme has length at most `points`.  No row count is
    capped in (a): dependent rows are common there.  Its rows are reduced
    in an order drawn from the same stream after c; any order that reaches
    the rank is a proof.  At the default base point (b) needs 111 rows and
    (a) 84 and 84, where the listed order of (a) needs 159 and 96.

    The minors must also vanish at the base point mod p, as the reductions
    of minors that vanish there over QQ (the orbit evidence): this ties the
    count to the ideal whose zeros the orbit points are.
    """
    rng = random.Random(p)
    quadrics, minors = singular_ideal_mod_p(y, p)
    base = [residue(c, p) for c in y.embed().coords]
    if any(_values_mod_p(minors, base, p)):
        raise UnluckyPrime(f"a minor does not vanish at the base point mod {p}")
    rank, ncols, rows = QuadricQuotient(quadrics, p).block_rank(
        minors, HILBERT_DEGREE, 8, 0, order=rng, corank=points // 8, slack=HILBERT_ROW_SLACK
    )
    if rank < ncols - points // 8:
        raise UnluckyPrime(
            f"degree-{HILBERT_DEGREE} weight-0 rank {rank}/{ncols} after {rows} rows mod {p}, "
            f"{ncols - points // 8} needed"
        )
    c = finiteness_form_coefficient(rng, p)
    cut = QuadricQuotient([_eliminate_x4(q, c, p) for q in quadrics], p, high=(5, 6, 7))
    cut_minors = [_eliminate_x4(m, c, p) for m in minors]
    spans = [cut.block_rank(cut_minors, FINITENESS_DEGREE, 2, parity, order=rng) for parity in (0, 1)]
    if any(r < n for r, n, _ in spans):
        ranks = ", ".join(f"{r}/{n}" for r, n, _ in spans)
        raise UnluckyPrime(f"x4+{c}*x6 leaves degree-{FINITENESS_DEGREE} ranks {ranks} mod {p}")
    return {
        "hilbert_prime": str(p),
        "hilbert_linear_form": f"x4+{c}*x6",
        "hilbert_deg5_mod_form_rank": ",".join(f"{r}/{n}" for r, n, _ in spans),
        "hilbert_deg7_block0_rank": f"{rank}/{ncols}",
        "hilbert_deg7_block0_rows": str(rows),
        "hilbert_deg7_bound": str(8 * (ncols - rank)),
    }


def singular_scheme_certificate(y: MinusPlanePoint, points: int):
    """singular_scheme_mod_p at the first HILBERT_PRIMES prime that is not
    unlucky.  Returns (payload, prime), prime None when every one was."""
    payload = {}
    for p in HILBERT_PRIMES:
        try:
            payload.update(singular_scheme_mod_p(y, p, points))
            return payload, p
        except (UnluckyPrime, DenominatorVanishes) as exc:
            payload[f"hilbert_unlucky_{p}"] = str(exc)
    return payload, None

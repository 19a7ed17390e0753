"""Graded ideal membership over QQ by linear algebra on monomial multipliers:
the degree-d system of a homogeneous target and its generators, solved
exactly over QQ (one solve modulo a Mersenne prime, then rational
reconstruction) or reduced mod p, and the certificates that replay it.

moore.py imports it for psi-quartic-membership and quartic-smooth-genus3.
No base-point module imports it, so a base-point run neither loads it nor,
when no bytecode is cached, compiles it.
"""
from __future__ import annotations

import math
import operator
from collections import defaultdict
from fractions import Fraction
from typing import NamedTuple

from .errors import DenominatorVanishes, InhomogeneousInput, NotInDegree
from .exactmath import QQ, residue
from .multipoly import SparsePoly, grevlex_key


class MembershipCertificate(NamedTuple):
    """target = Σ coefficient · multiplier · generator, replayable exactly.

    entries are (generator index, multiplier exponent tuple, coefficient) in
    canonical order: generator index first, then descending grevlex multiplier.
    prime is None for a certificate over QQ, else the p of GF(p).
    """

    prime: int | None
    entries: tuple

    def support(self) -> int:
        return len(self.entries)

    def triples_text(self, names) -> list:
        out = []
        for gi, exps, coeff in self.entries:
            mono = "*".join(
                nm if e == 1 else f"{nm}^{e}" for nm, e in zip(names, exps) if e
            ) or "1"
            out.append(f"({gi}, {mono}, {coeff})")
        return out


def replay_certificate(cert: MembershipCertificate, generators) -> SparsePoly:
    """Multiply out a certificate against its generators, summed into one dict of terms."""
    ring = generators[0].ring
    acc = {}
    for gi, exps, coeff in cert.entries:
        coeff = ring.field.coerce(coeff)
        for e, c in generators[gi].terms.items():
            e = tuple(x + y for x, y in zip(e, exps))
            v = acc.get(e)
            acc[e] = c * coeff if v is None else v + c * coeff
    return SparsePoly(ring, {e: c for e, c in acc.items() if c})


MERSENNE_EXPONENTS = (521, 607, 1279, 2203, 2281)  # 2^k − 1 is prime


def _rational_reconstruction(a: int, m: int) -> Fraction:
    """The n/d ≡ a (mod m) with |n|, |d| ≤ √(m/2), by Wang's half-extended Euclid."""
    bound = math.isqrt(m // 2)
    r0, r1, t0, t1 = m, a % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        raise ArithmeticError(f"{a} mod {m} has no fraction within the bound")
    return Fraction(r1, t1)


def solve_over_qq(rows, ncols: int):
    """sparse_solve_mod_p over QQ: {column: Fraction} on the pivot columns of
    an integer system [A | b] (free variables zero), or None if inconsistent.

    One solve mod a Mersenne prime P > 2·H², H the product of the column
    norms of [A | b] (Hadamard), then rational reconstruction.  No minor of
    [A | b] exceeds H, so none vanishes mod P unless it is 0: the pivot
    columns and the consistency agree with QQ, and by Cramer's rule the
    solution's numerators and denominators are minors, which makes its
    reconstruction unique.  Raises ArithmeticError past MERSENNE_EXPONENTS.
    """
    norms = defaultdict(int)
    for row in rows:
        for c, v in row.items():
            norms[c] += v * v
    bound = 2 * math.prod(norms.values())  # 2·H²
    p = next((2**k - 1 for k in MERSENNE_EXPONENTS if 2**k - 1 > bound), None)
    if p is None:
        raise ArithmeticError(f"Hadamard bound 2·H² = 2^{bound.bit_length()} needs a larger prime")
    x, _ = sparse_solve_mod_p(rows, ncols, p)
    return None if x is None else {c: _rational_reconstruction(v, p) for c, v in x.items()}


def sparse_solve_mod_p(rows, ncols: int, p: int):
    """Solve A·x ≡ b (mod p) for a sparse augmented system [A | b].

    rows are dicts {column: integer}, with the columns of A numbered
    0..ncols-1 and b at key ncols.  Columns are eliminated left to right,
    so the pivot columns are exactly the columns independent of the ones
    before them, whichever rows carry them; each is eliminated on the
    remaining row with the fewest nonzeros that is nonzero there (the
    lowest-numbered on a tie), which keeps the fill-in small.

    Returns (x, pivots): x maps each column to its value, nonzero ones only,
    in the solution with every free variable zero (the one solution
    supported on the pivot columns), or is None when the system is
    inconsistent; pivots are the pivot columns in increasing order.
    """
    active = {}
    by_col = defaultdict(set)  # column -> the remaining rows nonzero there
    for i, row in enumerate(rows):
        reduced = {c: v % p for c, v in row.items() if v % p}
        active[i] = reduced
        for c in reduced:
            by_col[c].add(i)
    pivots = []  # (column, its row scaled to 1 there)
    for col in range(ncols):
        hits = by_col.get(col)
        if not hits:
            continue
        i = min(hits, key=lambda k: (len(active[k]), k))
        prow = active.pop(i)
        for c in prow:
            by_col[c].discard(i)
        inv = pow(prow[col], -1, p)
        prow = {c: v * inv % p for c, v in prow.items()}
        for k in list(hits):
            row = active[k]
            f = row[col]
            for c, v in prow.items():
                nv = (row.get(c, 0) - f * v) % p
                if nv:
                    if c not in row:
                        by_col[c].add(k)
                    row[c] = nv
                else:  # f·v ≢ 0, so row had a term at c
                    del row[c]
                    by_col[c].discard(k)
        pivots.append((col, prow))
    cols = tuple(col for col, _ in pivots)
    if by_col.get(ncols):
        return None, cols
    x = {}
    for col, prow in reversed(pivots):
        acc = prow.get(ncols, 0)
        for c, v in prow.items():
            if c in x:  # a later pivot column; free columns are zero
                acc -= v * x[c]
        acc %= p
        if acc:
            x[col] = acc
    return x, cols


def _monomial_count(nvars: int, degree: int) -> int:
    """How many monomials of the given degree there are in nvars variables."""
    if nvars == 0:
        return int(degree == 0)
    return math.comb(nvars + degree - 1, degree)


class _Block(NamedTuple):
    """One connected component of a membership system that meets the target,
    in local coordinates: its rows (descending grevlex), its columns
    ((generator index, multiplier), canonical order), and its integer system
    [A | b] as sparse rows {local column: value}, with b at key len(cols)."""

    rows: tuple
    cols: tuple
    system: list


class MembershipProblem:
    """The degree-d linear system asking whether a homogeneous target lies in
    the span of (monomial multiplier)·(generator) products.

    Rows are the degree-d monomials (descending grevlex), columns the products
    in canonical order; `shape` counts them all.  Only the connected
    components of the row–column sparsity graph that contain a target
    monomial are ever built, searched outward from the target: a row m
    reaches the product (gi, m − e) for every term e of generator gi dividing
    m, and a product reaches the rows of its terms.  Coefficients, over QQ,
    are cleared to integers per generator and shared by every solve.

    solve_rational() decides membership in the degree exactly over QQ, and
    solve_mod(p) solves the same integer system reduced mod p (int residues).
    Neither replays its certificate: replays(cert) decides whether one
    reproduces the target, and graded_membership replays for its callers.
    """

    def __init__(self, generators, target: SparsePoly):
        ring = target.ring
        if ring.field is not QQ or any(g.ring != ring for g in generators):
            raise InhomogeneousInput("generators and target must share one ring over QQ")
        if not target.is_homogeneous() or any(not g.is_homogeneous() for g in generators):
            raise InhomogeneousInput("generators and target must be homogeneous")
        self.ring = ring
        self.generators = list(generators)
        self.target = target
        self.degree = target.homogeneous_degree() if target else 0

        nonzero_degrees = {g.homogeneous_degree() for g in generators if g}
        if not nonzero_degrees and target:
            raise NotInDegree("all generators are zero")
        # an identically-zero generator still occupies its degree slot (it is a
        # zero element of the graded piece the other generators live in); this
        # needs a common degree to be well-defined
        if any(not g for g in generators) and len(nonzero_degrees) != 1:
            raise InhomogeneousInput("zero generator with no common generator degree")
        self._gen_degrees = [
            g.homogeneous_degree() if g else next(iter(nonzero_degrees)) for g in generators
        ]
        self._gen_scale = []
        self._gen_int_terms = []
        for g in generators:
            s = math.lcm(*(c.denominator for c in g.terms.values()))
            self._gen_scale.append(s)
            self._gen_int_terms.append([(e, (c * s).numerator) for e, c in g.terms.items()])
        self._target_scale = ts = math.lcm(*(c.denominator for c in target.terms.values()))
        self._target_int = {e: (c * ts).numerator for e, c in target.terms.items()}

        d, n = self.degree, ring.nvars
        self.shape = (
            _monomial_count(n, d) if target else 0,
            sum(_monomial_count(n, d - gd) for gd in self._gen_degrees if gd <= d),
        )
        # A zero generator gives zero columns, and one that is ±1 times an
        # earlier generator gives ± copies of earlier columns; neither kind is
        # ever a pivot (solve_mod), so the blocks leave both out.
        self._block_generators = []
        seen = set()
        for gi, g in enumerate(generators):
            key = frozenset(g.terms.items())
            if g and self._gen_degrees[gi] <= d and key not in seen:
                self._block_generators.append(gi)
                seen.update((key, frozenset((-g).terms.items())))
        self._blocks = None

    def _target_blocks(self):
        """The connected components of the row–column sparsity graph of the
        integer system that contain a target row, built once per problem by a
        breadth-first search from the target's monomials.

        A target row that no product reaches is a block with no columns.

        Which terms divide a row is decided for all terms at once, on one
        packed integer.  Each exponent gets a field of `width` bits whose top
        (guard) bit is clear, since no exponent exceeds the degree, and each
        term a slot of such fields plus one flag bit on top.  Subtracting
        the packed terms from copies of the row with every guard bit set
        borrows from the guard of exactly the fields where a term's exponent
        is larger, and never across fields or slots; adding slot-size − 1 to
        the borrowed guard bits then sets the flag of exactly the slots of
        the terms that do not divide the row.
        """
        if self._blocks is not None:
            return self._blocks
        width = self.degree.bit_length() + 1
        shifts = range(0, width * self.ring.nvars, width)
        slot = width * self.ring.nvars + 1

        def pack(e):
            return sum(v << s for v, s in zip(e, shifts))

        terms = [(gi, e) for gi in self._block_generators for e, _ in self._gen_int_terms[gi]]
        ones = sum(1 << (slot * t) for t in range(len(terms)))  # 1 in every slot
        packed_terms = sum(pack(e) << (slot * t) for t, (_, e) in enumerate(terms))
        guards = pack((1 << (width - 1),) * self.ring.nvars) * ones
        flags = (1 << (slot - 1)) * ones
        seen_rows, seen_cols = set(), set()
        self._blocks = []
        for start in sorted(self._target_int, key=grevlex_key):
            if start in seen_rows:
                continue
            seen_rows.add(start)
            rows, cols, frontier = [start], [], [start]
            while frontier:
                reached = []
                for m in frontier:
                    # the terms e dividing m, each giving the column (gi, m − e)
                    borrowed = ((pack(m) * ones | guards) - packed_terms) & guards ^ guards
                    divides = ~(borrowed + flags - ones) & flags
                    while divides:
                        flag = divides & -divides
                        divides ^= flag
                        gi, e = terms[flag.bit_length() // slot - 1]
                        col = (gi, tuple(map(operator.sub, m, e)))
                        if col not in seen_cols:
                            seen_cols.add(col)
                            reached.append(col)
                frontier = []
                for gi, mult in reached:
                    for e, _ in self._gen_int_terms[gi]:
                        r = tuple(map(operator.add, mult, e))
                        if r not in seen_rows:
                            seen_rows.add(r)
                            frontier.append(r)
                rows += frontier
                cols += reached
            self._blocks.append(self._local_block(rows, cols))
        return self._blocks

    def _local_block(self, rows, cols):
        """A component's rows and columns in the global order, with its
        integer system [A | b] in local coordinates."""
        rows = tuple(sorted(rows, key=grevlex_key))
        cols = tuple(sorted(cols, key=lambda col: (col[0], grevlex_key(col[1]))))
        row_pos = {r: i for i, r in enumerate(rows)}
        system = [{} for _ in rows]
        for j, (gi, mult) in enumerate(cols):
            for e, c in self._gen_int_terms[gi]:
                system[row_pos[tuple(map(operator.add, mult, e))]][j] = c
        for i, r in enumerate(rows):
            if r in self._target_int:
                system[i][len(cols)] = self._target_int[r]
        return _Block(rows=rows, cols=cols, system=system)

    def solve_mod(self, p: int) -> MembershipCertificate:
        """Exact decision of membership in the degree-d slice, reduced mod p.

        Only the connected components of the row–column sparsity graph that
        contain a target row are built and solved, each as its own small
        sparse block (sparse_solve_mod_p); every other column is set to
        zero.  Inside a block the rows keep descending grevlex and the
        columns the canonical (generator index, grevlex multiplier) order of
        the whole system.  This gives the same certificate as eliminating the
        whole system with left-to-right pivoting:

        * a column is a pivot exactly when it is independent of the columns
          before it; components have disjoint rows, so that is decided inside
          the column's own component, in the same column order, and the pivot
          columns are the same;
        * the columns of a zero generator are zero, and those of a generator
          equal to ±1 times an earlier one repeat earlier columns up to sign,
          so neither is ever a pivot and leaving them out changes nothing;
        * back-substitution with the free variables set to zero then returns
          the same unique solution on the pivot columns of each component;
        * a component that misses the target has a zero right-hand side, so
          its solution is zero, and the system is consistent exactly when
          every target component is;
        * a coefficient ≡ 0 mod p only removes edges, so the components of
          the integer pattern stay a valid decomposition at every prime.
        """
        if self._target_scale % p == 0 or any(s % p == 0 for s in self._gen_scale):
            raise DenominatorVanishes(f"a denominator vanishes mod {p}")
        if not self.target:
            return self._finish([], p)
        sts = pow(self._target_scale, -1, p)
        entries = []
        for block in self._target_blocks():
            xb, _ = sparse_solve_mod_p(block.system, len(block.cols), p)
            if xb is None:
                raise NotInDegree(f"no representation of the target in degree {self.degree} over GF({p})")
            for j, v in xb.items():
                gi, mult = block.cols[j]
                coeff = v * self._gen_scale[gi] * sts % p
                if coeff:
                    entries.append((gi, mult, coeff))
        return self._finish(entries, p)

    def solve_rational(self) -> MembershipCertificate:
        """Exact decision of membership in the degree-d slice over QQ.

        Each target block is solved whole by solve_over_qq, whose pivot
        columns and consistency are those over QQ.  The certificate is the
        solution with every free variable zero on the QQ pivot columns, the
        definition solve_mod uses mod p, and the argument there that the
        blocks give the whole system's solution holds over QQ word for word.
        An inconsistent block raises NotInDegree: the target is not in the
        degree-d slice of the ideal over QQ.
        """
        if not self.target:
            return self._finish([], None)
        entries = []
        for block in self._target_blocks():
            x = solve_over_qq(block.system, len(block.cols))
            if x is None:
                raise NotInDegree(f"no representation over QQ of the target in degree {self.degree}")
            for j, val in x.items():
                gi, mult = block.cols[j]
                entries.append((gi, mult, val * self._gen_scale[gi] / self._target_scale))
        return self._finish(entries, None)

    @staticmethod
    def _finish(entries, prime):
        entries.sort(key=lambda t: (t[0], grevlex_key(t[1])))
        return MembershipCertificate(prime, tuple(entries))

    def replays(self, cert: MembershipCertificate) -> bool:
        """Whether replaying the certificate reproduces the target exactly:
        over QQ by replay_certificate, mod p on the int residues of the
        generators' and the target's coefficients."""
        if cert.prime is None:
            return replay_certificate(cert, self.generators) == self.target
        p = cert.prime
        gens = [[(e, residue(c, p)) for e, c in g.terms.items()] for g in self.generators]
        acc = defaultdict(int)
        for gi, exps, coeff in cert.entries:
            for e, c in gens[gi]:
                acc[tuple(map(operator.add, e, exps))] += c * coeff
        target = {e: r for e, c in self.target.terms.items() if (r := residue(c, p))}
        return {e: v % p for e, v in acc.items() if v % p} == target


def graded_membership(generators, target: SparsePoly) -> MembershipCertificate:
    """Decide degree-d membership over QQ of a homogeneous target in the ideal
    slice spanned by the generators, returning a replay-verified certificate.
    NotInDegree means the target is not in the degree-d slice of the ideal.
    """
    problem = MembershipProblem(generators, target)
    cert = problem.solve_rational()
    if not problem.replays(cert):
        raise AssertionError("certificate replay failed to reproduce the target")
    return cert

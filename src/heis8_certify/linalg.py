"""Exact linear algebra over the coefficient fields, integer-lattice tools,
and graded ideal membership by linear algebra on monomial multipliers.
"""
from __future__ import annotations

import hashlib
import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadSize,
    DenominatorVanishes,
    DimensionMismatch,
    InhomogeneousInput,
    NotInDegree,
    NotUnipotent,
)
from .exactmath import GF, QQ, ModInt
from .multipoly import PolyRing, SparsePoly, grevlex_key


class Matrix:
    """Dense exact matrix over one of the coefficient fields."""

    __slots__ = ("field", "rows")

    def __init__(self, field, rows):
        coerce = field.coerce
        self.field = field
        self.rows = tuple(tuple(coerce(v) for v in row) for row in rows)
        if len({len(r) for r in self.rows}) > 1:
            raise BadSize("ragged rows")

    @classmethod
    def identity(cls, field, n: int):
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.field == other.field and self.rows == other.rows

    __hash__ = None

    def __add__(self, other):
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} + {other.shape}")
        return Matrix(self.field, [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if self.shape != other.shape:
            raise DimensionMismatch(f"{self.shape} - {other.shape}")
        return Matrix(self.field, [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __mul__(self, other):
        m, k = self.shape
        k2, n = other.shape
        if k != k2:
            raise DimensionMismatch(f"{self.shape} * {other.shape}")
        cols = list(zip(*other.rows)) if other.rows else []
        zero = self.field.zero
        out = []
        for row in self.rows:
            out.append([sum((a * b for a, b in zip(row, col)), zero) for col in cols])
        return Matrix(self.field, out)

    def transpose(self):
        return Matrix(self.field, list(zip(*self.rows)) if self.rows else [])

    def scale(self, c):
        c = self.field.coerce(c)
        return Matrix(self.field, [[v * c for v in row] for row in self.rows])

    def is_zero(self) -> bool:
        return not any(any(v for v in row) for row in self.rows)

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot columns, rank)."""
        m, n = self.shape
        rows = [list(r) for r in self.rows]
        pivots = []
        piv = 0
        for col in range(n):
            sel = next((r for r in range(piv, m) if rows[r][col]), None)
            if sel is None:
                continue
            rows[piv], rows[sel] = rows[sel], rows[piv]
            inv = self.field.one / rows[piv][col]  # one inversion per pivot
            rows[piv] = [v * inv for v in rows[piv]]
            for r in range(m):
                if r != piv and rows[r][col]:
                    f = rows[r][col]
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[piv])]
            pivots.append(col)
            piv += 1
            if piv == m:
                break
        return Matrix(self.field, rows), tuple(pivots), piv

    def rank(self) -> int:
        return self.rref()[2]

    def kernel_basis(self):
        """Basis vectors (as lists) of the right kernel."""
        red, pivots, rank = self.rref()
        m, n = self.shape
        free = [j for j in range(n) if j not in pivots]
        zero, one = self.field.zero, self.field.one
        basis = []
        for j in free:
            vec = [zero] * n
            vec[j] = one
            for i, pc in enumerate(pivots):
                vec[pc] = -red.rows[i][j]
            basis.append(vec)
        return basis

    def solve(self, b):
        """One exact solution of self·x = b, or None if the system is inconsistent."""
        m, n = self.shape
        if len(b) != m:
            raise DimensionMismatch(f"rhs of length {len(b)} for {self.shape}")
        coerce = self.field.coerce
        aug = Matrix(self.field, [list(row) + [coerce(v)] for row, v in zip(self.rows, b)])
        red, pivots, rank = aug.rref()
        if n in pivots:
            return None
        zero = self.field.zero
        x = [zero] * n
        for i, pc in enumerate(pivots):
            x[pc] = red.rows[i][n]
        return x

    def det(self):
        m, n = self.shape
        if m != n:
            raise BadSize("determinant of a non-square matrix")
        rows = [list(r) for r in self.rows]
        acc = self.field.one
        sign = 1
        for col in range(n):
            sel = next((r for r in range(col, n) if rows[r][col]), None)
            if sel is None:
                return self.field.zero
            if sel != col:
                rows[col], rows[sel] = rows[sel], rows[col]
                sign = -sign
            pivot = rows[col][col]
            acc = acc * pivot
            for r in range(col + 1, n):
                if rows[r][col]:
                    f = rows[r][col] / pivot
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
        return acc if sign == 1 else -acc

    def apply(self, vec):
        if len(vec) != self.shape[1]:
            raise DimensionMismatch("vector length mismatch")
        coerce = self.field.coerce
        v = [coerce(x) for x in vec]
        zero = self.field.zero
        return [sum((a * b for a, b in zip(row, v)), zero) for row in self.rows]

    def __repr__(self):
        return "\n".join("[" + ", ".join(repr(v) for v in row) + "]" for row in self.rows)


# ---------------------------------------------------------------------------
# integer lattices


@dataclass(frozen=True)
class SmithNormalForm:
    diagonal: tuple          # full diagonal of D, zeros included
    factors: tuple           # nonzero invariant factors d1 | d2 | ...
    left: tuple              # U with U·A·V = D
    right: tuple             # V


def smith_normal_form(mat) -> SmithNormalForm:
    """Smith normal form of an integer matrix by unimodular row/column moves."""
    a = [[int(v) for v in row] for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # row_i -= q*row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q*col_j
        for row in a:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    s = 0
    while s < min(m, n):
        # locate a nonzero entry of smallest magnitude in the trailing block
        best = None
        for i in range(s, m):
            for j in range(s, n):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(s, best[0])
        swap_cols(s, best[1])
        dirty = False
        for i in range(s + 1, m):
            if a[i][s]:
                row_op(i, s, a[i][s] // a[s][s])
                if a[i][s]:
                    dirty = True
        for j in range(s + 1, n):
            if a[s][j]:
                col_op(j, s, a[s][j] // a[s][s])
                if a[s][j]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of the remaining block by the pivot
        fix = next(
            ((i, j) for i in range(s + 1, m) for j in range(s + 1, n) if a[i][j] % a[s][s]),
            None,
        )
        if fix is not None:
            row_op(s, fix[0], -1)  # adds row fix[0] into row s
            continue
        if a[s][s] < 0:
            a[s] = [-x for x in a[s]]
            u[s] = [-x for x in u[s]]
        s += 1

    diag = tuple(a[i][i] for i in range(min(m, n)))
    factors = tuple(d for d in diag if d)
    return SmithNormalForm(diag, factors, tuple(map(tuple, u)), tuple(map(tuple, v)))


def unipotent_log(mat) -> Matrix:
    """log of a unipotent matrix: (M−I) − ½(M−I)², requiring (M−I)³ = 0."""
    m = mat if isinstance(mat, Matrix) else Matrix(QQ, mat)
    if m.field != QQ:
        m = Matrix(QQ, [[Fraction(int(v.value)) if isinstance(v, ModInt) else v for v in row] for row in m.rows])
    rows, cols = m.shape
    if rows != cols:
        raise NotUnipotent("not square")
    n = m - Matrix.identity(QQ, rows)
    n2 = n * n
    if not (n2 * n).is_zero():
        raise NotUnipotent("(M - I)^3 != 0")
    return n - n2.scale(Fraction(1, 2))


def exterior_power(m: Matrix, k: int) -> Matrix:
    """Matrix of ∧ᵏm on the lexicographic basis of k-element index subsets."""
    import itertools

    rows, cols = m.shape
    if k < 0 or k > min(rows, cols):
        raise BadSize(f"exterior power {k} of a {rows}x{cols} matrix")
    rsets = list(itertools.combinations(range(rows), k))
    csets = list(itertools.combinations(range(cols), k))
    out = []
    for rs in rsets:
        row = []
        for cs in csets:
            row.append(Matrix(m.field, [[m.rows[i][j] for j in cs] for i in rs]).det())
        out.append(row)
    return Matrix(m.field, out)


# ---------------------------------------------------------------------------
# the F2 wedge lemma


_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_TRIPLES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
_PAIR_INDEX = {p: k for k, p in enumerate(_PAIRS)}


def _wedge_vv(v: int, w: int) -> int:
    """Wedge of two F2^4 vectors (bitmasks) as a 6-bit 2-form."""
    out = 0
    for idx, (i, j) in enumerate(_PAIRS):
        if ((v >> i) & 1) & ((w >> j) & 1) ^ ((v >> j) & 1) & ((w >> i) & 1):
            out |= 1 << idx
    return out


def _wedge_vf(v: int, f: int) -> int:
    """Wedge of a vector with a 2-form, landing in the 4-dimensional space of 3-forms."""
    out = 0
    for idx, (i, j, k) in enumerate(_TRIPLES):
        c = (
            ((v >> i) & 1) & ((f >> _PAIR_INDEX[(j, k)]) & 1)
            ^ ((v >> j) & 1) & ((f >> _PAIR_INDEX[(i, k)]) & 1)
            ^ ((v >> k) & 1) & ((f >> _PAIR_INDEX[(i, j)]) & 1)
        )
        if c:
            out |= 1 << idx
    return out


@dataclass(frozen=True)
class WedgeLemmaSweep:
    passed: bool
    cases: int
    counterexample: tuple | None


def wedge_lemma_exhaustive() -> WedgeLemmaSweep:
    """For every pair of independent e1, e2 in F2^4 and every 2-form f outside
    span(e1∧e2), check that e1∧f or e2∧f is a nonzero 3-form.  Exhaustive.
    """
    cases = 0
    for e1 in range(1, 16):
        for e2 in range(1, 16):
            if e2 == e1:
                continue  # over F2, dependence of two nonzero vectors means equality
            w12 = _wedge_vv(e1, e2)
            for f in range(64):
                if f == 0 or f == w12:
                    continue
                cases += 1
                if _wedge_vf(e1, f) == 0 and _wedge_vf(e2, f) == 0:
                    return WedgeLemmaSweep(False, cases, (e1, e2, f))
    return WedgeLemmaSweep(True, cases, None)


# ---------------------------------------------------------------------------
# graded ideal membership


def monomials_of_degree(nvars: int, degree: int):
    """All exponent tuples of the given total degree, descending grevlex."""
    out = []

    def rec(prefix, rem, k):
        if k == 1:
            out.append(tuple(prefix) + (rem,))
            return
        for d in range(rem, -1, -1):
            prefix.append(d)
            rec(prefix, rem - d, k - 1)
            prefix.pop()

    if nvars == 0:
        return [()] if degree == 0 else []
    rec([], degree, nvars)
    out.sort(key=grevlex_key)
    return out


@dataclass(frozen=True)
class MembershipCertificate:
    """target = Σ coefficient · multiplier · generator, replayable exactly.

    entries are (generator index, multiplier exponent tuple, coefficient) in
    canonical order: generator index first, then descending grevlex multiplier.
    """

    field_name: str
    prime: int | None
    degree: int
    entries: tuple
    target_hash: str
    generators_hash: str

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
    """Multiply out a certificate against the generators it was issued for."""
    ring = generators[0].ring
    acc = ring.zero()
    for gi, exps, coeff in cert.entries:
        acc = acc + generators[gi] * ring.monomial(exps, coeff)
    return acc


def _canonical_hash(polys) -> str:
    h = hashlib.sha256()
    for p in polys:
        h.update(p.text().encode())
        h.update(b"\n")
    return h.hexdigest()


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
                if rem:
                    raise ArithmeticError("non-exact division in fraction-free elimination")
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


# the prime ladder, also for replacing unlucky primes; denominators occurring
# in practice are powers of 2, so any odd prime here is usable
REFERENCE_PRIMES = (17, 41, 73, 89, 97, 113, 137, 193, 233, 241)


def _monomial_count(nvars: int, degree: int) -> int:
    """How many monomials of the given degree there are in nvars variables."""
    if nvars == 0:
        return int(degree == 0)
    return math.comb(nvars + degree - 1, degree)


@dataclass(frozen=True)
class _Block:
    """One connected component of a membership system that meets the target,
    in local coordinates: its rows (descending grevlex) and columns
    ((generator index, multiplier), canonical order), its nonzeros as
    integers, and its target coefficients."""

    rows: tuple
    cols: tuple
    local_rows: list
    local_cols: list
    vals: list
    target: list  # (local row, integer coefficient)


class MembershipProblem:
    """The degree-d linear system asking whether a homogeneous target lies in
    the span of (monomial multiplier)·(generator) products.

    Rows are the degree-d monomials (descending grevlex), columns the products
    in canonical order; `shape` counts them all.  Only the connected
    components of the row–column sparsity graph that contain a target
    monomial are ever built, searched outward from the target: a row m
    reaches the product (gi, m − e) for every term e of generator gi dividing
    m, and a product reaches the rows of its terms.  Coefficients are cleared
    to integers per generator and shared by every modular solve.

    The solves return certificates without replaying them; replays(cert)
    decides whether one reproduces the target, and graded_membership replays
    for its callers.
    """

    def __init__(self, generators, target: SparsePoly):
        ring = target.ring
        if any(g.ring != ring for g in generators):
            raise InhomogeneousInput("generators and target from different rings")
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
            dens = [self._den(c) for c in g.terms.values()]
            s = math.lcm(*dens) if dens else 1
            self._gen_scale.append(s)
            self._gen_int_terms.append([(e, self._as_int(c, s)) for e, c in g.terms.items()])
        tdens = [self._den(c) for c in target.terms.values()]
        self._target_scale = math.lcm(*tdens) if tdens else 1
        self._target_int = {e: self._as_int(c, self._target_scale) for e, c in target.terms.items()}

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
        self._mod_certs = {}  # prime -> the certificate solve_mod built there
        self._mod_failures = {}  # prime -> the NotInDegree solve_mod raised there
        self.target_hash = _canonical_hash([target])
        self.generators_hash = _canonical_hash(generators)

    @staticmethod
    def _den(c):
        if isinstance(c, Fraction):
            return c.denominator
        if isinstance(c, ModInt):
            return 1
        raise InhomogeneousInput("membership is supported over QQ and GF(p) coefficients")

    @staticmethod
    def _as_int(c, scale):
        if isinstance(c, Fraction):
            v = c * scale
            return v.numerator
        return int(c.value) * scale

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
        nonzeros and target coefficients in local coordinates."""
        rows = tuple(sorted(rows, key=grevlex_key))
        cols = tuple(sorted(cols, key=lambda col: (col[0], grevlex_key(col[1]))))
        row_pos = {r: i for i, r in enumerate(rows)}
        local_rows, local_cols, vals = [], [], []
        for j, (gi, mult) in enumerate(cols):
            for e, c in self._gen_int_terms[gi]:
                local_rows.append(row_pos[tuple(map(operator.add, mult, e))])
                local_cols.append(j)
                vals.append(c)
        return _Block(
            rows=rows,
            cols=cols,
            local_rows=local_rows,
            local_cols=local_cols,
            vals=vals,
            target=[(i, self._target_int[r]) for i, r in enumerate(rows) if r in self._target_int],
        )

    def _field_prime(self):
        f = self.ring.field
        return f.p if hasattr(f, "p") else None

    def solve_mod(self, p: int) -> MembershipCertificate:
        """Exact decision of membership in the degree-d slice over GF(p).

        Only the connected components of the row–column sparsity graph that
        contain a target row are built and solved, each as its own small
        sparse block (sparse_solve_mod_p); every other column is set to
        zero.  Inside a block the rows keep descending grevlex and the
        columns the canonical (generator index, grevlex multiplier) order of
        the whole system.  This gives the
        same certificate as eliminating the whole system with left-to-right
        pivoting:

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
        own = self._field_prime()
        if own is not None and own != p:
            raise DenominatorVanishes(f"generators live over GF({own}), not GF({p})")
        if self._target_scale % p == 0 or any(s % p == 0 for s in self._gen_scale):
            raise DenominatorVanishes(f"a denominator vanishes mod {p}")
        if not self.target:
            return self._finish([], GF(p).name, p)
        sts = int(pow(self._target_scale, -1, p))
        entries = []
        for block in self._target_blocks():
            ncols = len(block.cols)
            aug = [{} for _ in block.rows]
            for i, j, v in zip(block.local_rows, block.local_cols, block.vals):
                aug[i][j] = v
            for i, c in block.target:
                aug[i][ncols] = c
            xb, _ = sparse_solve_mod_p(aug, ncols, p)
            if xb is None:
                exc = self._mod_failures[p] = NotInDegree(
                    f"no representation of the target in degree {self.degree} over GF({p})"
                )
                raise exc
            for j, v in xb.items():
                gi, mult = block.cols[j]
                coeff = ModInt(v * self._gen_scale[gi] * sts, p)
                if coeff:
                    entries.append((gi, mult, coeff))
        cert = self._mod_certs[p] = self._finish(entries, GF(p).name, p)
        return cert

    def solve_rational(self) -> MembershipCertificate:
        """Binding certificate over QQ.

        A reference-prime elimination proposes a column support (the
        certificate solve_mod already built at that prime, when there is
        one; a prime where solve_mod already found no representation is not
        eliminated again); each target block, restricted to its slice of
        that support, is then solved by fraction-free elimination.  The
        support lies on pivot columns mod p, so it is independent mod p and
        hence over QQ: the solution on it is unique, and solving the blocks
        one at a time gives the same one as solving the whole support at
        once.  Replaying the result over QQ (replays) is what makes the
        certificate binding; reference primes only propose.
        """
        if self._field_prime() is not None:
            raise InhomogeneousInput("rational solve needs generators over QQ")
        if not self.target:
            return self._finish([], QQ.name, None)
        evidence = []
        for p in REFERENCE_PRIMES:
            if p in self._mod_failures:
                evidence.append(f"GF({p}): {self._mod_failures[p]}")
                continue
            try:
                cert_p = self._mod_certs.get(p) or self.solve_mod(p)
            except (NotInDegree, DenominatorVanishes) as exc:
                evidence.append(f"GF({p}): {exc}")
                continue
            entries = self._lift_support({(gi, mult) for gi, mult, _ in cert_p.entries})
            if entries is None:
                evidence.append(f"GF({p}): support not liftable to QQ")
                continue
            return self._finish(entries, QQ.name, None)
        raise NotInDegree(
            "no representation over QQ found in degree "
            f"{self.degree}; evidence: {'; '.join(evidence)}"
        )

    def _lift_support(self, support):
        """Rational entries on a proposed support: each block, restricted to
        its support columns and to the rows they or the target touch, solved
        by fraction-free elimination; None if some block is inconsistent."""
        entries = []
        for block in self._target_blocks():
            cols = [j for j, col in enumerate(block.cols) if col in support]
            colpos = {j: k for k, j in enumerate(cols)}
            dense = {}
            for r, j, v in zip(block.local_rows, block.local_cols, block.vals):
                if j in colpos:
                    dense.setdefault(r, [0] * (len(cols) + 1))[colpos[j]] = v
            for r, c in block.target:
                dense.setdefault(r, [0] * (len(cols) + 1))[-1] = c
            x = _bareiss_solve([dense[r] for r in sorted(dense)], len(cols))
            if x is None:
                return None
            for j, val in zip(cols, x):
                gi, mult = block.cols[j]
                coeff = val * self._gen_scale[gi] / self._target_scale
                if coeff:
                    entries.append((gi, mult, coeff))
        return entries

    def _finish(self, entries, field_name, prime):
        entries.sort(key=lambda t: (t[0], grevlex_key(t[1])))
        return MembershipCertificate(
            field_name=field_name,
            prime=prime,
            degree=self.degree,
            entries=tuple(entries),
            target_hash=self.target_hash,
            generators_hash=self.generators_hash,
        )

    def replays(self, cert: MembershipCertificate) -> bool:
        """Whether replaying the certificate reproduces the target exactly."""
        if cert.prime is None:
            gens, target = self.generators, self.target
        else:
            p = cert.prime
            field = GF(p)
            ring = PolyRing(field, self.ring.names)
            gens = [g.map_coefficients(field.coerce, ring) for g in self.generators]
            target = self.target.map_coefficients(field.coerce, ring)
        return replay_certificate(cert, gens) == target


def graded_membership(generators, target: SparsePoly) -> MembershipCertificate:
    """Decide degree-d membership of a homogeneous target in the ideal slice
    spanned by the generators, returning a replay-verified certificate.

    Over GF(p) this is a complete decision in the degree; over QQ a failed
    search raises NotInDegree as degree-bounded evidence (see errors module).
    """
    problem = MembershipProblem(generators, target)
    p = problem._field_prime()
    cert = problem.solve_mod(p) if p is not None else problem.solve_rational()
    if not problem.replays(cert):
        raise AssertionError("certificate replay failed to reproduce the target")
    return cert

"""Exact linear algebra over the coefficient fields, integer-lattice tools
(the Smith normal form, the unipotent logarithm), and the F2 wedge lemma.

Graded ideal membership lives in membership.py; this module forwards two of
its names (see __getattr__ below).
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import BadSize, DimensionMismatch, NotUnipotent
from .exactmath import QQ


def __getattr__(name):
    """linalg.MembershipProblem and linalg.replay_certificate, the membership
    names perfbench/trace_child.py wraps through this module; any other
    missing name raises AttributeError.  Deleted when the benchmark reads
    membership.py directly (ROADMAP item 1b)."""
    if name in ("MembershipProblem", "replay_certificate"):
        from . import membership

        return getattr(membership, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
                    rows[r] = [a - f * b if b else a for a, b in zip(rows[r], rows[piv])]
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

    def __repr__(self):
        return "\n".join("[" + ", ".join(repr(v) for v in row) + "]" for row in self.rows)


# ---------------------------------------------------------------------------
# integer lattices


def smith_normal_form(mat) -> tuple:
    """The nonzero invariant factors d1 | d2 | … of an integer matrix, from
    its Smith normal form by unimodular row and column moves."""
    a = [[int(v) for v in row] for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0

    def row_op(i, j, q):  # row_i -= q*row_j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]

    def col_op(i, j, q):  # col_i -= q*col_j
        for row in a:
            row[i] -= q * row[j]

    def swap_cols(i, j):
        for row in a:
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
        a[s], a[best[0]] = a[best[0]], a[s]
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
        s += 1
    return tuple(abs(a[i][i]) for i in range(s))


def unipotent_log(mat) -> Matrix:
    """log of a unipotent matrix: (M−I) − ½(M−I)², requiring (M−I)³ = 0."""
    m = mat if isinstance(mat, Matrix) else Matrix(QQ, mat)
    rows, cols = m.shape
    if rows != cols:
        raise NotUnipotent("not square")
    n = m - Matrix.identity(QQ, rows)
    n2 = n * n
    if not (n2 * n).is_zero():
        raise NotUnipotent("(M - I)^3 != 0")
    return n - n2.scale(Fraction(1, 2))


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


def _f2_rank(vectors) -> int:
    """Rank over F2 of vectors given as bitmasks, by an xor basis keyed by
    each member's highest bit."""
    basis = {}
    for v in vectors:
        while v and v.bit_length() in basis:
            v ^= basis[v.bit_length()]
        if v:
            basis[v.bit_length()] = v
    return len(basis)


def wedge2_fixed_dim_mod_2(m) -> int:
    """dim of the space of 2-forms over F2 that ∧²m fixes, m a 4×4 integer
    matrix: 6 − rank(∧²m − I).  On the basis e_i∧e_j in _PAIRS order, column
    k of ∧²m is m·e_i ∧ m·e_j for the k-th pair (i, j)."""
    cols = [sum((m[r][c] & 1) << r for r in range(4)) for c in range(4)]
    return 6 - _f2_rank(_wedge_vv(cols[i], cols[j]) ^ (1 << k) for k, (i, j) in enumerate(_PAIRS))


class WedgeLemmaSweep(NamedTuple):
    passed: bool
    cases: int
    counterexample: tuple | None


def wedge_lemma_exhaustive() -> WedgeLemmaSweep:
    """For every pair of independent e1, e2 in F2^4 and every 2-form f outside
    span(e1∧e2), check that e1∧f or e2∧f is a nonzero 3-form.  Exhaustive.

    The kernel K(e) = {f : e∧f = 0} of each nonzero e is computed once, as a
    64-bit mask over f; a pair passes when K(e1) ∩ K(e2) ⊆ {0, e1∧e2}.  The
    cases are counted, and the first counterexample picked, in (e1, e2, f)
    order, as a sweep over every triple would.
    """
    kernels = {e: sum(1 << f for f in range(64) if not _wedge_vf(e, f)) for e in range(1, 16)}
    cases = 0
    for e1 in range(1, 16):
        for e2 in range(1, 16):
            if e2 == e1:
                continue  # over F2, dependence of two nonzero vectors means equality
            w12 = _wedge_vv(e1, e2)
            bad = kernels[e1] & kernels[e2] & ~(1 | 1 << w12)
            if bad:
                f = (bad & -bad).bit_length() - 1
                return WedgeLemmaSweep(False, cases + f - (w12 < f), (e1, e2, f))
            cases += 62  # the 2-forms other than 0 and e1∧e2
    return WedgeLemmaSweep(True, cases, None)

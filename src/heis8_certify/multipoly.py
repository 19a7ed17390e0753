"""Sparse multivariate polynomials over an exact field, polynomial matrices,
and the Chern numbers of smooth complete intersections.

Terms are kept in a dict from exponent tuple to nonzero coefficient; the
canonical term order everywhere (iteration, printing, hashing) is graded
reverse lexicographic, descending.  The canonical text rendering produced by
``SparsePoly.text()`` is stable across runs and is quoted verbatim inside
certificate reports.
"""
from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .errors import (
    ArityMismatch,
    BadDimension,
    BadSize,
    NonInvertibleMap,
    NotSkewSymmetric,
)


def grevlex_key(exps):
    """Sort key: ascending sort by this key lists monomials in descending grevlex."""
    return (-sum(exps), tuple(reversed(exps)))


class PolyRing:
    """A polynomial ring: an exact coefficient field plus named variables."""

    __slots__ = ("field", "names")

    def __init__(self, field, names):
        self.field = field
        self.names = tuple(names)

    @property
    def nvars(self) -> int:
        return len(self.names)

    def zero(self) -> "SparsePoly":
        return SparsePoly(self, {})

    def one(self) -> "SparsePoly":
        return self.constant(1)

    def constant(self, c) -> "SparsePoly":
        c = self.field.coerce(c)
        return SparsePoly(self, {(0,) * self.nvars: c} if c else {})

    def var(self, i: int) -> "SparsePoly":
        e = [0] * self.nvars
        e[i] = 1
        return SparsePoly(self, {tuple(e): self.field.one})

    def gens(self):
        return tuple(self.var(i) for i in range(self.nvars))

    def monomial(self, exps, coeff=1) -> "SparsePoly":
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ArityMismatch(f"exponent vector of length {len(exps)} in {self.nvars}-variable ring")
        c = self.field.coerce(coeff)
        return SparsePoly(self, {exps: c} if c else {})

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.field == other.field and self.names == other.names

    def __hash__(self):
        return hash((self.field, self.names))

    def __repr__(self):
        return f"{self.field.name}[{', '.join(self.names)}]"


class SparsePoly:
    """Immutable sparse polynomial; ``terms`` maps exponent tuples to nonzero coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def _check(self, other) -> "SparsePoly":
        if isinstance(other, SparsePoly):
            if other.ring != self.ring:
                raise ArityMismatch(f"mixing {self.ring!r} and {other.ring!r}")
            return other
        return self.ring.constant(other)

    def __add__(self, other):
        o = self._check(other)
        out = dict(self.terms)
        for e, c in o.terms.items():
            v = out.get(e)
            v = c if v is None else v + c
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return SparsePoly(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, SparsePoly):
            c = self.ring.field.coerce(other)
            if not c:
                return self.ring.zero()
            return SparsePoly(self.ring, {e: v * c for e, v in self.terms.items()})
        o = self._check(other)
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in o.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                v = out.get(e)
                v = ca * cb if v is None else v + ca * cb
                if v:
                    out[e] = v
                elif e in out:
                    del out[e]
        return SparsePoly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        acc = self.ring.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base
            n >>= 1
        return acc

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, SparsePoly):
            return self.ring == other.ring and self.terms == other.terms
        if not self.terms:
            return not self.ring.field.coerce(other)
        e0 = (0,) * self.ring.nvars
        return set(self.terms) == {e0} and self.terms[e0] == self.ring.field.coerce(other)

    __hash__ = None

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def homogeneous_degree(self):
        """The common total degree of all terms, or None if inhomogeneous / zero."""
        degs = {sum(e) for e in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def is_homogeneous(self) -> bool:
        return not self.terms or self.homogeneous_degree() is not None

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]))

    def eval(self, point):
        """Evaluate at a sequence of field elements (or values coercible into them)."""
        if len(point) != self.ring.nvars:
            raise ArityMismatch(f"point of length {len(point)} in {self.ring.nvars}-variable ring")
        coerce = self.ring.field.coerce
        vals = [coerce(v) for v in point]
        acc = self.ring.field.zero
        for e, c in self.terms.items():
            t = c
            for i, ei in enumerate(e):
                if ei:
                    t = t * vals[i] ** ei
            acc = acc + t
        return acc

    def partial(self, i: int) -> "SparsePoly":
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            v = c * e[i]
            if v:
                out[tuple(ne)] = v
        return SparsePoly(self.ring, out)

    def substitute(self, images, ring: PolyRing | None = None) -> "SparsePoly":
        """General composition: replace variable i by the polynomial images[i]."""
        if len(images) != self.ring.nvars:
            raise ArityMismatch("one image per variable required")
        target = ring if ring is not None else images[0].ring
        acc = target.zero()
        for e, c in self.terms.items():
            t = target.constant(c)
            for i, ei in enumerate(e):
                if ei:
                    t = t * images[i] ** ei
            acc = acc + t
        return acc

    def map_coefficients(self, fn, ring: PolyRing) -> "SparsePoly":
        out = {}
        for e, c in self.terms.items():
            v = fn(c)
            if v:
                out[e] = v
        return SparsePoly(ring, out)

    def text(self) -> str:
        """Canonical rendering: descending grevlex, explicit ``^`` and ``*``."""
        if not self.terms:
            return "0"
        names = self.ring.names
        one = self.ring.field.one
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for i, ei in enumerate(e):
                if ei == 1:
                    factors.append(names[i])
                elif ei > 1:
                    factors.append(f"{names[i]}^{ei}")
            cs = str(c)
            if " " in cs:
                cs = f"({cs})"
            if factors and c == one:
                body = "*".join(factors)
            elif factors and c == -one and not cs.startswith("("):
                body = "-" + "*".join(factors)
            else:
                body = "*".join([cs] + factors)
            parts.append(body)
        out = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                out += " - " + part[1:]
            else:
                out += " + " + part
        return out

    def __repr__(self):
        return self.text()


def apply_variable_map(perm, scalars, poly: SparsePoly) -> SparsePoly:
    """Apply the invertible monomial substitution x_i ↦ scalars[i] · x_{perm[i]}."""
    n = poly.ring.nvars
    if len(perm) != n or sorted(perm) != list(range(n)):
        raise NonInvertibleMap(f"{perm} is not a permutation of 0..{n - 1}")
    coerce = poly.ring.field.coerce
    cs = [coerce(s) for s in scalars]
    if len(cs) != n or not all(cs):
        raise NonInvertibleMap("every substitution scalar must be nonzero")
    out = {}
    for e, c in poly.terms.items():
        ne = [0] * n
        v = c
        for i, ei in enumerate(e):
            if ei:
                ne[perm[i]] += ei
                v = v * cs[i] ** ei
        key = tuple(ne)
        w = out.get(key)
        w = v if w is None else w + v
        if w:
            out[key] = w
        elif key in out:
            del out[key]
    return SparsePoly(poly.ring, out)


class PolyMatrix:
    """Rectangular matrix of polynomials over one shared ring."""

    __slots__ = ("ring", "rows")

    def __init__(self, ring: PolyRing, rows):
        self.ring = ring
        self.rows = tuple(tuple(entry for entry in row) for row in rows)
        width = {len(r) for r in self.rows}
        if len(width) > 1:
            raise BadSize("ragged rows")
        for row in self.rows:
            for entry in row:
                if entry.ring != ring:
                    raise ArityMismatch("matrix entry from a different ring")

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def map_entries(self, fn) -> "PolyMatrix":
        mapped = [[fn(e) for e in row] for row in self.rows]
        ring = mapped[0][0].ring if mapped and mapped[0] else self.ring
        return PolyMatrix(ring, mapped)

    def swap_rows(self, i: int, j: int) -> "PolyMatrix":
        rows = list(self.rows)
        rows[i], rows[j] = rows[j], rows[i]
        return PolyMatrix(self.ring, rows)

    def is_skew_symmetric(self) -> bool:
        m, n = self.shape
        if m != n:
            return False
        for i in range(m):
            if self.rows[i][i]:
                return False
            for j in range(i + 1, n):
                if self.rows[i][j] != -self.rows[j][i]:
                    return False
        return True

    def det(self) -> SparsePoly:
        """Cofactor expansion; intended for the small symbolic matrices used here."""
        m, n = self.shape
        if m != n:
            raise BadSize("determinant of a non-square matrix")
        if m == 0:
            return self.ring.one()
        if m == 1:
            return self.rows[0][0]
        acc = self.ring.zero()
        for j in range(n):
            entry = self.rows[0][j]
            if not entry:
                continue
            sub = PolyMatrix(self.ring, [[row[k] for k in range(n) if k != j] for row in self.rows[1:]])
            term = entry * sub.det()
            acc = acc + term if j % 2 == 0 else acc - term
        return acc

    def minors(self, k: int):
        """All k×k minors, row-major over (row-set, col-set), sets in lexicographic order."""
        m, n = self.shape
        if k < 0 or k > min(m, n):
            raise BadSize(f"{k}x{k} minors of a {m}x{n} matrix")
        out = []
        for rset in itertools.combinations(range(m), k):
            for cset in itertools.combinations(range(n), k):
                sub = PolyMatrix(self.ring, [[self.rows[i][j] for j in cset] for i in rset])
                out.append(sub.det())
        return out


def pfaffian4(m: PolyMatrix) -> SparsePoly:
    """Pfaffian of a skew-symmetric 4×4 polynomial matrix.

    Sign convention fixed once and for all: m01·m23 − m02·m13 + m03·m12,
    so that Pf(m)² = det(m).
    """
    if m.shape != (4, 4):
        raise NotSkewSymmetric("pfaffian4 needs a 4x4 matrix")
    if not m.is_skew_symmetric():
        raise NotSkewSymmetric("matrix is not skew-symmetric")
    r = m.rows
    return r[0][1] * r[2][3] - r[0][2] * r[1][3] + r[0][3] * r[1][2]


def truncated_product(factors, order: int) -> list:
    """The coefficients of h⁰ … h^order in the product of the factors, each
    given by its integer coefficient list [c₀, c₁, …]."""
    out = [1] + [0] * order
    for f in factors:
        out = [sum(out[k - j] * c for j, c in enumerate(f[: k + 1])) for k in range(order + 1)]
    return out


class CompleteIntersectionInvariants(NamedTuple):
    dimension: int
    degree: int
    chern: tuple          # coefficients c_0..c_dim of the total Chern class, in H-powers
    c2_hyperplane_degree: int | None   # deg(c₂ · H^(dim-2)) when dim ≥ 2
    euler: int            # deg(c_dim) = topological Euler characteristic


def ci_invariants(n: int, degrees) -> CompleteIntersectionInvariants:
    """Degree and Chern numbers of a smooth complete intersection of the given
    multidegree in projective n-space.

    The total Chern class of the tangent bundle restricted to the intersection
    is (1+h)^{n+1} · Π (1+dᵢh)⁻¹ truncated at the dimension.  Both factors
    have integer coefficients, C(n+1, k) and (1+dh)⁻¹ = Σ (−d)ᵏhᵏ, so the
    series is a product of integer lists; multiplying the top coefficients
    by the degree Π dᵢ gives the Chern numbers.
    """
    degrees = tuple(int(d) for d in degrees)
    if len(degrees) > n or any(d < 1 for d in degrees):
        raise BadDimension(f"multidegree {degrees} in P^{n}")
    dim = n - len(degrees)
    deg = math.prod(degrees)
    factors = [[math.comb(n + 1, k) for k in range(dim + 1)]]
    factors += [[(-d) ** k for k in range(dim + 1)] for d in degrees]
    chern = tuple(truncated_product(factors, dim))
    c2h = chern[2] * deg if dim >= 2 else None
    return CompleteIntersectionInvariants(dim, deg, chern, c2h, chern[dim] * deg)

"""Sparse multivariate polynomials over an exact field, and invertible
monomial substitutions of their variables.  Polynomial matrices and the
Chern numbers of complete intersections are in moore.py.

Terms are kept in a dict from exponent tuple to nonzero coefficient; the
canonical term order everywhere (iteration, printing, hashing) is graded
reverse lexicographic, descending.  The canonical text rendering produced by
``SparsePoly.text()`` is stable across runs and is quoted verbatim inside
certificate reports.
"""
from __future__ import annotations

from .errors import ArityMismatch, NonInvertibleMap


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

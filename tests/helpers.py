"""Functions only the tests call: the GF(p) field type that the tests use as
a reference field, reference solves, monomial enumeration and conversions
that the package itself never needs, kept here so that a run of the package
does not load them.  The package computes mod p on plain int residues."""
from fractions import Fraction
from functools import lru_cache

from heis8_certify.errors import (
    CertifyError,
    DegeneratePoint,
    DenominatorVanishes,
    DimensionMismatch,
    MissingRootOfUnity,
    PointNotOnVariety,
)
from heis8_certify.exactmath import is_prime, is_prime_1_mod_8
from heis8_certify.geometry import point_on_variety
from heis8_certify.heisenberg import ProjPoint
from heis8_certify.linalg import Matrix
from heis8_certify.multipoly import PolyMatrix, SparsePoly, grevlex_key


# ---------------------------------------------------------------------------
# GF(p): the tests' reference field


class DivisionByZero(CertifyError, ZeroDivisionError):
    pass


class ModulusMismatch(CertifyError):
    pass


class BadPrime(CertifyError):
    pass


class ModInt:
    """An element of GF(p), reduced to [0, p)."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, ModInt):
            if other.p != self.p:
                raise ModulusMismatch(f"GF({self.p}) vs GF({other.p})")
            return other
        if isinstance(other, int):
            return ModInt(other, self.p)
        if isinstance(other, Fraction):
            if other.denominator % self.p == 0:
                raise DenominatorVanishes(f"{other} has no image in GF({self.p})")
            return ModInt(other.numerator * pow(other.denominator, -1, self.p), self.p)
        return None

    def __add__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else ModInt(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else ModInt(self.value - o.value, self.p)

    def __rsub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else ModInt(o.value - self.value, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else ModInt(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is None else o * self.inverse()

    def __neg__(self):
        return ModInt(-self.value, self.p)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return ModInt(pow(self.value, e, self.p), self.p)

    def inverse(self) -> "ModInt":
        if self.value == 0:
            raise DivisionByZero(f"inverse of 0 in GF({self.p})")
        return ModInt(pow(self.value, self.p - 2, self.p), self.p)

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, ModInt):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __repr__(self):
        return f"{self.value}"


@lru_cache(maxsize=None)
def find_order8_root(p: int) -> int:
    """Smallest residue of exact multiplicative order 8 in GF(p). Needs p ≡ 1 (mod 8).
    Memoized: PrimeField.root_of_unity asks for it on every call."""
    if not is_prime_1_mod_8(p):
        raise BadPrime(f"p={p} is not a prime congruent to 1 mod 8")
    for r in range(2, p):
        if pow(r, 8, p) == 1 and pow(r, 4, p) != 1:
            return r
    raise BadPrime(f"no element of order 8 mod {p}")  # unreachable for p ≡ 1 mod 8


class PrimeField:
    """GF(p) as a field object; elements are ModInt."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise BadPrime(f"{p} is not prime")
        self.p = p
        self.zero = ModInt(0, p)
        self.one = ModInt(1, p)
        self.name = f"GF({p})"

    def coerce(self, x):
        if isinstance(x, ModInt):
            if x.p != self.p:
                raise ModulusMismatch(f"GF({x.p}) element in GF({self.p})")
            return x
        if isinstance(x, int):
            return ModInt(x, self.p)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise DenominatorVanishes(f"{x} has no image in GF({self.p})")
            return ModInt(x.numerator * pow(x.denominator, -1, self.p), self.p)
        raise TypeError(f"cannot coerce {x!r} into GF({self.p})")

    def root_of_unity(self, k: int):
        k %= 8
        if is_prime_1_mod_8(self.p):
            return ModInt(pow(find_order8_root(self.p), k, self.p), self.p)
        if k == 0:
            return self.one
        if k == 4:
            return -self.one
        raise MissingRootOfUnity(f"GF({self.p}) has no primitive 8th root of unity")

    def random(self, rng):
        return ModInt(rng.randrange(self.p), self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return self.name


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    return PrimeField(p)


def random_element(field, rng):
    """A random element of QQ or GF(p): over QQ a numerator in [-10, 10] over
    a denominator in [1, 10]."""
    if isinstance(field, PrimeField):
        return field.random(rng)
    return Fraction(rng.randint(-10, 10), rng.randint(1, 10))


def map_coefficients(poly, fn, ring):
    """The polynomial with every coefficient c replaced by fn(c), in ring."""
    return SparsePoly(ring, {e: v for e, c in poly.terms.items() if (v := fn(c))})


# ---------------------------------------------------------------------------
# references and conversions


def multiplicative_order(a: int, p: int) -> int:
    v = a % p
    if v == 0:
        raise DivisionByZero("order of 0 is undefined")
    k, acc = 1, v
    while acc != 1:
        acc = acc * v % p
        k += 1
    return k


def plane_point(y, field=None) -> ProjPoint:
    """The minus-plane point y as the point (y1 : y2 : y3) of P²."""
    f = field if field is not None else y.field
    return ProjPoint(f, [f.coerce(c) for c in y.coords])


def symbolic_jacobian(system) -> PolyMatrix:
    """The 4×8 Jacobian of the system's quadrics, entry (i, j) = ∂q_i/∂x_j."""
    return PolyMatrix(system.ring, [[q.partial(j) for j in range(8)] for q in system.quadrics])


def jacobian_rank_at(system, v: ProjPoint) -> int:
    """Rank of the 4×8 Jacobian at a point of the variety: 3 at a singular
    point of the complete intersection, 4 at a smooth one."""
    if not point_on_variety(system, v):
        raise PointNotOnVariety(f"{v} is not on the quadric system")
    entries = [[e.eval(v.coords) for e in row] for row in symbolic_jacobian(system).rows]
    return Matrix(system.ring.field, entries).rank()


def restricted_cone_rank(system, v: ProjPoint) -> int:
    """The cone rank by restriction, the reference for
    geometry.odp_normal_hessian_rank: in the chart v_k = 1, the Hessian of
    λ·q (second partials evaluated) restricted to a basis of the tangent
    space of the 4×7 Jacobian on the columns other than k."""
    if not point_on_variety(system, v):
        raise PointNotOnVariety(f"{v} is not on the quadric system")
    field = system.ring.field
    coords = list(v.coords)
    k = next(i for i, c in enumerate(coords) if c)
    inv = field.one / coords[k]
    coords = [c * inv for c in coords]
    cols = [j for j in range(8) if j != k]

    jac = Matrix(field, [[row[j].eval(coords) for j in cols] for row in symbolic_jacobian(system).rows])
    tangent = jac.kernel_basis()
    if len(tangent) != 4:
        raise DegeneratePoint(f"Jacobian rank {7 - len(tangent)} != 3 at {v}")
    (lam,) = jac.transpose().kernel_basis()

    origin = [field.zero] * 8
    hessians = [[[q.partial(i).partial(j).eval(origin) for j in range(8)] for i in range(8)] for q in system.quadrics]
    h = Matrix(field, [[sum((l * hq[i][j] for l, hq in zip(lam, hessians)), field.zero) for j in cols] for i in cols])
    b = Matrix(field, [[vec[i] for vec in tangent] for i in range(7)])  # 7×4 basis
    return (b.transpose() * h * b).rank()


def apply(a: Matrix, vec) -> list:
    """The matrix–vector product a·vec."""
    if len(vec) != a.shape[1]:
        raise DimensionMismatch("vector length mismatch")
    coerce = a.field.coerce
    v = [coerce(x) for x in vec]
    zero = a.field.zero
    return [sum((x * y for x, y in zip(row, v)), zero) for row in a.rows]


def solve(a: Matrix, b):
    """The solution of a·x = b with every free variable zero (on the pivot
    columns of the reduced row echelon form), or None if it is inconsistent."""
    m, n = a.shape
    if len(b) != m:
        raise DimensionMismatch(f"rhs of length {len(b)} for {a.shape}")
    coerce = a.field.coerce
    aug = Matrix(a.field, [list(row) + [coerce(v)] for row, v in zip(a.rows, b)])
    red, pivots, _rank = aug.rref()
    if n in pivots:
        return None
    x = [a.field.zero] * n
    for i, pc in enumerate(pivots):
        x[pc] = red.rows[i][n]
    return x


def monomials_of_degree(nvars: int, degree: int) -> list:
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

"""Functions only the tests call: reference solves, monomial enumeration and
conversions that the package itself never needs, kept here so that a run of
the package does not load them."""
from heis8_certify.errors import DegeneratePoint, DimensionMismatch, DivisionByZero, PointNotOnVariety
from heis8_certify.geometry import point_on_variety
from heis8_certify.heisenberg import ProjPoint
from heis8_certify.linalg import Matrix
from heis8_certify.multipoly import PolyMatrix, grevlex_key


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

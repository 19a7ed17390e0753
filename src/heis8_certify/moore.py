"""The Moore-matrix/Pfaffian pipeline, the ψ membership instance, the plane
quartic of the conic map, and the topology numbers of a (2,2,2,2) complete
intersection in P⁷, with the polynomial matrices and the Chern-number
arithmetic they need.

Each convention has one definition, which every use goes through, and is
regression-tested:

* the 4×4 Moore matrix has entries x_{i+j}·y_{i-j} + x_{i+j+4}·y_{i-j+4},
  indices mod 8; its restriction to the minus plane substitutes
  geometry.minus_plane_coords into the x-slot; interchanging rows 1 and 3
  (0-based) of the restriction makes it skew-symmetric;
* with the Pfaffian convention m01·m23 − m02·m13 + m03·m12, the restricted
  skew matrix has Pfaffian exactly  w0·A + w1·B + w2·C  (recorded sign +1),
  where w0 = 2·x1·x3, w1 = −x2², w2 = x1²+x3² and A, B, C are the conic-plane
  pullbacks A = (y1²−y3²+y5²−y7²)/2, B = (y0−y4)(y2−y6), C = y3·y7−y1·y5;
* the ψ target is the plane quartic (quartic_curve_poly) under w ↦ (A, B, C).

No base-point check uses this module: the checks that do import it when
they run, so a base-point run neither loads it nor, when no bytecode is
cached, compiles it.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import ArityMismatch, BadDimension, BadSize, NotSkewSymmetric
from .exactmath import QQ
from .geometry import X_NAMES, minus_plane_coords
from .multipoly import PolyRing, SparsePoly

Y_NAMES = tuple(f"y{i}" for i in range(8))
CONIC_NAMES = ("w0", "w1", "w2")

RECORDED_PFAFFIAN_SIGN = 1


@lru_cache(maxsize=None)
def xy_ring() -> PolyRing:
    return PolyRing(QQ, X_NAMES + Y_NAMES)


@lru_cache(maxsize=None)
def y_ring() -> PolyRing:
    return PolyRing(QQ, Y_NAMES)


@lru_cache(maxsize=None)
def conic_ring() -> PolyRing:
    return PolyRing(QQ, CONIC_NAMES)


# ---------------------------------------------------------------------------
# polynomial matrices


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


# ---------------------------------------------------------------------------
# the Moore matrix pipeline


def _moore_matrix(ring, x, yv) -> PolyMatrix:
    """Entries x_{i+j}·y_{i-j} + x_{i+j+4}·y_{i-j+4}, indices mod 8."""
    rows = [
        [
            x[(i + j) % 8] * yv[(i - j) % 8] + x[(i + j + 4) % 8] * yv[(i - j + 4) % 8]
            for j in range(4)
        ]
        for i in range(4)
    ]
    return PolyMatrix(ring, rows)


def moore_matrix_full() -> PolyMatrix:
    """M(x, y) with entries x_{i+j}·y_{i-j} + x_{i+j+4}·y_{i-j+4}, indices mod 8."""
    ring = xy_ring()
    g = ring.gens()
    return _moore_matrix(ring, g[:8], g[8:])


def restrict_moore_to_minus_plane(m: PolyMatrix) -> PolyMatrix:
    """Substitute the minus-plane relations into the x-slot (y untouched)."""
    ring = m.ring
    g = ring.gens()
    images = (*minus_plane_coords(ring.zero(), *g[1:4]), *g[8:])
    return m.map_entries(lambda q: q.substitute(images, ring))


def expected_restricted_moore() -> PolyMatrix:
    """The restricted matrix written out entry by entry (frozen reference)."""
    ring = xy_ring()
    g = ring.gens()
    x, yv = g[:8], g[8:]

    def t(sa, ia, ja, sb, ib, jb):
        first = x[ia] * yv[ja]
        second = x[ib] * yv[jb]
        return (first if sa > 0 else -first) + (second if sb > 0 else -second)

    z = ring.zero()
    rows = [
        [z, t(-1, 3, 3, 1, 1, 7), t(-1, 2, 2, 1, 2, 6), t(-1, 1, 1, 1, 3, 5)],
        [t(1, 1, 1, -1, 3, 5), t(1, 2, 0, -1, 2, 4), t(-1, 1, 3, 1, 3, 7), z],
        [t(1, 2, 2, -1, 2, 6), t(1, 3, 1, -1, 1, 5), z, t(1, 1, 3, -1, 3, 7)],
        [t(1, 3, 3, -1, 1, 7), z, t(-1, 3, 1, 1, 1, 5), t(-1, 2, 0, 1, 2, 4)],
    ]
    return PolyMatrix(ring, rows)


def conic_coordinates():
    """w0 = 2·x1·x3, w1 = −x2², w2 = x1²+x3² in the 16-variable ring."""
    g = xy_ring().gens()
    x = g[:8]
    return (x[1] * x[3] * 2, -(x[2] ** 2), x[1] ** 2 + x[3] ** 2)


def conic_pullbacks(ring: PolyRing, offset: int):
    """A = (y1²−y3²+y5²−y7²)/2, B = (y0−y4)(y2−y6), C = y3·y7−y1·y5 with the
    y-variables starting at the given index of the ring."""
    g = ring.gens()
    yv = g[offset : offset + 8]
    half = Fraction(1, 2)
    a = (yv[1] ** 2 - yv[3] ** 2 + yv[5] ** 2 - yv[7] ** 2) * half
    b = (yv[0] - yv[4]) * (yv[2] - yv[6])
    c = yv[3] * yv[7] - yv[1] * yv[5]
    return a, b, c


class MooreData(NamedTuple):
    full: PolyMatrix
    restricted: PolyMatrix
    skew: PolyMatrix
    pfaffian: SparsePoly
    w: tuple
    pullbacks: tuple
    sign: int


@lru_cache(maxsize=1)
def moore_pipeline() -> MooreData:
    """Full matrix → minus-plane restriction → row swap → Pfaffian, with the
    Pfaffian compared against the reference conic expression.  Memoized:
    moore-skew and pfaffian-formula share it."""
    full = moore_matrix_full()
    restricted = restrict_moore_to_minus_plane(full)
    skew = restricted.swap_rows(1, 3)
    pf = pfaffian4(skew)
    w = conic_coordinates()
    pulls = conic_pullbacks(xy_ring(), 8)
    reference = w[0] * pulls[0] + w[1] * pulls[1] + w[2] * pulls[2]
    if pf == reference:
        sign = 1
    elif pf == -reference:
        sign = -1
    else:
        raise AssertionError("Pfaffian does not match the conic expression up to sign")
    return MooreData(full, restricted, skew, pf, w, pulls, sign)


def moore_at_yy() -> PolyMatrix:
    """M(y, y): both slots specialized to the same point."""
    ring = y_ring()
    yv = ring.gens()
    return _moore_matrix(ring, yv, yv)


@lru_cache(maxsize=1)
def moore_minor_generators() -> tuple:
    """The 36 2×2 minors of M(y, y): quartic generators of the membership instance."""
    return tuple(moore_at_yy().minors(2))


def psi_quartic_target() -> SparsePoly:
    """The plane quartic under the conic pullbacks (w0, w1, w2) ↦ (A, B, C),
    B⁴ − 8·A³·C − 8·A·C³: homogeneous of degree 8."""
    ring = y_ring()
    return quartic_curve_poly().substitute(conic_pullbacks(ring, 0), ring)


@lru_cache(maxsize=1)
def psi_membership_problem() -> MembershipProblem:
    from .membership import MembershipProblem  # psi-quartic-membership only

    return MembershipProblem(list(moore_minor_generators()), psi_quartic_target())


# ---------------------------------------------------------------------------
# the plane quartic


def quartic_curve_poly() -> SparsePoly:
    w0, w1, w2 = conic_ring().gens()
    return w1**4 - w0**3 * w2 * 8 - w0 * w2**3 * 8


def quartic_partials():
    f = quartic_curve_poly()
    return tuple(f.partial(i) for i in range(3))


def quartic_nullstellensatz_certificates():
    """The exact smoothness proof: replay-verified QQ certificates that w0⁷,
    w1⁷ and w2⁷ lie in the ideal of the three partials.

    Sound: a common zero of the partials in P²(Q̄) would make every w_i⁷
    vanish there, so all three certificates rule it out; by the Euler
    relation 4·F = Σ w_j·∂_jF, such common zeros are the singular points.

    Complete: if the quartic is smooth, the partials are a regular sequence
    of three cubics, and by Macaulay's theorem their quotient ring vanishes
    from degree 3·(3−1)+1 = 7 on, so every w_i⁷ lies in the ideal already
    in degree 7.  A singular quartic has no such certificates, so the search
    raises NotInDegree.

    The three certificates decide quartic-smooth-genus3 alone: a sweep of
    P²(GF(p)) (geometry.quartic_smooth_mod_p) sees only the GF(p)-rational
    points of one reduction, not P²(Q̄).
    """
    from .membership import graded_membership  # quartic-smooth-genus3 only

    parts = list(quartic_partials())
    ring = conic_ring()
    certs = []
    for i in range(3):
        certs.append(graded_membership(parts, ring.var(i) ** 7))
    return certs


def quartic_genus() -> int:
    """The genus of a smooth plane curve of the degree d of
    quartic_curve_poly, from its Euler characteristic, checked against the
    degree–genus formula (d−1)(d−2)/2."""
    d = quartic_curve_poly().homogeneous_degree()
    genus = (2 - ci_invariants(2, (d,)).euler) // 2
    if genus != (d - 1) * (d - 2) // 2:
        raise AssertionError("plane curve genus computation is inconsistent")
    return genus


# ---------------------------------------------------------------------------
# topology numbers


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


def topology_numbers(nodes: int) -> dict:
    """Degree, c₂·H and Euler characteristic of the (2,2,2,2) intersection,
    the node-resolution identity e + 2·nodes for the number of nodes of the
    certified orbit, and the Hilbert-series cross-check.

    The Hilbert series of the coordinate ring is (1−t²)⁴/(1−t)⁸; cancelling
    (1−t)⁴ leaves the reduced numerator (1−t²)⁴/(1−t)⁴ = (1+t)⁴ over
    (1−t)⁴, and the numerator value at t = 1 is the degree.  The numerator
    is computed on integers as (1−t²)⁴ · Σ C(k+3, 3)·tᵏ, the series of
    (1−t)⁻⁴, truncated at t⁴: the product is a polynomial of degree 4, so
    the truncation loses nothing.
    """
    inv = ci_invariants(7, (2, 2, 2, 2))
    numerator = truncated_product([[1, 0, -1]] * 4 + [[math.comb(k + 3, 3) for k in range(5)]], 4)
    return {
        "degree": inv.degree,
        "c2_hyperplane_degree": inv.c2_hyperplane_degree,
        "euler_smooth": inv.euler,
        "node_identity": inv.euler + 2 * nodes,
        "hilbert_numerator_at_1": sum(numerator),
        "hilbert_coeffs": ",".join(map(str, numerator)),
    }

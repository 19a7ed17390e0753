"""Construction-specific certificates: the quadric system attached to a base
point of the minus plane, its singular orbit, the Moore-matrix/Pfaffian
pipeline, the plane-quartic image of the conic map, and the topology numbers
of a (2,2,2,2) complete intersection in P⁷.

Each convention has one definition, which every use goes through, and is
regression-tested:

* the minus plane P²₋ ⊂ P⁷ is x0 = x1+x7 = x2+x6 = x3+x5 = x4 = 0, and the
  plane point (a : b : c) embeds as (0 : a : b : c : 0 : -c : -b : -a)
  (minus_plane_coords);
* the system of a base point is its quadric f (base_quadric) and the three
  coordinate shifts of f (shifted_quadrics);
* the 4×4 Moore matrix has entries x_{i+j}·y_{i-j} + x_{i+j+4}·y_{i-j+4},
  indices mod 8; its restriction to the minus plane substitutes into the
  x-slot; interchanging rows 1 and 3 (0-based) of the restriction makes it
  skew-symmetric;
* with the Pfaffian convention m01·m23 − m02·m13 + m03·m12, the restricted
  skew matrix has Pfaffian exactly  w0·A + w1·B + w2·C  (recorded sign +1),
  where w0 = 2·x1·x3, w1 = −x2², w2 = x1²+x3² and A, B, C are the conic-plane
  pullbacks A = (y1²−y3²+y5²−y7²)/2, B = (y0−y4)(y2−y6), C = y3·y7−y1·y5;
* the ψ target is the plane quartic (quartic_curve_poly) under w ↦ (A, B, C).
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import DegeneratePoint, PointNotOnVariety, ZeroPoint
from .exactmath import QQ, residue
from .heisenberg import SHIFT, TWIST, HeisenbergElement, ProjPoint, center_and_quotient
from .linalg import Matrix, MembershipProblem, graded_membership, smith_normal_form
from .multipoly import (
    PolyMatrix,
    PolyRing,
    SparsePoly,
    apply_variable_map,
    ci_invariants,
    pfaffian4,
    truncated_product,
)

X_NAMES = tuple(f"x{i}" for i in range(8))
Y_NAMES = tuple(f"y{i}" for i in range(8))
PLANE_NAMES = ("y1", "y2", "y3")
CONIC_NAMES = ("w0", "w1", "w2")

RECORDED_PFAFFIAN_SIGN = 1


@lru_cache(maxsize=None)
def x_ring(field) -> PolyRing:
    return PolyRing(field, X_NAMES)


@lru_cache(maxsize=None)
def plane_ring(field) -> PolyRing:
    return PolyRing(field, PLANE_NAMES)


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
# the quadric system of a base point


def minus_plane_coords(zero, a, b, c) -> tuple:
    """(a : b : c) ↦ (0 : a : b : c : 0 : −c : −b : −a), zero being the ring's zero."""
    return (zero, a, b, c, zero, -c, -b, -a)


class MinusPlanePoint:
    """A point (y1 : y2 : y3) of the minus plane, over any coefficient field;
    treated as immutable."""

    __slots__ = ("field", "y1", "y2", "y3")

    def __init__(self, field, y1, y2, y3):
        self.field = field
        self.y1, self.y2, self.y3 = field.coerce(y1), field.coerce(y2), field.coerce(y3)
        if not (self.y1 or self.y2 or self.y3):
            raise ZeroPoint("minus-plane point with all coordinates zero")

    def __repr__(self):
        return f"MinusPlanePoint(field={self.field!r}, y1={self.y1!r}, y2={self.y2!r}, y3={self.y3!r})"

    @classmethod
    def rational(cls, y1, y2, y3) -> "MinusPlanePoint":
        return cls(QQ, Fraction(y1), Fraction(y2), Fraction(y3))

    @property
    def coords(self):
        return (self.y1, self.y2, self.y3)

    def embed(self) -> ProjPoint:
        return ProjPoint(self.field, minus_plane_coords(self.field.zero, *self.coords))


def standard_quadrics(x):
    """The three base quadrics x0²+x4², x1·x7+x3·x5, x2·x6 in the coordinates x."""
    return (x[0] ** 2 + x[4] ** 2, x[1] * x[7] + x[3] * x[5], x[2] * x[6])


def base_quadric(x, y1, y2, y3):
    """f = y1·y3·(x0²+x4²) − y2²·(x1·x7+x3·x5) + (y1²+y3²)·x2·x6, for scalar
    or symbolic (y1 : y2 : y3)."""
    f0, f1, f2 = standard_quadrics(x)
    return f0 * (y1 * y3) - f1 * (y2 * y2) + f2 * (y1 * y1 + y3 * y3)


def shift_poly(q):
    """shift(q), shifting x0 … x7 and fixing later variables.  SHIFT's
    permutation is applied directly, not by act_on_poly, so the action that
    ideal-invariance certifies plays no part in building the system."""
    ring = q.ring
    perm = SHIFT.substitution()[0] + tuple(range(8, ring.nvars))
    return apply_variable_map(perm, [ring.field.one] * ring.nvars, q)


def shifted_quadrics(f) -> tuple:
    """f, shift(f), shift²(f), shift³(f)."""
    out = [f]
    for _ in range(3):
        out.append(shift_poly(out[-1]))
    return tuple(out)


class VarietySystem(NamedTuple):
    """The four quadrics f, shift(f), shift²(f), shift³(f) at a base point."""

    ring: PolyRing
    quadrics: tuple


def quadric_hessian(q: SparsePoly) -> list:
    """The constant 8×8 second-derivative matrix of a quadric, read off its
    coefficients: c·x_i·x_j puts c at (i, j) and (j, i), and c·x_i² puts 2·c
    at (i, i)."""
    h = [[q.ring.field.zero] * 8 for _ in range(8)]
    for e, c in q.terms.items():
        i, j = [k for k in range(8) for _ in range(e[k])]
        h[i][j] += c
        h[j][i] += c
    return h


def build_system(y: MinusPlanePoint) -> VarietySystem:
    ring = x_ring(y.field)
    quadrics = shifted_quadrics(base_quadric(ring.gens(), *y.coords))
    embedded = y.embed().coords
    for q in quadrics:
        if q.homogeneous_degree() != 2:
            raise DegeneratePoint(f"quadric of degree {q.homogeneous_degree()} at {y}")
        if q.eval(embedded):
            raise DegeneratePoint(f"base point {y} does not satisfy its own quadrics")
    return VarietySystem(ring, quadrics)


@lru_cache(maxsize=1)
def symbolic_quadrics() -> tuple:
    """The four quadrics with symbolic plane coordinates, in
    QQ[x0 … x7, u1, u2, u3].  Memoized: base-point-on-V and ideal-invariance
    decide their identities on the same quadrics."""
    ring = PolyRing(QQ, X_NAMES + ("u1", "u2", "u3"))
    g = ring.gens()
    return shifted_quadrics(base_quadric(g, *g[8:]))


def symbolic_base_identities() -> list:
    """With symbolic plane coordinates u1, u2, u3, each shifted quadric
    vanishes identically on the embedded point; returns the four residues."""
    quadrics = symbolic_quadrics()
    ring = quadrics[0].ring
    u = ring.gens()[8:]
    images = (*minus_plane_coords(ring.zero(), *u), *u)
    return [f.substitute(images, ring) for f in quadrics]


def point_on_variety(system: VarietySystem, v: ProjPoint) -> bool:
    return all(not q.eval(v.coords) for q in system.quadrics)


def odp_normal_hessian_rank(system: VarietySystem, v: ProjPoint) -> int:
    """Rank of the quadratic cone on the 4-dimensional normal slice.

    At a corank-1 point the four quadrics admit (up to scale) one linear
    combination λ·q with d(λ·q)(v) = 0; the constant Hessian of λ·q on the
    tangent space ker J(v) gives the quadratic cone of the singularity.
    Rank 4 is the ordinary-double-point condition.

    For a quadric ∇q_i(v) = H_i·v, so the rows H_i·v are the Jacobian J(v),
    λ spans its left kernel, and Σλ_i·H_i is the Hessian of λ·q.  For
    symmetric H and any J the bordered matrix B = [[H, Jᵀ], [J, 0]] has rank
    2·rank J + rank(H on ker J) (Debreu 1952), which gives the rank on
    ker J(v) without a basis of it.  That rank is the rank on the normal
    slice: v lies in ker J(v) (Euler, J(v)·v = 2·q(v) = 0) and in the radical
    of Σλ_i·H_i, whose product with v is (λ·J(v))ᵀ = 0.
    """
    if not point_on_variety(system, v):
        raise PointNotOnVariety(f"{v} is not on the quadric system")
    ring, quadrics = system
    zero = ring.field.zero
    hessians = [quadric_hessian(q) for q in quadrics]
    jac = [[sum((a * c for a, c in zip(row, v.coords) if a), zero) for row in h] for h in hessians]
    lam = Matrix(ring.field, jac).transpose().kernel_basis()
    if len(lam) != 1:
        raise DegeneratePoint(f"Jacobian rank {4 - len(lam)} != 3 at {v}")
    cone = quadric_hessian(sum((q * l for q, l in zip(quadrics, lam[0])), ring.zero()))
    bordered = [cone[i] + [row[i] for row in jac] for i in range(8)] + [row + [zero] * 4 for row in jac]
    return Matrix(ring.field, bordered).rank() - 2 * 3  # rank J(v) = 3


# ---------------------------------------------------------------------------
# orbits and the singular locus


INVOLUTIONS = (SHIFT**4, TWIST**4, SHIFT**4 * TWIST**4)  # the order-2 elements of H/center


def named_intersection_points(y: MinusPlanePoint):
    """The four distinguished plane points: y and its images under the
    order-2 actions of shift⁴, twist⁴ and their product (these act on the
    minus plane over the base field itself, since only ±1 scalars occur)."""
    embedded = y.embed()
    out = []
    for g in (HeisenbergElement.identity(), *INVOLUTIONS):
        w = g.act_on_point(embedded).coords
        if w != minus_plane_coords(y.field.zero, *w[1:4]):
            raise DegeneratePoint("group image left the minus plane")
        out.append(MinusPlanePoint(y.field, *w[1:4]))
    return out


def span_coefficients(quadrics, image):
    """The c with image = Σ c_j·q_j, or None off the span of quadrics with
    pairwise disjoint supports: each c_j read off one monomial of q_j, and
    the identity then checked exactly."""
    if sum(len(q.terms) for q in quadrics) != len(set().union(*(q.terms for q in quadrics))):
        raise AssertionError("the quadrics' monomial supports overlap")
    anchors = [next(iter(q.terms)) for q in quadrics]
    zero = image.ring.field.zero
    coeffs = tuple(image.terms.get(e, zero) / q.terms[e] for q, e in zip(quadrics, anchors))
    combination = sum((q * c for q, c in zip(quadrics, coeffs)), image.ring.zero())
    return coeffs if combination == image else None


# ζ8^w written out for w = 0 … 7, as the coefficients of QQ(zeta8) are reported
ZETA8_POWERS = ("1", "zeta8", "zeta8^2", "zeta8^3", "-1", "-zeta8", "-zeta8^2", "-zeta8^3")


def twist_weights(q: SparsePoly) -> set:
    """The weights w = Σ exps[i]·e_i mod 8 of q's monomials x^e, with twist
    the substitution x_i ↦ ζ8^exps[i]·x_i: twist scales x^e by ζ8^w."""
    _perm, exps = TWIST.substitution()
    return {sum(k * ei for k, ei in zip(exps, e)) % 8 for e in q.terms}


@lru_cache(maxsize=1)
def quadric_span_images() -> tuple:
    """Where shift and twist send the four quadrics, over QQ(zeta8) and
    identically in the plane coordinates: decided once on symbolic_quadrics.

    Returns (label, coefficients) pairs labelled shift_q0 … shift_q3,
    twist_q0 … twist_q3: the coefficients c of g·q_i = Σ_j c_j·q_j, written
    out as elements of QQ(zeta8), or None off the span.
    * Shift permutes the variables: span_coefficients reads its images off
      over QQ.  It sends q_k to q_{k+1} by construction for k < 3; shift(q3)
      = shift⁴ f = f is the evidence.
    * Twist scales each monomial by ζ8 to its weight (twist_weights), so
      twist(q_k) = ζ8^w·q_k when every monomial of q_k has the weight w.
      Otherwise twist(q_k), with the support of q_k, is off the span: the
      supports are pairwise disjoint, so an image in the span is a multiple
      of q_k.  shiftᵏ f has only monomials x_i·x_j with i + j ≡ −2k (mod 8),
      the one weight 2k.
    Memoized."""
    quadrics = symbolic_quadrics()
    shift, twist = [], []
    for k, q in enumerate(quadrics):
        coeffs = span_coefficients(quadrics, shift_poly(q))
        shift.append((f"shift_q{k}", None if coeffs is None else tuple(map(str, coeffs))))
        weights = twist_weights(q)
        scaled = tuple(ZETA8_POWERS[max(weights)] if j == k else "0" for j in range(4))
        twist.append((f"twist_q{k}", scaled if len(weights) == 1 else None))
    return (*shift, *twist)


def orbit_singularity_data(y: MinusPlanePoint) -> dict:
    """The orbit size, the base cone rank, and how many orbit points are
    certified with Jacobian rank 3 and with a rank-4 cone (odp_proxy_sweep).
    The orbit is H/center acting freely (odp_proxy_sweep (a)), so its size
    is the quotient order.

    Raises on a degenerate base point (callers fall back to the witness).
    """
    carried, cone = odp_proxy_sweep(y)
    return {
        "orbit_size": str(center_and_quotient().quotient_order),
        "rank3_points": str(carried),
        "base_cone_rank": str(cone),
        "cone_rank4": carried,
    }


def odp_proxy_sweep(y: MinusPlanePoint) -> tuple:
    """How many orbit points have Jacobian rank 3 and a rank-4 cone, and the
    cone rank at the base point, from evidence at the rational base point
    v = y.embed() alone:

    (a) the orbit of v has |H/center| = 64 distinct points: no element of
        INVOLUTIONS fixes v, and a nontrivial stabilizer in the faithful
        (Z/8)² would hold one, so the stabilizer is trivial;
    (b) shift and twist map the span of the four quadrics into itself,
        identically in y (quadric_span_images, decided once on the symbolic
        quadrics);
    (c) over QQ, the Jacobian at v has rank 3 and the cone at v has rank 4
        (odp_normal_hessian_rank).

    Raises DegeneratePoint when (a) or (c) fails, and when y1·y3 = 0, where
    the quadrics lose their squares and with them the leading terms that
    singular.singular_scheme_mod_p counts with (callers fall back to the
    witness).  Carries the quotient order, 64 points, when (b) holds;
    without it only the base point itself is certified, and it carries 1.

    Why (a)–(c) certify all 64 points.  Let A be the matrix by which a group
    element acts on points, so the orbit is {A·v}, and q the column of the
    four quadrics.
    * A substitution that maps a finite-dimensional span into itself is
      injective on it, so it maps the span onto itself, and so does its
      inverse: the direction of the action does not matter, and (b) holds
      for the whole group that shift and twist generate.  So q∘A = C·q with
      C an invertible 4×4 matrix, and q(A·v) = C·q(v) = 0.
    * Then Aᵀ·H_i·A = Σ_j C_ij·H_j for the constant Hessians H_i, the
      Jacobian rows H_i·v go to J(A·v) = C·J(v)·A⁻¹, and the multiplier λ
      to λ·C⁻¹.  The bordered matrix B of odp_normal_hessian_rank therefore
      obeys one congruence, B(A·v) = diag(A⁻ᵀ, C)·B(v)·diag(A⁻¹, Cᵀ), so
      rank B and rank J are the same at v and A·v, and with them the cone
      rank rank B − 2·rank J.
    Rank does not change under the field extension QQ ⊂ QQ(zeta8), where
    the orbit points live.
    """
    if not y.y1 * y.y3:
        raise DegeneratePoint(f"y1·y3 = 0 at {y}: the quadrics have no square terms")
    v = y.embed()
    fixer = next((g for g in INVOLUTIONS if g.act_on_point(v) == v), None)
    if fixer is not None:
        raise DegeneratePoint(f"{fixer!r} fixes {y}: its orbit has at most 32 points")
    cone = odp_normal_hessian_rank(build_system(y), v)
    if cone != 4:
        raise DegeneratePoint(f"quadratic cone rank {cone} != 4 at the base point")
    invariant = all(sol is not None for _label, sol in quadric_span_images())
    return center_and_quotient().quotient_order if invariant else 1, cone


# ---------------------------------------------------------------------------
# the minus-plane intersection


def restrict_to_minus_plane(q: SparsePoly) -> SparsePoly:
    """Restrict an 8-variable polynomial to the minus plane, in coordinates
    (y1, y2, y3) via minus_plane_coords."""
    ring = plane_ring(q.ring.field)
    return q.substitute(minus_plane_coords(ring.zero(), *ring.gens()), ring)


def minus_plane_conics(y: MinusPlanePoint) -> tuple:
    """The four quadrics at y restricted to the minus plane, over y's field."""
    return tuple(restrict_to_minus_plane(q) for q in build_system(y).quadrics)


# the linear forms ℓ tried by minus_plane_certificate (b), in order
PLANE_LINEAR_FORMS = ((1, 2, 5), (1, 3, 7), (2, 1, 3))


def _plane_monomials(degree: int) -> list:
    return [(a, b, degree - a - b) for a in range(degree + 1) for b in range(degree + 1 - a)]


def _plane_degree_rank(polys, degree: int) -> int:
    """dim (polys)_degree for plane polynomials over QQ: the number of
    invariant factors of the integer matrix of their monomial multiples in
    that degree, each polynomial scaled to integer coefficients.  A zero
    polynomial has no degree and adds no multiples, so it is skipped."""
    cols = {e: j for j, e in enumerate(_plane_monomials(degree))}
    rows = []
    for f in filter(None, polys):
        scale = math.lcm(*(c.denominator for c in f.terms.values()))
        for m in _plane_monomials(degree - f.homogeneous_degree()):
            row = [0] * len(cols)
            for e, c in f.terms.items():
                row[cols[tuple(i + j for i, j in zip(e, m))]] = int(c * scale)
            rows.append(row)
    return len(smith_normal_form(rows))


def minus_plane_certificate(y: MinusPlanePoint) -> tuple:
    """That V meets the minus plane in exactly the four named points, each
    reduced, decided over QQ.  With I the ideal of the restricted conics in
    S = QQ[y1, y2, y3], two parts are counted:
    (b) (I + ℓ)_3 = S_3, for ℓ the first PLANE_LINEAR_FORMS form through no
        named point (y1 + 2·y2 + 5·y3 alone meets one at some base points,
        (−9, −8, 5) among them; a form through a point of V(I) cannot
        pass).  One always exists: each named point is a fixed signed
        permutation of y, and each of the 4³ ways to put one named point on
        every form asks y to solve a 3×3 system of nonzero determinant.
        So V(I) misses ℓ = 0, and multiplication by ℓ maps (S/I)_d onto
        (S/I)_{d+1} for d ≥ 2: HF(S/I, d) ≤ 4 from degree 2 on, and the
        scheme, whose Hilbert function in high degree is its length, is
        finite of length at most 4;
    (c) the four named points lie on the conics and are projectively
        distinct.
    Four distinct points in a scheme of length at most 4 are all of it, each
    of length 1.  (b) and (c) also imply (a), HF(S/I, 2) = 4, which is
    therefore not counted: under (b) the conics span at least 2 dimensions of
    S_2 (one conic q gives dim (q·S_1 + ℓ·S_2) ≤ 3 + 6 < 10), and under (c)
    at most 2, as four distinct points impose independent conditions on
    conics.  Returns (ok, payload).
    """
    conics = minus_plane_conics(y)
    named = named_intersection_points(y)
    ring = conics[0].ring
    forms = [sum((g * c for g, c in zip(ring.gens(), l)), ring.zero()) for l in PLANE_LINEAR_FORMS]
    ell = next(f for f in forms if all(f.eval(pt.coords) for pt in named))
    rank3 = _plane_degree_rank((*conics, ell), 3)
    payload = {
        "exact_membership_of_named_points": all(not c.eval(pt.coords) for pt in named for c in conics),
        "distinct_named_points": len({ProjPoint(QQ, pt.coords) for pt in named}),
        "hilbert_linear_form": ell.text(),
        "hilbert_deg3_rank": f"{rank3}/10",
    }
    ok = payload["exact_membership_of_named_points"] and payload["distinct_named_points"] == 4
    return ok and rank3 == 10, payload


def plane_zeros_mod_p(polys, p: int) -> list:
    """All common zeros in P²(GF(p)) of plane polynomials over QQ: each of
    the p²+p+1 points, first nonzero coordinate 1, evaluated in every
    polynomial on the int residues of its coefficients.

    Returns the zeros as coordinate triples, (1:a:t) by increasing (a, t),
    then (0:1:t) by t, then (0:0:1).
    """
    terms = [[(e, residue(c, p)) for e, c in f.sorted_terms()] for f in polys]
    points = [(1, a, t) for a in range(p) for t in range(p)]
    points += [(0, 1, t) for t in range(p)] + [(0, 0, 1)]
    return [
        pt
        for pt in points
        if all(sum(c * pt[0] ** e0 * pt[1] ** e1 * pt[2] ** e2 for (e0, e1, e2), c in f) % p == 0 for f in terms)
    ]


def minus_plane_solutions_mod_p(y: MinusPlanePoint, p: int) -> list:
    """The common zeros of the restricted conics in P²(GF(p)), as the
    normalized int triples of plane_zeros_mod_p: the tests' GF(p) reference
    for minus_plane_certificate, and the count mod 17 a degenerate-line FAIL
    reports.  No verdict reads it."""
    return plane_zeros_mod_p(minus_plane_conics(y), p)


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
    return MembershipProblem(list(moore_minor_generators()), psi_quartic_target())


# ---------------------------------------------------------------------------
# the plane quartic


def quartic_curve_poly() -> SparsePoly:
    w0, w1, w2 = conic_ring().gens()
    return w1**4 - w0**3 * w2 * 8 - w0 * w2**3 * 8


def quartic_partials():
    f = quartic_curve_poly()
    return tuple(f.partial(i) for i in range(3))


def quartic_smooth_mod_p(p: int) -> bool:
    """No common zero of the three partials on P²(GF(p)), exhaustively.  No
    check calls it: it is the tests' GF(p) reference for the Nullstellensatz
    certificates, and a hook of the traced benchmark."""
    return not plane_zeros_mod_p(quartic_partials(), p)


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
    P²(GF(p)) (quartic_smooth_mod_p) sees only the GF(p)-rational points of
    one reduction, not P²(Q̄).
    """
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

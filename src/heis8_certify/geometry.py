"""Construction-specific certificates: the quadric system attached to a base
point of the minus plane, its singular orbit, the Moore-matrix/Pfaffian
pipeline, the plane-quartic image of the conic map, and the topology numbers
of a (2,2,2,2) complete intersection in P⁷.

Conventions fixed here once and regression-tested:

* the minus plane P²₋ ⊂ P⁷ is x0 = x1+x7 = x2+x6 = x3+x5 = x4 = 0, and the
  plane point (a : b : c) embeds as (0 : a : b : c : 0 : -c : -b : -a);
* the 4×4 Moore matrix has entries x_{i+j}·y_{i-j} + x_{i+j+4}·y_{i-j+4},
  indices mod 8; its restriction to the minus plane substitutes into the
  x-slot; interchanging rows 1 and 3 (0-based) of the restriction makes it
  skew-symmetric;
* with the Pfaffian convention m01·m23 − m02·m13 + m03·m12, the restricted
  skew matrix has Pfaffian exactly  w0·A + w1·B + w2·C  (recorded sign +1),
  where w0 = 2·x1·x3, w1 = −x2², w2 = x1²+x3² and A, B, C are the conic-plane
  pullbacks A = (y1²−y3²+y5²−y7²)/2, B = (y0−y4)(y2−y6), C = y3·y7−y1·y5.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import kernels
from .errors import (
    BadPrime,
    DegeneratePoint,
    PointNotOnVariety,
    UnluckyPrime,
    ZeroPoint,
)
from .exactmath import GF, QI8, QQ, embed_cyclo_mod_p, find_order8_root, is_prime
from .heisenberg import SHIFT, TWIST, HeisenbergElement, ProjPoint, orbit
from .linalg import Matrix, MembershipProblem, graded_membership
from .multipoly import (
    PolyMatrix,
    PolyRing,
    SparsePoly,
    TruncatedSeries,
    apply_variable_map,
    ci_invariants,
    grevlex_key,
    pfaffian4,
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


@dataclass(frozen=True)
class MinusPlanePoint:
    """A point (y1 : y2 : y3) of the minus plane, over any coefficient field."""

    field: object
    y1: object
    y2: object
    y3: object

    def __post_init__(self):
        for name in ("y1", "y2", "y3"):
            object.__setattr__(self, name, self.field.coerce(getattr(self, name)))
        if not (self.y1 or self.y2 or self.y3):
            raise ZeroPoint("minus-plane point with all coordinates zero")

    @classmethod
    def rational(cls, y1, y2, y3) -> "MinusPlanePoint":
        return cls(QQ, Fraction(y1), Fraction(y2), Fraction(y3))

    @property
    def coords(self):
        return (self.y1, self.y2, self.y3)

    def embed(self) -> ProjPoint:
        y1, y2, y3 = self.coords
        return ProjPoint(self.field, (self.field.zero, y1, y2, y3, self.field.zero, -y3, -y2, -y1))

    def to_field(self, field) -> "MinusPlanePoint":
        return MinusPlanePoint(field, *(field.coerce(c) for c in self.coords))

    def plane_point(self, field=None) -> ProjPoint:
        f = field if field is not None else self.field
        return ProjPoint(f, [f.coerce(c) for c in self.coords])


def standard_quadrics(field):
    """The three base quadrics x0²+x4², x1·x7+x3·x5, x2·x6."""
    ring = x_ring(field)
    x = ring.gens()
    return (x[0] ** 2 + x[4] ** 2, x[1] * x[7] + x[3] * x[5], x[2] * x[6])


def shift_substitution(k: int):
    """Permutation data of the k-fold coordinate shift x_i ↦ x_{i-k}."""
    return tuple((i - k) % 8 for i in range(8))


@dataclass(frozen=True)
class VarietySystem:
    """The four quadrics f, shift(f), shift²(f), shift³(f) at a base point,
    together with their 4×8 Jacobian."""

    point: MinusPlanePoint
    ring: PolyRing
    quadrics: tuple
    jacobian: PolyMatrix

    def to_field(self, field) -> "VarietySystem":
        return build_system(self.point.to_field(field))

    @cached_property
    def hessians(self):
        """Constant 8×8 second-derivative matrices of the four quadrics."""
        out = []
        zero_pt = [self.ring.field.zero] * 8
        for q in self.quadrics:
            rows = []
            for i in range(8):
                qi = q.partial(i)
                rows.append([qi.partial(j).eval(zero_pt) for j in range(8)])
            out.append(rows)
        return out


def build_system(y: MinusPlanePoint) -> VarietySystem:
    field = y.field
    ring = x_ring(field)
    f0, f1, f2 = standard_quadrics(field)
    y1, y2, y3 = y.coords
    f = f0 * (y1 * y3) - f1 * (y2 * y2) + f2 * (y1 * y1 + y3 * y3)
    ones = [field.one] * 8
    quadrics = tuple(
        apply_variable_map(shift_substitution(k), ones, f) for k in range(4)
    )
    embedded = y.embed().coords
    for q in quadrics:
        if q.homogeneous_degree() != 2:
            raise DegeneratePoint(f"quadric of degree {q.homogeneous_degree()} at {y}")
        if q.eval(embedded):
            raise DegeneratePoint(f"base point {y} does not satisfy its own quadrics")
    jac = PolyMatrix(ring, [[q.partial(j) for j in range(8)] for q in quadrics])
    return VarietySystem(y, ring, quadrics, jac)


def symbolic_base_identities() -> list:
    """With symbolic plane coordinates u1, u2, u3, each shifted quadric
    vanishes identically on the embedded point; returns the four residues."""
    ring = PolyRing(QQ, X_NAMES + ("u1", "u2", "u3"))
    g = ring.gens()
    x, (u1, u2, u3) = g[:8], g[8:]
    f0 = x[0] ** 2 + x[4] ** 2
    f1 = x[1] * x[7] + x[3] * x[5]
    f2 = x[2] * x[6]
    f = f0 * (u1 * u3) - f1 * (u2 * u2) + f2 * (u1 * u1 + u3 * u3)
    zero = ring.zero()
    images = [zero, u1, u2, u3, zero, -u3, -u2, -u1] + [u1, u2, u3]
    residues = []
    perm11 = tuple((i - 1) % 8 for i in range(8)) + (8, 9, 10)
    ones = [QQ.one] * 11
    for _ in range(4):
        residues.append(f.substitute(images, ring))
        f = apply_variable_map(perm11, ones, f)
    return residues


def point_on_variety(system: VarietySystem, v: ProjPoint) -> bool:
    return all(not q.eval(v.coords) for q in system.quadrics)


def jacobian_rank_at(system: VarietySystem, v: ProjPoint) -> int:
    """Rank of the 4×8 Jacobian at a point of the variety: 3 at a singular
    point of the complete intersection, 4 at a smooth one."""
    if not point_on_variety(system, v):
        raise PointNotOnVariety(f"{v} is not on the quadric system")
    entries = system.jacobian.eval(v.coords)
    return Matrix(system.ring.field, entries).rank()


def odp_normal_hessian_rank(system: VarietySystem, v: ProjPoint) -> int:
    """Rank of the quadratic cone on the 4-dimensional normal slice.

    At a corank-1 point the four quadrics admit (up to scale) one linear
    combination L with dL(v) = 0; restricting the constant Hessian of L to
    the tangent space of the three transverse equations gives the quadratic
    cone of the singularity.  Rank 4 is the ordinary-double-point condition.

    Rank 3 on the 7 columns other than k (where v_k = 1) is the rank of the
    full 4×8 Jacobian: by the Euler relation J(v)·v = 2·q(v) = 0 on the
    variety, column k is a combination of the others.
    """
    if not point_on_variety(system, v):
        raise PointNotOnVariety(f"{v} is not on the quadric system")
    field = system.ring.field
    coords = list(v.coords)
    k = next(i for i, c in enumerate(coords) if c)
    inv = field.one / coords[k]
    coords = [c * inv for c in coords]
    cols = [j for j in range(8) if j != k]

    jac_full = system.jacobian.eval(coords)
    jac = Matrix(field, [[row[j] for j in cols] for row in jac_full])
    tangent = jac.kernel_basis()
    if len(tangent) != 4:
        raise DegeneratePoint(f"Jacobian rank {7 - len(tangent)} != 3 at {v}")
    (lam,) = jac.transpose().kernel_basis()  # rank 3 with 4 rows: a line

    hessians = system.hessians
    h = [
        [
            sum((lam[q] * hessians[q][cols[i]][cols[j]] for q in range(4)), field.zero)
            for j in range(7)
        ]
        for i in range(7)
    ]
    hmat = Matrix(field, h)
    b = Matrix(field, [[vec[i] for vec in tangent] for i in range(7)])  # 7×4 basis
    restricted = b.transpose() * hmat * b
    return restricted.rank()


# ---------------------------------------------------------------------------
# orbits and the singular locus


def orbit_of_base_point(y: MinusPlanePoint):
    """The group orbit of the embedded base point, over QQ(zeta8)."""
    lifted = y.to_field(QI8)
    return orbit(lifted.embed())


def named_intersection_points(y: MinusPlanePoint):
    """The four distinguished plane points: y and its images under the
    order-2 actions of shift⁴, twist⁴ and their product (these act on the
    minus plane over the base field itself, since only ±1 scalars occur)."""
    embedded = y.embed()
    out = []
    for g in (
        HeisenbergElement.identity(),
        SHIFT**4,
        TWIST**4,
        (SHIFT**4) * (TWIST**4),
    ):
        w = g.act_on_point(embedded).coords
        zero = y.field.zero
        if w[0] != zero or w[4] != zero or w[1] + w[7] != zero or w[2] + w[6] != zero or w[3] + w[5] != zero:
            raise DegeneratePoint("group image left the minus plane")
        out.append(MinusPlanePoint(y.field, w[1], w[2], w[3]))
    return out


def sample_points(system: VarietySystem, p: int, n: int, seed: int):
    """Rejection-sample projective GF(p) points on all four quadrics.

    Returns (distinct projective points in draw order, raw hit count).
    """
    if not is_prime(p) or p % 8 != 1:
        raise BadPrime(f"p={p} is not a prime congruent to 1 mod 8")
    field = GF(p)
    sys_p = system if system.ring.field == field else system.to_field(field)
    ti, tj, tc, offsets = [], [], [], [0]
    for q in sys_p.quadrics:
        for e, c in q.sorted_terms():
            idx = [i for i in range(8) for _ in range(e[i])]
            ti.append(idx[0])
            tj.append(idx[1])
            tc.append(c.value)
        offsets.append(len(ti))
    hits, rows = kernels.sample_quadric_points(
        np.asarray(ti), np.asarray(tj), np.asarray(tc), np.asarray(offsets), p, n, seed
    )
    seen = set()
    points = []
    for row in rows:
        pt = ProjPoint(field, [field.coerce(int(v)) for v in row])
        if pt not in seen:
            seen.add(pt)
            points.append(pt)
    return points, hits


def orbit_mod_p(y: MinusPlanePoint, p: int):
    """Reduction of the 64 orbit points mod p, both directly over GF(p) and
    through the cyclotomic embedding; the two must agree."""
    field = GF(p)
    direct = orbit(y.to_field(field).embed())
    root = find_order8_root(p)
    lifted = orbit_of_base_point(y)
    reduced = set()
    for pt in lifted:
        reduced.add(ProjPoint(field, [embed_cyclo_mod_p(c, p, root) for c in pt.coords]))
    if reduced != set(direct):
        raise UnluckyPrime(f"cyclotomic reduction of the orbit disagrees mod {p}")
    return direct


def off_orbit_sampling_check(y: MinusPlanePoint, p: int, n: int, seed: int) -> dict:
    """Sampling corroboration that the singular locus is just the orbit:
    every sampled rank-3 point must reduce into the orbit."""
    field = GF(p)
    sys_p = build_system(y.to_field(field))
    points, hits = sample_points(sys_p, p, n, seed)
    orb = orbit_mod_p(y, p)
    if len(orb) != 64:
        raise UnluckyPrime(f"orbit mod {p} has {len(orb)} points")
    orbit_set = set(orb)
    rank3 = 0
    stray = 0
    for pt in points:
        if jacobian_rank_at(sys_p, pt) == 3:
            rank3 += 1
            if pt not in orbit_set:
                stray += 1
    if stray:
        raise UnluckyPrime(f"{stray} rank-3 sample points mod {p} are off the orbit")
    return {
        "sample_prime": str(p),
        "sample_trials": str(n),
        "sample_hits": str(hits),
        "sample_distinct": str(len(points)),
        "sample_rank3": str(rank3),
        "sample_rank3_off_orbit": "0",
    }


@lru_cache(maxsize=None)
def quadric_span_images(y: MinusPlanePoint) -> tuple:
    """Where shift and twist send the four quadrics at y, over QQ(zeta8).

    Returns (label, coefficients) pairs labelled shift_q0 … shift_q3,
    twist_q0 … twist_q3: the coefficients c solve g·q_i = Σ_j c_j·q_j, and
    are None when g·q_i lies outside the span.  Memoized per point.
    """
    quadrics = build_system(y.to_field(QI8)).quadrics
    out = []
    for gname, g in (("shift", SHIFT), ("twist", TWIST)):
        for qi, q in enumerate(quadrics):
            image = g.act_on_poly(q)
            monomials = sorted(
                {e for poly in (*quadrics, image) for e in poly.terms}, key=grevlex_key
            )
            a = Matrix(
                QI8,
                [[poly.terms.get(e, QI8.zero) for poly in quadrics] for e in monomials],
            )
            sol = a.solve([image.terms.get(e, QI8.zero) for e in monomials])
            out.append((f"{gname}_q{qi}", None if sol is None else tuple(sol)))
    return tuple(out)


def orbit_singularity_data(y: MinusPlanePoint) -> dict:
    """Orbit size 64, the base cone rank 4, and how many orbit points are
    certified with Jacobian rank 3 and with a rank-4 cone (odp_proxy_sweep).

    Raises on a degenerate base point (callers redraw).
    """
    carried = odp_proxy_sweep(y)
    return {"orbit_size": "64", "rank3_points": str(carried), "base_cone_rank": "4", "cone_rank4": carried}


def odp_proxy_sweep(y: MinusPlanePoint) -> int:
    """How many orbit points have Jacobian rank 3 and a rank-4 cone, from
    evidence at the rational base point v = y.embed() alone:

    (a) the orbit of v has 64 distinct points;
    (b) shift and twist map the span of the four quadrics at y into itself
        (quadric_span_images);
    (c) over QQ, the Jacobian at v has rank 3 and the cone at v has rank 4
        (odp_normal_hessian_rank).

    Raises DegeneratePoint when (a) or (c) fails (callers redraw).  Returns
    64 when (b) holds; without it only the base point itself is certified,
    and it returns 1.

    Why (a)–(c) certify all 64 points.  Let A be the matrix by which a group
    element acts on points, so the orbit is {A·v}, and q the column of the
    four quadrics.
    * A substitution that maps a finite-dimensional span into itself is
      injective on it, so it maps the span onto itself, and so does its
      inverse: the direction of the action does not matter, and (b) holds
      for the whole group that shift and twist generate.  So q∘A = C·q with
      C an invertible 4×4 matrix.
    * Then q(A·v) = C·q(v) = 0, and by the chain rule J(A·v)·A = C·J(v), so
      the Jacobian rank is the same at v and A·v.
    * The multiplier λ with λ·J(v) = 0 goes to λ·C⁻¹, and Aᵀ·H_i·A = Σ_j
      C_ij·H_j for the constant Hessians H_i, so Aᵀ·Hess(λ·C⁻¹·q)·A =
      Hess(λ·q).  The tangent space ker J(A·v) is A·ker J(v), so the two
      restricted Hessians are congruent by A, and the cone rank is also
      the same.
    * Hess(λ·q)·v = (λ·J(v))ᵀ = 0, so v lies in the radical of Hess(λ·q):
      its rank on ker J(v) is its rank on any complement of v there, and
      dropping the chart column k (where v_k ≠ 0) does not change that
      rank.  The charts at v and at A·v therefore measure the same cone.
    Rank does not change under the field extension QQ ⊂ QQ(zeta8), where
    the orbit points live.
    """
    orb = orbit_of_base_point(y)
    if len(orb) != 64:
        raise DegeneratePoint(f"orbit of {y} has {len(orb)} points")
    cone = odp_normal_hessian_rank(build_system(y), y.embed())
    if cone != 4:
        raise DegeneratePoint(f"quadratic cone rank {cone} != 4 at the base point")
    if all(sol is not None for _label, sol in quadric_span_images(y)):
        return len(orb)
    return 1


# ---------------------------------------------------------------------------
# the minus-plane intersection


def restrict_to_minus_plane(q: SparsePoly) -> SparsePoly:
    """Restrict an 8-variable polynomial to the minus plane, in coordinates
    (y1, y2, y3) via the embedding (0, y1, y2, y3, 0, -y3, -y2, -y1)."""
    ring = plane_ring(q.ring.field)
    t1, t2, t3 = ring.gens()
    zero = ring.zero()
    return q.substitute([zero, t1, t2, t3, zero, -t3, -t2, -t1], ring)


def projective_plane_points(p: int) -> np.ndarray:
    """All p²+p+1 points of P²(GF(p)) as canonical coordinate rows."""
    a = np.arange(p, dtype=np.int64)
    g1, g2 = np.meshgrid(a, a, indexing="ij")
    block1 = np.stack(
        [np.ones(p * p, dtype=np.int64), g1.ravel(), g2.ravel()], axis=1
    )
    block2 = np.stack(
        [np.zeros(p, dtype=np.int64), np.ones(p, dtype=np.int64), a], axis=1
    )
    block3 = np.array([[0, 0, 1]], dtype=np.int64)
    return np.concatenate([block1, block2, block3], axis=0)


def eval_plane_poly_mod_p(q: SparsePoly, pts: np.ndarray, p: int) -> np.ndarray:
    """Evaluate a GF(p) polynomial in 3 variables on an array of points."""
    acc = np.zeros(len(pts), dtype=np.int64)
    for e, c in q.sorted_terms():
        term = np.full(len(pts), int(c.value), dtype=np.int64)
        for i, ei in enumerate(e):
            for _ in range(ei):
                term = term * pts[:, i] % p
        acc = (acc + term) % p
    return acc


def minus_plane_solutions_mod_p(y: MinusPlanePoint, p: int):
    """Exhaustively solve the restricted system on P²(GF(p)); returns the
    solution points and the reductions of the four named points."""
    if not is_prime(p) or p % 8 != 1:
        raise BadPrime(f"p={p} is not a prime congruent to 1 mod 8")
    field = GF(p)
    system = build_system(y)
    conics = [restrict_to_minus_plane(q) for q in system.quadrics]
    ring_p = plane_ring(field)
    conics_p = [c.map_coefficients(field.coerce, ring_p) for c in conics]

    pts = projective_plane_points(p)
    mask = np.ones(len(pts), dtype=bool)
    for c in conics_p:
        mask &= eval_plane_poly_mod_p(c, pts, p) == 0
    solutions = {
        ProjPoint(field, [field.coerce(int(v)) for v in row]) for row in pts[mask]
    }

    named = set()
    for pt in named_intersection_points(y):
        reduced = [field.coerce(c) for c in pt.coords]
        if not any(reduced):
            raise UnluckyPrime(f"named point vanishes mod {p}")
        named.add(ProjPoint(field, reduced))
    if len(named) != 4:
        raise UnluckyPrime(f"named points collide mod {p}")
    return solutions, named


def minus_plane_intersection_exact(y: MinusPlanePoint) -> bool:
    """The four named points satisfy the restricted system over the base field."""
    system = build_system(y)
    conics = [restrict_to_minus_plane(q) for q in system.quadrics]
    for pt in named_intersection_points(y):
        if any(c.eval(pt.coords) for c in conics):
            return False
    return True


def minus_plane_intersection(y: MinusPlanePoint, p: int) -> dict:
    """Intersection certificate payload for one prime.

    Raises UnluckyPrime when the mod-p count exceeds the four named points.
    That the named points solve the system over the base field is
    minus_plane_intersection_exact, decided once per base point.
    """
    solutions, named = minus_plane_solutions_mod_p(y, p)
    if solutions != named:
        if named - solutions:
            raise UnluckyPrime(f"a named point is not a solution mod {p}")
        raise UnluckyPrime(f"{len(solutions)} solutions mod {p}, expected the 4 named points")
    return {
        f"plane_points_mod_{p}": str(p * p + p + 1),
        f"solutions_mod_{p}": str(len(solutions)),
    }


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
    x, yv = g[:8], g[8:]
    zero = ring.zero()
    images = [zero, x[1], x[2], x[3], zero, -x[3], -x[2], -x[1]] + list(yv)
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


@dataclass(frozen=True)
class MooreData:
    full: PolyMatrix
    restricted: PolyMatrix
    skew: PolyMatrix
    pfaffian: SparsePoly
    w: tuple
    pullbacks: tuple
    sign: int


def moore_pipeline() -> MooreData:
    """Full matrix → minus-plane restriction → row swap → Pfaffian, with the
    Pfaffian compared against the reference conic expression."""
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
    """B⁴ − 8·A³·C − 8·A·C³ under the conic pullbacks: homogeneous of degree 8."""
    a, b, c = conic_pullbacks(y_ring(), 0)
    return b**4 - a**3 * c * 8 - a * c**3 * 8


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
    """No common zero of the three partials on P²(GF(p)), exhaustively."""
    field = GF(p)
    ring_p = PolyRing(field, CONIC_NAMES)
    parts = [g.map_coefficients(field.coerce, ring_p) for g in quartic_partials()]
    pts = projective_plane_points(p)
    mask = np.ones(len(pts), dtype=bool)
    for g in parts:
        mask &= eval_plane_poly_mod_p(g, pts, p) == 0
    return not mask.any()


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

    The GF(p) sweeps of quartic_smooth_mod_p only corroborate: they see
    the GF(p)-rational points of one reduction, not P²(Q̄).
    """
    parts = list(quartic_partials())
    ring = conic_ring()
    certs = []
    for i in range(3):
        certs.append(graded_membership(parts, ring.var(i) ** 7))
    return certs


def quartic_genus() -> int:
    inv = ci_invariants(2, (4,))
    genus = (2 - inv.euler) // 2
    if genus != 3 or (4 - 1) * (4 - 2) // 2 != 3:
        raise AssertionError("plane quartic genus computation is inconsistent")
    return genus


# ---------------------------------------------------------------------------
# topology numbers


def topology_numbers() -> dict:
    """Degree, c₂·H and Euler characteristic of the (2,2,2,2) intersection,
    the node-resolution identity, and the Hilbert-series cross-check.

    The Hilbert series of the coordinate ring is (1−t²)⁴/(1−t)⁸; cancelling
    (1−t)⁴ leaves the reduced numerator (1+t)⁴ over (1−t)^4, and the numerator
    value at t = 1 is the degree.
    """
    inv = ci_invariants(7, (2, 2, 2, 2))
    numerator = TruncatedSeries([1, 0, -1], 4) ** 4 * (TruncatedSeries([1, -1], 4) ** 4).inverse()
    value = sum(numerator.coeffs)
    if value.denominator != 1:
        raise AssertionError("Hilbert numerator value is not an integer")
    return {
        "degree": inv.degree,
        "c2_hyperplane_degree": inv.c2_hyperplane_degree,
        "euler_smooth": inv.euler,
        "node_identity": inv.euler + 2 * 64,
        "hilbert_numerator_at_1": int(value),
        "hilbert_coeffs": ",".join(str(c) for c in numerator.coeffs),
    }

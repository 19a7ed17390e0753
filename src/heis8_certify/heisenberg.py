"""The finite Heisenberg group of level 8 and its action on coordinates,
polynomials, and projective points.

Generators act on the coordinate ring by the substitutions

    shift:  x_i ↦ x_{i-1}          (indices mod 8)
    twist:  x_i ↦ ξ^{-i} · x_i     (ξ a primitive 8th root of unity)

Composition of substitutions gives the reordering rule twist∘shift =
ξ·(shift∘twist); every element has the normal form shift^a · twist^b · ξ^c
with a, b, c in Z/8.  The induced action on points of P⁷ is by the *inverse*
substitution, so that eval(g·q, g·v) = eval(q, v) holds exactly for every
polynomial q and point v; this adjoint contract pins down the direction
of the action.
"""
from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from .errors import ZeroPoint
from .linalg import smith_normal_form
from .multipoly import SparsePoly, apply_variable_map


class HeisenbergElement:
    """Normal form shift^a · twist^b · ξ^c, exponents stored mod 8.  Equal
    and hashed by (a, b, c); treated as immutable."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int, c: int):
        self.a, self.b, self.c = a % 8, b % 8, c % 8

    def __eq__(self, other):
        return isinstance(other, HeisenbergElement) and (self.a, self.b, self.c) == (other.a, other.b, other.c)

    def __hash__(self):
        return self.a | self.b << 3 | self.c << 6

    @classmethod
    def identity(cls) -> "HeisenbergElement":
        return cls(0, 0, 0)

    def compose(self, other: "HeisenbergElement") -> "HeisenbergElement":
        """Normal form of self∘other as substitution automorphisms."""
        return HeisenbergElement(
            self.a + other.a,
            self.b + other.b,
            self.c + other.c + self.b * other.a,
        )

    __mul__ = compose

    def inverse(self) -> "HeisenbergElement":
        return HeisenbergElement(-self.a, -self.b, self.a * self.b - self.c)

    def __pow__(self, e: int) -> "HeisenbergElement":
        if e < 0:
            return self.inverse() ** (-e)
        acc = HeisenbergElement.identity()
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    def is_identity(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0

    def commutes_with(self, other: "HeisenbergElement") -> bool:
        return self * other == other * self

    def substitution(self):
        """(perm, scalar exponents): x_i ↦ ξ^exps[i] · x_{perm[i]}."""
        perm = tuple((i - self.a) % 8 for i in range(8))
        exps = tuple((self.c - i * self.b) % 8 for i in range(8))
        return perm, exps

    def act_on_poly(self, poly: SparsePoly) -> SparsePoly:
        """Apply the substitution to a polynomial in 8 variables.

        Raises MissingRootOfUnity when a needed power of ξ does not exist in
        the coefficient field (only exponents 0 and 4 exist over QQ).
        """
        perm, exps = self.substitution()
        field = poly.ring.field
        scalars = [field.root_of_unity(k) for k in exps]
        return apply_variable_map(perm, scalars, poly)

    def act_on_point(self, v: "ProjPoint") -> "ProjPoint":
        """The inverse-substitution action on points of P⁷ (see module docstring)."""
        if len(v.coords) != 8:
            raise ZeroPoint("the group acts on points of P^7 (8 coordinates)")
        perm, exps = self.inverse().substitution()
        field = v.field
        # a zero coordinate asks for no root of unity: QQ points rely on this
        coords = [
            src if k == 0 or not src else field.root_of_unity(k) * src
            for src, k in zip((v.coords[j] for j in perm), exps)
        ]
        return ProjPoint(field, coords)

    def __repr__(self):
        return f"shift^{self.a}*twist^{self.b}*zeta8^{self.c}"


SHIFT = HeisenbergElement(1, 0, 0)
TWIST = HeisenbergElement(0, 1, 0)
CENTRAL = HeisenbergElement(0, 0, 1)


def enumerate_group():
    """All 512 normal forms."""
    return [
        HeisenbergElement(a, b, c)
        for a, b, c in itertools.product(range(8), range(8), range(8))
    ]


class CenterAndQuotient(NamedTuple):
    center: tuple
    quotient_order: int
    invariant_factors: tuple


@lru_cache(maxsize=1)
def center_and_quotient() -> CenterAndQuotient:
    """Center as the elements commuting with shift and twist; quotient
    structure from the kernel lattice of Z² → H/Z, (m, n) ↦ shift^m twist^n · Z.

    Testing the two generators is enough: an element commuting with each
    generator commutes with every product of them, and shift and twist
    generate the whole group (the closure of group-order-512 certifies it).
    Memoized: center-mu8 and quotient-Z8-squared share it.
    """
    center = tuple(
        g for g in enumerate_group() if g.commutes_with(SHIFT) and g.commutes_with(TWIST)
    )
    central = set(center)
    relations = [(8, 0), (0, 8)]
    for m, n in itertools.product(range(8), repeat=2):
        if (m, n) != (0, 0) and HeisenbergElement(m, n, 0) in central:
            relations.append((m, n))
    return CenterAndQuotient(
        center=center,
        quotient_order=512 // len(center),
        invariant_factors=smith_normal_form(relations),
    )


class ProjPoint:
    """A point of projective space: homogeneous coordinates over one field,
    not all zero.  Equality is projective, decided by cross-multiplication;
    hashing goes through the canonical representative (first nonzero
    coordinate scaled to 1)."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        coerce = field.coerce
        self.field = field
        self.coords = tuple(coerce(v) for v in coords)
        if not any(self.coords):
            raise ZeroPoint("all homogeneous coordinates are zero")

    def canonical(self) -> tuple:
        lead = next(v for v in self.coords if v)
        inv = self.field.one / lead
        return tuple(v * inv for v in self.coords)

    def __eq__(self, other):
        if not isinstance(other, ProjPoint):
            return NotImplemented
        if self.field != other.field or len(self.coords) != len(other.coords):
            return False
        a, b = self.coords, other.coords
        n = len(a)
        for i in range(n):
            for j in range(i + 1, n):
                if a[i] * b[j] != a[j] * b[i]:
                    return False
        return True

    def __hash__(self):
        return hash((self.field, self.canonical()))

    def __repr__(self):
        return "(" + " : ".join(repr(v) for v in self.coords) + ")"


def orbit(v: ProjPoint):
    """Distinct projective points of the group orbit (the center acts by
    scalars, so the 64 images shift^a·twist^b·v suffice), by ProjPoint
    equality in first-seen order of (a, b)."""
    images = (HeisenbergElement(a, b, 0).act_on_point(v) for a, b in itertools.product(range(8), repeat=2))
    return list(dict.fromkeys(images))

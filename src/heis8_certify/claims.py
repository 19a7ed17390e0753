"""The claim table: each certified claim's id and statement, in registry order.

`list` prints this table and the configuration check reads its ids, so the
module imports nothing: neither path compiles the check code. registry.py
pairs each row, in order, with the check that certifies the claim.
"""

CLAIMS = (
    ("group-order-512", "the group generated by shift and twist has order 512"),
    ("center-mu8", "the center is the scalar subgroup of 8th roots of unity, order 8"),
    ("quotient-Z8-squared", "the quotient by the center has invariant factors (8, 8)"),
    ("commutator-xi", "twist*shift = zeta8 * shift*twist; the commutator is the central zeta8"),
    ("ideal-invariance", "shift and twist map each quadric into the span of the four quadrics"),
    ("base-point-on-V", "the embedded base point satisfies all four quadrics, identically in the plane coordinates"),
    ("orbit-64-singular", "the singular locus at a general base point is exactly its 64-point orbit, each point of length 1"),
    ("odp-proxy", "every orbit point is corank 1 with a rank-4 quadratic cone on the normal slice"),
    ("minus-plane-4points", "the intersection with the minus plane is exactly the 4 distinguished points"),
    ("moore-skew", "the restricted Moore matrix matches the reference and is skew after swapping rows 1 and 3"),
    ("pfaffian-formula", "Pf = w0*(y1^2-y3^2+y5^2-y7^2)/2 + w1*(y0-y4)*(y2-y6) + w2*(y3*y7-y1*y5), recorded sign +1"),
    ("psi-quartic-membership", "the pullback of w1^4-8*w0^3*w2-8*w0*w2^3 lies in the ideal of 2x2 minors of M(y,y)"),
    ("quartic-smooth-genus3", "w1^4-8*w0^3*w2-8*w0*w2^3 defines a smooth plane quartic of genus 3"),
    ("topology-numbers", "degree 16, c2-degree 64, Euler characteristic -128, and -128 + 2*64 = 0"),
    ("monodromy-nilpotent", "rank(M-I) = 1, (M-I)^2 = 0, monodromy-invariant sublattice of rank 3"),
    ("unipotent-log", "log M = (M-I) - (M-I)^2/2, additive on commuting unipotent pairs"),
    ("wedge-lemma", "for independent e1, e2 and any f outside span(e1^e2): e1^f or e2^f is nonzero over F2"),
    ("torsion-counting", "the 8-torsion of the rank-4 lattice has order 4096 and contains the 64-element section group"),
)


def known_ids():
    return tuple(cid for cid, _claim in CLAIMS)

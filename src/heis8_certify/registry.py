"""The check registry: one check per claim of the claim table (claims.py),
executed by the CLI.

Every check is a pure function RunConfig → CertificateResult, deterministic
given the primes and the base point alone.  A claim's check is found by its
name: check_ then the claim id with each "-" as "_", so the table is the one
place an id is written.  The runner executes the selected checks one after
another, in registry order, which is the table's, and stamps each result with
its id.

Each check imports the math modules it uses when it runs, so loading the
registry loads none of them; `list` and a configuration error read the claim
table alone and do not load the registry at all.
"""
from __future__ import annotations

import math
import time
from functools import lru_cache, partial
from typing import NamedTuple

from .claims import CLAIMS, known_ids  # noqa: F401  (known_ids is re-exported)
from .errors import CertifyError, NotInDegree, UnknownCheckId
from .report import FAIL, PASS, VERSION, CertificateResult, Report, RunConfig

MONODROMY_MATRIX = ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

ORBIT_POINTS = 64

# the span and orbit claims hold over QQ(zeta8), where twist and the orbit
# points live, though no arithmetic in that field decides them
ZETA8_FIELD = "QQ(zeta8)"
# the label of claims decided over QQ, exactmath.QQ.name
QQ_FIELD = "QQ"


def _result(ok, field, payload, prime=None):
    return CertificateResult(
        status=PASS if ok else FAIL,
        field=field,
        prime=prime,
        payload=payload,
    )


@lru_cache(maxsize=1)
def _sha256():
    """CPython's own FIPS 180-4 SHA-256 constructor, not hashlib's, whose
    import maps OpenSSL's libcrypto into the process.  Resolved once: on
    Python 3.10 and 3.11 every lookup would first fail to import _sha2."""
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        from _sha256 import sha256  # Python 3.10 and 3.11
    return sha256


def _sha256_lines(parts) -> str:
    """The SHA-256 hex digest of the parts, each written as a line: str(part)
    in UTF-8, then b"\\n"."""
    h = _sha256()()
    for s in parts:
        h.update(str(s).encode())
        h.update(b"\n")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# group structure


def check_group_order_512(cfg: RunConfig) -> CertificateResult:
    """Closing {1} under right multiplication by shift and twist gives the group they generate."""
    from .heisenberg import SHIFT, TWIST, HeisenbergElement, enumerate_group

    elements = enumerate_group()
    generated = frontier = {HeisenbergElement.identity()}
    while frontier:
        frontier = {g * s for g in frontier for s in (SHIFT, TWIST)} - generated
        generated |= frontier
    closed = generated == set(elements)
    lagrange = all((g**512).is_identity() for g in elements)
    return _result(
        len(generated) == 512 and closed and lagrange,
        "ZZ/8",
        {"order": len(generated), "closed": closed, "lagrange_512": lagrange},
    )


def check_center_mu8(cfg: RunConfig) -> CertificateResult:
    from .heisenberg import center_and_quotient

    cq = center_and_quotient()
    is_central_axis = all(g.a == 0 and g.b == 0 for g in cq.center)
    ok = len(cq.center) == 8 and is_central_axis
    return _result(
        ok,
        "ZZ/8",
        {"center_order": len(cq.center), "center_is_scalar_axis": is_central_axis},
    )


def check_quotient_Z8_squared(cfg: RunConfig) -> CertificateResult:
    from .heisenberg import center_and_quotient

    cq = center_and_quotient()
    ok = cq.invariant_factors == (8, 8) and cq.quotient_order == 64
    return _result(
        ok,
        "ZZ",
        {
            "invariant_factors": ",".join(map(str, cq.invariant_factors)),
            "quotient_order": cq.quotient_order,
        },
    )


def check_commutator_xi(cfg: RunConfig) -> CertificateResult:
    from .heisenberg import CENTRAL, SHIFT, TWIST

    commutator = TWIST * SHIFT * TWIST.inverse() * SHIFT.inverse()
    reorder = TWIST * SHIFT == CENTRAL * (SHIFT * TWIST)
    ok = commutator == CENTRAL and reorder
    return _result(
        ok,
        "ZZ/8",
        {"commutator": repr(commutator), "twist_shift_reorders_with_zeta8": reorder},
    )


# ---------------------------------------------------------------------------
# the quadric system


def check_ideal_invariance(cfg: RunConfig) -> CertificateResult:
    from . import geometry

    images = geometry.quadric_span_images()
    payload = {
        label: "not in span" if sol is None else "[" + ", ".join(sol) + "]"
        for label, sol in images
    }
    ok = all(sol is not None for _label, sol in images)
    return _result(ok, ZETA8_FIELD, payload)


def check_base_point_on_V(cfg: RunConfig) -> CertificateResult:
    from . import geometry
    from .exactmath import QQ

    residues = geometry.symbolic_base_identities()
    symbolic_ok = all(not r for r in residues)
    y = geometry.MinusPlanePoint.rational(*cfg.base_point)
    # the quadrics at y, not build_system(y), which raises off its base point
    quadrics = geometry.shifted_quadrics(geometry.base_quadric(geometry.x_ring(QQ).gens(), *y.coords))
    numeric_ok = all(not q.eval(y.embed().coords) for q in quadrics)
    return _result(
        symbolic_ok and numeric_ok,
        QQ_FIELD,
        {
            "symbolic_identities": f"{sum(not r for r in residues)}/4",
            "numeric_at_y": numeric_ok,
            "y": ",".join(map(str, cfg.base_point)),
        },
    )


def _candidate_base_points(base_point):
    """The configured point, then the fixed witness (3, 1, 4)."""
    yield base_point
    if base_point != (3, 1, 4):
        yield (3, 1, 4)


@lru_cache(maxsize=1)
def _generic_point(base_point):
    """(y, orbit data, rejections) for the first candidate base point that
    passes the orbit gauntlet (memoized); y and data are None when every
    candidate is rejected."""
    from . import geometry

    rejected = []
    for cand in _candidate_base_points(base_point):
        y = geometry.MinusPlanePoint.rational(*cand)
        try:
            return y, geometry.orbit_singularity_data(y), tuple(rejected)
        except CertifyError as exc:
            rejected.append(f"{','.join(map(str, cand))}: {exc}")
    return None, None, tuple(rejected)


def check_orbit_64_singular(cfg: RunConfig) -> CertificateResult:
    """The orbit evidence at one base point y, and there a Hilbert-function
    count bounding the length of the singular scheme by ORBIT_POINTS: with
    the 64 distinct rank-3 orbit points, Sing(V) is the orbit, each point of
    length 1.

    Why one base point proves the claim for a general y. Every certificate
    taken at y is an open condition in y: the 64 orbit points are distinct
    (their coordinate differences are nonzero), the Jacobian has rank 3 and
    the cone rank 4, and the Hilbert count's rows reach their ranks mod p.
    Each rank bound is a nonzero minor. Full rank mod p gives full rank over
    Q, because a minor that is nonzero mod p is a nonzero integer. The minor
    is a polynomial in (y1, y2, y3), so full rank at one y gives full rank
    on the Zariski-open set where it does not vanish, which is dense because
    it is not empty. Span invariance is an identity in y: shift permutes the
    four quadrics (shift⁴ f = f) and twist scales each. That v(y) lies on V
    is the identity base-point-on-V checks. So the certificates at one
    rational point hold for a general y, and a second point proves nothing
    more.

    When every candidate is rejected, no point is certified: FAIL, with the
    rejections recorded.
    """
    y, data, rejected = _generic_point(cfg.base_point)
    payload = {"rejected_candidates": len(rejected)}
    if y is None:
        payload["rejected"] = "; ".join(rejected)
        return _result(False, ZETA8_FIELD, payload)
    payload["y0_point"] = ",".join(str(c) for c in y.coords)
    for k in ("orbit_size", "rank3_points", "base_cone_rank"):
        payload[f"y0_{k}"] = data[k]
    from . import singular  # only this check loads it

    hilbert, prime = singular.singular_scheme_certificate(y, ORBIT_POINTS)
    payload.update(hilbert)
    ok = data["cone_rank4"] == ORBIT_POINTS and hilbert.get("hilbert_deg7_bound") == str(ORBIT_POINTS)
    return _result(ok, ZETA8_FIELD, payload, prime=prime)


def check_odp_proxy(cfg: RunConfig) -> CertificateResult:
    y, data, rejected = _generic_point(cfg.base_point)
    if y is None:
        return _result(False, ZETA8_FIELD, {"rejected": "; ".join(rejected)})
    ok = data["cone_rank4"] == ORBIT_POINTS
    # points carried out of the certified orbit size, the quotient order
    payload = {"y0_cone_rank4": f"{data['cone_rank4']}/{data['orbit_size']}"}
    return _result(ok, ZETA8_FIELD, payload)


def check_minus_plane_4points(cfg: RunConfig) -> CertificateResult:
    from . import geometry

    y = geometry.MinusPlanePoint.rational(*cfg.base_point)
    ok, payload = geometry.minus_plane_certificate(y)
    if payload["distinct_named_points"] < 4:  # named points collide: count the zeros mod 17 instead
        payload["gf17_zeros"] = len(geometry.minus_plane_solutions_mod_p(y, 17))
    return _result(ok, QQ_FIELD, payload)


# ---------------------------------------------------------------------------
# Moore matrix, Pfaffian, membership


def check_moore_skew(cfg: RunConfig) -> CertificateResult:
    from . import moore

    data = moore.moore_pipeline()
    expected = moore.expected_restricted_moore()
    matches = sum(
        data.restricted[i, j] == expected[i, j] for i in range(4) for j in range(4)
    )
    skew = data.skew.is_skew_symmetric()
    corner = data.full[0, 0]
    x0, y0 = moore.xy_ring().gens()[0], moore.xy_ring().gens()[8]
    x4, y4 = moore.xy_ring().gens()[4], moore.xy_ring().gens()[12]
    corner_ok = corner == x0 * y0 + x4 * y4
    return _result(
        matches == 16 and skew and corner_ok,
        QQ_FIELD,
        {"entries_matching_reference": f"{matches}/16", "skew_after_swap": skew,
         "full_corner_entry": corner.text()},
    )


def check_pfaffian_formula(cfg: RunConfig) -> CertificateResult:
    from . import moore

    data = moore.moore_pipeline()
    sign_ok = data.sign == moore.RECORDED_PFAFFIAN_SIGN
    square_ok = data.pfaffian * data.pfaffian == data.skew.det()
    return _result(
        sign_ok and square_ok,
        QQ_FIELD,
        {
            "sign": data.sign,
            "pfaffian_squared_is_det": square_ok,
            "pfaffian_terms": len(data.pfaffian.terms),
            "pfaffian_sha256": _sha256_lines([data.pfaffian.text()]),
        },
    )


def check_psi_quartic_membership(cfg: RunConfig) -> CertificateResult:
    from . import moore

    problem = moore.psi_membership_problem()
    nrows, ncols = problem.shape
    payload = {
        "system_rows": nrows,
        "system_cols": ncols,
        "target_degree": problem.degree,
        "target_sha256": _sha256_lines([problem.target.text()]),
        "generators_sha256": _sha256_lines(g.text() for g in problem.generators),
    }
    solves = [(f"gf{p}", partial(problem.solve_mod, p)) for p in cfg.primes]
    if cfg.fast:
        payload["rational_solve"] = "skipped (fast mode)"
    else:
        solves.append(("qq", problem.solve_rational))
    ok = True
    for tag, solve in solves:
        try:
            cert = solve()
        except NotInDegree as exc:  # the target is not in the ideal: a FAIL, not a crash
            payload[f"{tag}_not_in_degree"] = str(exc)
            ok = False
            continue
        if not problem.replays(cert):
            payload[f"{tag}_replay"] = "fails"
            ok = False
        triples = cert.triples_text(problem.ring.names)
        payload[f"{tag}_support"] = cert.support()
        payload[f"{tag}_triples_sha256"] = _sha256_lines(triples)
        if tag == "qq":  # the binding certificate is reported whole
            payload["qq_triples"] = "; ".join(triples)
    # without the rational solve only the GF(p) certificates back the verdict
    field = "GF(p)" if cfg.fast else QQ_FIELD
    return _result(ok, field, payload)


def check_quartic_smooth_genus3(cfg: RunConfig) -> CertificateResult:
    from . import moore

    try:
        certs = moore.quartic_nullstellensatz_certificates()
    except NotInDegree:  # no degree-7 certificates: the quartic is singular
        certs = []
    smooth = len(certs) == 3
    genus = moore.quartic_genus()
    payload = {"smooth_over_QQ": smooth, "nullstellensatz_certificates": len(certs), "genus": genus}
    return _result(smooth and genus == 3, QQ_FIELD, payload)


def check_topology_numbers(cfg: RunConfig) -> CertificateResult:
    from . import moore

    _y, orbit, _rejected = _generic_point(cfg.base_point)
    data = moore.topology_numbers(orbit["cone_rank4"] if orbit else 0)
    ok = (
        data["degree"] == 16
        and data["c2_hyperplane_degree"] == 64
        and data["euler_smooth"] == -128
        and data["node_identity"] == 0
        and data["hilbert_numerator_at_1"] == 16
    )
    return _result(ok, QQ_FIELD, data)


# ---------------------------------------------------------------------------
# monodromy and lattices


def check_monodromy_nilpotent(cfg: RunConfig) -> CertificateResult:
    from .linalg import smith_normal_form, wedge2_fixed_dim_mod_2

    n = [[v - (i == j) for j, v in enumerate(row)] for i, row in enumerate(MONODROMY_MATRIX)]
    factors = smith_normal_form(n)
    rank_n = len(factors)
    square_zero = not any(sum(a * b for a, b in zip(row, col)) for row in n for col in zip(*n))
    invariant_rank = 4 - rank_n
    ok = factors == (1,) and square_zero  # rank(M − I) = 1, so the invariant rank is 3
    return _result(
        ok,
        "ZZ",
        {
            "rank_M_minus_I": rank_n,
            "square_zero": square_zero,
            "snf_factors": ",".join(map(str, factors)),
            "invariant_sublattice_rank": invariant_rank,
            "wedge2_fixed_dim_mod_2": wedge2_fixed_dim_mod_2(MONODROMY_MATRIX),
        },
    )


def check_unipotent_log(cfg: RunConfig) -> CertificateResult:
    from .exactmath import QQ
    from .linalg import Matrix, unipotent_log

    m = Matrix(QQ, MONODROMY_MATRIX)
    n = m - Matrix.identity(QQ, 4)
    log_ok = unipotent_log(MONODROMY_MATRIX) == n
    e12 = [[1 if (i == j or (i, j) == (0, 1)) else 0 for j in range(4)] for i in range(4)]
    e13 = [[1 if (i == j or (i, j) == (0, 2)) else 0 for j in range(4)] for i in range(4)]
    a, b = Matrix(QQ, e12), Matrix(QQ, e13)
    commuting = a * b == b * a
    additive = unipotent_log((a * b).rows) == unipotent_log(e12) + unipotent_log(e13)
    ok = log_ok and commuting and additive
    return _result(
        ok,
        QQ_FIELD,
        {"log_is_M_minus_I": log_ok, "additive_on_commuting_pair": additive},
    )


def check_wedge_lemma(cfg: RunConfig) -> CertificateResult:
    from .linalg import wedge_lemma_exhaustive

    sweep = wedge_lemma_exhaustive()
    return _result(
        sweep.passed and sweep.counterexample is None,
        "F2",
        {"cases": sweep.cases, "counterexample": sweep.counterexample},
    )


def check_torsion_counting(cfg: RunConfig) -> CertificateResult:
    """The 8-torsion (Z/8)⁴ of the rank-4 lattice, and the section group
    H/center inside it: a finite abelian group embeds in another exactly when
    it has no more invariant factors and, matched from the largest down, each
    of its factors divides the other's."""
    from .heisenberg import center_and_quotient
    from .linalg import smith_normal_form

    factors = smith_normal_form([[8 if i == j else 0 for j in range(4)] for i in range(4)])
    order = math.prod(factors)
    cq = center_and_quotient()
    sections = cq.quotient_order
    embeds = len(cq.invariant_factors) <= len(factors) and all(
        d % e == 0 for e, d in zip(reversed(cq.invariant_factors), reversed(factors))
    )
    ok = (
        factors == (8, 8, 8, 8)
        and order == 4096
        and sections == math.prod(cq.invariant_factors) == 64
        and embeds
    )
    return _result(
        ok,
        "ZZ",
        {
            "snf_8_identity": ",".join(map(str, factors)),
            "lattice_mod_8_order": order,
            "section_subgroup_order": sections,
            "subgroup_embeds": embeds,
        },
    )


class CheckSpec(NamedTuple):
    id: str
    claim: str
    runner: object


# one check per claim, in claim-table order, found by name
REGISTRY = tuple(
    CheckSpec(cid, claim, globals()["check_" + cid.replace("-", "_")]) for cid, claim in CLAIMS
)


def get_check(cid: str) -> CheckSpec:
    for spec in REGISTRY:
        if spec.id == cid:
            return spec
    raise UnknownCheckId(cid)


def selected_specs(config: RunConfig):
    """Specs for the selection, always in registry order."""
    if config.checks == ("all",):
        return REGISTRY
    wanted = {get_check(cid).id for cid in config.checks}
    return tuple(spec for spec in REGISTRY if spec.id in wanted)


def run_checks(config: RunConfig) -> Report:
    specs = selected_specs(config)

    def run_one(spec: CheckSpec) -> CertificateResult:
        t0 = time.perf_counter()
        try:
            result = spec.runner(config)
        except Exception as exc:  # a failing certificate, not a crash of the runner
            result = CertificateResult(FAIL, "none", {"error": f"{type(exc).__name__}: {exc}"})
        result.id = spec.id
        result.elapsed_ms = int((time.perf_counter() - t0) * 1000)
        return result

    t0 = time.perf_counter()
    results = [run_one(spec) for spec in specs]
    return Report(VERSION, config, results, int((time.perf_counter() - t0) * 1000))

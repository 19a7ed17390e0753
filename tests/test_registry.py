"""Check verdicts come from recorded evidence: the group-order closure uses the
generators, the two orbit checks share the certificate of one base point, and
every check has a mutation in MUTATIONS (a defect in its evidence) that gives
FAIL with exit code 1 and no crash.  A defect that rejects every candidate
base point leaves no point certified: both orbit checks FAIL and record the
rejections."""
import builtins
import hashlib
import json
import re

import pytest

from heis8_certify import claims, cli, geometry, heisenberg, linalg, registry, singular
from heis8_certify.errors import UnknownCheckId
from heis8_certify.heisenberg import SHIFT, HeisenbergElement, orbit
from heis8_certify.linalg import MembershipProblem
from heis8_certify.multipoly import PolyMatrix, grevlex_key
from heis8_certify.report import FAIL, PASS, RunConfig

from helpers import GF

ORBIT_CHECKS = ("orbit-64-singular", "odp-proxy")


@pytest.fixture(autouse=True)
def fresh_orbit_memo():
    memos = (
        registry._generic_point,
        geometry.symbolic_quadrics,
        geometry.quadric_span_images,
        geometry.moore_pipeline,
        heisenberg.center_and_quotient,
    )
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


def test_group_order_passes_with_the_generators():
    result = registry.check_group_order_512(RunConfig())
    assert result.status == PASS
    assert result.payload == {"order": "512", "closed": "True", "lagrange_512": "True"}


def _generators_of_a_subgroup(monkeypatch):
    # shift² and twist generate a subgroup of order 4·8·4 = 128
    monkeypatch.setattr(heisenberg, "SHIFT", SHIFT**2)


def test_group_order_fails_when_the_generators_span_a_subgroup(monkeypatch):
    _generators_of_a_subgroup(monkeypatch)
    result = registry.check_group_order_512(RunConfig())
    assert result.status == FAIL
    assert result.payload["order"] == "128"
    assert result.payload["closed"] == "False"


def _doubled_cocycle(self, other):
    # the central coordinate picks up 2·b·a′ in place of b·a′: still a group
    # law, but shift and twist now commute up to ξ², so the center is larger
    return HeisenbergElement(self.a + other.a, self.b + other.b, self.c + other.c + 2 * self.b * other.a)


def _doubled_cocycle_law(monkeypatch):
    monkeypatch.setattr(HeisenbergElement, "compose", _doubled_cocycle)
    monkeypatch.setattr(HeisenbergElement, "__mul__", _doubled_cocycle)


@pytest.mark.parametrize(
    "check_id, payload",
    [
        ("center-mu8", {"center_order": "32", "center_is_scalar_axis": "False"}),
        ("quotient-Z8-squared", {"invariant_factors": "4,4", "quotient_order": "16"}),
        (
            "torsion-counting",
            {
                "snf_8_identity": "8,8,8,8",
                "lattice_mod_8_order": "4096",
                "section_subgroup_order": "16",
                "subgroup_embeds": "True",
            },
        ),
    ],
)
def test_group_checks_fail_on_a_wrong_central_cocycle(monkeypatch, tmp_path, capsys, check_id, payload):
    _doubled_cocycle_law(monkeypatch)
    assert _verify_fails(tmp_path, capsys, check_id) == payload


def test_orbit_sweep_runs_once_per_point_and_payload_is_unchanged(monkeypatch):
    calls = []
    real = geometry.orbit_singularity_data

    def counted(y):
        calls.append(y.coords)
        return real(y)

    monkeypatch.setattr(geometry, "orbit_singularity_data", counted)
    report = registry.run_checks(RunConfig(checks=ORBIT_CHECKS))
    assert calls == [(1, 2, 3)]
    orbit, odp = report.results
    assert (orbit.status, odp.status) == (PASS, PASS)
    assert orbit.payload == {
        "rejected_candidates": "0",
        "y0_point": "1,2,3",
        "y0_orbit_size": "64",
        "y0_rank3_points": "64",
        "y0_base_cone_rank": "4",
        "hilbert_prime": "32713",
        "hilbert_linear_form": "x4+9382*x6",
        "hilbert_deg5_mod_form_rank": "84/84,84/84",
        "hilbert_deg7_block0_rank": "111/119",
        "hilbert_deg7_block0_rows": "111",
        "hilbert_deg7_bound": "64",
    }
    assert orbit.prime == 32713
    assert odp.payload == {"y0_cone_rank4": "64/64"}


def test_minus_plane_restricts_the_system_once_per_point(monkeypatch):
    builds = []
    real = geometry.build_system
    monkeypatch.setattr(geometry, "build_system", lambda y: builds.append(y.coords) or real(y))
    monkeypatch.setattr(geometry, "plane_zeros_mod_p", _no_sweep)
    result = registry.check_minus_plane_4points(RunConfig(primes=(89, 97)))
    assert result.status == PASS
    assert builds == [(1, 2, 3)]  # the counts and the exact membership share it
    assert result.prime is None
    assert result.payload == {
        "exact_membership_of_named_points": "True",
        "distinct_named_points": "4",
        "hilbert_linear_form": "y1 + 2*y2 + 5*y3",
        "hilbert_deg3_rank": "10/10",
    }


def _no_sweep(polys, p):
    raise AssertionError(f"the minus plane was swept mod {p}")


@pytest.mark.parametrize(
    "base_point, status, payload",
    [
        # y1 + 2·y2 + 5·y3 vanishes at (−9, −8, 5) itself, so the second form decides
        (
            (-9, -8, 5),
            PASS,
            {"distinct_named_points": "4", "hilbert_linear_form": "y1 + 3*y2 + 7*y3", "hilbert_deg3_rank": "10/10"},
        ),
        # y2 = 0: twist⁴ fixes the point, and the four named points are two,
        # which are all the zeros mod 17 that the FAIL reports
        (
            (1, 0, 2),
            FAIL,
            {
                "distinct_named_points": "2",
                "hilbert_linear_form": "y1 + 2*y2 + 5*y3",
                "hilbert_deg3_rank": "10/10",
                "gf17_zeros": "2",
            },
        ),
        # two coordinates zero: restricted conics vanish identically, which the
        # rank skips, and the named points collapse to one at (0, 1, 0), to two
        # at (1, 0, 0)
        (
            (0, 1, 0),
            FAIL,
            {
                "distinct_named_points": "1",
                "hilbert_linear_form": "y1 + 2*y2 + 5*y3",
                "hilbert_deg3_rank": "10/10",
                "gf17_zeros": "1",
            },
        ),
        (
            (1, 0, 0),
            FAIL,
            {
                "distinct_named_points": "2",
                "hilbert_linear_form": "y1 + 2*y2 + 5*y3",
                "hilbert_deg3_rank": "10/10",
                "gf17_zeros": "2",
            },
        ),
    ],
)
def test_minus_plane_certificate_at_pinned_base_points(monkeypatch, base_point, status, payload):
    swept = []
    real = geometry.plane_zeros_mod_p
    monkeypatch.setattr(geometry, "plane_zeros_mod_p", lambda polys, p: swept.append(p) or real(polys, p))
    result = registry.check_minus_plane_4points(RunConfig(base_point=base_point))
    assert result.status == status
    assert swept == ([17] if status == FAIL else [])  # only colliding named points are counted
    assert result.payload == {"exact_membership_of_named_points": "True", **payload}


@pytest.mark.parametrize(
    "parts",
    [[], ["x0"], ["ζ8·x²"], [512], [f"x{i}^{i % 5}" for i in range(300)]],
    ids=["empty", "ascii", "non-ascii", "int", "many"],
)
def test_sha256_lines_hashes_each_part_as_a_utf8_line(parts):
    expected = hashlib.sha256(b"".join(str(s).encode() + b"\n" for s in parts)).hexdigest()
    assert registry._sha256_lines(iter(parts)) == expected


def test_sha256_constructor_is_imported_once(monkeypatch):
    # before 3.12 each lookup of _sha2 fails: the constructor is resolved once
    registry._sha256.cache_clear()
    requested = []
    real_import = builtins.__import__

    def counting_import(name, *args, **kwargs):
        requested.append(name)
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", counting_import)
    digests = [registry._sha256_lines(["x0"]) for _ in range(2)]
    monkeypatch.undo()
    assert digests == [hashlib.sha256(b"x0\n").hexdigest()] * 2
    assert requested.count("_sha2") <= 1


def test_degenerate_base_points_redraw_to_the_fixed_witnesses():
    # y2 = 0: twist⁴ fixes the point and halves its orbit, so the witness replaces it
    for base_point in ((1, 0, 2), (-3, 0, -2)):
        y, data, rejected = registry._generic_point(base_point)
        assert y.coords == (3, 1, 4)
        assert len(rejected) == 1
        assert rejected[0].startswith(",".join(map(str, base_point)) + ": shift^0*twist^4*zeta8^0 fixes ")
        assert rejected[0].endswith(": its orbit has at most 32 points")
        assert data == {"orbit_size": "64", "rank3_points": "64", "base_cone_rank": "4", "cone_rank4": 64}


def _quadric_of_two_weights(monkeypatch):
    # the symbolic quadrics of f + x0·x1: x0·x1 has twist weight 7 and every
    # monomial of f weight 0, so no twist image and not shift⁴ f is in the span
    f = geometry.symbolic_quadrics()[0]
    x = f.ring.gens()
    monkeypatch.setattr(geometry, "symbolic_quadrics", lambda: geometry.shifted_quadrics(f + x[0] * x[1]))


def _orbit_data_with(**defect):
    def mutate(monkeypatch):
        real = geometry.orbit_singularity_data
        monkeypatch.setattr(geometry, "orbit_singularity_data", lambda y: {**real(y), **defect})

    return mutate


def _cone_rank_3(monkeypatch):
    monkeypatch.setattr(geometry, "odp_normal_hessian_rank", lambda system, v: 3)


def _base_point_fixed_by_an_involution(monkeypatch):
    # y2 dropped from the embedding: twist⁴ fixes (0 : a : 0 : c : 0 : −c : 0 : −a)
    real = geometry.MinusPlanePoint.embed
    monkeypatch.setattr(geometry.MinusPlanePoint, "embed", lambda y: real(geometry.MinusPlanePoint(y.field, y.y1, 0, y.y3)))


def _quotient_of_order_32(monkeypatch):
    # the orbit size and the points carried are the quotient order, not a literal
    real = heisenberg.center_and_quotient()
    monkeypatch.setattr(geometry, "center_and_quotient", lambda: real._replace(quotient_order=32))


def _minors_of_three_quadrics(monkeypatch):
    # the first three quadrics' Jacobian has rank < 3 on a positive-dimensional locus
    real = singular.maximal_minors
    monkeypatch.setattr(singular, "maximal_minors", lambda rows, p: real(rows[:3], p))


def _form_through_an_orbit_point(monkeypatch):
    # ℓ = x4 + c·x6 through an orbit point of the default base point mod p
    def through_orbit(rng, p):
        y = geometry.MinusPlanePoint(GF(p), *RunConfig().base_point)
        v = next(v for v in orbit(y.embed()) if v.coords[4] and v.coords[6]).coords
        return (-v[4] / v[6]).value

    monkeypatch.setattr(singular, "finiteness_form_coefficient", through_orbit)


@pytest.mark.parametrize(
    "mutate, expected",
    [
        (_quadric_of_two_weights, {"orbit-64-singular": FAIL, "odp-proxy": FAIL}),
        (
            _orbit_data_with(base_cone_rank="3", cone_rank4=0),
            {"orbit-64-singular": FAIL, "odp-proxy": FAIL},
        ),
        (
            _orbit_data_with(orbit_size="63", rank3_points="63", cone_rank4=63),
            {"orbit-64-singular": FAIL, "odp-proxy": FAIL},
        ),
        (_quotient_of_order_32, {"orbit-64-singular": FAIL, "odp-proxy": FAIL}),
        (_minors_of_three_quadrics, {"orbit-64-singular": FAIL, "odp-proxy": PASS}),
        (_form_through_an_orbit_point, {"orbit-64-singular": FAIL, "odp-proxy": PASS}),
        (_cone_rank_3, {"orbit-64-singular": FAIL, "odp-proxy": FAIL}),
        (_base_point_fixed_by_an_involution, {"orbit-64-singular": FAIL, "odp-proxy": FAIL}),
    ],
    ids=[
        "image-not-in-span",
        "base-cone-rank-3",
        "63-point-orbit",
        "quotient-order-32",
        "minors-of-three-quadrics",
        "form-through-orbit-point",
        "source-cone-rank-3",
        "base-point-fixed-by-an-involution",
    ],
)
def test_orbit_defect_fails_and_exits_1(monkeypatch, tmp_path, capsys, mutate, expected):
    mutate(monkeypatch)
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--checks", ",".join(ORBIT_CHECKS), "--json", str(out)])
    assert code == 1
    results = json.loads(out.read_text())["results"]
    assert {r["id"]: r["status"] for r in results} == expected
    for r in results:
        assert r["field"] == "QQ(zeta8)"
        assert "error" not in r["payload"]
    assert "FAIL" in capsys.readouterr().out
    if mutate is _quotient_of_order_32:
        assert {r["payload"].get("y0_orbit_size") for r in results} == {"32", None}
        assert {r["payload"].get("y0_cone_rank4") for r in results} == {"32/32", None}
    if mutate in (_cone_rank_3, _base_point_fixed_by_an_involution):
        # every candidate is rejected at the source: no point is certified
        candidates = list(registry._candidate_base_points((1, 2, 3)))
        for r in results:
            rejected = r["payload"]["rejected"].split("; ")
            assert [entry.split(": ")[0] for entry in rejected] == [
                ",".join(map(str, c)) for c in candidates
            ]
            assert not any(k.startswith("y0_") or k.startswith("hilbert_") for k in r["payload"])
            if mutate is _base_point_fixed_by_an_involution:
                fixed = [re.search(r": (shift\^\d\*twist\^\d\*zeta8\^0) fixes .*: its orbit has at most 32 points$", e)
                         for e in rejected if "y1·y3 = 0" not in e]
                assert fixed and all(m and m.group(1) in map(repr, geometry.INVOLUTIONS) for m in fixed)


def _verify_fails(tmp_path, capsys, check_id, *flags):
    """Run one check through the CLI; it must FAIL with exit code 1, not crash."""
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--checks", check_id, *flags, "--json", str(out)])
    assert code == 1
    (result,) = json.loads(out.read_text())["results"]
    assert result["status"] == FAIL
    assert "error" not in result["payload"]
    assert "FAIL" in capsys.readouterr().out
    return result["payload"]


def _first_coefficient_plus_one(cert):
    (gi, mult, coeff), *rest = cert.entries
    return cert._replace(entries=((gi, mult, coeff + 1), *rest))


def test_psi_membership_fails_on_a_corrupted_certificate(monkeypatch, tmp_path, capsys):
    real = MembershipProblem.solve_mod
    monkeypatch.setattr(MembershipProblem, "solve_mod", lambda self, p: _first_coefficient_plus_one(real(self, p)))
    payload = _verify_fails(tmp_path, capsys, "psi-quartic-membership", "--fast")
    assert {k: v for k, v in payload.items() if k.endswith("_replay")} == {
        f"gf{p}_replay": "fails" for p in (17, 41, 73)
    }


@pytest.mark.parametrize("flags, field", [(("--fast",), "GF(p)"), ((), "QQ")], ids=["fast", "rational"])
def test_psi_membership_is_labelled_by_the_field_of_its_certificates(tmp_path, capsys, flags, field):
    # --fast skips the rational solve: only GF(p) certificates back the PASS
    out = tmp_path / "report.json"
    assert cli.main(["verify", "--checks", "psi-quartic-membership", *flags, "--json", str(out)]) == 0
    (result,) = json.loads(out.read_text())["results"]
    assert result["field"] == field
    assert f"[{field}]" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [("--fast",), ()], ids=["fast", "rational"])
def test_psi_membership_fails_on_a_wrong_target(monkeypatch, tmp_path, capsys, flags):
    # one coefficient changed: the target plus its first monomial
    real = geometry.psi_quartic_target()
    first = min(real.terms, key=grevlex_key)
    monkeypatch.setattr(geometry, "psi_quartic_target", lambda: real + real.ring.monomial(first, 1))
    solves = []
    solve = linalg.sparse_solve_mod_p

    def counted(rows, ncols, p):
        solves.append((p, len(rows), ncols))  # (prime, block shape)
        return solve(rows, ncols, p)

    monkeypatch.setattr(linalg, "sparse_solve_mod_p", counted)
    geometry.psi_membership_problem.cache_clear()
    try:
        payload = _verify_fails(tmp_path, capsys, "psi-quartic-membership", *flags)
    finally:
        geometry.psi_membership_problem.cache_clear()
    # each (prime, block) is eliminated once: the rational solve works modulo
    # the first Mersenne prime above its Hadamard bound, not at the GF(p) primes
    assert len(solves) == len(set(solves))
    primes = (17, 41, 73) if flags else (17, 41, 73, 2 ** linalg.MERSENNE_EXPONENTS[0] - 1)
    assert sorted({p for p, _rows, _cols in solves}) == sorted(primes)
    for p in (17, 41, 73):
        assert payload[f"gf{p}_not_in_degree"].startswith("no representation")
        assert f"gf{p}_support" not in payload
    if flags:
        assert "qq_not_in_degree" not in payload
    else:
        assert payload["qq_not_in_degree"].startswith("no representation over QQ")


# ---------------------------------------------------------------------------
# one mutation per check: a defect in the check's evidence must give FAIL and
# exit code 1, not a crash and not a PASS


def _every_element_commutes(monkeypatch):
    # a commutation test that accepts every pair: every element is central
    monkeypatch.setattr(HeisenbergElement, "commutes_with", lambda self, other: True)


def _base_quadric_sign_flipped(monkeypatch):
    # f with +y2²·(x1·x7 + x3·x5) in place of −y2²·(…)
    def flipped(x, y1, y2, y3):
        f0, f1, f2 = geometry.standard_quadrics(x)
        return f0 * (y1 * y3) + f1 * (y2 * y2) + f2 * (y1 * y1 + y3 * y3)

    monkeypatch.setattr(geometry, "base_quadric", flipped)


def _named_point_off_the_conics(monkeypatch):
    # (1 : 2 : 3) moved to (1 : 3 : 3); a sweep would be an error, not a FAIL
    real = geometry.named_intersection_points

    def moved(y):
        first, *rest = real(y)
        return [geometry.MinusPlanePoint(first.field, first.y1, first.y2 + 1, first.y3), *rest]

    monkeypatch.setattr(geometry, "named_intersection_points", moved)
    monkeypatch.setattr(geometry, "plane_zeros_mod_p", _no_sweep)


def _conics_sharing_a_line(monkeypatch):
    # (y1 − y3)·y1, (y1 − y3)·y2, …: V(I) is the line y1 = y3 and (0 : 0 : 1),
    # and four distinct named points on it, three on the line: they lie on the
    # conics, so (c) passes and only (b) can see the line
    real = geometry.minus_plane_conics

    def shared(y):
        y1, y2, y3 = real(y)[0].ring.gens()
        return tuple((y1 - y3) * m for m in (y1, y2, y1 + y2, y1 - y2))

    points = [geometry.MinusPlanePoint.rational(*c) for c in ((1, 0, 1), (0, 1, 0), (1, 1, 1), (0, 0, 1))]
    monkeypatch.setattr(geometry, "minus_plane_conics", shared)
    monkeypatch.setattr(geometry, "named_intersection_points", lambda y: points)
    monkeypatch.setattr(geometry, "plane_zeros_mod_p", _no_sweep)


def _moore_reference_entry_negated(monkeypatch):
    real = geometry.expected_restricted_moore()
    rows = [list(row) for row in real.rows]
    rows[0][1] = -rows[0][1]
    monkeypatch.setattr(geometry, "expected_restricted_moore", lambda: PolyMatrix(real.ring, rows))


def _pfaffian_sign_recorded_as_minus_one(monkeypatch):
    monkeypatch.setattr(geometry, "RECORDED_PFAFFIAN_SIGN", -1)


def _corrupted_rational_certificate(monkeypatch):
    real = MembershipProblem.solve_rational
    monkeypatch.setattr(MembershipProblem, "solve_rational", lambda self: _first_coefficient_plus_one(real(self)))


def _singular_quartic(monkeypatch):
    # w1⁴ − 8·w0³·w2 is singular at (0:0:1)
    w0, w1, w2 = geometry.conic_ring().gens()
    monkeypatch.setattr(geometry, "quartic_curve_poly", lambda: w1**4 - w0**3 * w2 * 8)


def _smooth_cubic(monkeypatch):
    # the Fermat cubic is smooth, of genus 1: the genus reads the curve's degree
    w0, w1, w2 = geometry.conic_ring().gens()
    monkeypatch.setattr(geometry, "quartic_curve_poly", lambda: w0**3 + w1**3 + w2**3)


def _degrees_2223(monkeypatch):
    real = geometry.ci_invariants
    monkeypatch.setattr(geometry, "ci_invariants", lambda n, degrees: real(n, (2, 2, 2, 3)))


def _monodromy(matrix):
    def mutate(monkeypatch):
        monkeypatch.setattr(registry, "MONODROMY_MATRIX", matrix)

    return mutate


def _wedge_of_the_pair_zero(monkeypatch):
    # e1∧e2 computed as 0: the pair's own wedge counts as a counterexample
    monkeypatch.setattr(linalg, "_wedge_vv", lambda e1, e2: 0)


# check id → mutation → the payload entries it must produce; a row lists the
# whole payload unless a field holds a long certificate or digest
MUTATIONS = [
    ("group-order-512", _generators_of_a_subgroup, {"order": "128", "closed": "False", "lagrange_512": "True"}),
    ("center-mu8", _every_element_commutes, {"center_order": "512", "center_is_scalar_axis": "False"}),
    ("quotient-Z8-squared", _every_element_commutes, {"invariant_factors": "1,1", "quotient_order": "1"}),
    (
        "commutator-xi",
        _doubled_cocycle_law,
        {"commutator": "shift^0*twist^0*zeta8^2", "twist_shift_reorders_with_zeta8": "False"},
    ),
    (
        "ideal-invariance",
        _quadric_of_two_weights,
        {
            "shift_q0": "[0, 1, 0, 0]",
            "shift_q1": "[0, 0, 1, 0]",
            "shift_q2": "[0, 0, 0, 1]",
            "shift_q3": "not in span",
            **{f"twist_q{i}": "not in span" for i in range(4)},
        },
    ),
    (
        "base-point-on-V",
        _base_quadric_sign_flipped,
        {"symbolic_identities": "2/4", "numeric_at_y": "False", "y": "1,2,3"},
    ),
    (
        "orbit-64-singular",
        _minors_of_three_quadrics,
        {
            "rejected_candidates": "0",
            "y0_point": "1,2,3",
            "y0_orbit_size": "64",
            "y0_rank3_points": "64",
            "y0_base_cone_rank": "4",
            **{
                f"hilbert_unlucky_{p}": f"a minor does not vanish at the base point mod {p}"
                for p in (32609, 32633, 32713)
            },
        },
    ),
    ("odp-proxy", _quotient_of_order_32, {"y0_cone_rank4": "32/32"}),
    (
        "minus-plane-4points",
        _named_point_off_the_conics,
        {
            "exact_membership_of_named_points": "False",
            "distinct_named_points": "4",
            "hilbert_linear_form": "y1 + 2*y2 + 5*y3",
            "hilbert_deg3_rank": "10/10",
            **{f"unlucky_{p}": None for p in (17, 41, 73, 89)},
        },
    ),
    (
        "minus-plane-4points",
        _conics_sharing_a_line,
        {
            "exact_membership_of_named_points": "True",
            "distinct_named_points": "4",
            "hilbert_linear_form": "y1 + 2*y2 + 5*y3",
            "hilbert_deg3_rank": "9/10",
        },
    ),
    (
        "moore-skew",
        _moore_reference_entry_negated,
        {"entries_matching_reference": "15/16", "skew_after_swap": "True", "full_corner_entry": "x0*y0 + x4*y4"},
    ),
    (
        "pfaffian-formula",
        _pfaffian_sign_recorded_as_minus_one,
        {
            "sign": "1",
            "pfaffian_squared_is_det": "True",
            "pfaffian_terms": "12",
            "pfaffian_sha256": "96f7ec25133090472a78948f8783161f78ed09455418f52ef6daa0523bf56b6d",
        },
    ),
    # the replay decides the status; the payload records the certificate
    ("psi-quartic-membership", _corrupted_rational_certificate, {"qq_replay": "fails", "qq_support": "82"}),
    (
        "quartic-smooth-genus3",
        _singular_quartic,
        {
            "smooth_over_QQ": "False",
            "nullstellensatz_certificates": "0",
            "genus": "3",
        },
    ),
    (
        "quartic-smooth-genus3",
        _smooth_cubic,
        {"smooth_over_QQ": "True", "nullstellensatz_certificates": "3", "genus": "1"},
    ),
    (
        "topology-numbers",
        _degrees_2223,
        {
            "degree": "24",
            "c2_hyperplane_degree": "168",
            "euler_smooth": "-504",
            "node_identity": "-376",
            "hilbert_numerator_at_1": "16",
            "hilbert_coeffs": "1,4,6,4,1",
        },
    ),
    # the identity reads the nodes of the certified orbit, not a literal 64
    ("topology-numbers", _quotient_of_order_32, {"node_identity": "-64"}),
    (
        "monodromy-nilpotent",
        _monodromy(((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 1))),  # rank(M − I) = 2
        {
            "rank_M_minus_I": "2",
            "square_zero": "True",
            "snf_factors": "1,1",
            "invariant_sublattice_rank": "2",
            "wedge2_fixed_dim_mod_2": "4",
        },
    ),
    (
        "unipotent-log",
        _monodromy(((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1))),  # (M − I)² ≠ 0
        {"log_is_M_minus_I": "False", "additive_on_commuting_pair": "True"},
    ),
    ("wedge-lemma", _wedge_of_the_pair_zero, {"cases": "0", "counterexample": "(1, 2, 1)"}),
    (
        "torsion-counting",
        _every_element_commutes,
        {
            "snf_8_identity": "8,8,8,8",
            "lattice_mod_8_order": "4096",
            "section_subgroup_order": "1",
            "subgroup_embeds": "True",
        },
    ),
]


# a check's first row is named by the check id, a further row by its mutation too
MUTATION_IDS = [
    cid if i == [row[0] for row in MUTATIONS].index(cid) else f"{cid}:{mutate.__name__.lstrip('_')}"
    for i, (cid, mutate, _expected) in enumerate(MUTATIONS)
]


@pytest.mark.parametrize("check_id, mutate, expected", MUTATIONS, ids=MUTATION_IDS)
def test_check_fails_under_its_mutation(monkeypatch, tmp_path, capsys, check_id, mutate, expected):
    mutate(monkeypatch)
    payload = _verify_fails(tmp_path, capsys, check_id)
    assert {k: payload.get(k) for k in expected} == expected


def test_every_check_has_a_mutation_row():
    assert list(dict.fromkeys(row[0] for row in MUTATIONS)) == list(registry.known_ids())


def test_registry_pairs_each_claim_with_its_own_check():
    assert [(spec.id, spec.claim) for spec in registry.REGISTRY] == list(claims.CLAIMS)
    assert registry.known_ids() == claims.known_ids()
    runners = [spec.runner.__name__ for spec in registry.REGISTRY]
    checks = [name for name, value in vars(registry).items() if name.startswith("check_") and callable(value)]
    assert sorted(runners) == sorted(checks)  # every check is registered once
    for spec in registry.REGISTRY:
        assert getattr(registry, spec.runner.__name__) is spec.runner
        assert spec.runner.__name__ == "check_" + spec.id.replace("-", "_")


def test_the_runner_stamps_each_result_with_its_claim_id():
    assert registry.check_commutator_xi(RunConfig()).id is None
    report = registry.run_checks(RunConfig(checks=("commutator-xi", "group-order-512")))
    assert [r.id for r in report.results] == ["group-order-512", "commutator-xi"]


def test_selected_specs_refuses_an_unknown_id():
    with pytest.raises(UnknownCheckId):
        registry.selected_specs(RunConfig(checks=("no-such-check",)))

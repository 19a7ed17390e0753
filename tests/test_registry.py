"""Check verdicts come from recorded evidence: the group-order closure uses the
generators, the two orbit checks share one base-point certificate per point,
and a defect (in the orbit evidence, a ψ certificate or the quartic) gives
FAIL with exit code 1 and no crash."""
import dataclasses
import json

import pytest

from heis8_certify import cli, geometry, linalg, registry
from heis8_certify.heisenberg import SHIFT, HeisenbergElement
from heis8_certify.linalg import MembershipProblem
from heis8_certify.multipoly import grevlex_key
from heis8_certify.report import FAIL, PASS, RunConfig

ORBIT_CHECKS = ("orbit-64-singular", "odp-proxy")


@pytest.fixture(autouse=True)
def fresh_orbit_memo():
    memos = (registry._two_generic_points, geometry.quadric_span_images, geometry.orbit_of_base_point)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


def test_group_order_passes_with_the_generators():
    result = registry.check_group_order(RunConfig())
    assert result.status == PASS
    assert result.payload == {"order": "512", "closed": "True", "lagrange_512": "True"}


def test_group_order_fails_when_the_generators_span_a_subgroup(monkeypatch):
    # shift² and twist generate a subgroup of order 4·8·4 = 128
    monkeypatch.setattr(registry, "SHIFT", SHIFT**2)
    result = registry.check_group_order(RunConfig())
    assert result.status == FAIL
    assert result.payload["order"] == "128"
    assert result.payload["closed"] == "False"


def test_orbit_sweep_runs_once_per_point_and_payload_is_unchanged(monkeypatch):
    calls = []
    real = geometry.orbit_singularity_data

    def counted(y):
        calls.append(y.coords)
        return real(y)

    monkeypatch.setattr(geometry, "orbit_singularity_data", counted)
    report = registry.run_checks(RunConfig(checks=ORBIT_CHECKS))
    assert len(calls) == 2
    orbit, odp = report.results
    assert (orbit.status, odp.status) == (PASS, PASS)
    assert orbit.payload == {
        "redraws": "0",
        "y0_point": "1,2,3",
        "y0_orbit_size": "64",
        "y0_rank3_points": "64",
        "y0_base_cone_rank": "4",
        "y1_point": "3,1,4",
        "y1_orbit_size": "64",
        "y1_rank3_points": "64",
        "y1_base_cone_rank": "4",
        "sample_prime": "17",
        "sample_trials": "1000000",
        "sample_hits": "19",
        "sample_distinct": "19",
        "sample_rank3": "0",
        "sample_rank3_off_orbit": "0",
    }
    assert odp.payload == {"y0_cone_rank4": "64/64", "y1_cone_rank4": "64/64"}


def test_degenerate_base_points_redraw_to_the_fixed_witnesses():
    # y2 = 0 halves the orbit to 32 points: the configured point is redrawn
    for base_point in ((1, 0, 2), (-3, 0, -2)):
        chosen, redraws = registry._two_generic_points(base_point, 42)
        assert [y.coords for y, _data in chosen] == [(3, 1, 4), (2, 5, 1)]
        assert redraws == 1
        for _y, data in chosen:
            assert data == {"orbit_size": "64", "rank3_points": "64", "base_cone_rank": "4", "cone_rank4": 64}


def _image_off_the_span(monkeypatch):
    real = HeisenbergElement.act_on_poly

    def off_span(self, poly):
        x = poly.ring.gens()
        return real(self, poly) + x[0] * x[1]  # x0·x1 occurs in no quadric

    monkeypatch.setattr(HeisenbergElement, "act_on_poly", off_span)


def _orbit_data_with(**defect):
    def mutate(monkeypatch):
        real = geometry.orbit_singularity_data
        monkeypatch.setattr(geometry, "orbit_singularity_data", lambda y: {**real(y), **defect})

    return mutate


def _sample_off_orbit(monkeypatch):
    fake = lambda y, p, n, seed: {"sample_prime": str(p), "sample_rank3_off_orbit": "1"}
    monkeypatch.setattr(geometry, "off_orbit_sampling_check", fake)


@pytest.mark.parametrize(
    "mutate, expected",
    [
        (_image_off_the_span, {"orbit-64-singular": FAIL, "odp-proxy": FAIL}),
        (
            _orbit_data_with(base_cone_rank="3", cone_rank4=0),
            {"orbit-64-singular": FAIL, "odp-proxy": FAIL},
        ),
        (
            _orbit_data_with(orbit_size="63", rank3_points="63", cone_rank4=63),
            {"orbit-64-singular": FAIL, "odp-proxy": FAIL},
        ),
        (_sample_off_orbit, {"orbit-64-singular": FAIL, "odp-proxy": PASS}),
    ],
    ids=["image-not-in-span", "base-cone-rank-3", "63-point-orbit", "rank3-sample-off-orbit"],
)
def test_orbit_defect_fails_and_exits_1(monkeypatch, tmp_path, capsys, mutate, expected):
    mutate(monkeypatch)
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--checks", ",".join(ORBIT_CHECKS), "--json", str(out)])
    assert code == 1
    results = json.loads(out.read_text())["results"]
    assert {r["id"]: r["status"] for r in results} == expected
    for r in results:
        assert "error" not in r["payload"]
    assert "FAIL" in capsys.readouterr().out


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


def test_psi_membership_fails_on_a_corrupted_certificate(monkeypatch, tmp_path, capsys):
    real = MembershipProblem.solve_mod

    def corrupted(self, p):
        cert = real(self, p)
        (gi, mult, coeff), *rest = cert.entries
        return dataclasses.replace(cert, entries=((gi, mult, coeff + 1), *rest))

    monkeypatch.setattr(MembershipProblem, "solve_mod", corrupted)
    _verify_fails(tmp_path, capsys, "psi-quartic-membership", "--fast")


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
    # each (prime, block) is eliminated once: the rational search does not
    # eliminate again at a prime where the GF(p) solve already failed
    assert len(solves) == len(set(solves))
    primes = (17, 41, 73) if flags else linalg.REFERENCE_PRIMES
    assert sorted({p for p, _rows, _cols in solves}) == sorted(primes)
    for p in (17, 41, 73):
        assert payload[f"gf{p}_not_in_degree"].startswith("no representation")
        assert f"gf{p}_support" not in payload
    if flags:
        assert "qq_not_in_degree" not in payload
    else:
        assert payload["qq_not_in_degree"].startswith("no representation over QQ")


def test_quartic_check_fails_on_a_singular_quartic(monkeypatch, tmp_path, capsys):
    # w1⁴ − 8·w0³·w2 is singular at (0:0:1)
    w0, w1, w2 = geometry.conic_ring().gens()
    monkeypatch.setattr(geometry, "quartic_curve_poly", lambda: w1**4 - w0**3 * w2 * 8)
    payload = _verify_fails(tmp_path, capsys, "quartic-smooth-genus3")
    assert payload["smooth_over_QQ"] == "False"
    assert payload["nullstellensatz_certificates"] == "0"

"""Acceptance suite: every exit criterion at its stated time budget.

Each test prints one PASS line (visible with -s; pytest -v shows the same
verdict per test either way).  Budgets are wall-clock seconds.
"""
import hashlib
import json
import random
import subprocess
import sys
import time

import pytest

from heis8_certify import geometry as geo
from heis8_certify.exactmath import QQ
from heis8_certify.heisenberg import (
    CENTRAL,
    SHIFT,
    TWIST,
    center_and_quotient,
    enumerate_group,
)
from heis8_certify.linalg import (
    Matrix,
    graded_membership,
    replay_certificate,
    smith_normal_form,
    unipotent_log,
    wedge_lemma_exhaustive,
)
from heis8_certify.multipoly import PolyMatrix, PolyRing, pfaffian4
from heis8_certify.registry import MONODROMY_MATRIX
from heis8_certify.report import normalized_json

from helpers import GF, map_coefficients, monomials_of_degree, random_element

Y123 = geo.MinusPlanePoint.rational(1, 2, 3)

# primes ≡ 1 mod 8 at which the ψ certificate digests are recorded
LADDER_PRIMES = (17, 41, 73, 89, 97, 113, 137, 193, 233, 241)


class budget:
    """Assert the block finishes inside the stated wall-clock budget."""

    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"{self.name}: {self.elapsed:.2f}s exceeds the {self.seconds}s budget"
            )
            print(f"ACCEPTANCE {self.name}: PASS ({self.elapsed:.2f}s < {self.seconds}s)")
        return False


def test_acceptance_01_pfaffian_identity():
    with budget("1 pfaffian-identity", 1.0):
        data = geo.moore_pipeline()
        reference = (
            data.w[0] * data.pullbacks[0]
            + data.w[1] * data.pullbacks[1]
            + data.w[2] * data.pullbacks[2]
        )
        assert data.pfaffian == reference or data.pfaffian == -reference
        assert data.sign in (1, -1)
        assert data.sign == geo.RECORDED_PFAFFIAN_SIGN
        assert data.pfaffian == reference * data.sign


# sha256 of the ψ-instance certificate triples, one per line, as the report's
# gf<p>_triples_sha256 / qq_triples_sha256 fields print them
PSI_GF_TRIPLES_SHA256 = {
    17: "03c7a581d41499126b48667cc9cd352a7d1339e708ce51d0effdb7b86ee71339",
    41: "cbb363fc8e2377c51e09f218dd3edd03a3a58b280d6d0650f07f2a5829729de6",
    73: "eba32c3238d013042f234f0c47221b8a8d3f2fd0aa2a4c44c66da0fc5271912a",
    89: "e3c54f25c99936a7f20b6e775724c5ffd8e709a71984387d642d79f5a5687114",
    97: "7ae8e7fb940a90fc87f10e1df256596dbc396bb651f91ae3e7eb7f11a4652afa",
    113: "e73ab0b4d1ec768ad06b35043b4d336ba7f0cc74e9774a67a95b8bb025d4b918",
    137: "ab425adf1aa81b9fb48e698e8674cd7d21ea55618e882b682f9365ccd73cf828",
    193: "c5646777619fb71f71a3da08345755bffbb9ad55a7ac6ce89095551a32b0ee6f",
    233: "d42531b29f78a1fe73251c9e7ff99220a192b520d6d005395e4183954a6ac3f8",
    241: "7f0ea4454a745366bd925c752201d959a2b18cbe618cd497c4336e6dd468171c",
}
PSI_QQ_TRIPLES_SHA256 = "6fd50fb1123f324573b09d87d1b2257e2fa438f066f20218ad9e37bc7e245655"


def triples_sha256(cert, names):
    digest = hashlib.sha256()
    for triple in cert.triples_text(names):
        digest.update(triple.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def test_acceptance_02_ideal_membership():
    problem = geo.psi_membership_problem()
    assert problem.shape == (6435, 11880)
    names = problem.ring.names
    gens = list(geo.moore_minor_generators())
    target = geo.psi_quartic_target()
    assert sorted(PSI_GF_TRIPLES_SHA256) == sorted(LADDER_PRIMES)
    for p in LADDER_PRIMES:
        with budget(f"2 membership-GF({p})", 60.0):
            cert = problem.solve_mod(p)
            field = GF(p)
            ring_p = PolyRing(field, geo.Y_NAMES)
            gens_p = [map_coefficients(g, field.coerce, ring_p) for g in gens]
            target_p = map_coefficients(target, field.coerce, ring_p)
            assert replay_certificate(cert, gens_p) == target_p
            assert cert.support() == 82
            assert triples_sha256(cert, names) == PSI_GF_TRIPLES_SHA256[p]
    with budget("2 membership-QQ", 600.0):
        cert = problem.solve_rational()
        assert replay_certificate(cert, gens) == target
        assert cert.support() == 82
        assert triples_sha256(cert, names) == PSI_QQ_TRIPLES_SHA256


def test_acceptance_03_singular_orbit():
    with budget("3 singular-orbit", 120.0):
        for coords in ((1, 2, 3), (3, 1, 4)):
            y = geo.MinusPlanePoint.rational(*coords)
            data = geo.orbit_singularity_data(y)
            assert data["orbit_size"] == "64"
            assert data["rank3_points"] == "64"
            assert data["base_cone_rank"] == "4"
            assert data["cone_rank4"] == 64


def test_acceptance_04_minus_plane_intersection():
    with budget("4 minus-plane", 10.0):
        ok, payload = geo.minus_plane_certificate(Y123)
        assert ok
        assert payload == {
            "exact_membership_of_named_points": True,
            "distinct_named_points": 4,
            "hilbert_linear_form": "y1 + 2*y2 + 5*y3",
            "hilbert_deg3_rank": "10/10",
        }


def test_acceptance_05_topology_numbers():
    with budget("5 topology-numbers", 1.0):
        data = geo.topology_numbers(64)
        assert data["degree"] == 16
        assert data["c2_hyperplane_degree"] == 64
        assert data["euler_smooth"] == -128
        assert data["node_identity"] == 0
        assert data["hilbert_numerator_at_1"] == 16


def test_acceptance_06_group_structure():
    with budget("6 group-structure", 10.0):
        elements = enumerate_group()
        assert len(set(elements)) == 512
        cq = center_and_quotient()
        assert len(cq.center) == 8
        assert set(cq.center) == {CENTRAL**c for c in range(8)}
        assert cq.invariant_factors == (8, 8)
        assert TWIST * SHIFT * TWIST.inverse() * SHIFT.inverse() == CENTRAL


def test_acceptance_07_monodromy_lattice_suite():
    with budget("7 monodromy-lattice", 5.0):
        m = Matrix(QQ, MONODROMY_MATRIX)
        n = m - Matrix.identity(QQ, 4)
        assert n.rank() == 1
        assert (n * n).is_zero()
        assert 4 - n.rank() == 3
        assert unipotent_log(MONODROMY_MATRIX) == n
        e12 = [[1 if (i == j or (i, j) == (0, 1)) else 0 for j in range(4)] for i in range(4)]
        e13 = [[1 if (i == j or (i, j) == (0, 2)) else 0 for j in range(4)] for i in range(4)]
        a, b = Matrix(QQ, e12), Matrix(QQ, e13)
        assert a * b == b * a
        assert unipotent_log((a * b).rows) == unipotent_log(e12) + unipotent_log(e13)
        sweep = wedge_lemma_exhaustive()
        assert sweep.passed and sweep.cases <= 13440


def test_acceptance_08_quartic_curve():
    with budget("8 quartic-curve", 30.0):
        parts = list(geo.quartic_partials())
        w = geo.conic_ring().gens()
        certs = geo.quartic_nullstellensatz_certificates()
        assert [replay_certificate(c, parts) for c in certs] == [wi**7 for wi in w]
        for p in (17, 41, 73):
            assert geo.quartic_smooth_mod_p(p)
        assert geo.quartic_genus() == 3


def test_acceptance_09_kernel_property_suites():
    with budget("9 kernel-properties", 60.0):
        failures = 0
        rng = random.Random(42)

        # field axioms, ≥100 cases per field
        for field in (QQ, GF(41), GF(73)):
            for _ in range(100):
                a, b, c = (random_element(field, rng) for _ in range(3))
                failures += (a + b) + c != a + (b + c)
                failures += a * (b + c) != a * b + a * c
                failures += (a * b) * c != a * (b * c)
                if b:
                    failures += (a / b) * b != a

        # evaluation homomorphism
        field = GF(41)
        ring = PolyRing(field, ("a", "b", "c"))
        mons = monomials_of_degree(3, 3)
        for _ in range(100):
            p = sum(
                (ring.monomial(rng.choice(mons), rng.randrange(41)) for _ in range(3)),
                ring.zero(),
            )
            q = sum(
                (ring.monomial(rng.choice(mons), rng.randrange(41)) for _ in range(3)),
                ring.zero(),
            )
            v = [field.random(rng) for _ in range(3)]
            failures += (p * q).eval(v) != p.eval(v) * q.eval(v)

        # Pf² = det
        cring = PolyRing(field, ())
        for _ in range(100):
            rows = [[cring.zero()] * 4 for _ in range(4)]
            for i in range(4):
                for j in range(i + 1, 4):
                    val = cring.constant(rng.randrange(41))
                    rows[i][j] = val
                    rows[j][i] = -val
            mat = PolyMatrix(cring, rows)
            pf = pfaffian4(mat)
            failures += pf * pf != mat.det()

        # SNF invariance under unimodular transformations
        for _ in range(100):
            size = rng.randint(2, 4)
            a = [[rng.randint(-6, 6) for _ in range(size)] for _ in range(size)]
            u = [[int(i == j) for j in range(size)] for i in range(size)]
            for _ in range(4):
                i, j = rng.randrange(size), rng.randrange(size)
                if i != j:
                    cmul = rng.randint(-2, 2)
                    u[i] = [x + cmul * y for x, y in zip(u[i], u[j])]
            ua = (Matrix(QQ, u) * Matrix(QQ, a)).rows
            b = [[int(x) for x in row] for row in ua]
            failures += smith_normal_form(a) != smith_normal_form(b)

        # membership replay
        ring2 = PolyRing(QQ, ("a", "b"))
        deg1 = monomials_of_degree(2, 1)
        for _ in range(100):
            gens = [
                sum((ring2.monomial(m, rng.randrange(41)) for m in deg1), ring2.zero())
                for _ in range(2)
            ]
            gens = [g for g in gens if g]
            if not gens:
                continue
            target = sum(
                (g * ring2.monomial(rng.choice(deg1), rng.randrange(41)) for g in gens),
                ring2.zero(),
            )
            if not target:
                continue
            cert = graded_membership(gens, target)
            failures += replay_certificate(cert, gens) != target

        assert failures == 0


def test_acceptance_10_end_to_end(tmp_path):
    with budget("10 end-to-end", 600.0):
        paths = [tmp_path / "run1.json", tmp_path / "run2.json"]
        for path in paths:
            out = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "heis8_certify",
                    "verify",
                    "--seed",
                    "42",
                    "--primes",
                    "17,41,73",
                    "--y",
                    "1,2,3",
                    "--json",
                    str(path),
                ],
                capture_output=True,
                text=True,
                timeout=580,
            )
            assert out.returncode == 0, out.stdout + out.stderr
            assert "overall: PASS" in out.stdout
        a, b = (normalized_json(p.read_text()) for p in paths)
        assert a == b
        data = json.loads(paths[0].read_text())
        assert data["status"] == "pass"
        assert len(data["results"]) == 18
        psi = next(r["payload"] for r in data["results"] if r["id"] == "psi-quartic-membership")
        assert (psi["system_rows"], psi["system_cols"]) == ("6435", "11880")
        for p in (17, 41, 73):
            assert psi[f"gf{p}_triples_sha256"] == PSI_GF_TRIPLES_SHA256[p]
        assert psi["qq_triples_sha256"] == PSI_QQ_TRIPLES_SHA256

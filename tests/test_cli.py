"""CLI contract: list output, exit codes, JSON schema, determinism."""
import hashlib
import json
import os
import subprocess
import sys

import pytest

FAST_CHECKS = "topology-numbers,wedge-lemma,monodromy-nilpotent,commutator-xi"
MODULAR_CHECKS = "psi-quartic-membership,quartic-smooth-genus3,minus-plane-4points"


def run_cli(*args, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "heis8_certify", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_list_contains_registry_ids_and_is_stable():
    a = run_cli("list")
    b = run_cli("list")
    assert a.returncode == 0
    assert a.stdout == b.stdout
    for cid in (
        "pfaffian-formula",
        "quotient-Z8-squared",
        "psi-quartic-membership",
        "orbit-64-singular",
        "torsion-counting",
    ):
        assert cid in a.stdout
    assert "debug-force-fail" not in a.stdout


def test_unknown_check_exits_2():
    out = run_cli("verify", "--checks", "no-such-check")
    assert out.returncode == 2
    assert "UnknownCheckId" in out.stderr


def test_invalid_prime_exits_2():
    out = run_cli("verify", "--primes", "7")
    assert out.returncode == 2
    assert "InvalidPrime" in out.stderr
    out = run_cli("verify", "--primes", "33")  # 33 ≡ 1 mod 8 but composite
    assert out.returncode == 2


def test_invalid_seed_exits_2():
    out = run_cli("verify", "--checks", "wedge-lemma", "--seed", "-1")
    assert out.returncode == 2
    assert "InvalidSeed" in out.stderr


def test_zero_base_point_exits_2():
    out = run_cli("verify", "--y", "0,0,0")
    assert out.returncode == 2


@pytest.mark.parametrize(
    "flags, error",
    [
        (("--checks", ","), "EmptySelection"),
        (("--primes=", "--fast"), "InvalidPrime"),
        (("--primes", "17,17"), "InvalidPrime"),
    ],
    ids=["no-checks", "no-primes", "repeated-prime"],
)
def test_config_that_certifies_nothing_exits_2(capsys, flags, error):
    from heis8_certify import cli

    assert cli.main(["verify", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"configuration error: {error}" in err


def test_forced_failure_exits_1(monkeypatch, capsys):
    # the Smith normal form of 2·(8·I) has factors 16, so torsion-counting fails
    from heis8_certify import cli, registry

    real = registry.smith_normal_form
    monkeypatch.setattr(
        registry, "smith_normal_form", lambda mat: real([[2 * v for v in row] for row in mat])
    )
    assert cli.main(["verify", "--checks", "torsion-counting"]) == 1
    assert "FAIL torsion-counting" in capsys.readouterr().out


def test_verify_subset_passes_and_is_deterministic(tmp_path):
    j1, j2 = tmp_path / "r1.json", tmp_path / "r2.json"
    a = run_cli("verify", "--checks", FAST_CHECKS, "--json", str(j1))
    b = run_cli("verify", "--checks", FAST_CHECKS, "--json", str(j2))
    assert a.returncode == 0 and b.returncode == 0

    from heis8_certify.report import normalized_json

    assert normalized_json(j1.read_text()) == normalized_json(j2.read_text())

    data = json.loads(j1.read_text())
    assert set(data) == {"version", "config", "results", "status", "total_elapsed_ms"}
    assert data["status"] == "pass"
    assert data["config"]["seed"] == 42
    assert data["config"]["primes"] == [17, 41, 73]
    assert [r["id"] for r in data["results"]] == [
        "commutator-xi",
        "topology-numbers",
        "monodromy-nilpotent",
        "wedge-lemma",
    ]  # registry order, not selection order
    for r in data["results"]:
        assert set(r) == {"id", "status", "field", "prime", "seed", "elapsed_ms", "payload"}
        assert all(isinstance(v, str) for v in r["payload"].values())


# sha256 of normalized_json of the default `verify --json` report: a refactor
# leaves every byte of it alone, and a change that moves it names the changed
# field in CHANGES.md and records the new digest here
DEFAULT_REPORT_SHA256 = "fb5bf1da2d871daf237bb5448d1dac0f74d076c6190a245c4ff8b9488a3f0fc6"


BASEPOINT_CHECKS = "ideal-invariance,base-point-on-V,orbit-64-singular,odp-proxy,minus-plane-4points"
# the same contract for other configurations: (verify flags, exit code, sha256)
REPORT_SHA256 = {
    "psi-quartic-ladder-primes": (
        ("--checks", "psi-quartic-membership,quartic-smooth-genus3", "--primes", "113,137,193,233,241"),
        0,
        "f85a4e0a16a6dfe9d4cc27aa51b79b2a4d8f0e200e204c1f4545a044f053edc3",
    ),
    "fast-modular": (
        ("--fast", "--checks", MODULAR_CHECKS, "--primes", "89,97"),
        0,
        "2c37a63ed838b3e2ff1bee494a6d74ae5945ce851313c19f2035e7d2321b19b9",
    ),
    "basepoint-5-3-7": (
        ("--checks", BASEPOINT_CHECKS, "--y=5,-3,7", "--seed", "7"),
        0,
        "8da72edcc96cfa24153fd7bd5edc6171874c9d03b3177bdd53fb10ccc3315bc2",
    ),
    "basepoint-1-0-2": (
        ("--checks", BASEPOINT_CHECKS, "--y=1,0,2", "--seed", "9"),
        1,  # y2 = 0: two named points coincide, and minus-plane-4points FAILs
        "4710a439285d1033de1f4a58625d4a0f7cea95caf5889041d915c40ab07faf79",
    ),
}
# sha256 of the triples of the three quartic Nullstellensatz certificates,
# one per line, which no report carries
QUARTIC_NULLSTELLENSATZ_SHA256 = "3edc2048d597b444f5f8b41db47e1dfb7b3c79d048186d0e60290ebffd3bd870"


def report_digest(tmp_path, flags, code):
    from heis8_certify.report import normalized_json

    out = tmp_path / "report.json"
    assert run_cli("verify", *flags, "--json", str(out)).returncode == code
    return hashlib.sha256(normalized_json(out.read_text()).encode()).hexdigest()


def test_default_report_is_byte_identical_to_the_recorded_one(tmp_path):
    assert report_digest(tmp_path, (), 0) == DEFAULT_REPORT_SHA256


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_is_byte_identical_to_the_recorded_one(tmp_path, name):
    flags, code, digest = REPORT_SHA256[name]
    assert report_digest(tmp_path, flags, code) == digest


def test_quartic_nullstellensatz_certificates_are_the_recorded_ones():
    from heis8_certify import geometry

    digest = hashlib.sha256()
    for cert in geometry.quartic_nullstellensatz_certificates():
        for triple in cert.triples_text(geometry.conic_ring().names):
            digest.update(triple.encode() + b"\n")
    assert digest.hexdigest() == QUARTIC_NULLSTELLENSATZ_SHA256


def test_verify_text_report_shape():
    out = run_cli("verify", "--checks", "topology-numbers")
    assert out.returncode == 0
    assert "PASS topology-numbers" in out.stdout
    assert out.stdout.strip().endswith("overall: PASS" ) is False  # totals line carries timing
    assert "overall: PASS" in out.stdout


def test_jobs_flag_rejected():
    out = run_cli("verify", "--checks", "wedge-lemma", "--jobs", "2")
    assert out.returncode == 2


@pytest.mark.parametrize(
    "args",
    [
        ("list",),
        ("verify", "--fast", "--checks", MODULAR_CHECKS),
        ("verify",),
        ("verify", "--checks", "orbit-64-singular"),
    ],
    ids=["list", "verify-fast-modular", "verify-default", "verify-orbit"],
)
def test_numpy_is_imported_only_by_runs_that_sample(args):
    # no run samples points any more: none imports numpy (the array kernels
    # are a test reference only) or asks OpenBLAS for a thread count
    probe = (
        "import os, sys\n"
        "from heis8_certify import cli\n"
        f"status = cli.main({list(args)!r})\n"
        "print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'), status)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=600, env=env
    )
    assert out.stdout.splitlines()[-1] == "False None 0"

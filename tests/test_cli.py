"""CLI contract: list output, exit codes, JSON schema, determinism."""
import json
import subprocess
import sys

FAST_CHECKS = "topology-numbers,wedge-lemma,monodromy-nilpotent,commutator-xi"


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


def test_forced_failure_exits_1():
    out = run_cli("verify", "--checks", "debug-force-fail")
    assert out.returncode == 1
    assert "FAIL" in out.stdout


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


def test_verify_text_report_shape():
    out = run_cli("verify", "--checks", "topology-numbers")
    assert out.returncode == 0
    assert "PASS topology-numbers" in out.stdout
    assert out.stdout.strip().endswith("overall: PASS" ) is False  # totals line carries timing
    assert "overall: PASS" in out.stdout


def test_jobs_flag_rejected():
    out = run_cli("verify", "--checks", "wedge-lemma", "--jobs", "2")
    assert out.returncode == 2

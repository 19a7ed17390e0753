"""CLI contract: list output, exit codes, JSON schema, determinism."""
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
    "args, imports_numpy",
    [
        (("list",), False),
        (("verify", "--fast", "--checks", MODULAR_CHECKS), False),
        (("verify", "--checks", "orbit-64-singular"), True),  # the sampler's run
    ],
    ids=["list", "verify-fast-modular", "verify-sampler"],
)
def test_numpy_is_imported_only_by_runs_that_sample(args, imports_numpy):
    # the sampler imports numpy with a single-threaded OpenBLAS
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
    threads = "1" if imports_numpy else "None"
    assert out.stdout.splitlines()[-1] == f"{imports_numpy} {threads} 0"

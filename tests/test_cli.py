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
    "y, error",
    [
        ("1,2", "BadDimension: base point (1, 2) must have exactly 3 coordinates"),
        ("1,2,3,4", "BadDimension: base point (1, 2, 3, 4) must have exactly 3 coordinates"),
        ("0,0,0", "ZeroPoint: base point (0, 0, 0) must be a nonzero integer triple"),
    ],
    ids=["two-coordinates", "four-coordinates", "zero"],
)
def test_bad_base_point_is_named_and_exits_2(capsys, y, error):
    from heis8_certify import cli

    assert cli.main(["verify", "--checks", "base-point-on-V", f"--y={y}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"configuration error: {error}\n"


def test_negative_first_coordinate_needs_the_equals_form(capsys):
    from heis8_certify import cli

    # argparse reads a separate "-1,2,3" as an option, not as the value of --y
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--checks", "base-point-on-V", "--y", "-1,2,3"])
    assert exc.value.code == 2
    assert "argument --y: expected one argument" in capsys.readouterr().err
    assert cli.main(["verify", "--checks", "base-point-on-V", "--y=-1,2,3"]) == 0
    assert "PASS base-point-on-V" in capsys.readouterr().out


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


def test_unwritable_json_path_exits_2_before_any_check(tmp_path, monkeypatch, capsys):
    from heis8_certify import cli, registry

    # cli.main imports run_checks from the registry when a check is to run
    monkeypatch.setattr(registry, "run_checks", lambda config: pytest.fail("a check ran"))
    assert cli.main(["verify", "--checks", "commutator-xi", "--json", str(tmp_path / "missing" / "r.json")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "configuration error: FileNotFoundError" in err


def test_forced_failure_exits_1(monkeypatch, capsys):
    # the Smith normal form of 2·(8·I) has factors 16, so torsion-counting fails
    from heis8_certify import cli, linalg

    real = linalg.smith_normal_form
    monkeypatch.setattr(
        linalg, "smith_normal_form", lambda mat: real([[2 * v for v in row] for row in mat])
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
        assert set(r) == {"id", "status", "field", "prime", "elapsed_ms", "payload"}
        assert all(isinstance(v, str) for v in r["payload"].values())


# sha256 of normalized_json of the default `verify --json` report: a refactor
# leaves every byte of it alone, and a change that moves it names the changed
# field in CHANGES.md and records the new digest here
DEFAULT_REPORT_SHA256 = "45808d4f49e3d2f101f95eaecdebdd0f6fdb02ff31ee7315d507b182caf1a868"


BASEPOINT_CHECKS = "ideal-invariance,base-point-on-V,orbit-64-singular,odp-proxy,minus-plane-4points"
# the same contract for other configurations: (verify flags, exit code, sha256)
REPORT_SHA256 = {
    "psi-quartic-ladder-primes": (
        ("--checks", "psi-quartic-membership,quartic-smooth-genus3", "--primes", "113,137,193,233,241"),
        0,
        "d306be8018a471555514dbbfb4ce88b9be3f84fdcd8f62e08f7017b8a4451c5e",
    ),
    "fast-modular": (
        ("--fast", "--checks", MODULAR_CHECKS, "--primes", "89,97"),
        0,
        "c0c8fc32c2627cc7612898782bea1e3fc1d7d139c0a7aac399fad1935d3f5888",
    ),
    "basepoint-5-3-7": (
        ("--checks", BASEPOINT_CHECKS, "--y=5,-3,7", "--seed", "7"),
        0,
        "34575e1a94918ee76918644f92656dd5682207124e715f1f78c14c8a82831bf0",
    ),
    "basepoint-1-0-2": (
        ("--checks", BASEPOINT_CHECKS, "--y=1,0,2", "--seed", "9"),
        1,  # y2 = 0: two named points coincide, and minus-plane-4points FAILs
        "c1f09dacfe57c45cda9525799fede35111034f8c78e4183cd84649d0e3e2bef8",
    ),
}
# sha256 of the triples of the three quartic Nullstellensatz certificates,
# one per line, which no report carries
QUARTIC_NULLSTELLENSATZ_SHA256 = "3edc2048d597b444f5f8b41db47e1dfb7b3c79d048186d0e60290ebffd3bd870"


def normalized_report(tmp_path, flags, code) -> str:
    from heis8_certify.report import normalized_json

    out = tmp_path / "report.json"
    assert run_cli("verify", *flags, "--json", str(out)).returncode == code
    return normalized_json(out.read_text())


def report_digest(tmp_path, flags, code):
    return hashlib.sha256(normalized_report(tmp_path, flags, code).encode()).hexdigest()


def test_default_report_is_byte_identical_to_the_recorded_one(tmp_path):
    assert report_digest(tmp_path, (), 0) == DEFAULT_REPORT_SHA256


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_is_byte_identical_to_the_recorded_one(tmp_path, name):
    flags, code, digest = REPORT_SHA256[name]
    assert report_digest(tmp_path, flags, code) == digest


def test_no_check_reads_the_seed(tmp_path):
    # the report records the seed, and nothing else in it moves with it
    flags, code, _digest = REPORT_SHA256["basepoint-5-3-7"]
    assert flags[-2:] == ("--seed", "7")
    reports = [json.loads(normalized_report(tmp_path, (*flags[:-1], seed), code)) for seed in ("7", "8")]
    assert [r["config"].pop("seed") for r in reports] == [7, 8]
    assert reports[0] == reports[1]


def test_quartic_nullstellensatz_certificates_are_the_recorded_ones():
    from heis8_certify import moore

    digest = hashlib.sha256()
    for cert in moore.quartic_nullstellensatz_certificates():
        for triple in cert.triples_text(moore.conic_ring().names):
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


# modules a fresh process should not pay for: numpy, which only the tests'
# reference kernels import; hashlib and _hashlib, which map OpenSSL's libcrypto
# (digests use CPython's built-in SHA-256 instead); and dataclasses with the
# inspect/ast machinery it imports
HEAVY_MODULES = ("numpy", "hashlib", "_hashlib", "dataclasses", "inspect")
# sha256 of the Pfaffian's canonical text, as recorded in perfbench/expected_hashes.json
PFAFFIAN_SHA256 = "96f7ec25133090472a78948f8783161f78ed09455418f52ef6daa0523bf56b6d"


def fresh_run(*args, modules=HEAVY_MODULES):
    """Run `python -m heis8_certify args` through runpy in a fresh interpreter
    (pytest has the heavy modules loaded already) started without
    OPENBLAS_NUM_THREADS; return its exit code and which of `modules` it
    loaded, followed by OPENBLAS_NUM_THREADS if the run set that variable, as
    a run asking OpenBLAS for a thread count would."""
    probe = (
        "import os, runpy, sys\n"
        f"sys.argv = ['heis8_certify', *{list(args)!r}]\n"
        "try:\n"
        "    runpy.run_module('heis8_certify', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        f"    loaded = [m for m in {modules!r} if m in sys.modules]\n"
        "    openblas = ['OPENBLAS_NUM_THREADS'] if 'OPENBLAS_NUM_THREADS' in os.environ else []\n"
        "    print(exc.code, *loaded, *openblas)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=600, env=env
    )
    code, *loaded = out.stdout.splitlines()[-1].split()
    return int(code), loaded


# (verify flags or `list`, exit code, whether the report carries a digest)
FRESH_RUNS = {
    "list": (("list",), 0, False),
    "verify-basepoints": (("verify", "--checks", BASEPOINT_CHECKS, "--y=1,0,2"), 1, False),
    "verify-quartic": (("verify", "--checks", "quartic-smooth-genus3"), 0, False),
    "pfaffian": (("verify", "--checks", "pfaffian-formula"), 0, True),
    "verify-default": (("verify",), 0, True),
    "verify-fast-membership": (("verify", "--fast", "--checks", MODULAR_CHECKS, "--primes", "17,41"), 0, True),
}


@pytest.mark.parametrize("name", list(FRESH_RUNS))
def test_fresh_run_loads_no_heavy_module(tmp_path, name):
    args, code, digest = FRESH_RUNS[name]
    if not digest:
        assert fresh_run(*args) == (code, [])
        return
    out = tmp_path / "report.json"
    assert fresh_run(*args, "--json", str(out)) == (code, [])
    payloads = {r["id"]: r["payload"] for r in json.loads(out.read_text())["results"]}
    assert any(k.endswith("_sha256") for p in payloads.values() for k in p)
    if "pfaffian-formula" in payloads:
        assert payloads["pfaffian-formula"]["pfaffian_sha256"] == PFAFFIAN_SHA256


# no run samples points any more, so none imports numpy (the array kernels are
# a test reference only) or asks OpenBLAS for a thread count; fresh_run checks
# both, with the rest of HEAVY_MODULES
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
    assert fresh_run(*args) == (0, [])


# the package's math modules, and the fractions/decimal pair exactmath imports
MATH_MODULES = (
    *(
        f"heis8_certify.{m}"
        for m in ("exactmath", "multipoly", "linalg", "heisenberg", "geometry", "singular", "membership", "moore")
    ),
    "fractions",
    "decimal",
)
ORBIT_MODULES = ("heis8_certify.heisenberg", "heis8_certify.geometry", "heis8_certify.singular")
# the membership and Moore/ψ/quartic code, which no base-point check runs
SPLIT_MODULES = ("heis8_certify.membership", "heis8_certify.moore")


@pytest.mark.parametrize(
    "args, modules, loaded",
    [
        (("list",), MATH_MODULES, []),
        (("verify", "--checks", "commutator-xi"), ORBIT_MODULES, ["heis8_certify.heisenberg"]),
        (("verify", "--checks", BASEPOINT_CHECKS), SPLIT_MODULES, []),
        (("verify", "--fast", "--checks", MODULAR_CHECKS), SPLIT_MODULES, list(SPLIT_MODULES)),
        # the Moore checks and the Chern arithmetic solve no membership instance
        (
            ("verify", "--checks", "moore-skew,pfaffian-formula,topology-numbers"),
            SPLIT_MODULES,
            ["heis8_certify.moore"],
        ),
    ],
    ids=["list", "verify-commutator", "verify-basepoints", "verify-fast-modular", "verify-moore"],
)
def test_fresh_runs_load_only_the_math_modules_their_checks_use(args, modules, loaded):
    assert fresh_run(*args, modules=modules) == (0, loaded)


# the check code, and the report with json: `list` prints the claim table
# without them, and a configuration error is found before the check code loads
CHECK_MODULES = ("heis8_certify.registry", "heis8_certify.report", "json")


@pytest.mark.parametrize(
    "args, modules, code, loaded",
    [
        (("list",), CHECK_MODULES, 0, []),
        (("verify", "--primes", "7"), ("heis8_certify.registry",), 2, []),
        (("verify", "--checks", "commutator-xi"), CHECK_MODULES, 0, list(CHECK_MODULES)),
    ],
    ids=["list", "verify-config-error", "verify-commutator"],
)
def test_fresh_runs_load_the_check_code_only_to_run_a_check(args, modules, code, loaded):
    assert fresh_run(*args, modules=modules) == (code, loaded)

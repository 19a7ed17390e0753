"""The benchmark at a tiny size: one degenerate base point, one prime."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402

# cheap checks only; on this line minus-plane-4points must FAIL (exit code 1)
TINY = [
    run.Invocation(
        checks=("pfaffian-formula", "minus-plane-4points"),
        primes=(17,),
        seed=None,
        y=(2, 3, 2),
    )
]


def tiny(trace: int):
    return run.run_workload("tiny", TINY, 0, trace)


def assert_metrics(result, units):
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))


def test_end_to_end_metrics_are_printed_with_units():
    result, lines = tiny(0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2  # the only input runs twice
    assert_metrics(result, run.END_TO_END_UNITS)
    assert all(result["metrics"][k]["value"] > 0 for k in run.END_TO_END_UNITS)
    assert any("failed_share 0.0000" in line for line in lines)


def test_per_layer_metrics_are_printed_with_units():
    result, _ = tiny(1)
    assert result["correct"] and result["failed"] == 0
    assert_metrics(result, run.PER_LAYER_UNITS)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["registry.check_ms.minus-plane-4points"] > 0
    assert values["registry.check_ms.psi-quartic-membership"] == 0
    assert values["geometry.minus_plane_ms"] > 0


def test_wrong_recorded_hash_fails(monkeypatch):
    hashes = dict(run.EXPECTED_HASHES, pfaffian_sha256="0" * 64)
    monkeypatch.setattr(run, "EXPECTED_HASHES", hashes)
    result, lines = tiny(0)
    assert result["failed"] > 0 and not result["correct"]
    assert not any("failed_share 0.0000" in line for line in lines)


def test_wrong_expected_verdict_fails(monkeypatch):
    monkeypatch.setattr(run, "on_degenerate_line", lambda y: False)
    result, _ = tiny(0)
    assert result["failed"] == result["attempted"] > 0 and not result["correct"]


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_inputs_follow_the_seed(name):
    assert run.workload_cycle(name, 7) == run.workload_cycle(name, 7)
    assert run.workload_cycle(name, 7) != run.workload_cycle(name, 8) or name == "verify-default"


def test_basepoints_draw_one_degenerate_point_in_three():
    for seed in range(50):
        points = [inv.y for inv in run.workload_cycle("basepoints", seed)]
        assert [run.on_degenerate_line(y) for y in points] == [False, True, False]
        assert len(set(points)) == 3


def test_modular_primes_come_from_the_ladder():
    for seed in range(50):
        for inv in run.workload_cycle("modular-primes", seed):
            assert len(set(inv.primes)) == run.MODULAR_PRIMES_PER_RUN
            assert set(inv.primes) <= set(run.PRIME_LADDER)


def test_directory_without_the_program_is_refused(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-default",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""

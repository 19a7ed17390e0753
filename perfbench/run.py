"""End-to-end benchmark of `heis8-certify verify`, run from fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client drives a closed loop: it starts `python -m heis8_certify verify`
in a fresh subprocess, waits for it to exit, checks the report against a
known answer, and only then starts the next one.  Inputs are drawn from the
workload seed.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 adds one traced
in-process run per input (trace_child.py) and reports the per-layer metrics.
`--workload all` runs every workload in turn.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_HASHES = json.loads((HERE / "expected_hashes.json").read_text())

# Every run must end well inside 180 s, whatever --seconds says.
HARD_LIMIT_S = 170.0
# setup_s samples taken before the first invocation; the closed loop adds
# one after every invocation, so the samples span the whole run
SETUP_REPEATS = 3

# The public claim ids at commit a4c204d, in registry order.
ALL_CHECKS = (
    "group-order-512",
    "center-mu8",
    "quotient-Z8-squared",
    "commutator-xi",
    "ideal-invariance",
    "base-point-on-V",
    "orbit-64-singular",
    "odp-proxy",
    "minus-plane-4points",
    "moore-skew",
    "pfaffian-formula",
    "psi-quartic-membership",
    "quartic-smooth-genus3",
    "topology-numbers",
    "monodromy-nilpotent",
    "unipotent-log",
    "wedge-lemma",
    "torsion-counting",
)
BASEPOINT_CHECKS = (
    "ideal-invariance",
    "base-point-on-V",
    "orbit-64-singular",
    "odp-proxy",
    "minus-plane-4points",
)
MODULAR_CHECKS = ("psi-quartic-membership", "quartic-smooth-genus3", "minus-plane-4points")
# primes ≡ 1 mod 8, the ladder the program itself falls back on
PRIME_LADDER = (17, 41, 73, 89, 97, 113, 137, 193, 233, 241)
MODULAR_PRIMES_PER_RUN = 2

PASS, FAIL = "pass", "fail"

WORKLOADS = {
    "verify-default": "the product as shipped: every check, the rational solve and the group closure",
    "basepoints": "drawn base points, a third on degenerate lines: Q(zeta8) orbit work and the FAIL path",
    "modular-primes": "--fast membership at drawn primes: pure GF(p) elimination and p^2 sweeps",
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

FIELD_CLASSES = ("QQzeta8", "GFp", "QQ")
LAYERS = ("registry", "linalg", "kernels", "geometry", "heisenberg")
PER_LAYER_UNITS = {
    **{f"registry.check_ms.{cid}": "ms" for cid in ALL_CHECKS},
    **{f"self_ms.{layer}": "ms" for layer in LAYERS},
    "linalg.membership_build_ms": "ms",
    "linalg.solve_mod_ms": "ms",
    "linalg.solve_mod_self_ms": "ms",
    "linalg.solve_mod_calls": "count",
    "linalg.solve_mod_rows_max": "count",
    "linalg.solve_mod_cols_max": "count",
    "linalg.solve_mod_support_max": "count",
    "linalg.solve_mod_primes": "count",
    "linalg.solve_rational_self_ms": "ms",
    "linalg.rational_modular_resolves": "count",
    "linalg.replay_ms": "ms",
    "linalg.replay_calls": "count",
    **{f"linalg.rank_calls.{f}": "count" for f in FIELD_CLASSES},
    **{f"linalg.rank_ms.{f}": "ms" for f in FIELD_CLASSES},
    **{f"linalg.rref_calls.{f}": "count" for f in FIELD_CLASSES},
    **{f"linalg.rref_ms.{f}": "ms" for f in FIELD_CLASSES},
    "kernels.solve_mod_p_ms": "ms",
    "kernels.solve_mod_p_calls": "count",
    "kernels.dense_cells": "count",
    "kernels.dense_bytes": "bytes",
    "kernels.sample_ms": "ms",
    "kernels.sample_trials": "count",
    "kernels.sample_hit_ratio": "ratio",
    "geometry.orbit_singularity_ms": "ms",
    "geometry.orbit_sweeps_per_run": "count",
    "geometry.basepoint_accept_ratio": "ratio",
    "geometry.odp_sweep_ms": "ms",
    "geometry.minus_plane_ms": "ms",
    "geometry.quartic_sweep_ms": "ms",
    "heisenberg.group_products": "count",
    "heisenberg.enumerate_ms": "ms",
    "heisenberg.orbit_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.checks_ms": "ms",
    "trace.untraced_work_ms": "ms",
}


class SetupError(Exception):
    """The checkout cannot be benchmarked (for example, no src/heis8_certify)."""


# ---------------------------------------------------------------------------
# inputs and their known answers


@dataclass(frozen=True)
class Invocation:
    """One `verify` configuration; None leaves a flag out."""

    checks: tuple = ALL_CHECKS
    primes: tuple = (17, 41, 73)
    seed: int | None = 42
    y: tuple = (1, 2, 3)
    fast: bool = False

    def argv(self) -> list:
        args = ["verify"]
        if self.checks != ALL_CHECKS:
            args += ["--checks", ",".join(self.checks)]
        args += ["--primes", ",".join(map(str, self.primes))]
        if self.seed is not None:
            args += ["--seed", str(self.seed)]
        args.append("--y=" + ",".join(map(str, self.y)))
        if self.fast:
            args.append("--fast")
        return args


def on_degenerate_line(y) -> bool:
    """y2 = 0 or y1 = ±y3: two of the four named minus-plane points coincide."""
    y1, y2, y3 = y
    return y2 == 0 or y1 == y3 or y1 == -y3


def expected_statuses(inv: Invocation) -> dict:
    """Verdicts that follow from the inputs alone: every claim holds, except
    that the minus plane cannot show four distinct points on a degenerate line."""
    return {
        cid: FAIL if cid == "minus-plane-4points" and on_degenerate_line(inv.y) else PASS
        for cid in inv.checks
    }


def expected_hash_keys(inv: Invocation) -> dict:
    """(check id, payload key) -> sha256 recorded in expected_hashes.json."""
    out = {}
    if "pfaffian-formula" in inv.checks:
        out[("pfaffian-formula", "pfaffian_sha256")] = EXPECTED_HASHES["pfaffian_sha256"]
    if "psi-quartic-membership" in inv.checks:
        cid = "psi-quartic-membership"
        out[(cid, "target_sha256")] = EXPECTED_HASHES["target_sha256"]
        out[(cid, "generators_sha256")] = EXPECTED_HASHES["generators_sha256"]
        for p in inv.primes:
            out[(cid, f"gf{p}_triples_sha256")] = EXPECTED_HASHES["gf_triples_sha256"][str(p)]
        if not inv.fast:
            out[(cid, "qq_triples_sha256")] = EXPECTED_HASHES["qq_triples_sha256"]
    return out


def known_answer_errors(inv: Invocation, results, exit_code=None) -> list:
    """Differences between a run's results and the known answer.

    results is a list of {"id", "status", "payload"}; exit_code is checked
    when the results come from the CLI.
    """
    errors = []
    want = expected_statuses(inv)
    got = {r["id"]: r["status"] for r in results}
    if sorted(got) != sorted(want):
        errors.append(f"check ids {sorted(got)} != {sorted(want)}")
    for cid, status in want.items():
        if got.get(cid) != status:
            errors.append(f"{cid}: {got.get(cid)} != expected {status}")
    if exit_code is not None:
        code = 0 if all(s == PASS for s in want.values()) else 1
        if exit_code != code:
            errors.append(f"exit code {exit_code} != expected {code}")
    payloads = {r["id"]: r["payload"] for r in results}
    for (cid, key), digest in expected_hash_keys(inv).items():
        value = payloads.get(cid, {}).get(key)
        if value != digest:
            errors.append(f"{cid}.{key} = {value} != recorded {digest}")
    return errors


def draw_generic_point(rng: random.Random, avoid) -> tuple:
    """Nonzero coordinates, pairwise different in absolute value, coprime."""
    while True:
        y = tuple(rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(3))
        if len({abs(c) for c in y}) == 3 and math.gcd(*y) == 1 and y not in avoid:
            return y


def draw_degenerate_point(rng: random.Random) -> tuple:
    """A point on exactly one of the lines y2 = 0, y1 = y3, y1 = -y3."""
    while True:
        a = rng.choice((-1, 1)) * rng.randint(1, 9)
        b = rng.choice((-1, 1)) * rng.randint(1, 9)
        if abs(a) == abs(b) or math.gcd(a, b) != 1:
            continue
        line = rng.randrange(3)
        return ((a, 0, b), (a, b, a), (a, b, -a))[line]


def workload_cycle(name: str, seed: int) -> list:
    """The inputs one run cycles through, drawn from the workload seed."""
    rng = random.Random(f"{name}/{seed}")
    if name == "verify-default":
        return [Invocation()]
    if name == "basepoints":
        first = draw_generic_point(rng, ())
        second = draw_generic_point(rng, (first,))
        points = (first, draw_degenerate_point(rng), second)
        return [
            Invocation(checks=BASEPOINT_CHECKS, seed=rng.randrange(2**32), y=y, primes=(17, 41, 73))
            for y in points
        ]
    if name == "modular-primes":
        return [
            Invocation(
                checks=MODULAR_CHECKS,
                primes=tuple(rng.sample(PRIME_LADDER, MODULAR_PRIMES_PER_RUN)),
                seed=None,
                fast=True,
            )
            for _ in range(2)
        ]
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# fresh-process invocations


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


class Runner:
    """Spawns CLI children from the checkout one at a time, under a deadline."""

    def __init__(self, root: Path, workdir: Path, deadline: float):
        self.root = root
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.spawned = 0

    def spawn(self, argv) -> Sample:
        """Run `python argv...` to completion; time and rusage are per child."""
        self.spawned += 1
        out_path = self.workdir / f"child-{self.spawned}.out"
        err_path = self.workdir / f"child-{self.spawned}.err"
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=self.root, env=self.env, stdout=out, stderr=err
            )
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        return Sample(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            exit_code=proc.returncode,
        )

    def cli(self, args) -> Sample:
        return self.spawn(["-m", "heis8_certify", *args])

    def setup_time(self) -> float:
        """Fresh-process time to import the package and answer `list`."""
        sample = self.cli(["list"])
        if sample.exit_code != 0:
            raise SetupError(f"`heis8-certify list` exited {sample.exit_code}")
        return sample.wall_s


@dataclass
class Outcome:
    """What one run measured and how many invocations missed the known answer."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    setup: list = field(default_factory=list)
    traced: list = field(default_factory=list)  # (spans, traced wall s, untraced wall s)

    def fail(self, tag: str, errors) -> None:
        self.failures.append(f"{tag}: " + "; ".join(errors))


def verify_once(runner: Runner, inv: Invocation, tag: str, outcome: Outcome, normalized, seen):
    """One closed-loop step: invoke, gate, and compare with earlier identical runs."""
    json_path = runner.workdir / f"{tag}.json"
    json_path.unlink(missing_ok=True)
    sample = runner.cli([*inv.argv(), "--json", str(json_path)])
    outcome.attempted += 1
    outcome.samples.append(sample)
    try:
        report_text = json_path.read_text()
        results = json.loads(report_text)["results"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        outcome.fail(tag, [f"no JSON report (exit {sample.exit_code}): {exc!r}"])
        return sample
    errors = known_answer_errors(inv, results, sample.exit_code)
    norm = normalized(report_text)
    if seen.setdefault(inv, norm) != norm:
        errors.append("normalized JSON differs from an earlier run of the same input")
    if errors:
        outcome.fail(tag, errors)
    return sample


def closed_loop(runner: Runner, cycle, seconds: float, outcome: Outcome, normalized) -> None:
    """Cycle through the inputs until the next run would overrun the window.

    Every input runs at least once and the first runs twice, so each run
    checks that a repeated input gives the same normalized report.
    """
    start = time.perf_counter()
    seen = {}
    k = 0
    while True:
        inv = cycle[k % len(cycle)]
        sample = verify_once(runner, inv, f"verify-{k}", outcome, normalized, seen)
        outcome.setup.append(runner.setup_time())
        k += 1
        now = time.perf_counter()
        if now + sample.wall_s > runner.deadline:
            break
        if k > len(cycle) and now - start + sample.wall_s > seconds:
            break


def traced_pass(runner: Runner, cycle, outcome: Outcome, normalized) -> None:
    """Per input: one untraced CLI run, then one traced in-process run."""
    seen = {}
    for k, inv in enumerate(cycle):
        untraced = verify_once(runner, inv, f"untraced-{k}", outcome, normalized, seen)
        tag = f"trace-{k}"
        out_path = runner.workdir / f"{tag}.json"
        out_path.unlink(missing_ok=True)
        trace_id = f"{runner.workdir.name}-{k}"
        sample = runner.spawn([str(HERE / "trace_child.py"), str(out_path), trace_id, *inv.argv()])
        outcome.attempted += 1
        try:
            data = json.loads(out_path.read_text())
            results, spans = data["results"], data["spans"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            outcome.fail(tag, [f"no trace (exit {sample.exit_code}): {exc!r}"])
            continue
        errors = known_answer_errors(inv, results)
        if errors:
            outcome.fail(tag, errors)
            continue
        outcome.traced.append((spans, sample.wall_s, untraced.wall_s))


# ---------------------------------------------------------------------------
# metrics


def end_to_end_values(outcome: Outcome) -> dict:
    """Every sample of each end-to-end metric that the run collected."""
    values = {
        "wall_s": [s.wall_s for s in outcome.samples],
        "cpu_s": [s.cpu_s for s in outcome.samples],
        "peak_rss_mb": [s.peak_rss_mb for s in outcome.samples],
        "setup_s": outcome.setup,
    }
    return {name: v for name, v in values.items() if v}


def tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 20:
        return None
    q = math.floor(100 * (1 - 10 / n))
    return q, sorted(values)[max(0, math.ceil(q / 100 * n) - 1)]


def span_tables(spans):
    """Duration and self time (duration minus direct children) in ms per span."""
    dur = {s["span"]: (s["end"] - s["start"]) * 1000.0 for s in spans}
    child = {k: 0.0 for k in dur}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += dur[s["span"]]
    self_ms = {k: dur[k] - child[k] for k in dur}
    return dur, self_ms


def check_of(span, by_id):
    while span is not None:
        if span["name"].startswith("registry.check."):
            return span["name"][len("registry.check."):]
        span = by_id.get(span["parent"])
    return None


def per_layer_metrics(traced, setup_s) -> dict:
    """Per-invocation means of the traced runs' spans and counters."""
    total = {name: 0.0 for name in PER_LAYER_UNITS}
    maxima = {"rows": 0, "cols": 0, "support": 0}
    distinct_primes = 0
    sample_hits = sample_trials = orbit_accepted = 0
    for spans, traced_wall, untraced_wall in traced:
        dur, self_ms = span_tables(spans)
        by_id = {s["span"]: s for s in spans}
        primes = set()
        for s in spans:
            k, name, c = s["span"], s["name"], s["counters"]
            layer = name.split(".")[0]
            total[f"self_ms.{layer if layer in LAYERS else 'registry'}"] += self_ms[k]
            if name.startswith("registry.check."):
                total[f"registry.check_ms.{name[len('registry.check.'):]}"] += dur[k]
                total["trace.checks_ms"] += dur[k]
                total["heisenberg.group_products"] += c.get("group_products", 0)
            elif name == "linalg.membership_build":
                total["linalg.membership_build_ms"] += dur[k]
            elif name == "linalg.solve_mod":
                total["linalg.solve_mod_ms"] += dur[k]
                total["linalg.solve_mod_self_ms"] += self_ms[k]
                total["linalg.solve_mod_calls"] += 1
                for key in maxima:
                    maxima[key] = max(maxima[key], c.get(key, 0))
                if "prime" in c:
                    primes.add(c["prime"])
                parent = by_id.get(s["parent"])
                if (
                    parent is not None
                    and parent["name"] == "linalg.solve_rational"
                    and check_of(s, by_id) == "psi-quartic-membership"
                ):
                    total["linalg.rational_modular_resolves"] += 1
            elif name == "linalg.solve_rational":
                total["linalg.solve_rational_self_ms"] += self_ms[k]
            elif name == "linalg.replay":
                total["linalg.replay_ms"] += dur[k]
                total["linalg.replay_calls"] += 1
            elif name in ("linalg.rank", "linalg.rref"):
                op = name.split(".")[1]
                fc = c.get("field")
                if fc in FIELD_CLASSES:
                    total[f"linalg.{op}_calls.{fc}"] += 1
                    total[f"linalg.{op}_ms.{fc}"] += dur[k]
            elif name == "kernels.solve_mod_p":
                total["kernels.solve_mod_p_ms"] += dur[k]
                total["kernels.solve_mod_p_calls"] += 1
                total["kernels.dense_cells"] += c.get("cells", 0)
                total["kernels.dense_bytes"] += c.get("bytes", 0)
            elif name == "kernels.sample":
                total["kernels.sample_ms"] += dur[k]
                sample_trials += c.get("trials", 0)
                sample_hits += c.get("hits", 0)
            elif name == "geometry.orbit_singularity":
                total["geometry.orbit_singularity_ms"] += dur[k]
                total["geometry.orbit_sweeps_per_run"] += 1
                orbit_accepted += "raised" not in c
            elif name == "geometry.odp_sweep":
                total["geometry.odp_sweep_ms"] += dur[k]
            elif name == "geometry.minus_plane":
                total["geometry.minus_plane_ms"] += dur[k]
            elif name == "geometry.quartic_sweep":
                total["geometry.quartic_sweep_ms"] += dur[k]
            elif name == "heisenberg.enumerate":
                total["heisenberg.enumerate_ms"] += dur[k]
            elif name == "heisenberg.orbit":
                total["heisenberg.orbit_ms"] += dur[k]
        distinct_primes += len(primes)
        total["trace.overhead_ms"] += (traced_wall - untraced_wall) * 1000.0
        total["trace.untraced_work_ms"] += (untraced_wall - setup_s) * 1000.0
    n = len(traced)
    metrics = {name: v / n for name, v in total.items()}
    metrics["linalg.solve_mod_rows_max"] = maxima["rows"]
    metrics["linalg.solve_mod_cols_max"] = maxima["cols"]
    metrics["linalg.solve_mod_support_max"] = maxima["support"]
    metrics["linalg.solve_mod_primes"] = distinct_primes / n
    metrics["kernels.sample_trials"] = sample_trials / n
    metrics["kernels.sample_hit_ratio"] = sample_hits / sample_trials if sample_trials else 0.0
    sweeps = total["geometry.orbit_sweeps_per_run"]
    metrics["geometry.basepoint_accept_ratio"] = orbit_accepted / sweeps if sweeps else 0.0
    return metrics


# ---------------------------------------------------------------------------
# the run


def environment(seed: int) -> dict:
    """Recorded once per output, outside the program's own report."""
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "workload_seed": seed,
    }


def git_sha(root: Path):
    """HEAD of the checkout when it is a git work tree, else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def program_normalizer(root: Path):
    """The program's own normalized_json, imported from the checkout."""
    src = root / "src"
    if not (src / "heis8_certify" / "__init__.py").is_file():
        raise SetupError(f"no heis8_certify package under {src}")
    sys.path.insert(0, str(src))
    from heis8_certify.report import normalized_json

    return normalized_json


def run_workload(name, cycle, seconds, trace, normalized=None) -> tuple:
    """Measure one workload; returns (result object, human summary lines)."""
    normalized = normalized or program_normalizer(ROOT)
    workdir = ROOT / ".bench_build" / "perfbench" / name
    workdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    runner = Runner(ROOT, workdir, start + HARD_LIMIT_S)
    outcome = Outcome()
    runner.setup_time()  # untimed: leaves the bytecode cache warm
    outcome.setup = [runner.setup_time() for _ in range(SETUP_REPEATS)]
    if trace:
        traced_pass(runner, cycle, outcome, normalized)
    else:
        closed_loop(runner, cycle, max(0.0, seconds - (time.perf_counter() - start)), outcome, normalized)

    failed = len(outcome.failures)
    lines = [f"{name}: {outcome.attempted} invocations, {failed} failed"]
    lines += [f"  FAILED {text}" for text in outcome.failures]
    e2e = end_to_end_values(outcome)
    metrics = {}
    if trace:
        if outcome.traced:
            layer = per_layer_metrics(outcome.traced, statistics.median(e2e["setup_s"]))
            metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in layer.items()}
        spans_path = workdir / "spans.json"
        spans_path.write_text(json.dumps([s for spans, _, _ in outcome.traced for s in spans]))
        lines.append(f"  spans written to {spans_path}")
    else:
        metrics = {
            k: {"value": statistics.median(v), "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()
        }
    for metric, vals in e2e.items():
        tail = tail_percentile(vals)
        tail_text = f"  p{tail[0]} {tail[1]:.4f}" if tail else ""
        lines.append(
            f"  {metric:<12s} median {statistics.median(vals):.4f} "
            f"{END_TO_END_UNITS[metric]}  (n={len(vals)}){tail_text}"
        )
    share = failed / outcome.attempted if outcome.attempted else 1.0
    lines.append(f"  failed_share {share:.4f}  ({failed}/{outcome.attempted})")
    result = {
        "correct": failed == 0 and outcome.attempted > 0 and bool(metrics),
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        normalized = program_normalizer(ROOT)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("environment: " + json.dumps(environment(args.seed), sort_keys=True))
    results = {}
    for name in names:
        try:
            results[name], lines = run_workload(
                name, workload_cycle(name, args.seed), args.seconds, args.trace, normalized
            )
        except SetupError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        print("\n".join(lines), flush=True)
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
        return 0
    # --workload all: one object, each metric prefixed with its workload
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

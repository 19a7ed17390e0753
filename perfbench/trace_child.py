"""Traced in-process run of one `verify` configuration.

    python3 perfbench/trace_child.py OUT.json TRACE_ID verify [verify flags ...]

Imports heis8_certify from the checkout's src/, wraps public functions of
each layer by attribute replacement (the package itself is not changed), runs
the selected checks one after another as registry.check_* calls and, when it
ends, writes the check results and every recorded span to OUT.json.

A span is {trace, span, name, parent, start, end, counters}; every span of
one run shares the TRACE_ID.  run.py turns the spans into per-layer metrics.
"""
from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import heis8_certify  # noqa: E402
from heis8_certify import geometry, heisenberg, kernels, linalg, registry  # noqa: E402
from heis8_certify.cli import build_parser  # noqa: E402
from heis8_certify.report import FAIL, RunConfig, validate_config  # noqa: E402

GROUP_CHECK_SPAN = "registry.check.group-order-512"


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans = []
        self.stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "trace": self.trace_id,
            "span": len(self.spans),
            "name": name,
            "parent": self.stack[-1]["span"] if self.stack else None,
            "start": time.perf_counter(),
            "end": None,
            "counters": {},
        }
        self.spans.append(record)
        self.stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self.stack.pop()


def traced(tracer: Tracer, fn, name: str, counters=None):
    """fn wrapped in a span; counters(args, result) adds counts on success."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as record:
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                record["counters"]["raised"] = type(exc).__name__
                raise
            if counters is not None:
                record["counters"].update(counters(args, out))
            return out

    return wrapper


def replace_function(original, wrapper):
    """Rebind every package-level name that refers to `original`."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("heis8_certify"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def field_class(field) -> str:
    name = field.name
    if name.startswith("GF("):
        return "GFp"
    return {"QQ": "QQ", "QQ(zeta8)": "QQzeta8"}.get(name, "other")


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of each layer that a check reaches."""
    functions = [
        (linalg.replay_certificate, "linalg.replay", None),
        (
            kernels.solve_mod_p,
            "kernels.solve_mod_p",
            lambda a, out: {"cells": int(a[0].size), "bytes": int(a[0].nbytes)},
        ),
        (
            kernels.sample_quadric_points,
            "kernels.sample",
            lambda a, out: {"trials": int(a[5]), "hits": int(out[0])},
        ),
        (geometry.orbit_singularity_data, "geometry.orbit_singularity", None),
        (geometry.odp_proxy_sweep, "geometry.odp_sweep", None),
        (geometry.minus_plane_solutions_mod_p, "geometry.minus_plane", None),
        (geometry.quartic_smooth_mod_p, "geometry.quartic_sweep", None),
        (heisenberg.enumerate_group, "heisenberg.enumerate", None),
        (heisenberg.orbit, "heisenberg.orbit", None),
    ]
    for fn, name, counters in functions:
        replace_function(fn, traced(tracer, fn, name, counters))

    methods = [
        (
            linalg.MembershipProblem,
            "__init__",
            "linalg.membership_build",
            lambda a, out: dict(zip(("rows", "cols"), a[0].shape)),
        ),
        (
            linalg.MembershipProblem,
            "solve_mod",
            "linalg.solve_mod",
            lambda a, out: {
                "rows": a[0].shape[0],
                "cols": a[0].shape[1],
                "prime": int(a[1]),
                "support": out.support(),
            },
        ),
        (
            linalg.MembershipProblem,
            "solve_rational",
            "linalg.solve_rational",
            lambda a, out: {"support": out.support()},
        ),
        (linalg.Matrix, "rank", "linalg.rank", lambda a, out: {"field": field_class(a[0].field)}),
        (linalg.Matrix, "rref", "linalg.rref", lambda a, out: {"field": field_class(a[0].field)}),
        (heisenberg.HeisenbergElement, "__pow__", "heisenberg.pow", None),
    ]
    for owner, attr, name, counters in methods:
        setattr(owner, attr, traced(tracer, getattr(owner, attr), name, counters))

    # Group products are counted, not spanned: the closure check makes 262,144
    # of them.  Only products made directly by the group-order check count, so
    # the squarings inside g**512 (their own span) are left out.
    multiply = heisenberg.HeisenbergElement.__mul__

    def counted_multiply(self, other):
        if tracer.stack and tracer.stack[-1]["name"] == GROUP_CHECK_SPAN:
            counters = tracer.stack[-1]["counters"]
            counters["group_products"] = counters.get("group_products", 0) + 1
        return multiply(self, other)

    heisenberg.HeisenbergElement.__mul__ = counted_multiply


def config_from_argv(argv) -> RunConfig:
    """The RunConfig the CLI would build from the same verify flags."""
    args = build_parser().parse_args(argv)
    checks = ("all",) if args.checks.strip() == "all" else tuple(
        c.strip() for c in args.checks.split(",") if c.strip()
    )
    config = RunConfig(
        checks=checks,
        primes=tuple(int(v) for v in args.primes.split(",") if v.strip()),
        seed=args.seed,
        base_point=tuple(int(v) for v in args.y.split(",") if v.strip()),
        fast=args.fast,
    )
    validate_config(config, registry.known_ids())
    return config


def run(config: RunConfig, tracer: Tracer) -> list:
    results = []
    with tracer.span("verify"):
        for spec in registry.selected_specs(config):
            check = getattr(registry, spec.runner.__name__)
            with tracer.span(f"registry.check.{spec.id}"):
                try:
                    result = check(config)
                    status, payload = result.status, result.payload
                except Exception as exc:  # a failing certificate, as in run_checks
                    status, payload = FAIL, {"error": f"{type(exc).__name__}: {exc}"}
            results.append({"id": spec.id, "status": status, "payload": payload})
    return results


def main(argv) -> int:
    out_path, trace_id, verify_argv = Path(argv[0]), argv[1], argv[2:]
    if not Path(heis8_certify.__file__).resolve().is_relative_to(SRC):
        print(f"imported heis8_certify from {heis8_certify.__file__}, not {SRC}", file=sys.stderr)
        return 2
    config = config_from_argv(verify_argv)
    tracer = Tracer(trace_id)
    install(tracer)
    results = run(config, tracer)
    out_path.write_text(json.dumps({"results": results, "spans": tracer.spans}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

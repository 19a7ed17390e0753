"""Command-line certificate runner.

    heis8-certify verify [--checks id,id,...] [--primes p,p,...] [--seed N]
                         [--y a,b,c] [--json PATH] [--fast]
    heis8-certify list

Exit codes: 0 when every selected certificate passes, 1 on a certificate
failure, 2 on a configuration error.
"""
from __future__ import annotations

import argparse
import sys

from .errors import CertifyError
from .registry import REGISTRY, known_ids, run_checks
from .report import PASS, RunConfig, validate_config


def _parse_int_list(text: str):
    try:
        return tuple(int(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise CertifyError(f"expected a comma-separated integer list, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heis8-certify",
        description="Run exact certificates for the level-8 Heisenberg-invariant quadric construction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run selected certificates and emit a report")
    verify.add_argument("--checks", default="all", help="comma-separated claim ids, or 'all'")
    verify.add_argument("--primes", default="17,41,73", help="comma-separated primes, each ≡ 1 mod 8")
    verify.add_argument("--seed", type=int, default=42, help="64-bit seed for randomized corroboration")
    verify.add_argument("--y", default="1,2,3", help="rational base point of the minus plane, as a,b,c")
    verify.add_argument("--json", dest="json_path", default=None, help="also write the JSON report here")
    verify.add_argument("--fast", action="store_true", help="skip the rational membership solve")

    sub.add_parser("list", help="list every claim id in the registry")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list":
        width = max(len(spec.id) for spec in REGISTRY)
        for spec in REGISTRY:
            print(f"{spec.id:<{width}s}  {spec.claim}")
        return 0

    try:
        checks = ("all",) if args.checks.strip() == "all" else tuple(
            c.strip() for c in args.checks.split(",") if c.strip()
        )
        config = RunConfig(
            checks=checks,
            primes=_parse_int_list(args.primes),
            seed=args.seed,
            base_point=tuple(_parse_int_list(args.y)),
            fast=args.fast,
        )
        validate_config(config, known_ids())
    except CertifyError as exc:
        print(f"configuration error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    report = run_checks(config)
    sys.stdout.write(report.to_text())
    if args.json_path:
        with open(args.json_path, "w") as fh:
            fh.write(report.to_json())
    return 0 if report.status == PASS else 1


if __name__ == "__main__":
    sys.exit(main())

"""Report data model: per-claim certificate results, run configuration, and
the deterministic JSON/text report emitted by the CLI.

Payload values are always strings (canonical polynomial text or decimal
integers) so the JSON never depends on numeric formatting.  Two runs with the
same configuration produce byte-identical JSON except for the elapsed-time
fields; ``normalized_json`` zeroes those for comparisons.
"""
from __future__ import annotations

import json
from typing import NamedTuple

from heis8_certify import __version__ as VERSION
from .errors import BadDimension, EmptySelection, InvalidPrime, InvalidSeed, UnknownCheckId, ZeroPoint

PASS = "pass"
FAIL = "fail"


class CertificateResult:
    """One check's verdict and its evidence, every payload value a string;
    the runner fills in the claim id and the elapsed time."""

    def __init__(self, status, field, payload, prime=None):
        self.id = None
        self.status = status
        self.field = field
        self.prime = prime
        self.elapsed_ms = 0
        self.payload = {str(k): str(v) for k, v in payload.items()}

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "status": self.status,
            "field": self.field,
            "prime": self.prime,
            "elapsed_ms": self.elapsed_ms,
            "payload": dict(sorted(self.payload.items())),
        }


class RunConfig(NamedTuple):
    checks: tuple = ("all",)
    primes: tuple = (17, 41, 73)
    seed: int = 42
    base_point: tuple = (1, 2, 3)
    fast: bool = False

    def to_json_dict(self) -> dict:
        return {
            "checks": list(self.checks),
            "primes": list(self.primes),
            "seed": self.seed,
            "y": list(self.base_point),
            "fast": self.fast,
        }


def validate_config(config: RunConfig, known_ids) -> None:
    """Raise on a configuration that is malformed or would certify nothing."""
    from .exactmath import is_prime_1_mod_8  # with fractions and decimal: verify only

    if not config.primes:
        raise InvalidPrime("no primes given")
    for p in config.primes:
        if not is_prime_1_mod_8(p):
            raise InvalidPrime(f"prime {p} must be an odd prime congruent to 1 mod 8")
    if len(set(config.primes)) != len(config.primes):
        raise InvalidPrime(f"primes {list(config.primes)} repeat a prime")
    if not (0 <= config.seed < 2**64):
        raise InvalidSeed(f"seed {config.seed} is not a 64-bit integer")
    if not config.checks:
        raise EmptySelection("no checks selected")
    if config.checks != ("all",):
        for cid in config.checks:
            if cid not in known_ids:
                raise UnknownCheckId(cid)
    if len(config.base_point) != 3:
        raise BadDimension(f"base point {config.base_point} must have exactly 3 coordinates")
    if not any(config.base_point):
        raise ZeroPoint(f"base point {config.base_point} must be a nonzero integer triple")


class Report:
    def __init__(self, version, config: RunConfig, results: list, total_elapsed_ms: int):
        self.version = version
        self.config = config
        self.results = results
        self.total_elapsed_ms = total_elapsed_ms

    @property
    def status(self) -> str:
        return PASS if all(r.status == PASS for r in self.results) else FAIL

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "config": self.config.to_json_dict(),
            "results": [r.to_json_dict() for r in self.results],
            "status": self.status,
            "total_elapsed_ms": self.total_elapsed_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"heis8-certify {self.version}"]
        cfg = self.config
        lines.append(
            f"config: primes={list(cfg.primes)} seed={cfg.seed} y={list(cfg.base_point)}"
            f" fast={cfg.fast}"
        )
        width = max((len(r.id) for r in self.results), default=10)
        for r in self.results:
            lines.append(f"  {r.status.upper():<4s} {r.id:<{width}s}  [{r.field}]  {r.elapsed_ms} ms")
        lines.append(f"overall: {self.status.upper()} ({self.total_elapsed_ms} ms)")
        return "\n".join(lines) + "\n"


def normalized_json(text: str) -> str:
    """Zero every elapsed-time field; the rest must be byte-identical across runs."""
    data = json.loads(text)
    data["total_elapsed_ms"] = 0
    for r in data.get("results", []):
        r["elapsed_ms"] = 0
    return json.dumps(data, indent=2) + "\n"

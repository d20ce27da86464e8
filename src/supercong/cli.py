"""Command-line front end.

Verbs:
  list      catalog of registry entries
  verify    symbolic q-congruence and p-adic cases
  analytic  numeric identity / pi-series / Gamma-limit cases
  sweep     the full desk-scale matrix (every family, registry grids)

Exit status: 0 when no theorem-kind case failed, 1 on any theorem-kind
failure or obstruction (conjecture outcomes never change it), 2 for
configuration or registry errors or when some instance raised (its result
has status "error").
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .harness import (
    ANALYTIC_FAMILIES,
    SYMBOLIC_FAMILIES,
    CacheMismatch,
    ConfigError,
    RunConfig,
    emit_report,
    list_cases,
    plan_jobs,
    run,
)
from .registry import RegistryError, load_registry


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"expected a comma-separated integer list, got {text!r}") from exc


def _parse_range(text: str) -> list[int]:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise ConfigError(f"expected a range like 3..29, got {text!r}") from exc
    if hi < lo:
        raise ConfigError(f"empty range {text!r}")
    return list(range(lo, hi + 1))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--case", action="append", default=None,
                        help="case id to run (repeatable, or comma-separated)")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument("--report", default=None, help="write the report to this path")
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        help="report file format")
    parser.add_argument("--tol", type=float, default=None,
                        help="tolerance override for numeric cases")
    parser.add_argument("--no-timing", action="store_true",
                        help="zero out elapsed times (deterministic reports)")
    parser.add_argument("--no-cache", action="store_true", help="disable the result cache")
    parser.add_argument("--cache", default=".supercong-cache.jsonl",
                        help="result cache path")
    parser.add_argument("--registry", default=None, help="alternate registry file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supercong",
        description="Exact desk-scale verification of q-supercongruences and their limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="catalog the registry")
    p_list.add_argument("--registry", default=None)

    p_verify = sub.add_parser("verify", help="run symbolic and p-adic cases")
    _add_common(p_verify)
    p_verify.add_argument("--n", action="append", type=int, default=None,
                          help="single n value (repeatable)")
    p_verify.add_argument("--n-range", default=None, help="inclusive range A..B")
    p_verify.add_argument("--d", action="append", type=int, default=None,
                          help="single d value (repeatable)")
    p_verify.add_argument("--primes", default=None, help="comma-separated prime list")

    p_analytic = sub.add_parser("analytic", help="run numeric identity checks")
    _add_common(p_analytic)

    p_sweep = sub.add_parser("sweep", help="run the full registry matrix")
    _add_common(p_sweep)

    return parser


def _selected_cases(args) -> Optional[list[str]]:
    if args.case is None:
        return None
    out = []
    for chunk in args.case:
        out.extend(part.strip() for part in chunk.split(",") if part.strip())
    return out


def _config_from_args(args, families) -> RunConfig:
    n_values = None
    if getattr(args, "n", None):
        n_values = list(args.n)
    if getattr(args, "n_range", None):
        n_values = (n_values or []) + _parse_range(args.n_range)
    primes = _parse_int_list(args.primes) if getattr(args, "primes", None) else None
    return RunConfig(
        case_ids=_selected_cases(args),
        families=families,
        n_values=sorted(set(n_values)) if n_values else None,
        d_values=list(args.d) if getattr(args, "d", None) else None,
        primes=primes,
        jobs=args.jobs,
        tol=args.tol,
        include_timing=not args.no_timing,
        use_cache=not args.no_cache,
        cache_path=args.cache,
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        registry = load_registry(args.registry)
        if args.command == "list":
            sys.stdout.write(list_cases(registry))
            return 0
        families = {
            "verify": SYMBOLIC_FAMILIES,
            "analytic": ANALYTIC_FAMILIES,
            "sweep": SYMBOLIC_FAMILIES + ANALYTIC_FAMILIES,
        }[args.command]
        config = _config_from_args(args, families)
        if not plan_jobs(registry, config):
            raise ConfigError(
                "the selection plans no jobs: check the case ids against the command's "
                "families and each case's registry d values"
            )
        report = run(config, registry)
        sys.stdout.write(report.to_text())
        if args.report:
            emit_report(report, args.report, args.format)
        return report.exit_code
    except (ConfigError, RegistryError, CacheMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()

"""Run scheduling, result caching, and report emission.

A run plans one job per applicable (case, parameter) pair, executes the
jobs with up to the requested number of worker processes, and aggregates
results in a deterministic order (sorted by case id and parameters, never
by completion order).  Reports round-trip as stable JSON; with timing
suppressed two runs over the same registry produce byte-identical files.
"""

from __future__ import annotations

import json
import logging
import math
import random
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import __version__
from .analytic import verify_analytic_case
from .engine import CaseResult, case_result, verify_q_case
from .exprs import ExpressionError
from .padic import is_odd_prime, verify_padic_case
from .registry import CaseDefinition, Registry, iter_sweep_params, load_registry

_log = logging.getLogger(__name__)

SYMBOLIC_FAMILIES = ("q", "q_pair", "padic")
ANALYTIC_FAMILIES = ("analytic_identity", "pi_series", "gamma_limit")


class ConfigError(ValueError):
    """Invalid run configuration (unknown case, malformed range, ...)."""


class CacheMismatch(RuntimeError):
    """A cached result disagrees with a fresh recomputation."""


@dataclass
class RunConfig:
    case_ids: Optional[list[str]] = None          # None means every selected family
    families: tuple[str, ...] = SYMBOLIC_FAMILIES + ANALYTIC_FAMILIES
    n_values: Optional[list[int]] = None
    d_values: Optional[list[int]] = None
    primes: Optional[list[int]] = None
    jobs: int = 1
    tol: Optional[float] = None
    include_timing: bool = True
    use_cache: bool = False
    cache_path: str = ".supercong-cache.jsonl"
    registry_path: Optional[str] = None

    def __post_init__(self):
        if self.jobs < 1:
            raise ConfigError("worker count must be >= 1")
        if self.tol is not None and not (self.tol >= 0 and math.isfinite(self.tol)):
            raise ConfigError(f"tolerance must be a finite nonnegative number, got {self.tol}")


@dataclass
class Report:
    version: str
    registry_digest: str
    results: list[dict]
    summary: dict

    def to_json(self) -> str:
        doc = {
            "tool": "supercong",
            "version": self.version,
            "registry_sha256": self.registry_digest,
            "results": self.results,
            "summary": self.summary,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lines = []
        per_case: dict[str, dict] = {}
        for r in self.results:
            tally = per_case.setdefault(r["id"], {"pass": 0, "fail": 0, "skipped": 0, "obstruction": 0})
            tally[r["status"]] = tally.get(r["status"], 0) + 1
        width = max((len(cid) for cid in per_case), default=4)
        for cid in sorted(per_case):
            tally = per_case[cid]
            lines.append(
                f"{cid:<{width}}  pass={tally['pass']:<3} fail={tally['fail']:<3} "
                f"skipped={tally['skipped']:<3} obstruction={tally['obstruction']}"
                + (f" error={tally['error']}" if "error" in tally else "")
            )
        s = self.summary
        lines.append(
            f"total: {s['total']}  pass={s['pass']} fail={s['fail']} "
            f"skipped={s['skipped']} obstruction={s['obstruction']}"
            + (f" error={len(s['errors'])}" if "errors" in s else "")
        )
        if s["observe_failures"]:
            lines.append("observed failures (conjecture statements, not suite errors):")
            for entry in s["observe_failures"]:
                lines.append(f"  {entry}")
        if s["theorem_failures"]:
            lines.append("FAILED statements:")
            for entry in s["theorem_failures"]:
                lines.append(f"  {entry}")
        if "errors" in s:
            lines.append("ERRORS (the instance could not be checked):")
            for entry in s["errors"]:
                lines.append(f"  {entry}")
        return "\n".join(lines) + "\n"

    @property
    def exit_code(self) -> int:
        if "errors" in self.summary:
            return 2
        return 1 if self.summary["theorem_failures"] else 0


def list_cases(registry: Registry) -> str:
    """One catalog line per registry entry."""
    lines = []
    width = max(len(case.id) for case in registry)
    for case in registry:
        kind = case.kind + ("(observe)" if case.observe else "")
        modulus = _modulus_text(case)
        lines.append(
            f"{case.id:<{width}}  {kind:<20} {case.family:<17} "
            f"cond[{case.condition}]  mod[{modulus}]  {case.anchor}"
        )
    return "\n".join(lines) + "\n"


def _modulus_text(case: CaseDefinition) -> str:
    if case.modulus is None:
        return "-"
    parts = []
    for f in case.modulus.factors:
        if f.kind == "cyclotomic":
            parts.append("Phi_n" + (f"^{f.power}" if f.power > 1 else ""))
        elif f.kind == "q_integer":
            parts.append("[n]")
        elif f.kind == "one_minus_a_qn":
            parts.append("(1-aq^n)")
        elif f.kind == "a_minus_qn":
            parts.append("(a-q^n)")
    return "*".join(parts)


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------

def _case_condition_holds(case: CaseDefinition, params: dict) -> Optional[str]:
    """None when the instance applies, else the skip reason."""
    if case.family == "padic":
        p = params["p"]
        if not is_odd_prime(p):
            return "p is not an odd prime"
        if not case.applies(p=p):
            return "residue condition not satisfied"
        return None
    if case.family in ("q", "q_pair"):
        try:
            if not case.applies(n=params["n"], d=params.get("d")):
                return "condition not satisfied"
        except ExpressionError as exc:
            raise ConfigError(f"{case.id}: {exc}") from exc
    return None


def _job_sort_key(case_id: str, params: dict) -> tuple:
    return (
        case_id,
        params.get("n", -1),
        params.get("d", -1),
        params.get("p", -1),
        params.get("N", -1),
        float(params.get("q", -1.0)),
        str(params.get("bound", "")),
    )


def plan_jobs(registry: Registry, config: RunConfig) -> list[tuple[str, dict]]:
    """Every scheduled (case id, params) pair, ordered by id then n, d, p."""
    if config.case_ids is not None:
        cases = [registry.get(cid) for cid in config.case_ids]
    else:
        cases = [case for case in registry if case.family in config.families]
    jobs: list[tuple[str, dict]] = []
    for case in cases:
        if case.family not in config.families:
            continue
        for params in _param_grid(case, config):
            jobs.append((case.id, params))
    jobs.sort(key=lambda job: _job_sort_key(*job))
    return jobs


def _param_grid(case: CaseDefinition, config: RunConfig) -> list[dict]:
    overridden = (
        (config.n_values is not None and case.family in ("q", "q_pair"))
        or (config.primes is not None and case.family == "padic")
        or (config.d_values is not None and case.family == "q")
    )
    if not overridden:
        grids = iter_sweep_params(case)
    elif case.family == "padic":
        grids = [{"p": p} for p in config.primes]
    else:
        ns = config.n_values
        if ns is None:
            ns = sorted({params["n"] for params in iter_sweep_params(case)})
        if case.family == "q" and case.d_values:
            ds = config.d_values or list(case.d_values)
            ds = [d for d in ds if d in case.d_values]
            grids = [{"d": d, "n": n} for d in ds for n in ns]
        else:
            grids = [{"n": n} for n in ns]
    out = []
    for params in grids:
        if case.family == "q" and case.bounds and len(case.bounds) > 1:
            for bound in case.bounds:
                out.append({**params, "bound": bound})
        else:
            out.append(dict(params))
    return out


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

_WORKER_REGISTRIES: dict[str, Registry] = {}


def _registry_for(path: Optional[str]) -> Registry:
    key = path or "<default>"
    if key not in _WORKER_REGISTRIES:
        _WORKER_REGISTRIES[key] = load_registry(path)
    return _WORKER_REGISTRIES[key]


def execute_job(registry: Registry, case_id: str, params: dict, tol: Optional[float]) -> CaseResult:
    """One instance's result.  An unexpected exception inside a lane
    becomes a result of status ``error`` with detail "<Type>: <message>",
    so one crashing instance does not lose the rest of a sweep."""
    case = registry.get(case_id)
    reason = _case_condition_holds(case, params)
    if reason is not None:
        return case_result(case, params, "skipped", "none", detail=reason)
    try:
        if case.family in ("q", "q_pair"):
            return verify_q_case(case, params)
        if case.family == "padic":
            return verify_padic_case(case, params["p"])
        return verify_analytic_case(case, params, tol=tol)
    except Exception as exc:
        _log.exception("%s %s raised", case_id, json.dumps(params, sort_keys=True))
        return case_result(case, params, "error", "none", detail=f"{type(exc).__name__}: {exc}")


def _pool_worker(args: tuple) -> dict:
    registry_path, case_id, params, tol, include_timing = args
    registry = _registry_for(registry_path)
    return execute_job(registry, case_id, params, tol).to_dict(include_timing)


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def _cache_key(case_id: str, params: dict, digest: str) -> str:
    return f"{case_id}|{digest}|{json.dumps(params, sort_keys=True)}"


def _load_cache(path: str, digest: str) -> dict[str, dict]:
    cache: dict[str, dict] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue  # tolerate a torn final line in the append-only file
                key = entry.get("key", "")
                if f"|{digest}|" in key:
                    cache[key] = entry["result"]
    except OSError:
        pass
    return cache


def _open_cache(path: str):
    """The cache file opened for appending, before any job runs, so that an
    unwritable path ends the run at once."""
    try:
        return open(path, "a", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write the result cache to {path}: {exc}") from exc


def _append_cache(handle, entries: dict[str, dict]) -> None:
    try:
        for key in sorted(entries):
            handle.write(json.dumps({"key": key, "result": entries[key]}, sort_keys=True) + "\n")
        handle.flush()
    except OSError as exc:
        raise ConfigError(f"cannot write the result cache to {handle.name}: {exc}") from exc


def _strip_timing(result: dict) -> dict:
    out = dict(result)
    out["elapsed"] = 0.0
    return out


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def run(config: RunConfig, registry: Optional[Registry] = None) -> Report:
    registry = registry or load_registry(config.registry_path)
    jobs = plan_jobs(registry, config)
    with _open_cache(config.cache_path) if config.use_cache else nullcontext() as cache_file:
        cache = _load_cache(config.cache_path, registry.digest) if config.use_cache else {}
        cached_results: dict[tuple[str, str], dict] = {}
        to_compute: list[tuple[str, dict]] = []
        for case_id, params in jobs:
            key = _cache_key(case_id, params, registry.digest)
            if key in cache:
                cached_results[(case_id, json.dumps(params, sort_keys=True))] = cache[key]
            else:
                to_compute.append((case_id, params))

        computed: dict[tuple[str, str], dict] = {}
        if config.jobs > 1 and len(to_compute) > 1:
            args = [
                (config.registry_path, case_id, params, config.tol, config.include_timing)
                for case_id, params in to_compute
            ]
            with ProcessPoolExecutor(max_workers=config.jobs) as pool:
                for (case_id, params), result in zip(to_compute, pool.map(_pool_worker, args)):
                    computed[(case_id, json.dumps(params, sort_keys=True))] = result
        else:
            for case_id, params in to_compute:
                result = execute_job(registry, case_id, params, config.tol)
                computed[(case_id, json.dumps(params, sort_keys=True))] = result.to_dict(
                    config.include_timing
                )

        if config.use_cache and cached_results:
            _audit_cache(registry, config, cached_results)

        results = []
        new_cache_entries: dict[str, dict] = {}
        for case_id, params in jobs:
            key = (case_id, json.dumps(params, sort_keys=True))
            if key in cached_results:
                result = dict(cached_results[key])
                if not config.include_timing:
                    result = _strip_timing(result)
            else:
                result = computed[key]
                if result["status"] != "error":   # an error is retried, never cached
                    cache_key = _cache_key(case_id, params, registry.digest)
                    new_cache_entries[cache_key] = _strip_timing(result)
            results.append(result)

        if cache_file is not None:
            _append_cache(cache_file, new_cache_entries)

    return Report(
        version=__version__,
        registry_digest=registry.digest,
        results=results,
        summary=_summarize(results),
    )


def _audit_cache(registry: Registry, config: RunConfig, cached: dict) -> None:
    """Recompute a deterministic sample of cache hits; any disagreement
    invalidates the run (exit code 2 via CacheMismatch)."""
    rng = random.Random(registry.digest)
    keys = sorted(cached)
    sample = rng.sample(keys, min(10, len(keys)))
    for case_id, params_json in sample:
        params = json.loads(params_json)
        fresh = execute_job(registry, case_id, params, config.tol).to_dict(include_timing=False)
        stored = _strip_timing(cached[(case_id, params_json)])
        if fresh != stored:
            raise CacheMismatch(
                f"cache entry for {case_id} {params_json} does not match recomputation"
            )


def _summarize(results: list[dict]) -> dict:
    """Counts and failure lists; the ``errors`` list appears only when some
    job errored, so other reports keep their bytes."""
    counts = {"pass": 0, "fail": 0, "skipped": 0, "obstruction": 0}
    observe_failures = []
    theorem_failures = []
    errors = []
    for r in results:
        label = f"{r['id']} {json.dumps(r['params'], sort_keys=True)} -> {r['status']}"
        if r["status"] == "error":
            errors.append(f"{label}: {r['detail']}")
            continue
        counts[r["status"]] += 1
        if r["status"] in ("fail", "obstruction"):
            if r["observe"]:
                observe_failures.append(label)
            else:
                theorem_failures.append(label)
    summary = {
        "total": len(results),
        **counts,
        "observe_failures": observe_failures,
        "theorem_failures": theorem_failures,
    }
    if errors:
        summary["errors"] = errors
    return summary


def emit_report(report: Report, path: str, fmt: str = "json") -> None:
    text = report.to_json() if fmt == "json" else report.to_text()
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write report to {path}: {exc}") from exc

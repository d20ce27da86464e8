"""Run planning, execution, result caching, and report emission.

A run plans each (case, parameter) pair once.  Every job takes one path:
its lane decides the verdict, a skip included, ``execute_job`` times it,
and one loop runs the jobs that miss the cache in plan order, serially or
on a pool of worker processes that each receive the run's registry once.
Each result but an error is appended to the cache as it arrives, so a
killed run keeps what it computed.  Results are reported in plan order
(sorted by case id and parameters, never by completion order).  Reports
round-trip as stable JSON; with timing suppressed two runs over the same
registry produce byte-identical files.
"""

from __future__ import annotations

import json
import logging
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import __version__
from .analytic import verify_analytic_case
from .engine import CaseResult, case_result, verify_q_case
from .padic import verify_padic_case
from .qobjects import MODULUS_KINDS
from .registry import CaseDefinition, Registry, iter_sweep_params, load_registry, valid_tolerance

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

    def __post_init__(self):
        if self.jobs < 1:
            raise ConfigError("worker count must be >= 1")
        if self.tol is not None and not valid_tolerance(self.tol):
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
        for key, heading in (
            ("observe_failures", "observed failures (conjecture statements, not suite errors):"),
            ("theorem_failures", "FAILED statements:"),
            ("errors", "ERRORS (the instance could not be checked):"),
        ):
            if s.get(key):
                lines.append(heading)
                lines.extend(f"  {entry}" for entry in s[key])
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
        modulus = "*".join(MODULUS_KINDS[f.kind] + (f"^{f.power}" if f.power > 1 else "")
                           for f in case.modulus.factors) if case.modulus else "-"
        lines.append(
            f"{case.id:<{width}}  {kind:<20} {case.family:<17} "
            f"cond[{case.condition}]  mod[{modulus}]  {case.anchor}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------

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


# Each parameter override, the flag that sets it, and the records it applies to.
_OVERRIDES = (
    ("n_values", "--n/--n-range", lambda case: case.family in ("q", "q_pair")),
    ("d_values", "--d", lambda case: case.family == "q" and bool(case.d_values)),
    ("primes", "--primes", lambda case: case.family == "padic"),
)


def plan_jobs(registry: Registry, config: RunConfig) -> list[tuple[str, dict]]:
    """Every scheduled (case id, params) pair once, ordered by id then n, d, p.
    An override applies to every selected record it fits; one that fits none
    of the cases named in ``case_ids`` is a ``ConfigError``, and so is a
    named case that plans no job."""
    if config.case_ids is None:
        cases = registry
    else:
        cases = [registry.get(cid) for cid in config.case_ids]
        for field, flag, applies in _OVERRIDES:
            if getattr(config, field) is not None and not any(map(applies, cases)):
                named = ", ".join(dict.fromkeys(config.case_ids))
                raise ConfigError(f"{flag} does not apply to the named case(s) {named}")
    jobs = {
        (case.id, json.dumps(params, sort_keys=True)): (case.id, params)
        for case in cases
        if case.family in config.families
        for params in _param_grid(case, config)
    }
    planned = {case_id for case_id, _ in jobs}
    idle = [cid for cid in dict.fromkeys(config.case_ids or ()) if cid not in planned]
    if idle:
        raise ConfigError(f"the named case(s) {', '.join(idle)} plan no jobs: check them against "
                          "the command's families and each case's registry d values")
    return sorted(jobs.values(), key=lambda job: _job_sort_key(*job))


def _param_grid(case: CaseDefinition, config: RunConfig) -> list[dict]:
    overridden = any(getattr(config, field) is not None and applies(case)
                     for field, _, applies in _OVERRIDES)
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
        if case.family == "q" and len(case.bounds) > 1:
            for bound in case.bounds:
                out.append({**params, "bound": bound})
        else:
            out.append(dict(params))
    return out


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def execute_job(registry: Registry, case_id: str, params: dict, tol: Optional[float]) -> CaseResult:
    """One instance's result, timed.  The lane decides the verdict, a skip
    included; an unexpected exception inside it becomes a result of status
    ``error`` with detail "<Type>: <message>", so one crashing instance
    does not lose the rest of a sweep."""
    case = registry.get(case_id)
    start = time.perf_counter()
    try:
        if case.family in ("q", "q_pair"):
            result = verify_q_case(case, params)
        elif case.family == "padic":
            result = verify_padic_case(case, params["p"])
        else:
            result = verify_analytic_case(case, params, tol=tol)
    except Exception as exc:
        _log.exception("%s %s raised", case_id, json.dumps(params, sort_keys=True))
        result = case_result(case, params, "error", "none", detail=f"{type(exc).__name__}: {exc}")
    result.elapsed = time.perf_counter() - start
    return result


# The registry that ``_run_job`` reads: the run sets it, and so does each
# pool worker's initializer, once, so that no task carries it.
_run_registry: Optional[Registry] = None


def _use_registry(registry: Registry) -> None:
    global _run_registry
    _run_registry = registry


def _run_job(job: tuple) -> dict:
    case_id, params, tol = job
    return execute_job(_run_registry, case_id, params, tol).to_dict()


@contextmanager
def _job_map(registry: Registry, workers: int, count: int):
    """A map that yields job results in plan order: the builtin one, or a
    pool's when there are several workers and several jobs.  The pool has
    no more workers than jobs, since each worker is started up front."""
    _use_registry(registry)
    if workers == 1 or count < 2:
        yield map
        return
    with ProcessPoolExecutor(min(workers, count), initializer=_use_registry,
                             initargs=(registry,)) as pool:
        yield pool.map


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def _cache_key(job: tuple[str, str], digest: str, tol: Optional[float]) -> str:
    """The entry's key: a run with a --tol override keys its entries by it,
    and a run without one keeps the plain key."""
    case_id, params_json = job
    return f"{case_id}|{digest}|{params_json}" + ("" if tol is None else f"|tol={tol!r}")


def _load_cache(path: str, digest: str) -> dict[str, dict]:
    """The entries of ``digest``'s registry.  A line that is not an entry,
    such as one torn by a killed run, is skipped and counted in a warning."""
    cache: dict[str, dict] = {}
    unreadable = 0
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    key, result = str(entry["key"]), entry["result"]
                except (json.JSONDecodeError, TypeError, KeyError):
                    unreadable += 1
                    continue
                if f"|{digest}|" in key:
                    cache[key] = result
    except OSError:
        pass
    if unreadable:
        _log.warning("skipped %d unreadable line(s) in the result cache %s", unreadable, path)
    return cache


def _open_cache(path: str):
    """The cache file opened for appending, before any job runs, so that an
    unwritable path ends the run at once.  A last line left without its
    newline by a killed run is ended first, so that the next entry starts a
    line of its own instead of being lost with the torn one."""
    try:
        handle = open(path, "ab+")
        if handle.tell():
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                handle.write(b"\n")
                handle.flush()
        return handle
    except OSError as exc:
        raise ConfigError(f"cannot write the result cache to {path}: {exc}") from exc


def _append_cache(handle, key: str, result: dict) -> None:
    """One entry, flushed, so that a killed run keeps what it computed."""
    try:
        handle.write(json.dumps({"key": key, "result": result}, sort_keys=True).encode() + b"\n")
        handle.flush()
    except OSError as exc:
        raise ConfigError(f"cannot write the result cache to {handle.name}: {exc}") from exc


def _strip_timing(result: dict) -> dict:
    return {**result, "elapsed": 0.0}


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def run(config: RunConfig, registry: Optional[Registry] = None) -> Report:
    """The report over every planned job, in plan order, for ``registry``
    (the shipped catalog by default).  Cache hits are reused and a sample
    of them recomputed; the other jobs run through one loop, serial or
    pooled, and each result but an error is cached as it arrives."""
    registry = registry or load_registry()
    jobs = {(case_id, json.dumps(params, sort_keys=True)): params
            for case_id, params in plan_jobs(registry, config)}
    with _open_cache(config.cache_path) if config.use_cache else nullcontext() as cache_file:
        cache = _load_cache(config.cache_path, registry.digest) if config.use_cache else {}
        keys = {job: _cache_key(job, registry.digest, config.tol) for job in jobs}
        hits = {job: cache[key] for job, key in keys.items() if key in cache}
        misses = [job for job in jobs if job not in hits]
        tasks = [(case_id, jobs[case_id, params_json], config.tol) for case_id, params_json in misses]
        fresh: dict[tuple[str, str], dict] = {}
        with _job_map(registry, config.jobs, len(tasks)) as job_map:
            for job, result in zip(misses, job_map(_run_job, tasks)):
                fresh[job] = result
                if cache_file is not None and result["status"] != "error":  # an error is retried
                    _append_cache(cache_file, keys[job], _strip_timing(result))
        if hits:
            _audit_cache(registry, config, hits)

    results = [hits[job] if job in hits else fresh[job] for job in jobs]
    if not config.include_timing:
        results = [_strip_timing(result) for result in results]
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
        fresh = _strip_timing(execute_job(registry, case_id, params, config.tol).to_dict())
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

"""supercong benchmark: end-to-end and per-layer metrics on four workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 25 --trace 0

Every iteration runs in a fresh interpreter (``child.py``) that imports
supercong from the checkout's ``src``, loads the registry, plans the jobs and
calls ``harness.run``.  Verdicts are checked against ``golden.json``.  With
``--trace 0`` the run repeats the workload for ``--seconds`` and reports the
median end-to-end metrics; with ``--trace 1`` it runs the workload once
untraced and once traced at one job, and reports the per-layer metrics.
``wall_s``, ``cpu_s`` and ``setup_s`` are rescaled to a reference host
speed by a fixed probe timed while each measured call runs
(``hostspeed.py``), because a shared host's own speed drifts by more than
their bounds; the unscaled medians are printed beside them.
The last line of stdout is the JSON result; the lines before it repeat every
metric by name and unit with its sample count, and the run record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import rescale
from workloads import CATALOG_JOBS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
GOLDEN = HERE / "golden.json"
SETUP_PROBES = 5
BUDGET_S = 165.0  # every run ends well inside the 180 s limit

def metric_units(section: str) -> dict:
    """name -> unit of the metrics BENCHMARK.json lists in ``section``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


class Failure(Exception):
    """The benchmark cannot run here at all (exit 2, no result)."""


# ---------------------------------------------------------------------------
# verdict checking
# ---------------------------------------------------------------------------

def _key(record: dict) -> tuple:
    return record["id"], json.dumps(record["params"], sort_keys=True)


def score(golden: list, outcome) -> tuple[int, int, int]:
    """(attempted, failed, differing) for one ``harness.run`` call.

    An instance fails when its status differs from the golden one, when it
    is missing or unexpected, or when the call raised (then every instance
    fails).  ``differing`` counts records that differ in any field.
    """
    expected = {_key(r): r for r in golden}
    if outcome is None or "raised" in outcome:
        return len(expected), len(expected), len(expected)
    actual = {_key(r): r for r in outcome["results"]}
    keys = expected.keys() | actual.keys()
    failed = sum(
        1 for k in keys
        if k not in expected or k not in actual or actual[k]["status"] != expected[k]["status"]
    )
    differing = sum(1 for k in keys if expected.get(k) != actual.get(k))
    return len(keys), failed, differing


# ---------------------------------------------------------------------------
# fresh-interpreter iterations
# ---------------------------------------------------------------------------

def spawn(spec: dict, deadline: float):
    """Run ``child.py`` on ``spec``; returns its JSON output with
    ``setup_s``, raw and rescaled, added, or None when it failed."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD)],
        cwd=ROOT,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(json.dumps(spec), timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        print(f"iteration timed out: {spec['mode']}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"iteration failed ({proc.returncode}): {err.strip()[-2000:]}", file=sys.stderr)
        return None
    data = json.loads(out.strip().splitlines()[-1])
    data["raw_setup_s"] = data["planned_at"] - start - data["setup_probing_s"]
    data["setup_s"] = rescale(data["raw_setup_s"], data["setup_readings"])
    return data


class Bench:
    def __init__(self, workload: str, seed: int, golden: dict, work: Path):
        self.items = WORKLOADS[workload](seed)
        self.golden = golden
        self.work = work
        self.deadline = time.monotonic() + BUDGET_S
        self.attempted = self.failed = self.differing = 0
        self.setup = []
        self.raw_setup = []

    def configs(self, jobs=None) -> list[dict]:
        out = []
        for _, item in self.items:
            config = {k: v for k, v in item.items() if k != "cache"}
            if "cache" in item:
                config["cache_path"] = str(self.work / f"{item['cache']}.jsonl")
            if jobs is not None:
                config["jobs"] = jobs
            out.append(config)
        return out

    def iterate(self, jobs=None, trace=False):
        """One scored iteration; a ``fresh`` cache starts empty every time."""
        (self.work / "fresh.jsonl").unlink(missing_ok=True)
        data = spawn({"mode": "run", "trace": trace, "configs": self.configs(jobs)}, self.deadline)
        outcomes = data["outcomes"] if data else [None] * len(self.items)
        for (label, _), outcome in zip(self.items, outcomes):
            attempted, failed, differing = score(self.golden[label], outcome)
            self.attempted += attempted
            self.failed += failed
            self.differing += differing
        if data:
            self.setup.append(data["setup_s"])
            self.raw_setup.append(data["raw_setup_s"])
        return data

    def prepare(self) -> None:
        """Fill the cache a ``warm`` item reads with one cold catalog run."""
        if any(item.get("cache") == "warm" for _, item in self.items):
            configs = self.configs(jobs=CATALOG_JOBS)
            spawn({"mode": "run", "trace": False, "configs": configs}, self.deadline)
        for _ in range(SETUP_PROBES):
            data = spawn({"mode": "setup", "trace": False, "configs": self.configs()}, self.deadline)
            if data:
                self.setup.append(data["setup_s"])
                self.raw_setup.append(data["raw_setup_s"])


def measure(bench: Bench, seconds: int) -> tuple[dict, dict, dict]:
    """Repeat the workload untraced for ``seconds``; median end-to-end
    metrics, their sample counts, and the medians of the raw times."""
    runs, start = [], time.monotonic()
    while True:
        data = bench.iterate()
        if data:
            runs.append(data)
        elapsed = time.monotonic() - start
        per_run = elapsed / (len(runs) or 1)
        if elapsed + per_run > seconds or time.monotonic() + 2 * per_run > bench.deadline:
            break
    if not runs:
        raise Failure("no iteration of the workload completed")
    metrics = {
        name: statistics.median(r[name] for r in runs) for name in ("wall_s", "cpu_s", "peak_rss_mb")
    }
    metrics["setup_s"] = statistics.median(bench.setup)
    samples = {name: len(runs) for name in metrics}
    samples["setup_s"] = len(bench.setup)
    raw = {name: statistics.median(r[f"raw_{name}"] for r in runs) for name in ("wall_s", "cpu_s")}
    raw["setup_s"] = statistics.median(bench.raw_setup)
    return metrics, samples, raw


def measure_traced(bench: Bench) -> tuple[dict, dict, dict]:
    """One untraced run as the workload is defined, one traced run at one
    job (so every span stays in one process), and, when the workload runs
    several jobs, one untraced run at one job as the overhead baseline."""
    jobs = max(config["jobs"] for config in bench.configs())
    untraced = bench.iterate()
    baseline = untraced if jobs == 1 else bench.iterate(jobs=1)
    traced = bench.iterate(jobs=1, trace=True)
    if not (untraced and baseline and traced):
        raise Failure("an iteration of the traced run failed")
    metrics = dict(traced["trace"])
    metrics["harness.pool_busy"] = untraced["raw_cpu_s"] / (jobs * untraced["raw_wall_s"])
    metrics["harness.report_diff"] = bench.differing
    metrics["trace.wall_s"] = traced["raw_wall_s"]
    metrics["trace_overhead"] = traced["wall_s"] / baseline["wall_s"] - 1
    return metrics, {name: 1 for name in metrics}, {}


# ---------------------------------------------------------------------------
# run record and output
# ---------------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_record(bench: Bench, workload: str, seed: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "items": [label for label, _ in bench.items],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "jobs": max(config["jobs"] for config in bench.configs()),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "supercong" / "harness.py").is_file():
        print(f"error: no supercong source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))

    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, golden, work)
        record = run_record(bench, args.workload, args.seed, args.trace)
        bench.prepare()
        if args.trace:
            metrics, samples, raw = measure_traced(bench)
            units = metric_units("per_layer")
        else:
            metrics, samples, raw = measure(bench, args.seconds)
            units = metric_units("end_to_end")
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["loadavg_1m_end"] = os.getloadavg()[0]

    print("record " + json.dumps(record, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:<28} {metrics[name]:>16.6g} {unit:<6} (samples: {samples[name]})")
    for name, value in raw.items():
        print(f"  {name + ' unscaled':<28} {value:>16.6g} s      (raw median, not a metric)")
    error_rate = bench.failed / bench.attempted
    print(f"  {'error_rate':<28} {error_rate:>16.6g} ratio  "
          f"({bench.failed} failed of {bench.attempted} attempted)")
    print(f"  {'harness.report_diff':<28} {bench.differing:>16d} count  (diagnostic, not a failure)")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

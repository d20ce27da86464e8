"""One benchmark iteration, run in a fresh interpreter by ``run.py``.

Reads a JSON spec on stdin::

    {"mode": "setup" | "run", "trace": bool, "configs": [RunConfig kwargs, ...]}

and prints one JSON line: the ``time.monotonic()`` reading once the job
lists are planned (the parent subtracts its spawn time to get set-up time)
with the host-speed readings for it, and in "run" mode the wall and CPU
time of the ``harness.run`` calls, raw and rescaled to the
reference host speed (``hostspeed.py``), the peak RSS, the timing-stripped
results of each call (or the exception it raised) and, when traced, the
per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from hostspeed import Sampler, pin, rescale, usable_cpus


def _cpu_now() -> float:
    """User+system CPU seconds of this process and its reaped children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (resource.getrusage(resource.RUSAGE_SELF),
                      resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def run_items(run, registry, configs, sampler) -> tuple[list, dict]:
    """Call ``run`` once per config; a call that raises is recorded, not
    propagated, so one broken run does not stop the benchmark.

    Every call's wall and CPU time is rescaled to the reference host speed
    by the ``sampler``'s readings during the call, whose own time is taken
    out.  Returns the outcomes and the summed times, raw and rescaled.
    """
    outcomes = []
    times = dict.fromkeys(("wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s"), 0.0)
    for config in configs:
        cpu = _cpu_now()
        start = time.perf_counter()
        try:
            report = run(config, registry=registry)
        except Exception as exc:  # scored as every instance failed
            outcome = {"raised": f"{type(exc).__name__}: {exc}"}
        else:
            outcome = {"results": [dict(r, elapsed=0.0) for r in report.results]}
        end = time.perf_counter()
        cpu = _cpu_now() - cpu
        readings, probing = sampler.window(start, end)
        wall, cpu = end - start - probing, cpu - probing
        times["raw_wall_s"] += wall
        times["raw_cpu_s"] += cpu
        times["wall_s"] += rescale(wall, readings)
        times["cpu_s"] += rescale(cpu, readings)
        outcomes.append(outcome)
    return outcomes, times


def main() -> None:
    spec = json.loads(sys.stdin.read())
    # set-up, and a run with no worker pool, share the first CPU with a
    # sampler; a worker pool may use every CPU, and each gets a sampler
    cpus = usable_cpus()
    pool = any(kwargs.get("jobs", 1) > 1 for kwargs in spec["configs"])
    pin(cpus[:1])
    with Sampler(cpus if pool else cpus[:1]) as sampler:
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
        from supercong import harness, registry

        tracer = None
        if spec["trace"]:
            from tracing import Tracer, install, trace_metrics

            tracer = Tracer()
            install(tracer)
        reg = registry.load_registry()
        configs = [harness.RunConfig(**kwargs) for kwargs in spec["configs"]]
        planned = [len(harness.plan_jobs(reg, config)) for config in configs]
        out = {"planned_at": time.monotonic(), "planned": planned}
        readings, probing = sampler.window(0.0, time.perf_counter(), cpus[:1])
        out.update(setup_readings=readings, setup_probing_s=probing)
        if pool:
            pin(cpus)  # before the pool forks its workers
        if spec["mode"] == "run":
            outcomes, times = run_items(harness.run, reg, configs, sampler)
            peak = max(resource.getrusage(who).ru_maxrss
                       for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
            out.update(times, outcomes=outcomes, peak_rss_mb=peak / 1024)
            if tracer is not None:
                out["trace"] = trace_metrics(tracer.spans, tracer.counts)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()

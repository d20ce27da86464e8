"""Self-tests of the benchmark's own logic; run with
``python3 -m pytest perfbench/tests`` from the root of a checkout."""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import child  # noqa: E402
import hostspeed  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

GOLDEN = json.loads(bench.GOLDEN.read_text(encoding="utf-8"))


def _span(name, start, end, parent):
    return [name, float(start), float(end), parent]


NESTED = [
    _span("harness.run", 0, 10, -1),
    _span("harness.execute", 1, 9, 0),
    _span("engine.congruence", 2, 8, 1),
    _span("engine.oracle", 3, 5, 2),
    _span("engine.oracle", 6, 7, 2),
    _span("harness.execute", 9, 9.5, 0),
    _span("engine.congruence", 9.1, 9.4, 5),
]


def test_self_time_subtracts_child_spans():
    times = tracing.layer_times(NESTED)
    assert times["harness.run"] == {"calls": 1, "total_s": 10.0, "self_s": pytest.approx(1.5)}
    assert times["harness.execute"]["self_s"] == pytest.approx(2.0 + 0.2)
    assert times["engine.congruence"]["self_s"] == pytest.approx(3.0 + 0.3)
    assert times["engine.oracle"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}


def test_lane_coverage_and_fast_pass_ratio():
    assert tracing.lane_coverage(NESTED) == pytest.approx(6.3 / 10)
    assert tracing.fast_pass_ratio(NESTED) == pytest.approx(0.5)
    assert tracing.fast_pass_ratio(NESTED[:2]) == 1.0


def test_tracer_records_parents_from_the_call_stack():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("engine.oracle", lambda: None)
    outer = tracer.wrap("engine.congruence", lambda: (inner(), inner()))
    outer()
    assert tracer.spans == [
        ["engine.congruence", 0, 5, -1],
        ["engine.oracle", 1, 2, 0],
        ["engine.oracle", 3, 4, 0],
    ]
    assert tracing.layer_times(tracer.spans)["engine.congruence"]["self_s"] == 3


def test_golden_statuses_score_clean():
    records = GOLDEN["catalog"]
    assert bench.score(records, {"results": records}) == (187, 0, 0)


def test_doctored_golden_raises_error_rate():
    records = GOLDEN["catalog"]
    doctored = [dict(r) for r in records]
    doctored[0]["status"] = "fail" if doctored[0]["status"] == "pass" else "pass"
    doctored[1]["detail"] += " (changed)"
    attempted, failed, differing = bench.score(doctored, {"results": records})
    assert (attempted, failed, differing) == (187, 1, 2)


def test_missing_and_unexpected_records_fail():
    records = GOLDEN["catalog"]
    attempted, failed, _ = bench.score(records[1:], {"results": records[:-1]})
    assert (attempted, failed) == (187, 2)


def test_raising_run_counts_every_instance_failed():
    calls = []

    def stub_run(config, registry):
        calls.append(config)
        if len(calls) == 1:
            raise RuntimeError("one job aborted the sweep")
        return type("Report", (), {"results": GOLDEN["thm1_2 n=35"]})()

    with hostspeed.Sampler([None]) as sampler:
        outcomes, times = child.run_items(stub_run, None, ["first", "second"], sampler)
    assert calls == ["first", "second"] and times["raw_wall_s"] >= 0
    assert outcomes[0] == {"raised": "RuntimeError: one job aborted the sweep"}
    records = GOLDEN["catalog"]
    assert bench.score(records, outcomes[0]) == (187, 187, 187)
    assert bench.score(records, None) == (187, 187, 187)
    assert bench.score(GOLDEN["thm1_2 n=35"], outcomes[1]) == (1, 0, 0)


def _labels(draw):
    return [label for label, _ in draw]


@pytest.mark.parametrize("name", ["fast_scale", "parametric_scale"])
def test_generators_are_deterministic_and_seed_dependent(name):
    generate = workloads.WORKLOADS[name]
    assert generate(7) == generate(7)
    assert len({tuple(_labels(generate(seed))) for seed in range(10)}) > 1
    for seed in range(20):
        assert all(label in GOLDEN for label in _labels(generate(seed)))


def _is_prime(n):
    return n > 1 and all(n % p for p in range(2, int(n ** 0.5) + 1))


def test_fast_scale_mix_on_every_seed():
    for seed in range(50):
        ns = [config["n_values"][0] for _, config in workloads.fast_scale(seed)]
        assert any(_is_prime(n) for n in ns) and any(not _is_prime(n) for n in ns)
        assert {label.split()[0] for label in _labels(workloads.fast_scale(seed))} == {"thm1_1", "thm1_2"}


def test_parametric_scale_mix_on_every_seed():
    for seed in range(50):
        cases = [config["case_ids"][0] for _, config in workloads.parametric_scale(seed)]
        assert "lemma1" in cases  # the Q(a) leg alone
        assert {"thm2", "thm4", "thm7_par"} & set(cases)  # the specialized legs
        assert not {"thm1_1", "thm1_2"} & set(cases)  # never the integer ring


def test_catalog_workloads_ignore_the_seed():
    for name in ("catalog", "warm_rerun"):
        generate = workloads.WORKLOADS[name]
        assert generate(1) == generate(2)


def test_golden_covers_exactly_the_pool():
    assert sorted(GOLDEN) == sorted({label for label, _ in workloads.pool()})


def test_traced_run_yields_every_per_layer_metric():
    traced = tracing.trace_metrics([], dict.fromkeys(tracing.COUNTS, 0))
    added = {"harness.pool_busy", "harness.report_diff", "trace.wall_s", "trace_overhead"}
    assert set(traced) | added == set(bench.metric_units("per_layer"))
    assert set(bench.metric_units("end_to_end")) == {"wall_s", "cpu_s", "setup_s", "peak_rss_mb"}
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_rescale_divides_by_the_median_reading():
    reference = hostspeed.REFERENCE_S
    assert hostspeed.rescale(2.0, [reference, reference]) == pytest.approx(2.0)
    assert hostspeed.rescale(2.0, [2 * reference] * 3) == pytest.approx(1.0)
    assert hostspeed.rescale(3.0, [reference, 3 * reference, 9 * reference]) == pytest.approx(1.0)


def test_sampler_windows_take_the_samples_inside_or_a_fresh_probe():
    sampler = hostspeed.Sampler([None])
    sampler.samples = [(1.0, 0.002, 0), (2.0, 0.003, 0), (3.0, 0.004, 1)]
    assert sampler.window(1.5, 3.5) == ([0.003, 0.004], pytest.approx(0.007))
    assert sampler.window(0.5, 3.5, cpus=[0]) == ([0.002, 0.003], pytest.approx(0.005))
    readings, probing = sampler.window(2.2, 2.4)
    assert len(readings) == 1 and readings[0] > 0 and probing == 0.0
    with hostspeed.Sampler([None], interval=0.001) as live:
        time.sleep(0.05)
    assert live.samples and all(seconds > 0 for _, seconds, _ in live.samples)


def test_sampled_items_leave_out_the_samples_own_time():
    def stub_run(config, registry):
        time.sleep(0.1)
        return type("Report", (), {"results": []})()

    with hostspeed.Sampler([None], interval=0.01) as sampler:
        _, times = child.run_items(stub_run, None, ["only"], sampler)
    assert sampler.samples
    assert 0.05 < times["raw_wall_s"] < 0.1

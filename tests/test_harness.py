"""Harness behavior: planning, caching, reports, CLI surface."""

import json
import logging
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from supercong import harness
from supercong.cli import main
from supercong.harness import (
    CacheMismatch,
    ConfigError,
    RunConfig,
    emit_report,
    list_cases,
    plan_jobs,
    run,
)
from supercong.registry import default_registry_path, load_registry


SRC = Path(__file__).resolve().parents[1] / "src"


def config(**kwargs):
    defaults = dict(use_cache=False, include_timing=False)
    defaults.update(kwargs)
    return RunConfig(**defaults)


class TestListCases:
    def test_one_line_per_case(self, registry):
        lines = list_cases(registry).strip().splitlines()
        assert len(lines) == len(registry)
        assert any(line.startswith("thm1_1") for line in lines)

    def test_shows_kind_and_modulus(self, registry):
        text = list_cases(registry)
        assert "conjecture(observe)" in text
        assert "[n]*Phi_n^2" in text


class TestPlanning:
    def test_single_case_single_n(self, registry):
        jobs = plan_jobs(registry, config(case_ids=["thm1_1"], n_values=[5]))
        assert jobs == [("thm1_1", {"n": 5})]

    def test_condition_failures_become_skips(self, registry):
        report = run(config(case_ids=["thm1_1"], n_values=[4]))
        assert report.summary["skipped"] == 1
        assert report.summary["total"] == 1

    def test_skipped_record_carries_its_lane_strategy(self, registry):
        # the lane makes the skip decision, so the record names the lane
        [q_skip] = run(config(case_ids=["thm1_1"], n_values=[4])).results
        [padic_skip] = run(config(case_ids=["vanhamme_g2"], primes=[9])).results
        assert (q_skip["status"], q_skip["strategy"]) == ("skipped", "fast")
        assert q_skip["detail"] == "condition not satisfied"
        assert (padic_skip["status"], padic_skip["strategy"]) == ("skipped", "padic")
        assert padic_skip["detail"] == "p is not an odd prime"

    def test_raising_condition_is_an_error_result(self, tmp_path):
        doc = json.loads(default_registry_path().read_text())
        [entry] = [case for case in doc["cases"] if case["id"] == "thm1_1"]
        entry["condition"] = "n % (n - 5) == 1"
        path = tmp_path / "cases.json"
        path.write_text(json.dumps(doc))
        report = run(config(case_ids=["thm1_1"], n_values=[5, 7]), load_registry(path))
        assert [r["status"] for r in report.results] == ["error", "pass"]
        assert report.results[0]["strategy"] == "none"
        assert report.exit_code == 2

    def test_multi_bound_cases_fan_out(self, registry):
        jobs = plan_jobs(registry, config(case_ids=["qG2"], n_values=[5]))
        assert len(jobs) == 2
        assert {job[1]["bound"] for job in jobs} == {"(n-1)/4", "n-1"}

    def test_registry_defaults_when_no_ranges(self, registry):
        jobs = plan_jobs(registry, config(case_ids=["corollary1"]))
        assert [job[1]["p"] for job in jobs] == [5, 13, 29, 37]

    def test_d_override_intersects_registry(self, registry):
        jobs = plan_jobs(registry, config(case_ids=["thm3_1"], n_values=[7], d_values=[3, 9]))
        assert jobs == [("thm3_1", {"d": 3, "n": 7})]

    @pytest.mark.parametrize("argv", [
        ["--case", "thm1_1,thm1_1", "--n", "5"],
        ["--case", "vanhamme_g2", "--primes", "5,5"],
        ["--case", "thm4", "--d", "3", "--d", "3", "--n", "7"],
    ])
    def test_repeated_selection_plans_once(self, argv, tmp_path, capsys):
        report = tmp_path / "r.json"
        assert main(["verify", *argv, "--no-cache", "--report", str(report)]) == 0
        assert json.loads(report.read_text())["summary"]["total"] == 1
        assert "total: 1 " in capsys.readouterr().out


class TestRun:
    def test_single_pass(self, registry):
        report = run(config(case_ids=["thm1_1"], n_values=[5]))
        assert report.summary["pass"] == 1
        assert report.exit_code == 0

    def test_observe_failures_do_not_flip_exit(self, registry):
        report = run(config(case_ids=["thm7_1"]))
        assert report.summary["fail"] == 2  # the Gamma-branch desk finding
        assert report.summary["observe_failures"]
        assert report.exit_code == 0

    def test_theorem_failures_flip_exit(self, registry):
        report = run(config(case_ids=["thm7"], n_values=[4], d_values=[3]))
        assert report.summary["fail"] == 1
        assert report.exit_code == 1

    def test_every_scheduled_pair_appears_once(self, registry):
        cfg = config(case_ids=["thm1_1", "qG2", "corollary1"])
        report = run(cfg)
        keys = [(r["id"], json.dumps(r["params"], sort_keys=True)) for r in report.results]
        assert len(keys) == len(set(keys))
        assert report.summary["total"] == len(plan_jobs(load_registry(), cfg))

    def test_pool_has_no_more_workers_than_jobs(self, monkeypatch):
        sizes = []

        class SerialPool:
            """Records the pool size asked for and maps in this process,
            so no worker process is started."""

            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        report = run(config(case_ids=["thm1_1"], n_values=[3, 5], jobs=1000))
        assert sizes == [2]
        assert report.summary["pass"] == 2

    def test_summary_counts_match_results(self, registry):
        report = run(config(case_ids=["lemma2"]))
        tallies = {"pass": 0, "fail": 0, "skipped": 0, "obstruction": 0}
        for r in report.results:
            tallies[r["status"]] += 1
        for key, value in tallies.items():
            assert report.summary[key] == value


class TestReports:
    def test_json_round_trip(self, registry, tmp_path):
        report = run(config(case_ids=["thm1_1"], n_values=[5, 7]))
        path = tmp_path / "report.json"
        emit_report(report, str(path))
        doc = json.loads(path.read_text())
        assert doc["summary"]["pass"] == 2
        assert doc["registry_sha256"] == registry.digest

    def test_reemission_is_byte_identical(self, registry, tmp_path):
        report = run(config(case_ids=["thm1_1"], n_values=[5]))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(report, str(a))
        emit_report(report, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_two_runs_identical_without_timing(self, registry, tmp_path):
        cfg = config(case_ids=["thm1_1", "chu1", "corollary1"])
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(run(cfg), str(a))
        emit_report(run(cfg), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_parallel_equivalence(self, registry, tmp_path):
        ids = ["thm1_1", "guo1_d4", "corollary1", "chu1"]
        serial = run(config(case_ids=ids, jobs=1))
        parallel = run(config(case_ids=ids, jobs=8))
        assert serial.to_json() == parallel.to_json()

    def test_empty_selection_is_valid(self, registry):
        report = run(config(case_ids=[]))
        assert report.summary["total"] == 0
        assert report.exit_code == 0

    def test_text_summary_mentions_failures(self, registry):
        report = run(config(case_ids=["thm7"], d_values=[3], n_values=[4]))
        text = report.to_text()
        assert "FAILED statements" in text


class TestCache:
    def test_results_are_cached_and_reused(self, registry, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cfg = config(case_ids=["thm1_1"], n_values=[5, 7], use_cache=True,
                     cache_path=str(cache))
        first = run(cfg)
        assert cache.exists() and len(cache.read_text().splitlines()) == 2
        second = run(cfg)
        assert first.to_json() == second.to_json()
        # no new entries appended on a pure cache hit
        assert len(cache.read_text().splitlines()) == 2

    def test_registry_hash_partitions_cache(self, registry, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_text(
            json.dumps({"key": "thm1_1|deadbeef|{\"n\": 5}", "result": {"status": "fail"}})
            + "\n"
        )
        cfg = config(case_ids=["thm1_1"], n_values=[5], use_cache=True, cache_path=str(cache))
        report = run(cfg)
        assert report.summary["pass"] == 1  # foreign-hash entry ignored

    def test_audit_detects_corruption(self, registry, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cfg = config(case_ids=["thm1_1"], n_values=[5], use_cache=True, cache_path=str(cache))
        run(cfg)
        entry = json.loads(cache.read_text().splitlines()[0])
        entry["result"]["status"] = "fail"
        cache.write_text(json.dumps(entry) + "\n")
        with pytest.raises(CacheMismatch):
            run(cfg)

    def test_interrupted_run_keeps_finished_results(self, registry, tmp_path, monkeypatch):
        cache = tmp_path / "cache.jsonl"
        cfg = config(case_ids=["thm1_1"], n_values=[5, 7, 9, 11], use_cache=True,
                     cache_path=str(cache))
        execute, calls = harness.execute_job, []

        def interrupted(*args):
            calls.append(args)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return execute(*args)

        monkeypatch.setattr(harness, "execute_job", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run(cfg)
        assert len(cache.read_text().splitlines()) == 2
        monkeypatch.setattr(harness, "execute_job", execute)
        rerun = run(cfg)
        assert rerun.to_json() == run(config(case_ids=["thm1_1"], n_values=[5, 7, 9, 11])).to_json()
        assert len(cache.read_text().splitlines()) == 4

    def test_torn_cache_lines_tolerated(self, registry, tmp_path):
        cache = tmp_path / "cache.jsonl"
        cache.write_text("{torn line\n")
        cfg = config(case_ids=["thm1_1"], n_values=[5], use_cache=True, cache_path=str(cache))
        assert run(cfg).summary["pass"] == 1

    def test_lines_that_are_not_entries_are_counted(self, registry, tmp_path, caplog):
        cache = tmp_path / "cache.jsonl"
        key = f'thm1_1|{registry.digest}|{{"n": 5}}'
        cache.write_text("[1]\n\"x\"\n" + json.dumps({"key": key}) + "\n")
        cfg = config(case_ids=["thm1_1"], n_values=[5], use_cache=True, cache_path=str(cache))
        with caplog.at_level(logging.WARNING, logger="supercong.harness"):
            assert run(cfg).summary["pass"] == 1
        assert caplog.messages == [f"skipped 3 unreadable line(s) in the result cache {cache}"]

    def test_torn_last_line_is_ended_and_counted(self, registry, tmp_path, caplog):
        cache = tmp_path / "cache.jsonl"
        cfg = config(case_ids=["thm1_1"], n_values=[5, 7, 9], use_cache=True,
                     cache_path=str(cache))
        uncached = run(config(case_ids=["thm1_1"], n_values=[5, 7, 9])).to_json()
        run(cfg)
        lines = cache.read_text().splitlines()
        assert len(lines) == 3
        torn = lines[1][: len(lines[1]) // 2]
        cache.write_text(lines[0] + "\n" + torn)  # killed while writing its second entry
        for _ in range(2):
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="supercong.harness"):
                assert run(cfg).to_json() == uncached
            assert caplog.messages == [f"skipped 1 unreadable line(s) in the result cache {cache}"]
        final = cache.read_text().splitlines()
        assert final[:2] == [lines[0], torn]
        assert sorted(final[2:]) == sorted(lines[1:])


class TestKilledSweep:
    """A sweep killed by SIGKILL keeps what it computed, and a rerun adds
    only the rest."""

    ARGS = ["verify", "--case", "thm1_2", "--n-range", "61..99", "--no-timing"]

    @pytest.fixture(scope="class")
    def uncached(self):
        return run(config(case_ids=["thm1_2"], n_values=list(range(61, 100)))).to_json()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rerun_adds_only_the_rest(self, jobs, tmp_path, uncached):
        cache = tmp_path / "cache.jsonl"
        argv = [*self.ARGS, "--jobs", str(jobs), "--cache", str(cache)]
        # a session of its own, so that killing its group takes the pool workers too
        proc = subprocess.Popen(
            [sys.executable, "-m", "supercong.cli", *argv], cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(SRC)}, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while not (cache.exists() and cache.read_text().count("\n") >= 2):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=60)
        assert proc.returncode == -signal.SIGKILL
        killed = [line for line in cache.read_text().splitlines(keepends=True)
                  if line.endswith("\n")]
        assert 2 <= len(killed) < 39

        report = tmp_path / "r.json"
        assert main([*argv, "--report", str(report)]) == 0
        assert report.read_text() == uncached
        final = cache.read_text().splitlines(keepends=True)
        assert final[:len(killed)] == killed
        keys = []
        for line in final:
            try:
                keys.append(json.loads(line)["key"])
            except json.JSONDecodeError:
                pass  # a line torn by the kill, counted and skipped
        assert len(keys) == len(set(keys)) == 39


def crashing_registry(tmp_path):
    """The shipped catalog with thm1_1's condition dividing by zero at n = 7,
    which raises inside the lane instead of yielding a verdict."""
    doc = json.loads(Path(load_registry().path).read_text())
    [entry] = [case for case in doc["cases"] if case["id"] == "thm1_1"]
    entry["condition"] += " and 0 // (n - 7) == 0"
    path = tmp_path / "crashing.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestCrashingJob:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_error_result_keeps_the_sweep(self, tmp_path, jobs):
        # pool workers use the registry handed to run, not the shipped one
        cache = tmp_path / "cache.jsonl"
        cfg = config(case_ids=["thm1_1"], n_values=[5, 7, 9], jobs=jobs, use_cache=True,
                     cache_path=str(cache))
        crashing = load_registry(crashing_registry(tmp_path))
        report = run(cfg, crashing)
        assert [r["status"] for r in report.results] == ["pass", "error", "pass"]
        error = report.results[1]
        assert error["detail"] == "ExpressionError: division by zero in registry expression"
        assert error["strategy"] == "none"
        assert report.summary["pass"] == 2 and report.summary["total"] == 3
        assert report.summary["errors"] == [
            'thm1_1 {"n": 7} -> error: ExpressionError: division by zero in registry expression'
        ]
        assert report.exit_code == 2
        assert "error=1" in report.to_text() and "ERRORS" in report.to_text()
        # the two verdicts are cached, the error is not
        keys = [json.loads(line)["key"] for line in cache.read_text().splitlines()]
        assert sorted(key.split("|")[2] for key in keys) == ['{"n": 5}', '{"n": 9}']
        # a rerun hits the cache for both and retries the error
        assert run(cfg, crashing).results == report.results
        assert len(cache.read_text().splitlines()) == 2

    def test_cli_exits_2_and_still_reports(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        code = main(["verify", "--case", "thm1_1", "--n", "5", "--n", "7", "--no-cache",
                     "--no-timing", "--registry", crashing_registry(tmp_path),
                     "--report", str(report)])
        assert code == 2
        assert "ExpressionError" in capsys.readouterr().out
        statuses = [r["status"] for r in json.loads(report.read_text())["results"]]
        assert statuses == ["pass", "error"]

    def test_reports_without_errors_carry_no_error_fields(self):
        report = run(config(case_ids=["thm1_1"], n_values=[5, 7]))
        assert "errors" not in report.summary
        assert "error" not in report.to_text().lower()


class TestConfigValidation:
    def test_worker_count_positive(self):
        with pytest.raises(ConfigError):
            RunConfig(jobs=0)

    def test_unknown_format(self, capsys):
        # the report format is the CLI's own argument, checked by argparse
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--case", "thm1_1", "--n", "5", "--no-cache", "--format", "xml"])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err


def _edited(doc, case_id, edit):
    edit(next(obj for obj in doc["cases"] if obj["id"] == case_id))
    return doc


# each edit of the shipped catalog once ended in a traceback and exit 1
MALFORMED_RECORDS = {
    "q_without_bounds": lambda doc: _edited(doc, "thm1_1", lambda obj: obj.pop("bounds")),
    "modulus_power_x": lambda doc: _edited(
        doc, "thm1_1", lambda obj: obj["modulus"]["factors"][0].update(power="x")),
    "d_values_not_a_list": lambda doc: _edited(doc, "thm3_1", lambda obj: obj.update(d_values=5)),
    "padic_without_threshold": lambda doc: _edited(
        doc, "vanhamme_g2", lambda obj: obj.pop("threshold")),
    "cases_not_a_list": lambda doc: {"cases": "oops"},
    "sweep_a_list": lambda doc: _edited(doc, "thm1_1", lambda obj: obj.update(sweep=[1, 2])),
    "sweep_n_not_integers": lambda doc: _edited(
        doc, "thm1_1", lambda obj: obj.update(sweep={"n": "abc"})),
    "sweep_grid_not_pairs": lambda doc: _edited(
        doc, "thm1_1", lambda obj: obj.update(sweep={"grid": [[3]]})),
    "sweep_key_of_another_family": lambda doc: _edited(
        doc, "thm1_1", lambda obj: obj.update(sweep={"p": ["x"]})),
}


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "thm1_1" in out and "gamma_limit" in out

    def test_verify_pass(self, capsys, tmp_path):
        code = main([
            "verify", "--case", "thm1_1", "--n-range", "5..5", "--no-cache",
            "--no-timing", "--report", str(tmp_path / "r.json"),
        ])
        assert code == 0
        assert (tmp_path / "r.json").exists()

    def test_verify_skip_even_n(self, capsys):
        assert main(["verify", "--case", "thm1_1", "--n-range", "4..4", "--no-cache"]) == 0
        assert "skipped=1" in capsys.readouterr().out

    def test_unknown_case_is_config_error(self, capsys):
        assert main(["verify", "--case", "no_such_case", "--no-cache"]) == 2

    def test_bad_range_is_config_error(self, capsys):
        assert main(["verify", "--case", "thm1_1", "--n-range", "7..3", "--no-cache"]) == 2

    def test_theorem_failure_exit_code(self, capsys):
        code = main(["verify", "--case", "thm7", "--d", "3", "--n", "4", "--no-cache"])
        assert code == 1

    def test_analytic_verb(self, capsys):
        assert main(["analytic", "--case", "chu1", "--no-cache"]) == 0

    def test_prime_list_flag(self, capsys):
        assert main(["verify", "--case", "vanhamme_g2", "--primes", "5,13", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "pass=2" in out

    def test_non_prime_in_list_is_skipped(self, capsys):
        assert main(["verify", "--case", "vanhamme_g2", "--primes", "9", "--no-cache"]) == 0
        assert "skipped=1" in capsys.readouterr().out

    def test_run_with_no_jobs_is_config_error(self, capsys):
        # thm4 is registered for d in 2..5 only, so d=0 plans nothing
        assert main(["verify", "--case", "thm4", "--d", "0", "--no-cache"]) == 2
        assert "no jobs" in capsys.readouterr().err

    def test_negative_tolerance_is_config_error(self, capsys):
        # an infinite tolerance would pass every numeric check
        for tol in ("-1", "inf"):
            assert main(["analytic", "--case", "chu1", "--tol", tol, "--no-cache"]) == 2
            assert "tolerance" in capsys.readouterr().err

    def test_verdicts_survive_optimized_interpreter(self, tmp_path):
        # invariants raise exceptions rather than asserting, so -O decides alike
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "supercong.cli", "verify", "--case", "thm2,thm7",
             "--n", "4", "--n", "5", "--d", "3", "--no-cache", "--no-timing"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        lines = proc.stdout.splitlines()
        assert any(line.startswith("thm2") and "pass=1" in line and "skipped=1" in line
                   for line in lines)
        assert any(line.startswith("thm7") and "fail=1" in line and "skipped=1" in line
                   for line in lines)

    def test_show_findings_script(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "scripts" / "show_findings.py"
        proc = subprocess.run(
            [sys.executable, str(script)],
            cwd=tmp_path, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = [line.strip() for line in proc.stdout.splitlines()]
        assert "thm7 d=3 n=4: fail, witness = -1" in lines
        assert "thm7 d=3 n=7: pass (both sides are the constant -1)" in lines
        assert "thm7_1 p=5: fail, achieved valuation 2 (threshold 3)" in lines

    @pytest.mark.parametrize("argv, flag", [
        (["--case", "vanhamme_g2", "--n", "5"], "--n/--n-range"),
        (["--case", "thm1_1", "--primes", "5"], "--primes"),
        (["--case", "thm1_1", "--d", "3", "--n", "5"], "--d"),
    ])
    def test_override_that_fits_no_named_case_exits_2(self, argv, flag, capsys):
        assert main(["verify", *argv, "--no-cache"]) == 2
        case_id = argv[1]
        assert f"error: {flag} does not apply to the named case(s) {case_id}" in capsys.readouterr().err

    def test_override_that_fits_the_named_case_applies(self, capsys):
        assert main(["verify", "--case", "thm4", "--d", "3", "--n", "7", "--no-cache"]) == 0
        assert "total: 1 " in capsys.readouterr().out

    def test_unwritable_report_path(self, capsys):
        code = main([
            "verify", "--case", "thm1_1", "--n", "5", "--no-cache",
            "--report", "/nonexistent-dir/report.json",
        ])
        assert code == 2

    def test_unwritable_cache_path(self, tmp_path, capsys, monkeypatch):
        # a missing directory, and a directory where the cache file should be;
        # either is found before the first job runs
        def no_job(*args):
            pytest.fail("a job ran before the cache was opened")

        monkeypatch.setattr(harness, "execute_job", no_job)
        for cache in (tmp_path / "missing" / "c.jsonl", tmp_path):
            assert main(["verify", "--case", "thm1_1", "--n", "5", "--cache", str(cache)]) == 2
            assert "cannot write the result cache" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", sorted(MALFORMED_RECORDS))
    def test_malformed_registry_exits_2(self, edit, tmp_path, capsys):
        doc = json.loads(default_registry_path().read_text())
        path = tmp_path / "cases.json"
        path.write_text(json.dumps(MALFORMED_RECORDS[edit](doc)))
        assert main(["list", "--registry", str(path)]) == 2
        assert "error:" in capsys.readouterr().err
        if edit.startswith("sweep"):
            assert main(["sweep", "--case", "thm1_1", "--no-cache", "--registry", str(path)]) == 2
            assert "error: thm1_1: sweep" in capsys.readouterr().err

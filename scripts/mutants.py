#!/usr/bin/env python3
"""Mutation checks: each mutant in MUTANTS is a small bug that named tests
must catch.

For each mutant the tree is copied to a temporary directory, the mutant's
old text (which must occur exactly once in its file) is replaced by its new
text, and only the mutant's tests run there, in a session of their own with
a deadline and under the hypothesis profile "mutants" of tests/conftest.py,
which stops at the first failing example instead of shrinking it.  The
whole process group is killed afterwards, so no process outlives its run.
Mutants run one after another, never in parallel.

A mutant is killed when its tests fail, hung when they pass the deadline
(DEADLINE_S, or the mutant's own), and survives when they pass.  Before
the mutants, every named test runs once on an unmutated copy and must
pass; otherwise a kill would prove nothing.

    python3 scripts/mutants.py                 # every mutant
    python3 scripts/mutants.py --list          # names only
    python3 scripts/mutants.py --only NAME ... # a subset

Exit status: 0 when every mutant is killed or hung, 1 when one survives,
when the unmutated tests fail, or when a test run cannot start.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEADLINE_S = 300
COPIED = ("src", "tests", "conftest.py", "pyproject.toml")
ENGINE = "src/supercong/engine.py"
EXPRS = "src/supercong/exprs.py"
PADIC = "src/supercong/padic.py"
POLYS = "src/supercong/polys.py"
BLOCK_SWEEP_TEST = "tests/test_padic.py::TestPadicGamma::test_block_sweep_matches_defining_product"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    deadline: float = DEADLINE_S


MUTANTS = (
    Mutant(
        "param_ring_convolution_drops_sum",
        ENGINE,
        "out[i + j] = self.base.add((out.get(i + j, []), 0), (_imul(c, d), 0))[0]",
        "p, acc = _imul(c, d), out.get(i + j, [])\n"
        "                out[i + j] = p if len(p) > len(acc) else self.base.add((acc, 0), (p, 0))[0]",
        ("tests/test_engine.py::TestParamRing::test_parts_evaluate_to_the_base_ring",),
    ),
    Mutant(
        "avatar_x_y_swapped",
        ENGINE,
        "(x0, y0), (x1, y1) = _avatar(f.param, 0), _avatar(f.param, 1)",
        "(y0, x0), (y1, x1) = _avatar(f.param, 0), _avatar(f.param, 1)",
        ("tests/test_engine.py::TestParamRing::test_avatars_split_into_powers_of_a",),
    ),
    Mutant(
        "param_same_ratio_part_zero_only",
        ENGINE,
        "return not any(_monic_divmod(coeffs, self.base.m)[1] for coeffs in diff.values())",
        "return not _monic_divmod(diff.get(0, []), self.base.m)[1]",
        ("tests/test_engine.py::TestParamRing::test_parts_evaluate_to_the_base_ring",),
    ),
    Mutant(
        "expression_error_not_a_spec_error",
        EXPRS,
        "class ExpressionError(SpecError):",
        "class ExpressionError(ValueError):",
        tuple(f"tests/test_bad_input.py::test_bad_input_exits_with_a_message[{row}]"
              for row in ("bound_not_integral", "specialized_exponent_not_integral",
                          "condition_fails_in_congruence_lane", "condition_fails_in_pair_lane",
                          "condition_fails_in_parametric_lane", "condition_fails_in_padic_lane")),
    ),
    Mutant(
        "classify_valuation_off_by_one",
        ENGINE,
        "elif v < support[m]:",
        "elif v <= support[m]:",
        ("tests/test_differential.py::test_fast_route_oracle_and_sympy_agree",
         "tests/test_engine.py::TestPerFactorRoute::test_fast_path_matches_oracle_when_perturbed"),
    ),
    Mutant(
        "oracle_exactness_on_part_zero_only",
        ENGINE,
        "if any(rem for _, rem in divided.values()):",
        "if divided.get(0, ((), ()))[1]:",
        ("tests/test_engine.py::TestOracleDivision::test_division_pass_matches_division_over_qa",),
    ),
    Mutant(
        "oracle_keeps_quotient_after_v_divisions",
        ENGINE,
        "if keep is None or v <= keep:",
        "if True:",
        ("tests/test_engine.py::TestOracleDivision::test_division_pass_matches_division_over_qa",
         "tests/test_engine.py::TestWitnessRoute::test_perturbed_instances"),
    ),
    Mutant(
        "oracle_witness_always_fraction",
        ENGINE,
        "    if not parametric:\n        if parts.keys() - {0}:",
        "    if True:\n        if parts.keys() - {0}:",
        ("tests/test_engine.py::TestOracleDivision::test_witness_keeps_its_statements_coefficient_type",
         "tests/test_engine.py::TestFailureRoute::test_catalog_failure_records"),
    ),
    Mutant(
        "cyclotomic_leg_phi_n_only",
        ENGINE,
        "_cyclotomic_verdict(summand, bound, right, support, n)",
        "_cyclotomic_verdict(summand, bound, right, {n: support[n]}, n)",
        ("tests/test_engine.py::TestIntegerParametricLegs::"
         "test_leg_checks_every_cyclotomic_of_the_modulus",),
    ),
    Mutant(
        "monic_divmod_drops_constant_term",
        ENGINE,
        "enumerate(m[:dm])",
        "enumerate(m[1:dm], 1)",
        ("tests/test_differential.py::test_fast_route_oracle_and_sympy_agree",
         "tests/test_engine.py::TestWitnessRoute::test_perturbed_instances"),
    ),
    Mutant(
        "pair_right_degenerate_unchecked",
        ENGINE,
        "for s, b in _sums(summand, bound, right) for f in s.den",
        "for s, b in ((summand, bound),) for f in s.den",
        ("tests/test_bad_input.py::test_bad_input_exits_with_a_message[pair_right_den_vanishes]",),
    ),
    Mutant(
        "pair_oracle_right_bound_short",
        ENGINE,
        "_term_parts(*right)",
        "_term_parts(right[0], right[1] - 1)",
        ("tests/test_engine.py::TestPairClassification::test_matches_rational_route_when_perturbed",),
    ),
    Mutant(
        "lift_sign",
        ENGINE,
        "self.lift = [comb(e, j) * (-1) ** (e - j) for j in range(e)]",
        "self.lift = [comb(e, j) * (-1) ** (e - j + 1) for j in range(e)]",
        ("tests/test_engine.py::TestLiftedRing::test_lift_matches_dense_residues",),
    ),
    Mutant(
        "mul_bracket_window",
        ENGINE,
        "zip([0] * (t - 1) + sums, sums[1:])",
        "zip([0] * t + sums, sums[1:])",
        ("tests/test_engine.py::TestLiftedRing::test_lift_matches_dense_residues",),
    ),
    Mutant(
        "same_ratio_no_final_reduction",
        ENGINE,
        "return not (diff if self.m is None else _monic_divmod(diff, self.m)[1])",
        "return not diff",
        ("tests/test_engine.py::TestLiftedRing::test_zero_only_after_the_final_reduction",),
    ),
    Mutant(
        "witness_drops_lead",
        ENGINE,
        "_from_parts(diff, parametric).shift(lead)",
        "_from_parts(diff, parametric)",
        ("tests/test_engine.py::TestFailureRoute::test_witness_keeps_the_q_shift",),
    ),
    Mutant(
        "specialized_offset_swapped",
        ENGINE,
        'offset = {"": 0, "aq": shift, "q_div_a": -shift}',
        'offset = {"": 0, "aq": -shift, "q_div_a": shift}',
        ("tests/test_engine.py::TestIntegerParametricLegs::"
         "test_specialized_leg_on_unpaired_parametric_factors",),
    ),
    Mutant(
        "leg_aggregation_pass_before_fail",
        ENGINE,
        '_WORST_FIRST = ("obstruction", "fail", "pass")',
        '_WORST_FIRST = ("obstruction", "pass", "fail")',
        ("tests/test_engine.py::TestVerifyQ::test_a_failing_specialized_leg_fails_the_instance",),
    ),
    Mutant(
        "pole_order_sign",
        ENGINE,
        "poles.append((m, -v))",
        "poles.append((m, v))",
        ("tests/test_engine.py::TestFailureRoute::test_pair_names_every_pole",),
    ),
    Mutant(
        "block_sweep_horner_order",
        PADIC,
        "block = _block_coefficients(ctx)[::-1]",
        "block = _block_coefficients(ctx)",
        (BLOCK_SWEEP_TEST,),
    ),
    Mutant(
        "block_sweep_index_off_by_one",
        PADIC,
        "value = value * (j // p) + d",
        "value = value * (j // p + 1) + d",
        (BLOCK_SWEEP_TEST,),
    ),
    Mutant(
        "block_sweep_past_representative",
        PADIC,
        "if j % p == 0 and j + p <= r:",
        "if j % p == 0 and j + p <= r + 1:",
        (BLOCK_SWEEP_TEST,),
    ),
    Mutant(
        "block_sweep_step_short",
        PADIC,
        "                j += p\n",
        "                j += p - 1\n",
        (BLOCK_SWEEP_TEST,),
    ),
    # the lift step adds what it should cancel, so its loop never ends: the
    # row ends hung at its own short deadline
    Mutant(
        "residue_lift_step_sign",
        POLYS,
        "r = r - modulus.shift(r.low)",
        "r = r + modulus.shift(r.low)",
        ("tests/test_engine.py::TestFailureRoute::test_witness_keeps_the_q_shift",),
        deadline=30,
    ),
)


def _copy_tree(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        elif source.exists():
            shutil.copy2(source, dest / name)


def _apply(tree: Path, mutant: Mutant) -> None:
    path = tree / mutant.file
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"{mutant.name}: old text occurs {count} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def _run_tests(tree: Path, tests, deadline: float) -> str:
    """'pass', 'fail', 'hung' or 'error' for pytest on ``tests`` in ``tree``."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               "--hypothesis-seed=0", "--hypothesis-profile=mutants", *tests]
    proc = subprocess.Popen(command, cwd=tree, env=env, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=deadline)
    except subprocess.TimeoutExpired:
        return "hung"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return {0: "pass", 1: "fail"}.get(code, "error")


def _in_copy(mutant, tests) -> str:
    with tempfile.TemporaryDirectory(prefix="supercong-mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        if mutant is not None:
            _apply(tree, mutant)
        return _run_tests(tree, tests, mutant.deadline if mutant is not None else DEADLINE_S)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run only these mutants")
    parser.add_argument("--list", action="store_true", help="print the mutant names and exit")
    args = parser.parse_args(argv)
    if args.list:
        print("\n".join(m.name for m in MUTANTS))
        return 0
    known = {m.name: m for m in MUTANTS}
    unknown = set(args.only or ()) - known.keys()
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(sorted(unknown))}")
    chosen = [known[name] for name in args.only] if args.only else list(MUTANTS)

    tests = list(dict.fromkeys(test for m in chosen for test in m.tests))
    baseline = _in_copy(None, tests)
    print(f"unmutated: {baseline}", flush=True)
    if baseline != "pass":
        return 1

    verdicts = {}
    for mutant in chosen:
        start = time.monotonic()
        outcome = _in_copy(mutant, mutant.tests)
        verdicts[mutant.name] = {"fail": "killed", "pass": "survived"}.get(outcome, outcome)
        print(f"{mutant.name}: {verdicts[mutant.name]} ({time.monotonic() - start:.1f} s)",
              flush=True)
    counts = {v: sum(1 for x in verdicts.values() if x == v)
              for v in ("killed", "hung", "survived", "error")}
    print(", ".join(f"{count} {verdict}" for verdict, count in counts.items()))
    return 1 if counts["survived"] or counts["error"] else 0


if __name__ == "__main__":
    sys.exit(main())

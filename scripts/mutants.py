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
ORACLE = "src/supercong/oracle.py"
PADIC = "src/supercong/padic.py"
POLYS = "src/supercong/polys.py"
QOBJECTS = "src/supercong/qobjects.py"
REGISTRY = "src/supercong/registry.py"
RING = "src/supercong/ring.py"
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
    # a second product landing on the same power of a overwrites the first
    # instead of adding to it
    Mutant(
        "param_ring_convolution_drops_sum",
        RING,
        "acc[:len(p)] = [u + v for u, v in zip(acc, p)] + p[len(acc):]",
        "acc[:len(p)] = p",
        ("tests/test_engine.py::TestParamRing::test_parts_evaluate_to_the_base_ring",),
    ),
    # the first row of a product is copied unscaled, as if its coefficient
    # were always 1
    Mutant(
        "imul_first_row_unscaled",
        RING,
        "first = b if x == 1 else [x * v for v in b]",
        "first = b",
        ("tests/test_engine.py::TestLiftedRing::test_products_match_the_schoolbook",),
    ),
    # a monomial factor's copy lands one place too high
    Mutant(
        "imul_monomial_shift_off_by_one",
        RING,
        "return [0] * i + first",
        "return [0] * (i + 1) + first",
        ("tests/test_engine.py::TestLiftedRing::test_products_match_the_schoolbook",),
    ),
    # a shift in the cyclic ring (E = 1) rotates one place too far
    Mutant(
        "cyclic_rotation_off_by_one",
        RING,
        "r, m = k % self.step, self.step",
        "r, m = (k + 1) % self.step, self.step",
        ("tests/test_engine.py::TestLiftedRing::test_lift_matches_dense_residues",
         "tests/test_engine.py::TestLiftedRing::test_cyclic_ring_rotates_and_folds"),
    ),
    # the cyclic bracket drops the floor(t/m) sum(x) term, as if [t] were
    # [t mod m]
    Mutant(
        "cyclic_bracket_drops_whole_turns",
        RING,
        "whole *= sums[m]",
        "whole *= 0",
        ("tests/test_engine.py::TestLiftedRing::test_lift_matches_dense_residues",
         "tests/test_engine.py::TestLiftedRing::test_cyclic_ring_rotates_and_folds"),
    ),
    # each Horner pass stops one term before its last live term
    Mutant(
        "live_cut_one_term_short",
        RING,
        "max((k for k, v in walk if v < e), default=-1)",
        "max((k for k, v in walk if v < e), default=-1) - 1",
        ("tests/test_engine.py::TestPerFactorRoute::test_each_pass_stops_at_its_last_live_term",
         "tests/test_differential.py::test_fast_route_oracle_and_sympy_agree"),
    ),
    # a paired factor 1 - b q^e + q^(2e) enters with its b^0 part as
    # 1 + q^e
    Mutant(
        "paired_factor_low_part_at_e",
        RING,
        "ends = [1] + [0] * (abs(2 * e) - 1) + [1] if e else [2]",
        "ends = [1] + [0] * (abs(e) - 1) + [1] if e else [2]",
        ("tests/test_engine.py::TestParamRing::test_avatars_split_into_powers_of_a",
         "tests/test_engine.py::TestIntegerParametricLegs::"
         "test_paired_and_unpaired_bends_match_evaluation_route"),
    ),
    # for e < 0 the b^1 part -q^e lands at the shared shift 2e itself, as
    # -q^(2e); no catalog factor reaches e < 0
    Mutant(
        "paired_factor_drops_negative_offset",
        RING,
        "1: [0] * (e - low) + [-1]",
        "1: [0] * e + [-1]",
        ("tests/test_engine.py::TestParamRing::test_avatars_split_into_powers_of_a",),
    ),
    # Phi_m is cancelled only where a summand's denominator carries it, so
    # a pole of the closed form alone at Phi_m is cross-multiplied away
    Mutant(
        "cancel_decision_ignores_closed_form",
        RING,
        "closed_den = closed.den if closed is not None else ()",
        "closed_den = ()",
        ("tests/test_differential.py::test_fast_route_oracle_and_sympy_agree",
         "tests/test_engine.py::TestPerFactorRoute::test_fast_path_matches_oracle_when_perturbed"),
    ),
    # the pole order reads the terms alone, not the closed form's content
    Mutant(
        "pole_order_drops_closed_form",
        RING,
        "return max([0, -v_closed]",
        "return max([0]",
        ("tests/test_differential.py::test_fast_route_oracle_and_sympy_agree",),
    ),
    # an atom that enters divided by Phi_m counts no valuation, so its term
    # is scaled by too low a power of Phi_m
    Mutant(
        "cancelled_atom_valuation_zero",
        RING,
        "return self.of(quo, x[1]), 1",
        "return self.of(quo, x[1]), 0",
        ("tests/test_engine.py::TestPerFactorRoute::test_fast_path_matches_oracle_when_perturbed",),
    ),
    # a zero term is scaled like any other, so a closed form made zero by
    # a zero numerator atom raises at the pole order its content lacks
    Mutant(
        "zero_term_scaled",
        RING,
        "if self.powers is None or not x[0]:",
        "if self.powers is None:",
        ("tests/test_engine.py::TestPerFactorRoute::test_fast_path_matches_oracle_when_perturbed",),
    ),
    # the zero test over Z[a] reads the a^0 part alone
    Mutant(
        "param_same_ratio_part_zero_only",
        RING,
        "return not any(_monic_divmod(coeffs, self.m)[1] for coeffs in x[0].values())",
        "return not _monic_divmod(x[0].get(0, []), self.m)[1]",
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
        ORACLE,
        "elif v < support[m]:",
        "elif v <= support[m]:",
        ("tests/test_differential.py::test_fast_route_oracle_and_sympy_agree",
         "tests/test_engine.py::TestPerFactorRoute::test_fast_path_matches_oracle_when_perturbed"),
    ),
    Mutant(
        "oracle_exactness_on_part_zero_only",
        ORACLE,
        "if any(rem for _, rem in divided.values()):",
        "if divided.get(0, ((), ()))[1]:",
        ("tests/test_engine.py::TestOracleDivision::test_division_pass_matches_division_over_qa",),
    ),
    Mutant(
        "oracle_keeps_quotient_after_v_divisions",
        ORACLE,
        "if keep is None or v <= keep:",
        "if True:",
        ("tests/test_engine.py::TestOracleDivision::test_division_pass_matches_division_over_qa",
         "tests/test_engine.py::TestWitnessRoute::test_perturbed_instances"),
    ),
    Mutant(
        "oracle_witness_always_fraction",
        ORACLE,
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
        RING,
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
        ORACLE,
        "_term_parts(*right)",
        "_term_parts(right[0], right[1] - 1)",
        ("tests/test_engine.py::TestPairClassification::test_matches_rational_route_when_perturbed",),
    ),
    Mutant(
        "lift_sign",
        RING,
        "self.lift = [comb(e, j) * (-1) ** (e - j) for j in range(e)]",
        "self.lift = [comb(e, j) * (-1) ** (e - j + 1) for j in range(e)]",
        ("tests/test_engine.py::TestLiftedRing::test_lift_matches_dense_residues",),
    ),
    # the denominator product stays 1, so a pair's right sum is SS alone
    # and a failing a = q^(+-n) leg builds its witness from SS alone; the
    # fused state never reads it
    Mutant(
        "denominator_atom_skips_dacc",
        ENGINE,
        "dacc = ring.mul(dacc, x)",
        "dacc = dacc",
        ("tests/test_engine.py::TestPerFactorRoute::test_pair_lane_matches_oracle_when_perturbed",
         "tests/test_engine.py::TestIntegerParametricLegs::"
         "test_specialized_leg_matches_rational_route"),
    ),
    # the fused state starts at +RN, so it ends as SS RD + RN Dacc
    Mutant(
        "fused_start_plus_rn",
        ENGINE,
        "(right[1], ring.neg(right[0]), None)",
        "(right[1], right[0], None)",
        ("tests/test_engine.py::TestFusedDifference::"
         "test_fused_difference_matches_the_cross_product",
         "tests/test_engine.py::TestPerFactorRoute::test_fast_path_matches_oracle_when_perturbed",
         "tests/test_engine.py::TestIntegerParametricLegs::"
         "test_specialized_leg_matches_rational_route",
         "tests/test_differential.py::test_fast_route_oracle_and_sympy_agree"),
    ),
    # the fused numerator product starts at 1, not at RD, so the sum is
    # compared as SS - RN Dacc
    Mutant(
        "fused_start_pnum_one",
        ENGINE,
        "(right[1], ring.neg(right[0]), None)",
        "(ring.one, ring.neg(right[0]), None)",
        ("tests/test_engine.py::TestFusedDifference::"
         "test_fused_difference_matches_the_cross_product",
         "tests/test_engine.py::TestPerFactorRoute::test_fast_path_matches_oracle_when_perturbed",
         "tests/test_engine.py::TestIntegerParametricLegs::"
         "test_specialized_leg_matches_rational_route"),
    ),
    # an a = q^(+-n) sum is started at the closed form's sides instead of
    # the telescoped product's, so a product that differs from the closed
    # form is blamed on the sum
    Mutant(
        "specialized_fused_start_at_closed_form",
        ENGINE,
        "witness = verify_identity_specialized(plain, bound, sides)",
        "witness = verify_identity_specialized(plain, bound, "
        "_closed_form_sides_int(closed, n, ring))",
        ("tests/test_engine.py::TestIntegerParametricLegs::"
         "test_specialized_leg_matches_rational_route",
         "tests/test_engine.py::TestIntegerParametricLegs::"
         "test_one_horner_pass_per_specialized_leg"),
    ),
    Mutant(
        "mul_bracket_window",
        RING,
        "zip([0] * (t - 1) + sums, sums[1:])",
        "zip([0] * t + sums, sums[1:])",
        ("tests/test_engine.py::TestLiftedRing::test_lift_matches_dense_residues",),
    ),
    Mutant(
        "same_ratio_no_final_reduction",
        RING,
        "return not (x[0] if self.m is None else _monic_divmod(x[0], self.m)[1])",
        "return not x[0]",
        ("tests/test_engine.py::TestLiftedRing::test_zero_only_after_the_final_reduction",),
    ),
    Mutant(
        "witness_drops_lead",
        ORACLE,
        "_from_parts(diff, parametric).shift(lead)",
        "_from_parts(diff, parametric)",
        ("tests/test_engine.py::TestFailureRoute::test_witness_keeps_the_q_shift",),
    ),
    # the oracle's modulus takes each Phi_m once, whatever its power
    Mutant(
        "modulus_powers_dropped_to_one",
        ORACLE,
        "for _ in range(support[m]):",
        "for _ in range(1):",
        ("tests/test_qobjects.py::TestModulus::test_product_matches_the_cyclotomics_by_division",
         "tests/test_qobjects.py::TestModulus::test_cyclotomic_square"),
    ),
    # a parametric witness modulo an M of degree exactly 6 is scaled by a
    # unit instead of being the exact residue
    Mutant(
        "classify_span_test_at_six",
        ORACLE,
        "if parametric and len(modulus) - 1 > 6:",
        "if parametric and len(modulus) - 1 >= 6:",
        ("tests/test_engine.py::TestWitnessRoute::"
         "test_parametric_witness_is_scaled_above_degree_six",),
    ),
    # a paired factor specializes to two factors at the same offset, as if
    # a = q^n and 1/a = q^n too
    Mutant(
        "specialized_pair_one_offset",
        QOBJECTS,
        "for offset in ((shift, -shift) if f.param else (0,))",
        "for offset in ((shift, shift) if f.param else (0,))",
        ("tests/test_engine.py::TestIntegerParametricLegs::"
         "test_specialized_leg_matches_rational_route",),
    ),
    # the product's sides, which every sum is started at, are built from
    # the closed form
    Mutant(
        "specialized_leg_product_closed_swapped",
        ENGINE,
        "sides = _closed_form_sides_int(product, n, ring)",
        "sides = _closed_form_sides_int(closed, n, ring)",
        ("tests/test_engine.py::TestVerifyQ::test_a_failing_specialized_leg_fails_the_instance",),
    ),
    # the registry counts q/a entries per side instead of their powers, so
    # a numerator pair raised to power 2 loads and the oracle's avatars
    # strip a unit from one side only
    Mutant(
        "registry_q_div_a_counted_by_entry",
        REGISTRY,
        "num, den = (sum(f.power for f in spec.factors",
        "num, den = (sum(1 for f in spec.factors",
        ("tests/test_registry.py::TestRegistryValidation::test_parameter_factors_balance_by_power",
         "tests/test_bad_input.py::test_bad_input_exits_with_a_message[q_div_a_powers_unbalanced]"),
    ),
    # the registry compiles each summand but does not pair it, so a broken
    # pair loads and ends as an obstruction (exit 1) instead of a refusal
    Mutant(
        "registry_skips_pairing",
        REGISTRY,
        "                paired(concretize_summand(spec, d))",
        "                concretize_summand(spec, d)",
        ("tests/test_bad_input.py::test_bad_input_exits_with_a_message[parameter_pair_broken]",),
    ),
    # [n] counted as prod_{d | n} Phi_d, Phi_1 included, in a closed form's
    # cyclotomic content
    Mutant(
        "content_bracket_counts_phi_1",
        QOBJECTS,
        "count(n, 1, low=2)",
        "count(n, 1)",
        ("tests/test_engine.py::TestClosedFormContent::test_content_decides_as_the_cross_product",),
    ),
    # the content's sign is flipped for an atom 1 - q^e with e < 0 too,
    # though 1 - q^e = q^e prod_{d | -e} Phi_d there
    Mutant(
        "content_negative_atom_sign_flipped",
        QOBJECTS,
        "(-sign, power) if e > 0 else (sign, power + side * e)",
        "(-sign, power) if e > 0 else (-sign, power + side * e)",
        ("tests/test_engine.py::TestClosedFormContent::test_content_decides_as_the_cross_product",),
    ),
    Mutant(
        "specialized_leg_sign_swapped",
        ENGINE,
        '_SPECIALIZED_LEGS = (("a_minus_qn", 1, "a=q^n"), ("one_minus_a_qn", -1, "a=q^-n"))',
        '_SPECIALIZED_LEGS = (("a_minus_qn", -1, "a=q^n"), ("one_minus_a_qn", 1, "a=q^-n"))',
        ("tests/test_engine.py::TestVerifyQ::test_a_failing_specialized_leg_fails_the_instance",),
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
        ORACLE,
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
    Mutant(
        "select_branch_ignores_when",
        QOBJECTS,
        'if branch.when == "True" or eval_bool(branch.when, **names):',
        "if True:",
        ("tests/test_qobjects.py::TestClosedForm::test_vanishing_branch",
         "tests/test_padic.py::TestCaseDriver::test_zero_branch"),
    ),
    Mutant(
        "product_parser_swaps_num_den",
        REGISTRY,
        '"num": _req(_EXPRS), "den": _req(_EXPRS)',
        '"num": _req(_EXPRS, "den"), "den": _req(_EXPRS, "num")',
        ("tests/test_engine.py::TestTelescopedProduct::"
         "test_finite_form_matches_the_infinite_products",),
    ),
    # the walker reads only the keys it knows and ignores the rest, so a
    # misspelled optional key falls back to its default
    Mutant(
        "walker_ignores_unknown_keys",
        REGISTRY,
        'raise _Refused("unknown key", key, names_key=True)\n            if raw',
        'continue\n            if raw',
        ("tests/test_registry.py::TestKeyTable::test_each_renamed_or_deleted_key_is_named",
         "tests/test_bad_input.py::test_bad_input_exits_with_a_message[modulus_power_misspelled]"),
    ),
    # the evaluator keeps ints until a division: a division that floors
    # them turns a non-integral length into a silently rounded one
    Mutant(
        "expr_division_floors",
        EXPRS,
        "ast.Div: lambda a, b: Fraction(a) / b,",
        "ast.Div: lambda a, b: a // b,",
        ("tests/test_registry.py::TestExpressions::test_arithmetic",
         "tests/test_registry.py::TestExpressions::test_non_integral_rejected"),
    ),
    # the paired view matches (a q^c; q^s) with (q^c / a; q^s) by c and s
    # alone, so partners of different powers merge into one factor
    Mutant(
        "paired_view_ignores_power",
        QOBJECTS,
        "        if aq != q_div_a:",
        "        if Counter(csp[:2] for csp in aq.elements())"
        " != Counter(csp[:2] for csp in q_div_a.elements()):",
        ("tests/test_qobjects.py::TestSummandCompilation::"
         "test_paired_view_matches_pairs_as_multisets",),
    ),
    # the compile checks the q-exponent at k = 0 and 1 only, so an exponent
    # first non-integral at k = 2 loads and is truncated
    Mutant(
        "summand_exponent_checked_at_two_points",
        QOBJECTS,
        "    for k in range(3):\n        if e[k].denominator != 1:",
        "    for k in range(2):\n        if e[k].denominator != 1:",
        ("tests/test_qobjects.py::TestSummandCompilation::test_three_points_decide_integrality",),
    ),
    # the Moebius product skips its last factor, always a division by some
    # q^d - 1 when n > 1
    Mutant(
        "moebius_skips_a_division",
        QOBJECTS,
        "for d, mu in sorted(signed, key=lambda dm: -dm[1]):",
        "for d, mu in sorted(signed, key=lambda dm: -dm[1])[:-1]:",
        ("tests/test_qobjects.py::TestCyclotomic::test_moebius_product_matches_division_up_to_200",),
    ),
    # the reader of a constant (an x value, a geometric base, an analytic
    # identity's product entry or base) accepts every expression
    Mutant(
        "constant_reader_accepts_every_value",
        REGISTRY,
        "return _checked(lambda raw: accepts(value_of(raw)), what, _expr)",
        "return _checked(lambda raw: True, what, _expr)",
        tuple(f"tests/test_bad_input.py::test_bad_input_exits_with_a_message[{row}]"
              for row in ("geometric_base_zero", "gamma_limit_x_not_positive",
                          "rhs_product_entry_not_integral"))
        + ("tests/test_registry.py::TestExpressionFields::test_rhs_product_base_must_be_positive",),
    ),
    Mutant(
        "expr_integer_off_by_one",
        REGISTRY,
        "return str(value)",
        "return str(value + 1)",
        ("tests/test_registry.py::TestExpressionFields::test_integers_load_like_their_text",),
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

"""Acceptance suite: one test per criterion, one printed line per criterion.

Symbolic checks are exact (no tolerance anywhere on that path).  A criterion
that a statement genuinely cannot meet is asserted as stated and allowed to
fail loudly: the engine's findings for those points are pinned separately in
test_engine.py (TestDeskFindings) and documented in the README.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import dataclasses
import time
from fractions import Fraction

from reference import build_closed_form, build_concrete_summand, rahman_grid, specialized_leg
from supercong.analytic import (
    check_gamma_limit,
    check_identity_numeric,
    check_pi_formula,
)
from supercong.engine import (
    verify_congruence,
    verify_parametric,
)
from supercong.harness import RunConfig, run
from supercong.padic import real_partial_sums, verify_padic_case
from supercong.qobjects import concretize_summand
from supercong.registry import iter_sweep_params


def _line(number, violations, extra=""):
    status = "PASS" if not violations else f"FAIL ({len(violations)} violation(s))"
    print(f"\nACCEPTANCE {number:>2}: {status}{' - ' + extra if extra else ''}")
    for v in violations:
        print(f"    {v}")


ODD_N_TO_29 = list(range(3, 30, 2))


def test_criterion_01_first_family_both_bounds(registry):
    """Exact pass mod [n]Phi_n^2 for odd n in 3..29, both truncations."""
    start = time.perf_counter()
    violations = []
    for cid in ("thm1_1", "thm1_2"):
        case = registry.get(cid)
        for n in ODD_N_TO_29:
            result = verify_congruence(case, n)
            if result.status != "pass":
                violations.append(f"{cid} n={n}: {result.status}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60:
        violations.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _line(1, violations, f"{elapsed:.1f}s")
    assert not violations


def test_criterion_02_parametric_three_legs(registry):
    """All three CRT legs pass for odd n in 3..15."""
    start = time.perf_counter()
    violations = []
    case = registry.get("thm2")
    for n in range(3, 16, 2):
        result = verify_parametric(case, n)
        if result.status != "pass":
            violations.append(f"thm2 n={n}: {result.status} ({result.detail})")
    elapsed = time.perf_counter() - start
    if elapsed >= 300:
        violations.append(f"runtime {elapsed:.1f}s exceeds 300s")
    _line(2, violations, f"{elapsed:.1f}s")
    assert not violations


def test_criterion_03_lemma_vanishing_both_readings(registry):
    """Fraction-field leg vanishes mod Phi_n on the lemma grids; the second
    lemma is checked under both base readings with separate result lines."""
    violations = []
    for cid in ("lemma1", "lemma2", "lemma2_qd"):
        case = registry.get(cid)
        for params in iter_sweep_params(case):
            result = verify_parametric(case, params["n"], params["d"])
            line = f"{cid} d={params['d']} n={params['n']}: {result.status}"
            print("   ", line)
            if result.status != "pass":
                violations.append(line + f" ({result.detail})")
    _line(3, violations)
    assert not violations


def test_criterion_04_general_family_mod_phi_cubed(registry):
    """thm3 truncations and the thm4 parametric form across d in 2..5; the
    d = 2 instance must coincide with the first family's 1-mod-4 branch."""
    violations = []
    for cid in ("thm3_1", "thm3_2"):
        case = registry.get(cid)
        for params in iter_sweep_params(case):
            result = verify_congruence(case, params["n"], params["d"])
            if result.status != "pass":
                violations.append(f"{cid} {params}: {result.status}")
    case = registry.get("thm4")
    for params in iter_sweep_params(case):
        result = verify_parametric(case, params["n"], params["d"])
        if result.status != "pass":
            violations.append(f"thm4 {params}: {result.status}")
    # d = 2 coincidence: identical terms and identical verdicts
    thm1 = registry.get("thm1_1")
    thm3 = registry.get("thm3_1")
    s1 = concretize_summand(thm1.summand, None)
    s3 = concretize_summand(thm3.summand, 2)
    for k in range(5):
        if build_concrete_summand(s1, k, 5) != build_concrete_summand(s3, k, 5):
            violations.append(f"thm3 term k={k} at d=2 differs from the first family")
    if build_closed_form(thm1.closed_form, 5, None) != build_closed_form(thm3.closed_form, 5, 2):
        violations.append("thm3 closed form at d=2 differs from the first family")
    for n in (5, 9):
        a = verify_congruence(thm3, n, 2).status
        b = verify_congruence(thm1, n).status
        if a != b:
            violations.append(f"d=2 verdicts diverge at n={n}: {a} vs {b}")
    _line(4, violations)
    assert not violations


def test_criterion_05_vanishing_class(registry):
    """thm5 vanishes mod Phi_n^2 on the d+1 (mod 2d) grid, plus its
    parametric step at the terminating specializations."""
    violations = []
    for cid in ("thm5_1", "thm5_2"):
        case = registry.get(cid)
        for params in iter_sweep_params(case):
            if cid == "thm5_1":
                result = verify_congruence(case, params["n"], params["d"])
            else:
                result = verify_parametric(case, params["n"], params["d"])
            if result.status != "pass":
                violations.append(f"{cid} {params}: {result.status}")
    _line(5, violations)
    assert not violations


def test_criterion_06_bracket_minus_one_family(registry):
    """thm7 mod Phi_n^2 for d in 2..4, two smallest n per residue class,
    with the d = 2 instance checked on {5,9,13} and {3,7,11}."""
    violations = []
    case = registry.get("thm7")
    grid = [(2, 5), (2, 9), (2, 13), (2, 3), (2, 7), (2, 11),
            (3, 7), (3, 13), (3, 4), (3, 10),
            (4, 9), (4, 17), (4, 5), (4, 13)]
    for d, n in grid:
        result = verify_congruence(case, n, d)
        line = f"thm7 d={d} n={n}: {result.status}"
        print("   ", line)
        if result.status != "pass":
            violations.append(line)
    _line(6, violations)
    assert not violations


def test_criterion_07_even_d_vanishing_instance(registry):
    violations = []
    for n in (3, 7, 11):
        result = verify_congruence(registry.get("guo1_d4"), n)
        if result.status != "pass":
            violations.append(f"guo1_d4 n={n}: {result.status}")
    _line(7, violations)
    assert not violations


def test_criterion_08_g2_analogue_both_bounds(registry):
    violations = []
    case = registry.get("qG2")
    for n in (5, 9, 13, 17):
        for bound in case.bounds:
            result = verify_congruence(case, n, bound=bound)
            if result.status != "pass":
                violations.append(f"qG2 n={n} bound={bound}: {result.status}")
    _line(8, violations)
    assert not violations


def test_criterion_09_conjectures_observed(registry):
    """Conjecture statements run in observe mode: outcomes are recorded,
    never suite errors, and any failures surface in the summary."""
    report = run(RunConfig(case_ids=["conj1a", "conj1b", "conj3"],
                           use_cache=False, include_timing=False))
    violations = []
    if report.summary["total"] != 3 + 3 + 6:
        violations.append(f"expected 12 recorded results, got {report.summary['total']}")
    if report.exit_code != 0:
        violations.append("observe-mode outcomes changed the exit status")
    recorded_failures = report.summary["observe_failures"]
    failed = [r for r in report.results if r["status"] in ("fail", "obstruction")]
    if len(failed) != len(recorded_failures):
        violations.append("observed failures missing from the summary")
    _line(9, violations, f"{len(failed)} observed failure(s) recorded")
    assert not violations


def test_criterion_10_g2_supercongruence(registry):
    start = time.perf_counter()
    violations = []
    case = registry.get("vanhamme_g2")
    if real_partial_sums(case.real_lhs, 1, p=5)[-1] != Fraction(265, 256):
        violations.append("spot value of the p=5 truncated sum is off")
    for p in (5, 13, 17, 29):
        result = verify_padic_case(case, p)
        if result.status != "pass" or result.valuation < 3:
            violations.append(f"p={p}: {result.status} v={result.valuation}")
    elapsed = time.perf_counter() - start
    if elapsed >= 10:
        violations.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _line(10, violations, f"{elapsed:.2f}s")
    assert not violations


def test_criterion_11_rational_right_side(registry):
    violations = []
    case = registry.get("thm1_3")
    for p in (5, 13, 17):
        result = verify_padic_case(case, p)
        if result.status != "pass":
            violations.append(f"p={p}: {result.status}")
    lhs = real_partial_sums(case.real_lhs, 2, p=5)[-1]
    from supercong.padic import rising_ratio_value
    from supercong.registry import RealSumSpec

    rhs = rising_ratio_value(
        RealSumSpec(kind="rising_ratio", num=(("1/2", "(p-1)/4"),),
                    den=(("1", "(p-1)/4"),), p_power=1),
        5,
    )
    if lhs - rhs != Fraction(-377125, 262144):
        violations.append(f"p=5 difference is {lhs - rhs}, not -377125/262144")
    if verify_padic_case(case, 5).valuation != 3:
        violations.append("p=5 valuation is not exactly 3")
    _line(11, violations)
    assert not violations


def test_criterion_12_gamma_bridge_to_97(registry):
    violations = []
    expected_primes = [p for p in range(5, 98, 4) if all(p % f for f in range(2, p))]
    case = registry.get("liu")
    swept = [params["p"] for params in iter_sweep_params(case)]
    if swept != expected_primes:
        violations.append(f"prime list {swept} != all 1-mod-4 primes up to 97")
    for p in expected_primes:
        result = verify_padic_case(case, p)
        if result.status != "pass":
            violations.append(f"p={p}: {result.status}")
    _line(12, violations, f"{len(expected_primes)} primes")
    assert not violations


def test_criterion_13_both_branches(registry):
    violations = []
    case = registry.get("thm1_4")
    for p in (5, 13, 3, 7, 11):
        result = verify_padic_case(case, p)
        if result.status != "pass" or result.valuation < 3:
            violations.append(f"p={p}: {result.status} v={result.valuation}")
    _line(13, violations)
    assert not violations


def test_criterion_14_vanishing_mod_p2_and_stronger_conjecture(registry):
    violations = []
    case = registry.get("corollary1")
    for p in (5, 13, 29, 37):
        result = verify_padic_case(case, p)
        if result.status != "pass" or result.valuation < 2:
            violations.append(f"corollary1 p={p}: {result.status} v={result.valuation}")
    if real_partial_sums(case.real_lhs, 1, p=5)[-1] != Fraction(525, 512):
        violations.append("p=5 truncated sum is not exactly 525/512")
    if verify_padic_case(case, 5).valuation != 2:
        violations.append("p=5 valuation is not exactly 2")
    observed = []
    for p in (5, 13, 29, 37):
        result = verify_padic_case(registry.get("conj2"), p)
        if not result.observe:
            violations.append("conj2 must run in observe mode")
        observed.append(f"p={p}:{result.status}")
    _line(14, violations, "conj2 observed " + " ".join(observed))
    assert not violations


def test_criterion_15_observed_gamma_branch(registry):
    violations = []
    case = registry.get("thm7_1")
    if not case.observe:
        violations.append("thm7_1 must run in observe mode")
    outcomes = {}
    for p in (5, 13, 3, 7):
        result = verify_padic_case(case, p)
        outcomes[p] = (result.status, result.valuation)
        if result.status == "skipped":
            violations.append(f"p={p} was not observed")
    report = run(RunConfig(case_ids=["thm7_1"], use_cache=False, include_timing=False))
    if report.exit_code != 0:
        violations.append("observed outcomes changed the exit status")
    _line(15, violations, f"outcomes {outcomes}")
    assert not violations


def test_criterion_16_analytic_lane(registry):
    violations = []
    # quadratic summation on the 20-point grid
    case = registry.get("rahman")
    for q, a, b, d in rahman_grid():
        check = check_identity_numeric(case, q, params={"a": a, "b": b, "d": d})
        if check.residual >= 1e-10:
            violations.append(f"rahman q={q:.2f}: residual {check.residual:.2e}")
    # the three q-identities
    for cid in ("chu1", "chu2", "thm7_2"):
        for q in (0.2, 0.5, 0.8):
            check = check_identity_numeric(registry.get(cid), q)
            if check.residual >= 1e-10:
                violations.append(f"{cid} q={q}: residual {check.residual:.2e}")
    # pi-series against the Gamma-oracle targets
    for cid, approx in (("ram1", 1.0627), ("chu3", 1.0627), ("thm7_pi", -0.8346)):
        check = check_pi_formula(registry.get(cid), 60)
        if check.gap >= 1e-9:
            violations.append(f"{cid}: gap {check.gap:.2e}")
        if abs(check.target - approx) > 2e-4:
            violations.append(f"{cid}: target {check.target} far from {approx}")
    # Gamma limit along q -> 1
    for x in (0.25, 0.5, 0.75):
        check = check_gamma_limit(x, [0.9, 0.99, 0.999])
        if not check.decreasing:
            violations.append(f"gamma limit x={x}: gaps {check.gaps} not decreasing")
    _line(16, violations)
    assert not violations


def test_criterion_17_negative_controls(registry):
    """A suite that cannot fail is rejected: three deliberate breaks must
    be caught."""
    violations = []
    case = registry.get("thm1_1")
    perturbed = dataclasses.replace(
        case, id="control", summand=dataclasses.replace(case.summand, q_exp=("1", "0", "0"))
    )
    result = verify_congruence(perturbed, 5)
    if result.status != "fail" or result.witness is None or result.witness.is_zero:
        violations.append("perturbed-exponent control did not fail with a witness")
    truncated = dataclasses.replace(registry.get("thm2"), bounds=("(n-3)/2",))
    if specialized_leg(truncated, 5, None, 1)["equal"]:
        violations.append("truncated-bound control did not break the specialized leg")
    check = check_identity_numeric(registry.get("rahman"), 0.5, perturb_rhs=True)
    if check.passed:
        violations.append("asymmetric quadratic-summation perturbation passed")
    _line(17, violations)
    assert not violations


def test_criterion_18_oracle_equivalence(registry):
    """Residue-ring verdicts match the brute-force route on every case
    instance with n <= 11."""
    from supercong.engine import _congruence_holds
    from supercong.oracle import oracle_congruence
    from supercong.qobjects import concretize_closed_form, modulus_support
    from supercong.exprs import eval_int

    start = time.perf_counter()
    violations = []
    checked = 0
    for case in registry:
        if case.family != "q":
            continue
        for params in iter_sweep_params(case):
            if params["n"] > 11:
                continue
            n, d = params["n"], params.get("d")
            if not case.parametric:
                summand = concretize_summand(case.summand, d)
                closed = concretize_closed_form(case.closed_form, n, d)
                support = modulus_support(case.modulus, n)
                for bound in case.bounds:
                    fast = verify_congruence(case, n, d, bound=bound)
                    status, _, _ = oracle_congruence(
                        summand, eval_int(bound, n=n, d=d), closed, support, n
                    )
                    checked += 1
                    if fast.status != status:
                        violations.append(f"{case.id} {params} {bound}: {fast.status} vs {status}")
            elif support := modulus_support(case.modulus, n):
                summand = concretize_summand(case.summand, d)
                closed = concretize_closed_form(case.closed_form, n, d)
                bound = eval_int(case.bounds[0], n=n, d=d)
                fast_ok = _congruence_holds(summand, bound, closed, support, n)
                status, _, _ = oracle_congruence(summand, bound, closed, support, n)
                checked += 1
                if fast_ok != (status == "pass"):
                    violations.append(f"{case.id} {params}: fast={fast_ok} oracle={status}")
    elapsed = time.perf_counter() - start
    _line(18, violations, f"{checked} instances, {elapsed:.1f}s")
    assert checked >= 40
    assert not violations

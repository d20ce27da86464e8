"""Verification engine behavior: verdicts, negative controls, strategies."""

import copy
import dataclasses
import re
import time
from collections import Counter
from fractions import Fraction
from itertools import zip_longest
from math import comb, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reference import (
    RationalFunction,
    _phi_valuation,
    block_fold,
    build_concrete_closed_form,
    build_concrete_summand,
    classify_by_full_division,
    cyclotomic_by_division,
    divide_out,
    evaluation_leg_holds,
    modulus_by_division,
    same_ratio,
    specialized_leg,
    telescoped_product,
)
from supercong import engine, oracle
from supercong.analytic import q_product_infinite
from supercong.engine import (
    _congruence_holds,
    verify_congruence,
    verify_conjecture_pair,
    verify_parametric,
    verify_q,
)
from supercong.exprs import eval_int
from supercong.harness import _strip_timing
from supercong.paramfield import ParamRational
from supercong.polys import LaurentPoly, residue_reduce
from supercong.qobjects import (
    ConcreteClosedForm,
    ConcreteFactor,
    ModulusFactor,
    ModulusSpec,
    PochFactor,
    SummandSpec,
    _sums,
    atom,
    bracket,
    closed_form_content,
    concretize_closed_form,
    concretize_summand,
    cyclotomic,
    modulus_support,
    paired,
)
from supercong.oracle import _term_parts, one_minus_q_power, oracle_congruence
from supercong.registry import PairSide, ProductSpec, iter_sweep_params, load_registry
from supercong.ring import _factor_rings, _imul, _monic_divmod, _ParamRing, _phi_powers, _Ring


def perturbed_exponent_case(registry):
    """thm1_1 with the q-exponent bent from k^2+k to k^2: a negative control."""
    case = registry.get("thm1_1")
    summand = dataclasses.replace(case.summand, q_exp=("1", "0", "0"))
    return dataclasses.replace(case, id="thm1_1_perturbed", summand=summand)


class TestVerifyCongruence:
    def test_first_family_passes(self, registry):
        result = verify_congruence(registry.get("thm1_1"), 5)
        assert result.status == "pass"
        assert result.params["n"] == 5

    def test_vanishing_branch_passes(self, registry):
        result = verify_congruence(registry.get("thm1_1"), 3)
        assert result.status == "pass"

    def test_even_n_skipped(self, registry):
        result = verify_congruence(registry.get("thm1_1"), 4)
        assert result.status == "skipped"

    def test_even_d_vanishing_family(self, registry):
        assert verify_congruence(registry.get("guo1_d4"), 7).status == "pass"

    def test_perturbed_exponent_fails_with_witness(self, registry):
        result = verify_congruence(perturbed_exponent_case(registry), 5)
        assert result.status == "fail"
        assert result.witness is not None and not result.witness.is_zero
        assert result.witness_digest

    def test_determinism_including_witness(self, registry):
        case = perturbed_exponent_case(registry)
        first = verify_congruence(case, 5)
        second = verify_congruence(case, 5)
        assert first.witness == second.witness
        assert _strip_timing(first.to_dict()) == _strip_timing(second.to_dict())

    def test_fast_and_oracle_agree_on_failures(self, registry):
        case = perturbed_exponent_case(registry)
        fast = verify_congruence(case, 5)
        summand = concretize_summand(case.summand, None)
        closed = concretize_closed_form(case.closed_form, 5, None)
        support = modulus_support(case.modulus, 5)
        status, witness, _ = oracle_congruence(summand, eval_int(case.bounds[0], n=5), closed,
                                               support, 5)
        assert fast.status == status == "fail"
        assert fast.witness == witness

    def test_modulus_monotonicity(self, registry):
        # passing modulo Phi^3 implies passing modulo Phi^2 for the same data
        case = registry.get("thm3_1")
        strong = verify_congruence(case, 7, 3)
        weak_modulus = dataclasses.replace(
            case.modulus,
            factors=(dataclasses.replace(case.modulus.factors[0], power=2),),
        )
        weak = verify_congruence(dataclasses.replace(case, modulus=weak_modulus), 7, 3)
        assert strong.status == "pass"
        assert weak.status == "pass"


class TestParametric:
    def test_all_three_legs_pass(self, registry):
        result = verify_parametric(registry.get("thm2"), 5)
        assert result.status == "pass"
        assert "a=q^n: pass" in result.detail
        assert "a=q^-n: pass" in result.detail
        assert "mod Phi_n: pass" in result.detail

    def test_lemma_runs_fraction_field_leg_only(self, registry):
        result = verify_parametric(registry.get("lemma1"), 5, 2)
        assert result.status == "pass"
        assert "a=q^n" not in result.detail
        assert "mod Phi_n: pass" in result.detail

    def test_truncated_bound_breaks_specialized_leg(self, registry):
        case = dataclasses.replace(registry.get("thm2"), bounds=("(n-3)/2",))
        outcome = specialized_leg(case, 5, None, 1)
        assert not outcome["equal"]
        num, den = outcome["witness"]
        assert not num.is_zero and den.low == 0 and den.leading == 1

    def test_specialized_identity_both_signs(self, registry):
        case = registry.get("thm2")
        for sign in (1, -1):
            assert specialized_leg(case, 5, None, sign)["equal"]

    def test_specialized_identity_general_d(self, registry):
        assert specialized_leg(registry.get("thm4"), 7, 3, 1)["equal"]

    def test_shifted_closed_form_detected(self, registry):
        # right side q-shift off by one: the specialized leg must reject it
        case = registry.get("thm2")
        branch = dataclasses.replace(case.closed_form[0], q_shift="(1-n)/4 + 1")
        bad = dataclasses.replace(case, closed_form=(branch,) + case.closed_form[1:])
        outcome = specialized_leg(bad, 5, None, 1)
        assert not outcome["equal"]
        assert "closed form" in outcome["detail"]

    def test_non_telescoping_product_is_a_registry_error(self, registry):
        from supercong.qobjects import SpecError

        case = registry.get("thm2")
        bad = dataclasses.replace(
            case,
            specialized_product=ProductSpec(
                base="4", num=("6", "3", "3-n", "3+n"), den=("2", "4", "4-n", "4+n"), sign=1
            ),
        )
        with pytest.raises(SpecError):
            telescoped_product(bad.specialized_product, 5, None)


class TestTelescopedProduct:
    def test_matches_closed_form_at_n5(self, registry):
        case = registry.get("thm2")
        product = telescoped_product(case.specialized_product, 5, None)
        closed = concretize_closed_form(case.closed_form, 5, None)
        assert product == build_concrete_closed_form(closed, 5)

    def test_vanishing_class(self, registry):
        case = registry.get("thm2")
        assert telescoped_product(case.specialized_product, 3, None).is_zero

    def test_hand_value_n5(self, registry):
        # (1-q^5)(1-q^-2) / ((1-q^-1)(1-q^4)) after cancellation
        product = telescoped_product(registry.get("thm2").specialized_product, 5, None)
        expected = RationalFunction(
            one_minus_q_power(5) * one_minus_q_power(-2),
            one_minus_q_power(-1) * one_minus_q_power(4),
        )
        assert product == expected

    def test_finite_form_matches_the_infinite_products(self, registry):
        # the pairing against the infinite products themselves, in floats at
        # q = 0.3, over every grid point of every record that telescopes
        q, checked = 0.3, 0
        for case in registry:
            sp = case.specialized_product
            if sp is None:
                continue
            for params in iter_sweep_params(case):
                n, d = params["n"], params.get("d")
                if not case.applies(n=n, d=d):
                    continue
                form = engine._telescoped_form(sp, n, d)
                base = eval_int(sp.base, n=n, d=d)
                infinite = sp.sign * (
                    prod(q_product_infinite(eval_int(e, n=n, d=d), base, q) for e in sp.num)
                    / prod(q_product_infinite(eval_int(e, n=n, d=d), base, q) for e in sp.den))
                if form.kind == "zero":
                    assert abs(infinite) < 1e-9, (case.id, params)
                else:
                    finite = form.sign * (
                        prod(1 - q ** (c + s * j) for c, s, length in form.num for j in range(length))
                        / prod(1 - q ** (c + s * j) for c, s, length in form.den for j in range(length)))
                    assert abs(finite - infinite) < 1e-9 * abs(infinite), (case.id, params)
                checked += 1
        assert checked >= 30


CATALOG_FORM_POINTS = sorted(
    (case.id, params.get("d"), params["n"]) for case in load_registry()
    if case.family == "q" for params in iter_sweep_params(case)
    if case.applies(n=params["n"], d=params.get("d")))


def bent_form(form, n, kind, draw):
    """``form`` bent one way, drawing where the bend applies.  shift, sign,
    bracket, exponent, length and zero change the value; split (a run in
    two), atom (one atom on both sides), reflect (1 - q^c written as
    -q^c (1 - q^-c)) and spelled ([n] as (1 - q^n) / (1 - q)) keep it."""
    if form.kind == "zero":
        return form
    runs = [("num", i) for i in range(len(form.num))] + [("den", i) for i in range(len(form.den))]

    def with_run(side, i, *new):
        old = getattr(form, side)
        return dataclasses.replace(form, **{side: old[:i] + new + old[i + 1:]})

    if kind == "shift":
        return dataclasses.replace(form, shift=form.shift + draw(st.sampled_from([-1, 1])))
    if kind == "sign":
        return dataclasses.replace(form, sign=-form.sign)
    if kind == "bracket":
        return dataclasses.replace(form, n_multiplier=not form.n_multiplier)
    if kind == "zero":
        return ConcreteClosedForm(kind="zero")
    if kind == "atom":
        e = draw(st.integers(-2 * n, 2 * n).filter(bool))
        return dataclasses.replace(form, num=form.num + ((e, 1, 1),), den=form.den + ((e, 1, 1),))
    if kind == "spelled":
        return form if not form.n_multiplier else dataclasses.replace(
            form, n_multiplier=False, num=form.num + ((n, 1, 1),), den=form.den + ((1, 1, 1),))
    if not runs:
        return form
    side, i = draw(st.sampled_from(runs))
    c, s, length = getattr(form, side)[i]
    if kind in ("exponent", "length"):
        step = draw(st.sampled_from([-1, 1]))
        return with_run(side, i, (c + step, s, length) if kind == "exponent" else (c, s, length + step))
    if kind == "split" and length >= 2:
        k = draw(st.integers(1, length - 1))
        return with_run(side, i, (c, s, k), (c + s * k, s, length - k))
    if kind == "reflect" and length >= 1 and c:
        form = with_run(side, i, (c + s, s, length - 1), (-c, 1, 1))
        return dataclasses.replace(form, sign=-form.sign,
                                   shift=form.shift + (c if side == "num" else -c))
    return form


def well_formed(form):
    """No negative length and no denominator atom 1 - q^0, as the compiles
    require."""
    return form.kind == "zero" or (
        all(length >= 0 for _, _, length in form.num + form.den)
        and not any(c + s * j == 0 for c, s, length in form.den for j in range(length)))


VALUE_BENDS = ("split", "atom", "reflect", "spelled")
BENDS = ("shift", "sign", "bracket", "exponent", "length", "zero") + VALUE_BENDS


class TestClosedFormContent:
    """closed_form_content decides equality of two closed forms as the
    cross-multiplied test in Z[q, 1/q] does."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(CATALOG_FORM_POINTS), st.data())
    def test_content_decides_as_the_cross_product(self, registry, instance, data):
        # the closed form and, where there is one, the telescoped product
        # of a catalog point, each bent
        cid, d, n = instance
        case = registry.get(cid)
        closed = concretize_closed_form(case.closed_form, n, d)
        product = case.specialized_product and engine._telescoped_form(
            case.specialized_product, n, d)
        ring = _Ring()

        def bent(form, kinds):
            for kind in kinds:
                form = bent_form(form, n, kind, data.draw)
            return form

        def agree(a, b):
            assume(well_formed(a) and well_formed(b))
            equal = same_ratio(ring, *engine._closed_form_sides_int(a, n, ring),
                               *engine._closed_form_sides_int(b, n, ring))
            assert (closed_form_content(a, n) == closed_form_content(b, n)) == equal, (a, b)
            return equal

        kinds = st.lists(st.sampled_from(BENDS), max_size=2)
        base = closed if product is None else data.draw(st.sampled_from([closed, product]))
        if product is not None:
            agree(closed, product)
        agree(bent(base, data.draw(kinds)), bent(base, data.draw(kinds)))
        # a bend that keeps the value keeps the content
        assert agree(base, bent(base, data.draw(st.lists(st.sampled_from(VALUE_BENDS),
                                                         min_size=1, max_size=3))))

    def test_hand_contents(self):
        # (1 - q^5)(1 - q^-2) / ((1 - q^-1)(1 - q^4)), thm2's product at
        # n = 5: -Phi_1 Phi_5 . q^-2 Phi_1 Phi_2 / (q^-1 Phi_1 . -Phi_1 Phi_2 Phi_4)
        form = ConcreteClosedForm(kind="ratio", num=((5, 1, 1), (-2, 1, 1)),
                                  den=((-1, 1, 1), (4, 1, 1)))
        assert closed_form_content(form, 5) == (1, -1, {5: 1, 4: -1})
        # [6] = Phi_2 Phi_3 Phi_6, no Phi_1 and no unit
        bracket_6 = ConcreteClosedForm(kind="ratio", n_multiplier=True)
        assert closed_form_content(bracket_6, 6) == (1, 0, {2: 1, 3: 1, 6: 1})
        assert closed_form_content(ConcreteClosedForm(kind="zero"), 5) is None
        assert closed_form_content(dataclasses.replace(form, num=((0, 1, 1),)), 5) is None


class TestConjecturePair:
    def test_self_pair_passes(self, registry):
        case = registry.get("conj1a")
        same = dataclasses.replace(case, rhs_pair=case.lhs_pair)
        assert verify_conjecture_pair(same, 5).status == "pass"

    def test_observed_pair(self, registry):
        result = verify_conjecture_pair(registry.get("conj1a"), 5)
        assert result.status == "pass"
        assert result.observe

    def test_condition_filter(self, registry):
        assert verify_conjecture_pair(registry.get("conj1a"), 7).status == "skipped"


def q_results_agree(left, right):
    assert _strip_timing(left.to_dict()) == _strip_timing(right.to_dict())
    assert repr(left.witness) == repr(right.witness)


class TestVerifyQ:
    """verify_q is the one body behind the three lane names, and keeps the
    bytes each of them made."""

    @pytest.mark.parametrize("cid, params, entry", [
        ("thm1_1", {"n": 5}, lambda case: verify_congruence(case, 5)),
        ("thm3_1", {"n": 9, "d": 2}, lambda case: verify_congruence(case, 9, 2)),
        ("qG2", {"n": 9, "bound": "n-1"}, lambda case: verify_congruence(case, 9, bound="n-1")),
        ("thm7", {"n": 4, "d": 3}, lambda case: verify_congruence(case, 4, 3)),
        ("conj1a", {"n": 5}, lambda case: verify_conjecture_pair(case, 5)),
        ("thm2", {"n": 5}, lambda case: verify_parametric(case, 5)),
        ("lemma2", {"n": 5, "d": 3}, lambda case: verify_parametric(case, 5, 3)),
    ], ids=["q", "q_with_d", "q_second_bound", "q_fails", "q_pair", "parametric",
            "parametric_fails"])
    def test_equals_its_entry_point(self, registry, cid, params, entry):
        case = registry.get(cid)
        result = verify_q(case, params)
        q_results_agree(result, entry(case))
        q_results_agree(result, engine.verify_q_case(case, params))

    def test_result_params(self, registry):
        # a plain q result always names its bound, the first one by default
        assert verify_q(registry.get("thm1_1"), {"n": 5}).params == {"n": 5, "bound": "(n-1)/2"}
        assert verify_q(registry.get("qG2"), {"n": 9}).params == {"n": 9, "bound": "(n-1)/4"}
        assert verify_q(registry.get("conj1a"), {"n": 5}).params == {"n": 5}
        assert verify_q(registry.get("thm2"), {"n": 5}).params == {"n": 5}
        assert verify_q(registry.get("lemma2"), {"n": 5, "d": 3}).params == {"n": 5, "d": 3}

    def test_skip_and_obstruction_strategies(self, registry):
        # a parametric instance reports parametric_crt whatever its status,
        # any other reports fast when no leg ran
        thm2 = registry.get("thm2")
        product = dataclasses.replace(thm2.specialized_product,
                                      den=("0",) + thm2.specialized_product.den[1:])
        outcomes = [
            (thm2, {"n": 4}, "skipped", "parametric_crt", "condition not satisfied"),
            (dataclasses.replace(thm2, specialized_product=product), {"n": 5}, "obstruction",
             "parametric_crt", "infinite product has a vanishing denominator factor"),
            (registry.get("thm1_1"), {"n": 4}, "skipped", "fast", "condition not satisfied"),
            (dataclasses.replace(registry.get("thm1_1"), bounds=("n-9",)), {"n": 5},
             "obstruction", "fast", "negative truncation bound -4"),
            (registry.get("conj1a"), {"n": 7}, "skipped", "fast", "condition not satisfied"),
        ]
        for case, params, status, strategy, detail in outcomes:
            result = verify_q(case, params)
            assert (result.status, result.strategy, result.detail) == (status, strategy, detail)
            assert result.witness is None

    def test_a_failing_specialized_leg_fails_the_instance(self, registry):
        # thm2 with its telescoping product's sign flipped: both a = q^(+-n)
        # legs fail, the cyclotomic leg still passes, and the first failing
        # leg's witness is the instance's
        case = registry.get("thm2")
        case = dataclasses.replace(case, specialized_product=dataclasses.replace(
            case.specialized_product, sign=-1))
        result = verify_q(case, {"n": 5})
        leg = specialized_leg(case, 5, None, 1)
        assert (result.status, result.strategy) == ("fail", "parametric_crt")
        assert result.detail == (
            "a=q^n: fail (sum at a = q^+n differs from the telescoped product); "
            "a=q^-n: fail (sum at a = q^-n differs from the telescoped product); "
            "mod Phi_n: pass")
        assert repr(result.witness) == repr(leg["witness"][0])

    @pytest.mark.parametrize("cid, params, detail", [
        ("thm2", {"n": 5}, "a=q^n: pass; a=q^-n: pass; mod Phi_n: pass"),
        ("thm7_par", {"n": 5, "d": 2}, "a=q^n: pass; a=q^-n: pass"),
        ("conj1a", {"n": 5}, ""),
    ], ids=["legs_and_cyclotomic", "legs_only", "two_sums"])
    def test_each_spec_is_compiled_once(self, registry, monkeypatch, cid, params, detail):
        # every leg reads the statement verify_q compiled before the first
        # leg ran: one compile per spec, whichever legs the modulus asks for
        compiled = []
        for name in ("concretize_summand", "concretize_closed_form", "_telescoped_form"):
            def recorded(spec, *args, name=name, compile_=getattr(engine, name)):
                compiled.append((name, id(spec)))
                return compile_(spec, *args)

            monkeypatch.setattr(engine, name, recorded)
        case = registry.get(cid)
        result = verify_q(case, params)
        specs = ([("concretize_summand", side.summand) for side in (case.lhs_pair, case.rhs_pair)]
                 if case.family == "q_pair" else
                 [("concretize_summand", case.summand),
                  ("concretize_closed_form", case.closed_form),
                  ("_telescoped_form", case.specialized_product)])
        assert (result.status, result.detail) == ("pass", detail)
        assert Counter(compiled) == Counter((name, id(spec)) for name, spec in specs)

    def test_only_a_spec_error_is_an_obstruction(self, registry, monkeypatch):
        def overflow(*args):
            raise OverflowError("cannot fit 'int' into an index-sized integer")

        monkeypatch.setattr(engine, "_cyclotomic_verdict", overflow)
        for cid in ("thm1_1", "conj1a", "lemma1"):
            with pytest.raises(OverflowError):
                verify_q(registry.get(cid), {"n": 5, "d": 2})


class TestDeskFindings:
    """Regression pins for the statement defects this tool uncovered.

    These test the engine's detection, not the statements: each of the
    following published instances genuinely fails exact checking, with an
    explainable mechanism (see the registry notes).
    """

    def test_thm7_collapses_to_constant_at_d3(self, registry):
        case = registry.get("thm7")
        summand = concretize_summand(case.summand, 3)
        from supercong.oracle import _term_parts

        total, den = _term_parts(summand, 2)
        # every term past k = 0 vanishes: the sum is exactly -1
        assert RationalFunction(total, den) == RationalFunction(-LaurentPoly.one())

    def test_thm7_vanishing_branch_fails_at_d3(self, registry):
        result = verify_congruence(registry.get("thm7"), 4, 3)
        assert result.status == "fail"
        assert result.witness == -LaurentPoly.one()
        result = verify_congruence(registry.get("thm7"), 10, 3)
        assert result.status == "fail"

    def test_thm7_nonvanishing_branch_trivial_at_d3(self, registry):
        assert verify_congruence(registry.get("thm7"), 7, 3).status == "pass"

    def test_lemma2_both_readings_fail_at_d3_n5(self, registry):
        for cid in ("lemma2", "lemma2_qd"):
            result = verify_parametric(registry.get(cid), 5, 3)
            assert result.status == "fail", cid
            assert result.witness == -LaurentPoly.one(), cid

    def test_lemma2_printed_reading_has_pole_at_d3_n11(self, registry):
        result = verify_parametric(registry.get("lemma2"), 11, 3)
        assert result.status == "obstruction"
        assert "pole" in result.detail

    def test_lemma2_printed_reading_fails_at_d4_n15(self, registry):
        # where the base-q^2 and base-q^d readings diverge, only q^d survives
        assert verify_parametric(registry.get("lemma2"), 15, 4).status == "fail"
        assert verify_parametric(registry.get("lemma2_qd"), 15, 4).status == "pass"


def lemma2_record(cid, d, n, status, note, digest):
    return {"id": cid, "kind": "lemma", "family": "q", "params": {"d": d, "n": n},
            "status": status, "strategy": "parametric_crt", "observe": False,
            "witness_digest": digest, "valuation": None, "residual": None, "elapsed": 0.0,
            "detail": f"mod Phi_n: {status} ({note})", "flags": ["base_reading_ambiguity"]}


def thm7_record(n, digest):
    return {"id": "thm7", "kind": "theorem", "family": "q",
            "params": {"bound": "(n-1)/d", "d": 3, "n": n}, "status": "fail",
            "strategy": "fast+oracle", "observe": False, "witness_digest": digest,
            "valuation": None, "residual": None, "elapsed": 0.0,
            "detail": f"valuation 0 < 2 at the order-{n} cyclotomic", "flags": ["degenerate_at_d3"]}


# the seven failing or obstructed q-records of the catalog, byte for byte as
# the two separate failure routes reported them
FAILURE_RECORDS = [
    lemma2_record("lemma2", 3, 5, "fail", "valuation 0 < 1 at the order-5 cyclotomic",
                  "1bad6b8cf97131fc"),
    lemma2_record("lemma2", 3, 11, "obstruction",
                  "pole of order 1 at the order-11 cyclotomic: congruence ill-posed", None),
    lemma2_record("lemma2", 4, 15, "fail",
                  "valuation 0 < 1 at the order-15 cyclotomic (witness scaled by a unit)",
                  "33bd6c9ae81ca6a3"),
    lemma2_record("lemma2_qd", 3, 5, "fail", "valuation 0 < 1 at the order-5 cyclotomic",
                  "1bad6b8cf97131fc"),
    lemma2_record("lemma2_qd", 3, 11, "fail",
                  "valuation 0 < 1 at the order-11 cyclotomic (witness scaled by a unit)",
                  "39897d81cc968124"),
    thm7_record(4, "1bad6b8cf97131fc"),
    thm7_record(10, "1bad6b8cf97131fc"),
]


class TestFailureRoute:
    """One routine classifies the failures of every q lane; its records
    keep their bytes and its witness is the exact residue."""

    @pytest.mark.parametrize("expected", FAILURE_RECORDS,
                             ids=[f"{r['id']}-d{r['params']['d']}-n{r['params']['n']}"
                                  for r in FAILURE_RECORDS])
    def test_catalog_failure_records(self, registry, expected):
        case, (d, n) = registry.get(expected["id"]), (expected["params"]["d"],
                                                      expected["params"]["n"])
        verify = verify_congruence if expected["id"] == "thm7" else verify_parametric
        assert _strip_timing(verify(case, n, d).to_dict()) == expected

    def test_witness_keeps_the_q_shift(self, registry):
        # thm1_1 with the k-th term multiplied by q^(-2k): the difference
        # starts at q^-2, and without that shift the witness would be
        # 5 + 7q + 19q^2 + ..., a unit multiple of the residue
        case = registry.get("thm1_1")
        case = dataclasses.replace(case, summand=dataclasses.replace(case.summand,
                                                                     q_exp=("1", "0", "-2")))
        summand = concretize_summand(case.summand, None)
        closed = concretize_closed_form(case.closed_form, 5, None)
        support = modulus_support(case.modulus, 5)
        total, d_full = _term_parts(summand, 2)
        rn, rd = oracle._closed_form_polys(closed, 5)
        diff, den = total * rd - rn * d_full, d_full * rd
        assert (diff.low, den.low) == (-2, 0)
        status, witness, _ = oracle_congruence(summand, 2, closed, support, 5)
        assert status == "fail"
        assert witness == residue_reduce(diff, den, modulus_by_division(support))
        assert witness.coeffs[:3] == (13, 33, 52)
        assert verify_congruence(case, 5).witness == witness

    def test_pair_names_every_pole(self, registry):
        # sum_{k<=n} 1/(q;q)_k against its k = 0 term: the k = n term has a
        # pole of order floor(n/m) at every Phi_m with m | n, and nothing
        # cancels it
        inverse_q = SummandSpec(prefactor_m="0", prefactor_r="1", q_exp=("0", "0", "0"),
                                factors=(PochFactor(exp="1", step="1", side="den"),))
        case = dataclasses.replace(registry.get("conj1a"), lhs_pair=PairSide("n", inverse_q),
                                   rhs_pair=PairSide("0", inverse_q))
        for n, poles in ((5, "pole of order 1 at the order-5 cyclotomic"),
                         (9, "pole of order 3 at the order-3 cyclotomic; "
                             "pole of order 1 at the order-9 cyclotomic")):
            result = verify_conjecture_pair(case, n)
            assert (result.status, result.strategy) == ("obstruction", "fast+oracle")
            assert result.detail == f"{poles}: congruence ill-posed"

    def test_every_lane_classifies_through_one_routine(self, registry, monkeypatch):
        calls = []
        classify = oracle._classify

        def counted(*args, **kwargs):
            calls.append(args[2])
            return classify(*args, **kwargs)

        monkeypatch.setattr(oracle, "_classify", counted)
        assert verify_congruence(registry.get("thm7"), 4, 3).status == "fail"
        assert verify_parametric(registry.get("lemma2"), 11, 3).status == "obstruction"
        pair = verify_conjecture_pair(perturbed_pair(registry.get("conj1a"), cut=1), 5)
        assert (pair.status, pair.strategy) == ("fail", "fast+oracle")
        assert calls == [{4: 2}, {11: 1}, modulus_support(registry.get("conj1a").modulus, 5)]


def classify_inputs(case, n, d=None):
    """The arguments the engine hands ``_classify`` for a failing instance:
    a pair's two sums, or a congruence's sum and closed form, over the
    cyclotomic support of the modulus."""
    if case.family == "q_pair":
        return ([_term_parts(concretize_summand(pair.summand, None), eval_int(pair.bound, n=n))
                 for pair in (case.lhs_pair, case.rhs_pair)]
                + [modulus_support(case.modulus, n), False])
    summand = concretize_summand(case.summand, d)
    closed = concretize_closed_form(case.closed_form, n, d)
    return [_term_parts(summand, eval_int(case.bounds[0], n=n, d=d)),
            oracle._closed_form_polys(closed, n), modulus_support(case.modulus, n),
            any(f.param for f in summand.num + summand.den)]


def classify_both_routes(inputs):
    """``_classify``'s verdict, checked byte for byte against the route by
    whole exact divisions and a direct reduction modulo M."""
    verdict = oracle._classify(*inputs)
    assert repr(verdict) == repr(classify_by_full_division(*inputs))
    return verdict


class TestWitnessRoute:
    """One division pass per cyclotomic and the fold onto (q^N - 1)^E give
    the verdicts and witnesses of whole exact divisions and a direct
    reduction modulo M."""

    @pytest.mark.parametrize("cid, d, n, route", [
        ("lemma2", 3, 5, "residue"), ("lemma2", 3, 11, "pole"), ("lemma2", 4, 15, "scaled"),
        ("lemma2_qd", 3, 5, "residue"), ("lemma2_qd", 3, 11, "scaled"),
        ("lemma2_qd", 4, 15, "pass"), ("thm7", 3, 4, "residue"), ("thm7", 3, 10, "residue"),
    ])
    def test_catalog_failures(self, registry, cid, d, n, route):
        poles, fails, witness, scaled = classify_both_routes(
            classify_inputs(registry.get(cid), n, d))
        assert route == ("pole" if poles else "pass" if not fails
                         else "scaled" if scaled else "residue")
        assert (witness is not None) == (route in ("residue", "scaled"))

    @pytest.mark.parametrize("support, scaled", [({7: 1}, False), ({3: 3}, False),
                                                 ({2: 1, 7: 1}, True), ({2: 1, 3: 3}, True)])
    def test_parametric_witness_is_scaled_above_degree_six(self, support, scaled):
        # a/2 fails modulo every M: up to degree 6 its witness is the exact
        # residue a/2 over Q(a), above it the numerator a reduced modulo M
        a = LaurentPoly([ParamRational.generator()])
        poles, fails, witness, flag = classify_both_routes(
            [(a, LaurentPoly.from_int_coeffs([2])), (LaurentPoly(), LaurentPoly.one()), support, True])
        assert (poles, flag) == ([], scaled)
        assert witness == (a if scaled else a.scale(Fraction(1, 2)))

    @settings(max_examples=20, deadline=None)
    @given(
        # the modulus [n] Phi_n^2 of thm1_1 and thm1_2 has two or three
        # cyclotomic factors; a failing lemma1 or thm2 leg takes the exact
        # residue over Q(a) at Phi_9 and Phi_5, the unit-scaled witness
        # once raised to Phi_9^2 and Phi_5^2
        st.sampled_from([("thm1_1", None, 9), ("thm1_1", None, 15), ("thm1_2", None, 9),
                         ("lemma1", 2, 9), ("thm2", None, 5)]),
        st.integers(-1, 1),
        st.integers(0, 2),
        st.sampled_from([1, -1]),
        st.integers(0, 1),
    )
    def test_perturbed_instances(self, registry, instance, shift, cut, sign, power):
        cid, d, n = instance
        case = perturbed(registry.get(cid), shift, cut, sign=sign, power=power)
        classify_both_routes(classify_inputs(case, n, d))

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from([("conj1a", 9), ("conj1b", 5)]), st.integers(0, 2),
           st.integers(-1, 1), st.integers(0, 1))
    def test_perturbed_pairs(self, registry, instance, cut, exponent, power):
        cid, n = instance
        case = perturbed_pair(registry.get(cid), cut + (cid == "conj1b"), exponent, power)
        classify_both_routes(classify_inputs(case, n))


def over_qa(parts):
    """sum_i a^i parts[i](q) as a LaurentPoly over Q(a)."""
    total, power = LaurentPoly(), ParamRational(LaurentPoly.one())
    for i in range(max(parts, default=-1) + 1):
        total = total + LaurentPoly.from_int_coeffs(parts.get(i, [])).scale(power)
        power = power * ParamRational.generator()
    return total


# up to three powers of a, each part an integer list (zero parts and
# leading zeros allowed) to be multiplied by Phi_m^k and padded with zeros
ORACLE_PARTS = st.dictionaries(
    st.integers(0, 2),
    st.tuples(st.lists(st.integers(-9, 9), max_size=40), st.integers(0, 3), st.integers(0, 3)),
    min_size=1, max_size=3,
)


class TestOracleDivision:
    """The oracle counts valuations on integer parts, one per power of a,
    with no field arithmetic: Phi_m is monic and free of a."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 30), ORACLE_PARTS, st.none() | st.integers(0, 5),
           st.none() | st.integers(0, 3))
    def test_division_pass_matches_division_over_qa(self, m, drawn, limit, keep):
        phi = cyclotomic(m)
        parts = {}
        for i, (coeffs, k, pad) in drawn.items():
            for _ in range(k):
                coeffs = IntResidues.times(coeffs, phi)
            parts[i] = coeffs + [0] * pad
        v, kept = oracle._count_divisions(parts, phi, limit, keep)
        expected_v, expected_kept = divide_out(over_qa(parts), cyclotomic_by_division(m), limit, keep)
        assert v == expected_v
        assert over_qa(kept) == expected_kept

    @pytest.mark.parametrize("coeff", [Fraction(1, 3), ParamRational(
        LaurentPoly.one(), LaurentPoly.from_int_coeffs([0, 1]))], ids=["third", "one_over_a"])
    def test_parts_refuse_a_coefficient_outside_z_a(self, coeff):
        # an ArithmeticError, not an assert that -O would drop
        with pytest.raises(ArithmeticError, match="is not in Z\\[a\\]"):
            oracle._oracle_parts(LaurentPoly([Fraction(1), coeff]), 0)

    @pytest.mark.parametrize("parametric", [False, True])
    def test_witness_keeps_its_statements_coefficient_type(self, parametric):
        # 1/2 - 0 fails modulo Phi_5 with the residue 1/2, which prints as
        # (1/2) with Fraction and as ((1/2)) with ParamRational coefficients
        def constant(c):
            return LaurentPoly([ParamRational(LaurentPoly([Fraction(c)])) if parametric
                                else Fraction(c)])

        inputs = [(constant(1), constant(2)), (LaurentPoly(), constant(1)), {5: 1}, parametric]
        _, _, witness, _ = classify_both_routes(inputs)
        assert repr(witness) == ("((1/2))" if parametric else "(1/2)")


class TestOracle:
    def test_verdict_detail_reports_valuations(self, registry):
        case = perturbed_exponent_case(registry)
        summand = concretize_summand(case.summand, None)
        closed = concretize_closed_form(case.closed_form, 5, None)
        support = modulus_support(case.modulus, 5)
        status, witness, detail = oracle_congruence(summand, 2, closed, support, 5)
        assert status == "fail"
        assert "valuation" in detail
        assert witness is not None

    def test_parametric_dispatch(self, registry):
        assert registry.get("lemma1").parametric
        assert registry.get("thm2").parametric
        assert not registry.get("thm1_1").parametric
        assert not registry.get("conj1a").parametric


def raised_modulus(modulus, power):
    """modulus with the power of its cyclotomic factor raised by ``power``."""
    factors = tuple(dataclasses.replace(f, power=f.power + power) if f.kind == "cyclotomic" else f
                    for f in modulus.factors)
    return dataclasses.replace(modulus, factors=factors)


def bent_summand(summand, exponent):
    """summand with its k-th term multiplied by q^(exponent*k)."""
    alpha, beta, gamma = summand.q_exp
    return dataclasses.replace(summand, q_exp=(alpha, f"({beta}) + {exponent}", gamma))


def perturbed(case, shift=0, cut=0, exponent=0, sign=1, power=0):
    """case with its closed-form q-shift moved by ``shift`` and its sign
    multiplied by ``sign``, its truncation bound lowered by ``cut``, the k-th
    summand multiplied by q^(exponent*k) and its cyclotomic modulus power
    raised by ``power``."""
    branches = tuple(
        dataclasses.replace(b, q_shift=f"({b.q_shift}) + {shift}", sign=b.sign * sign)
        for b in case.closed_form
    )
    return dataclasses.replace(
        case, closed_form=branches, summand=bent_summand(case.summand, exponent),
        bounds=(f"({case.bounds[0]}) - {cut}",), modulus=raised_modulus(case.modulus, power),
    )


def perturbed_pair(case, cut=0, exponent=0, power=0, rhs_cut=0):
    """q_pair case with its left bound lowered by ``cut``, its left summand
    bent by q^(exponent*k), its cyclotomic modulus power raised by ``power``
    and its right bound lowered by ``rhs_cut``."""
    lhs = dataclasses.replace(case.lhs_pair, bound=f"({case.lhs_pair.bound}) - {cut}",
                              summand=bent_summand(case.lhs_pair.summand, exponent))
    rhs = dataclasses.replace(case.rhs_pair, bound=f"({case.rhs_pair.bound}) - {rhs_cut}")
    return dataclasses.replace(case, lhs_pair=lhs, rhs_pair=rhs,
                               modulus=raised_modulus(case.modulus, power))


def pair_oracle_status(case, n):
    """The q_pair verdict by the oracle's route: each sum over its full
    denominator by direct products, the cross-multiplied difference, and its
    valuation at each cyclotomic counted by repeated division."""
    (total_l, den_l), (total_r, den_r) = (
        _term_parts(concretize_summand(pair.summand, None), eval_int(pair.bound, n=n))
        for pair in (case.lhs_pair, case.rhs_pair)
    )
    diff = (total_l * den_r - total_r * den_l).poly_part()
    den = (den_l * den_r).poly_part()
    if diff.is_zero:
        return "pass"
    status = "pass"
    for m, e in sorted(modulus_support(case.modulus, n).items()):
        phi = cyclotomic_by_division(m)
        v = _phi_valuation(diff, phi) - _phi_valuation(den, phi)
        if v < 0:
            return "obstruction"
        if v < e:
            status = "fail"
    return status


def rational_specialized(case, n, d, sign):
    """The specialized leg through reduced rational functions: the sum term
    by term with a specialized by the qobjects builder, the telescoped
    product and the closed-form builder, compared by normal form."""
    summand = concretize_summand(case.summand, d)
    total = RationalFunction.zero()
    for k in range(eval_int(case.bounds[0], n=n, d=d) + 1):
        total = total + build_concrete_summand(summand, k, n, {1: "qn", -1: "q-n"}[sign])
    product = telescoped_product(case.specialized_product, n, d)
    closed = build_concrete_closed_form(concretize_closed_form(case.closed_form, n, d), n)
    if total != product:
        witness, plus_minus = total - product, "+" if sign > 0 else "-"
        return {"equal": False, "witness": (witness.num, witness.den),
                "detail": f"sum at a = q^{plus_minus}n differs from the telescoped product"}
    if product != closed:
        witness = product - closed
        return {"equal": False, "witness": (witness.num, witness.den),
                "detail": "telescoped product differs from the closed form"}
    return {"equal": True, "witness": None, "detail": "terminating identity holds"}


PERTURBED_LEGS = given(
    st.sampled_from([("lemma1", 2, 5), ("lemma1", 2, 9), ("thm2", None, 5), ("thm2", None, 7),
                     ("thm4", 2, 5), ("lemma2", 3, 11)]),
    st.integers(-1, 1),
    st.integers(0, 1),
    st.integers(-1, 1),
    st.sampled_from([1, -1]),
    st.integers(0, 1),
)


def perturbed_leg(registry, instance, shift, cut, exponent, sign, raised):
    """The cyclotomic leg's arguments (summand, bound, closed, support, n) for a
    perturbed parametric instance."""
    cid, d, n = instance
    case = perturbed(registry.get(cid), shift, cut, exponent, sign, raised)
    return (concretize_summand(case.summand, d), eval_int(case.bounds[0], n=n, d=d),
            concretize_closed_form(case.closed_form, n, d), modulus_support(case.modulus, n), n)


def bent_pair(summand, data):
    """summand with one (a q^c; q^s) of a side and its (q^c / a; q^s)
    partner bent, and whether the bend keeps them paired.  Moving both
    partners' c or s together keeps the pair; moving one partner's c or s,
    raising the (a q^c; q^s) partner's power or moving it to the other side
    breaks it.  A c moved down reaches factors at q^0 and below.  The q/a
    factors stay balanced between the sides, as the registry requires."""
    side = data.draw(st.sampled_from(["num", "den"]))
    factors = {"num": list(summand.num), "den": list(summand.den)}
    i = next(i for i, f in enumerate(factors[side]) if f.param == "aq")
    key = dataclasses.replace(factors[side][i], param="q_div_a")
    j = factors[side].index(key)
    move = data.draw(st.sampled_from(["c", "s", "power", "side"]))
    who = data.draw(st.sampled_from(["both", "aq", "q_div_a"])) if move in ("c", "s") else "aq"
    delta = data.draw(st.sampled_from([-4, -3, -2, -1, 1, 2, 3]))
    for k in (i, j):
        f = factors[side][k]
        if who in ("both", f.param) and move != "side":
            factors[side][k] = dataclasses.replace(f, **{
                "c": {"c": f.c + delta}, "s": {"s": f.s + abs(delta)},
                "power": {"power": f.power + abs(delta)}}[move])
    if move == "side":
        factors["den" if side == "num" else "num"].append(factors[side].pop(i))
    bent = dataclasses.replace(summand, num=tuple(factors["num"]), den=tuple(factors["den"]))
    return bent, who == "both"


# the parametric catalog records at small n; a record without a cyclotomic
# leg (thm5_2, thm7_par) is decided modulo Phi_n as a statement of its own
PARAMETRIC_INSTANCES = [("thm2", None, 5), ("thm2", None, 7), ("thm4", 2, 5), ("thm4", 3, 7),
                        ("lemma1", 2, 5), ("lemma2", 3, 5), ("lemma2_qd", 2, 7),
                        ("thm5_2", 2, 7), ("thm7_par", 2, 5)]


SPECIALIZED_INSTANCES = [("thm2", None, 5), ("thm2", None, 7), ("thm2", None, 9),
                         ("thm4", 2, 5), ("thm4", 2, 9), ("thm4", 3, 7)]


class TestIntegerParametricLegs:
    """The integer legs of the parametric lane against independent routes."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(SPECIALIZED_INSTANCES),
        st.sampled_from([1, -1]),
        st.integers(-2, 2),
        st.integers(-1, 2),
        st.integers(-1, 1),
    )
    def test_specialized_leg_matches_rational_route(self, registry, instance, sign,
                                                    shift, cut, exponent):
        cid, d, n = instance
        case = perturbed(registry.get(cid), shift, cut, exponent)
        fast = specialized_leg(case, n, d, sign)
        slow = rational_specialized(case, n, d, sign)
        assert fast["equal"] == slow["equal"]
        assert fast["detail"] == slow["detail"]
        assert fast["witness"] == slow["witness"]
        assert repr(fast["witness"]) == repr(slow["witness"])

    @pytest.mark.parametrize("sign", [1, -1], ids=["qn", "q-n"])
    def test_specialized_leg_on_unpaired_parametric_factors(self, registry, sign):
        # thm2 pairs its (aq; q^2) with a (q/a; q^2) of the same exponent,
        # so a = q^n and a = q^-n give the same sum; with the (aq; q^2)
        # exponent bent from 1 to 3 they differ, and each leg must put a to
        # its own power of q
        case = registry.get("thm2")
        factors = list(case.summand.factors)
        assert (factors[2].exp, factors[2].side, factors[2].param) == ("1", "num", "aq")
        factors[2] = dataclasses.replace(factors[2], exp="3")
        case = dataclasses.replace(case, summand=dataclasses.replace(case.summand,
                                                                     factors=tuple(factors)))
        for n in (5, 7):
            fast = specialized_leg(case, n, None, sign)
            slow = rational_specialized(case, n, None, sign)
            assert not slow["equal"]
            assert (fast["equal"], fast["detail"]) == (slow["equal"], slow["detail"])
            assert fast["witness"] == slow["witness"]
            assert repr(fast["witness"]) == repr(slow["witness"])

    def test_failing_leg_witness_is_pinned(self, registry):
        # thm2 at n = 5 with its bound lowered by one: the a = q^n sum misses
        # its last term
        outcome = specialized_leg(perturbed(registry.get("thm2"), cut=1), 5, None, 1)
        assert [repr(p) for p in outcome["witness"]] == [
            "1*q + 1*q^3 + 1*q^4 + 1*q^5 + 1*q^7", "1 + 1*q^2 + 1*q^3 + 1*q^5 + 1*q^6 + 1*q^8"]
        # with the closed form's q-shift moved by one, the monomial content
        # q^-1 stays in the numerator, which is the instance's witness
        result = verify_parametric(perturbed(registry.get("thm2"), shift=1), 5)
        assert (result.status, repr(result.witness)) == ("fail", "1*q^-1 + -1*q^4")
        assert result.witness_digest == "28a5d2e5673f181d"

    def test_evaluation_leg_matches_oracle_on_catalog(self, registry):
        verdicts = {}
        for cid in ("lemma1", "lemma2", "thm2"):
            case = registry.get(cid)
            for params in iter_sweep_params(case):
                n, d = params["n"], params.get("d")
                if n > 11:
                    continue
                summand = concretize_summand(case.summand, d)
                bound = eval_int(case.bounds[0], n=n, d=d)
                closed = concretize_closed_form(case.closed_form, n, d)
                support = modulus_support(case.modulus, n)
                holds = _congruence_holds(summand, bound, closed, support, n)
                status, _, _ = oracle_congruence(summand, bound, closed, support, n)
                assert holds == (status == "pass"), (cid, params, status)
                verdicts[cid, d, n] = status
        assert verdicts["lemma2", 3, 5] == "fail"
        assert len(verdicts) >= 12

    @settings(max_examples=30, deadline=None)
    @PERTURBED_LEGS
    def test_evaluation_leg_matches_oracle_when_perturbed(self, registry, instance,
                                                          shift, cut, exponent, sign, raised):
        summand, bound, closed, support, n = perturbed_leg(registry, instance, shift, cut,
                                                           exponent, sign, raised)
        holds = _congruence_holds(summand, bound, closed, support, n)
        status, _, _ = oracle_congruence(summand, bound, closed, support, n)
        assert holds == (status == "pass"), status

    def test_one_pass_matches_evaluation_route_on_catalog(self, registry):
        verdicts = {}
        for cid in ("lemma1", "lemma2", "lemma2_qd", "thm2", "thm4"):
            case = registry.get(cid)
            for params in iter_sweep_params(case):
                n, d = params["n"], params.get("d")
                if n > 21 or not case.applies(n=n, d=d):
                    continue
                leg = (concretize_summand(case.summand, d), eval_int(case.bounds[0], n=n, d=d),
                       concretize_closed_form(case.closed_form, n, d),
                       modulus_support(case.modulus, n), n)
                verdicts[cid, d, n] = _congruence_holds(*leg)
                assert verdicts[cid, d, n] == evaluation_leg_holds(*leg), (cid, params)
        assert len(verdicts) >= 30
        assert not verdicts["lemma2", 3, 11] and verdicts["thm4", 5, 21]

    @settings(max_examples=30, deadline=None)
    @PERTURBED_LEGS
    def test_one_pass_matches_evaluation_route_when_perturbed(self, registry, instance,
                                                              shift, cut, exponent, sign, raised):
        leg = perturbed_leg(registry, instance, shift, cut, exponent, sign, raised)
        assert _congruence_holds(*leg) == evaluation_leg_holds(*leg)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(PARAMETRIC_INSTANCES), st.data())
    def test_paired_and_unpaired_bends_match_evaluation_route(self, registry, instance, data):
        # a bend that keeps every pair runs the factor over Z[b], one that
        # breaks one runs the avatars over Z[a]; the evaluation route puts
        # an integer a into the avatars of every bend (the oracle's Q(a)
        # sides take up to 40 s on some of these bends)
        cid, d, n = instance
        summand, bound, closed, support, n = statement_leg(registry.get(cid), n, d)
        bent, kept = bent_pair(summand, data)
        assert (paired(bent) is not None) == kept
        leg = (bent, bound, closed, support or {n: 1}, n)
        assert _congruence_holds(*leg) == evaluation_leg_holds(*leg)

    def test_paired_state_has_half_the_powers(self, registry):
        # lemma2 at d=3, n=11 (bound 3) ends its pass over Z[b] with the
        # parts b^0 .. b^3; over Z[a] its avatars reach a^0 .. a^6
        summand, bound, closed, support, n = statement_leg(registry.get("lemma2"), 11, 3)
        (ring,) = [_ParamRing(r) for r in _factor_rings(support, closed, n, (summand, bound))]
        right = engine._closed_form_sides_int(closed, n, ring)
        parts = [sorted(engine._horner_sum_int(view, bound, ring, right=right)[0][0])
                 for view in (paired(summand), summand)]
        assert parts == [[0, 1, 2, 3], list(range(7))]

    def test_one_horner_pass_per_factor_ring(self, registry, monkeypatch):
        # the leg no longer evaluates at D + 1 values of a: thm2 at n=5
        # (passes) and lemma2 at d=3, n=5 (fails) each build the Horner sum
        # once in the one factor ring of Phi_n, started at the closed form;
        # conj1a at n=9 builds its right sum, then the left one started at
        # it, in each of its rings
        calls = []
        horner = engine._horner_sum_int

        def counted(*args, **kwargs):
            calls.append(kwargs.get("right") is not None)
            return horner(*args, **kwargs)

        monkeypatch.setattr(engine, "_horner_sum_int", counted)
        for cid, d, bound, holds in (("thm2", None, 2, True), ("lemma2", 3, 1, False)):
            case = registry.get(cid)
            summand = concretize_summand(case.summand, d)
            closed = concretize_closed_form(case.closed_form, 5, d)
            rings = list(_factor_rings({5: 1}, closed, 5, (summand, bound)))
            calls.clear()
            assert _congruence_holds(summand, bound, closed, {5: 1}, 5) == holds
            assert calls == [True] and len(rings) == 1
        summand, bound, right, support, n = statement_leg(registry.get("conj1a"), 9, None)
        rings = list(_factor_rings(support, None, n, (summand, bound), right))
        calls.clear()
        assert _congruence_holds(summand, bound, right, support, n)
        assert len(rings) >= 2 and calls == [False, True] * len(rings)

    def test_one_horner_pass_per_specialized_leg(self, registry, monkeypatch):
        # an a = q^(+-n) leg sums once, started at the telescoped product's
        # sides; only a sum that differs from the product (thm2 with its
        # bound cut by one) sums again, unstarted, for the witness, and a
        # product that differs from the closed form (its q-shift moved)
        # needs no second sum
        calls = []
        horner = engine._horner_sum_int

        def counted(*args, **kwargs):
            calls.append(kwargs.get("right"))
            return horner(*args, **kwargs)

        monkeypatch.setattr(engine, "_horner_sum_int", counted)
        for cid, d, cut, shift, detail in (
                ("thm2", None, 0, 0, "terminating identity holds"),
                ("thm4", 2, 0, 0, "terminating identity holds"),
                ("thm2", None, 1, 0, "sum at a = q^{}n differs from the telescoped product"),
                ("thm2", None, 0, 1, "telescoped product differs from the closed form")):
            case = perturbed(registry.get(cid), shift=shift, cut=cut)
            product = engine._closed_form_sides_int(
                engine._telescoped_form(case.specialized_product, 5, d), 5, _Ring())
            for sign in (1, -1):
                calls.clear()
                outcome = specialized_leg(case, 5, d, sign)
                assert outcome["detail"] == detail.format("+" if sign > 0 else "-")
                assert calls == [product] + [None] * cut

    @staticmethod
    def counted_passes(monkeypatch):
        """Each _closed_form_sides_int, _horner_sum_int and
        verify_identity_specialized call through verify_q, as (name, in the
        legs' ring Z[q, 1/q], started or built form); the witnesses the
        last one returns."""
        calls, witnesses = [], []

        def legs_ring(ring):
            return isinstance(ring, _Ring) and ring.m is None

        def sides(form, n, ring, build=engine._closed_form_sides_int):
            calls.append(("sides", legs_ring(ring), form))
            return build(form, n, ring)

        def horner(*args, build=engine._horner_sum_int, **kwargs):
            calls.append(("horner", legs_ring(args[2]), kwargs.get("right") is not None))
            return build(*args, **kwargs)

        def leg(*args, run=engine.verify_identity_specialized):
            witnesses.append(run(*args))
            return witnesses[-1]

        for name, wrapper in (("_closed_form_sides_int", sides), ("_horner_sum_int", horner),
                              ("verify_identity_specialized", leg)):
            monkeypatch.setattr(engine, name, wrapper)
        return calls, witnesses

    def test_paired_legs_share_one_pass(self, registry, monkeypatch):
        # thm2 pairs its (aq; q^2) with a (q/a; q^2) of the same exponent:
        # both legs build the product's sides once, decide product = closed
        # form with no closed-form sides, and share one started pass; the
        # cyclotomic leg still builds the closed form and sums once per ring
        case = registry.get("thm2")
        calls, witnesses = self.counted_passes(monkeypatch)
        result = verify_q(case, {"n": 5})
        assert (result.status, result.detail) == (
            "pass", "a=q^n: pass; a=q^-n: pass; mod Phi_n: pass")
        closed = concretize_closed_form(case.closed_form, 5, None)
        rings = len(list(_factor_rings({5: 1}, closed, 5, (concretize_summand(case.summand, None),
                                                           eval_int(case.bounds[0], n=5)))))
        product = engine._telescoped_form(case.specialized_product, 5, None)
        assert [c for c in calls if c[:2] == ("sides", True)] == [("sides", True, product)]
        assert [c for c in calls if c[:2] == ("horner", True)] == [("horner", True, True)]
        assert calls.count(("sides", False, closed)) == rings
        assert calls.count(("horner", False, True)) == rings
        assert witnesses == [None]

    def test_unpaired_legs_each_take_a_pass(self, registry, monkeypatch):
        # with the (aq; q^2) exponent bent from 1 to 3 the two specialized
        # sums differ: two started passes, and each leg reports its own
        # detail and witness, those of the rational route
        case = registry.get("thm2")
        factors = list(case.summand.factors)
        factors[2] = dataclasses.replace(factors[2], exp="3")
        case = dataclasses.replace(case, summand=dataclasses.replace(case.summand,
                                                                     factors=tuple(factors)))
        calls, witnesses = self.counted_passes(monkeypatch)
        result = verify_q(case, {"n": 5})
        slow = [rational_specialized(case, 5, None, sign) for sign in (1, -1)]
        assert [c for c in calls if c[:2] == ("horner", True)] == [("horner", True, True),
                                                                   ("horner", True, False)] * 2
        assert witnesses == [leg["witness"] for leg in slow]
        assert [repr(w) for w in witnesses] == [repr(leg["witness"]) for leg in slow]
        assert result.detail.startswith(
            f"a=q^n: fail ({slow[0]['detail']}); a=q^-n: fail ({slow[1]['detail']}); ")
        assert repr(result.witness) == repr(slow[0]["witness"][0])

    @pytest.mark.parametrize("factors, orders", [
        ((ModulusFactor("q_integer"), ModulusFactor("cyclotomic")), ["3", "9"]),
        ((ModulusFactor("q_integer"),), ["3"]),
    ], ids=["bracket_n_times_phi_n", "bracket_n_alone"])
    def test_leg_checks_every_cyclotomic_of_the_modulus(self, registry, factors, orders):
        # lemma1 at d=4, n=9 with [9] = Phi_3 Phi_9 in its modulus: the sum
        # is not divisible by Phi_3, and with Phi_9^2 not by Phi_9^2 either.
        # A leg reading Phi_n alone misses the first, and with [n] alone
        # there is no Phi_n factor to read at all.
        case = dataclasses.replace(registry.get("lemma1"), modulus=ModulusSpec(factors))
        result = verify_parametric(case, 9, 4)
        support = modulus_support(case.modulus, 9)
        status, witness, detail = oracle_congruence(
            concretize_summand(case.summand, 4), eval_int(case.bounds[0], n=9, d=4),
            concretize_closed_form(case.closed_form, 9, 4), support, 9)
        assert (result.status, status) == ("fail", "fail")
        assert re.findall(r"order-(\d+) cyclotomic", result.detail) == orders
        assert result.detail == f"mod Phi_n: fail ({detail})"
        assert repr(result.witness) == repr(witness)


CONGRUENCE_INSTANCES = [("thm1_1", None, 9), ("thm1_1", None, 15), ("thm1_2", None, 9),
                        ("thm3_1", 2, 9), ("thm3_1", 3, 13), ("thm3_2", 2, 5)]


class TestPerFactorRoute:
    """The fast path decides one cyclotomic factor of the modulus at a time,
    cancelling Phi_m from the atoms; the oracle divides whole polynomials."""

    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(CONGRUENCE_INSTANCES),
        st.integers(-1, 1),
        st.integers(-2, 3),
        st.sampled_from([1, -1]),
        st.integers(0, 1),
        st.sampled_from([(0, 0, 0), (0, 1, 1), (0, 1, 2), (1, 0, 2)]),
    )
    # Phi_5 carried by the closed form's denominator alone: the ring must
    # cancel it there too, or the pole hides a failure
    @example(("thm1_1", None, 5), 0, 0, 1, 0, (0, 2, 3)).via("a closed-form pole at Phi_5")
    # a zero numerator atom makes the form zero before its denominator's
    # Phi_5 is cancelled
    @example(("thm1_1", None, 5), 0, 0, 1, 0, (1, 0, 2)).via("a zero closed form with Phi_5")
    def test_fast_path_matches_oracle_when_perturbed(self, registry, instance, shift, cut,
                                                     sign, power, runs):
        # runs (z, i, j): the closed form times (q^0; q)_z (q^n; q^n)_i / (q^n; q^n)_j
        cid, d, n = instance
        case = perturbed(registry.get(cid), shift, cut, sign=sign, power=power)
        summand = concretize_summand(case.summand, d)
        bound = eval_int(case.bounds[0], n=n, d=d)
        closed = concretize_closed_form(case.closed_form, n, d)
        if closed.kind == "ratio":
            zero, i, j = runs
            closed = dataclasses.replace(closed, num=closed.num + ((0, 1, zero), (n, n, i)),
                                         den=closed.den + ((n, n, j),))
        support = modulus_support(case.modulus, n)
        holds = _congruence_holds(summand, bound, closed, support, n)
        status, _, _ = oracle_congruence(summand, bound, closed, support, n)
        assert holds == (status == "pass"), status

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from([("conj1a", 9), ("conj1a", 13), ("conj1b", 5)]),
        st.integers(-2, 2),
        st.integers(-1, 1),
        st.integers(0, 1),
    )
    def test_pair_lane_matches_oracle_when_perturbed(self, registry, instance, cut, exponent,
                                                     power):
        cid, n = instance
        case = perturbed_pair(registry.get(cid), cut, exponent, power)
        lhs = concretize_summand(case.lhs_pair.summand, None)
        rhs = concretize_summand(case.rhs_pair.summand, None)
        holds = _congruence_holds(lhs, eval_int(case.lhs_pair.bound, n=n),
                                  (rhs, eval_int(case.rhs_pair.bound, n=n)),
                                  modulus_support(case.modulus, n), n)
        status = pair_oracle_status(case, n)
        assert holds == (status == "pass"), status

    def test_factor_rings_cancel_instead_of_enlarging(self, registry):
        # thm1_2 at n=35: the modulus [35] Phi_35^2 = Phi_5 Phi_7 Phi_35^3.
        # No term has a pole, so each ring is Phi_m^e_m alone; Phi_5 and
        # Phi_7 are cancelled from the atoms, Phi_35 divides no denominator.
        case = registry.get("thm1_2")
        summand = concretize_summand(case.summand, None)
        closed = concretize_closed_form(case.closed_form, 35, None)
        support = modulus_support(case.modulus, 35)
        rings = list(_factor_rings(support, closed, 35, (summand, 34)))
        assert [len(ring.m) - 1 for ring in rings] == [4, 6, 72]
        # the sums are built modulo (q^5 - 1), (q^7 - 1) and (q^35 - 1)^3
        assert [ring.top for ring in rings] == [5, 7, 105]
        assert [ring.powers is not None for ring in rings] == [True, True, False]
        assert [ring.c for ring in rings[:2]] == [0, 0]

    def test_pole_enlarges_only_its_own_factor(self, registry):
        # lemma2 at d=3, n=11: a term has a simple pole at Phi_11, so the
        # ring is Phi_11^(1 + 1)
        case = registry.get("lemma2")
        summand = concretize_summand(case.summand, 3)
        closed = concretize_closed_form(case.closed_form, 11, 3)
        bound = eval_int(case.bounds[0], n=11, d=3)
        [ring] = _factor_rings({11: 1}, closed, 11, (summand, bound))
        assert ring.c == 1
        assert len(ring.m) - 1 == 20
        assert ring.top == 22


def statement_leg(case, n, d):
    """The arguments (summand, bound, right, support, n) of
    ``_congruence_holds`` for a q or q_pair instance: right is the closed
    form, or a pair's second (summand, bound)."""
    if case.family == "q_pair":
        (summand, bound), right = (
            (concretize_summand(pair.summand, None), eval_int(pair.bound, n=n))
            for pair in (case.lhs_pair, case.rhs_pair))
    else:
        summand, bound = concretize_summand(case.summand, d), eval_int(case.bounds[0], n=n, d=d)
        right = concretize_closed_form(case.closed_form, n, d)
    return summand, bound, right, modulus_support(case.modulus, n), n


def at_a_one(summand):
    """summand with a = 1: every factor plain, a statement without the
    parameter that keeps the poles of the parametric one."""
    def plain(factors):
        return tuple(dataclasses.replace(f, param="") for f in factors)

    return dataclasses.replace(summand, num=plain(summand.num), den=plain(summand.den))


def lifted_remainders(ring, x, y):
    """x modulo Phi_m^E in ``ring`` (plain or over Z[a]), one remainder per
    power of a, written from the lower shift of x and y so that the
    remainders of two equal elements are equal lists."""
    x = ring.add(x, ring.of([], min(x[1], y[1])))
    base = getattr(ring, "base", ring)
    parts = x[0] if isinstance(x[0], dict) else {0: x[0]}
    return {i: rem for i, coeffs in parts.items() if (rem := _monic_divmod(coeffs, base.m)[1])}


CATALOG_Q_INSTANCES = sorted(
    (case.id, params.get("d"), params["n"]) for case in load_registry()
    if case.family in ("q", "q_pair") for params in iter_sweep_params(case)
    if case.applies(n=params["n"], d=params.get("d")))


class TestFusedDifference:
    """The Horner state started at the right side (-RN, with the numerator
    product at RD) ends as SS RD - RN Dacc, the cross-multiplied difference
    of the two-state pass, in every factor ring."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(CATALOG_Q_INSTANCES), st.integers(-1, 1), st.integers(-1, 1),
           st.integers(-1, 1), st.integers(0, 1), st.booleans())
    @example(("thm1_1", None, 45), 0, 0, 0, 0, False).via("Phi_45^3 and four stripped rings")
    @example(("lemma2", 3, 11), 0, 0, 0, 0, False).via("a pole at Phi_11 over Z[a]")
    @example(("lemma2", 3, 11), 0, 0, 0, 0, True).via("the same pole with a = 1")
    @example(("conj1a", None, 9), 0, 0, 0, 0, False).via("a pair")
    @example(("thm2", None, 5), 0, 0, 0, 0, False).via("Z[a] cancelling nothing")
    def test_fused_difference_matches_the_cross_product(self, registry, instance, shift, cut,
                                                        exponent, power, plain):
        cid, d, n = instance
        case = registry.get(cid)
        case = (perturbed_pair(case, cut, exponent, power) if case.family == "q_pair"
                else perturbed(case, shift, cut, exponent, power=power))
        summand, bound, right, support, n = statement_leg(case, n, d)
        if plain:
            summand = at_a_one(summand)
        sums = _sums(summand, bound, right)
        closed = right if len(sums) == 1 else None
        parametric = any(f.param for f in summand.num + summand.den)
        for ring in _factor_rings(support, closed, n, *sums):
            ring = _ParamRing(ring) if parametric else ring
            rn, rd = (engine._closed_form_sides_int(closed, n, ring) if closed is not None
                      else engine._horner_sum_int(*right, ring))
            fused, dacc = engine._horner_sum_int(summand, bound, ring, right=(rn, rd))
            assert dacc is None
            ss, dacc = engine._horner_sum_int(summand, bound, ring)
            crossed = ring.add(ring.mul(ss, rd), ring.neg(ring.mul(rn, dacc)))
            assert lifted_remainders(ring, fused, crossed) == lifted_remainders(ring, crossed, fused)


def trimmed(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


class IntResidues:
    """Z[q]/(Phi_m^e) on plain int lists, each element kept reduced as the
    run goes: the dense reference for the lifted ring, sharing no code with
    the engine.  Phi_m^e(0) = +-1, so q is a unit and shifts reduce too."""

    def __init__(self, m, e):
        self.phi = list(cyclotomic(m))
        self.modulus = [1]
        for _ in range(e):
            self.modulus = self.times(self.modulus, self.phi)
        self.degree = len(self.modulus) - 1

    @staticmethod
    def times(a, b):
        out = [0] * (len(a) + len(b))
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return trimmed(out)

    def reduce(self, a):
        a, top = list(a), self.degree
        for i in range(len(a) - 1, top - 1, -1):
            c = a[i]
            for j, y in enumerate(self.modulus):
                a[i - top + j] -= c * y
        return trimmed(a[:top])

    def add(self, a, b):
        return trimmed(x + y for x, y in zip_longest(a, b, fillvalue=0))

    def mul(self, a, b):
        return self.reduce(self.times(a, b))

    def shift(self, a, k):
        """a q^k; a step down is a / q = (a - a(0) Phi_m^e(0) Phi_m^e) / q."""
        if k >= 0:
            return self.reduce([0] * k + a)
        for _ in range(-k):
            c = a[0] * self.modulus[0] if a else 0
            a = trimmed([x - c * y for x, y in zip_longest(a, self.modulus, fillvalue=0)][1:])
        return a

    def atom(self, e):
        """1 - q^e."""
        return self.add([1], [-c for c in self.shift([1], e)])

    def bracket(self, t):
        """[t] = -q^t [-t] for t < 0."""
        if t > 0:
            return self.reduce([1] * t)
        return self.shift([-c for c in self.bracket(-t)], t)


RING_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("atom"), st.integers(-40, 90).filter(bool)),
        st.tuples(st.just("bracket"), st.integers(-30, 60).filter(bool)),
        st.tuples(st.just("dense_bracket"), st.integers(-30, 60).filter(bool)),
        st.tuples(st.just("shift"), st.integers(-200, 400)),
        st.tuples(st.just("scale"), st.integers(0, 4)),
        st.tuples(st.just("fold"), st.integers(-40, 90).filter(bool)),
    ),
    max_size=12,
)


KERNEL_LISTS = st.lists(
    st.one_of(st.just(0), st.sampled_from((1, -1)), st.integers(-10**12, 10**12)), max_size=14)


class TestLiftedRing:
    """The per-factor rings compute modulo (q^m - 1)^E and reduce modulo
    Phi_m^E only in the comparison."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 4), RING_STEPS)
    def test_lift_matches_dense_residues(self, m, e, steps):
        # a Horner-like run: p collects atoms, shifts and scalings by
        # Phi_m^v, h collects p times brackets and is itself multiplied by
        # atoms
        powers = _phi_powers(m, e)
        ring, cancelling = _Ring(powers[-1], m, e), _Ring(powers[-1], m, e, powers)
        ints = IntResidues(m, e)
        p, h = ring.one, ring.of([], 0)
        ref_p, ref_h = [1], []
        for kind, value in steps:
            if kind == "atom":
                p = ring.mul(p, ring.of(*atom(value)))
                ref_p = ints.mul(ref_p, ints.atom(value))
            elif kind == "shift":
                p = ring.shift(p, value)
                ref_p = ints.shift(ref_p, value)
            elif kind == "scale":
                p = cancelling.scale(p, value) or ring.of([], 0)
                for _ in range(value):
                    ref_p = ints.mul(ref_p, ints.phi)
            elif kind == "fold":
                h = ring.mul(h, ring.of(*atom(value)))
                ref_h = ints.mul(ref_h, ints.atom(value))
            else:
                term = (ring.mul_bracket(p, value) if kind == "bracket"
                        else ring.mul(p, ring.of(*bracket(value))))
                h = ring.add(h, term)
                ref_h = ints.add(ref_h, ints.mul(ref_p, ints.bracket(value)))
            assert len(p[0]) <= m * e and len(h[0]) <= m * e
        for x, ref in ((p, ref_p), (h, ref_h)):
            assert ints.shift(ints.reduce(x[0]), x[1]) == ref
            assert same_ratio(ring, x, ring.one, ring.of(*atom(m)), ring.one) == (
                ref == ints.atom(m))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 4), st.integers(0, 30), st.randoms())
    def test_reduce_matches_the_block_fold_and_the_remainder(self, m, e, blocks, rnd):
        # strided sums at e = 1, the block fold above; both are the
        # remainder modulo the expanded (q^m - 1)^e
        coeffs = [rnd.choice((0, 1, -1, rnd.randint(-10**9, 10**9)))
                  for _ in range(rnd.randint(0, blocks * m))]
        folded = _Ring(None, m, e)._reduce(list(coeffs))
        assert folded == block_fold(coeffs, m, e)
        lift = [0] * (m * e + 1)
        for j in range(e + 1):
            lift[m * j] = comb(e, j) * (-1) ** (e - j)
        assert folded == _monic_divmod(trimmed(coeffs), lift)[1]

    def test_zero_only_after_the_final_reduction(self):
        # Phi_4^2 = (1 + q^2)^2 is a nonzero element of Z[q]/((q^4 - 1)^2)
        # of degree 4 < 8, but zero modulo Phi_4^2 itself
        powers = _phi_powers(4, 2)
        ring = _Ring(powers[-1], 4, 2)
        x = ring.mul(ring.of([1, 0, 1]), ring.of([1, 0, 1]))
        assert x == ([1, 0, 2, 0, 1], 0)
        assert not ring.is_zero(x)
        assert same_ratio(ring, x, ring.one, ring.of([], 0), ring.one)
        one_plus = ring.add(ring.one, ring.shift(x, 3))
        assert same_ratio(ring, one_plus, ring.of([1, 1]), ring.one, ring.of([1, 1]))
        assert not same_ratio(ring, ring.of([1, 0, 1]), ring.one, ring.of([], 0), ring.one)

    def test_reduction_folds_onto_the_sparse_multiple(self):
        # modulo (q^3 - 1)^2 = 1 - 2 q^3 + q^6: q^6 == 2 q^3 - 1 and
        # q^9 == 3 q^3 - 2
        ring = _Ring(_phi_powers(3, 2)[-1], 3, 2)
        assert ring.of([0] * 6 + [1]) == ([-1, 0, 0, 2], 0)
        assert ring.of([0] * 9 + [1]) == ([-2, 0, 0, 3], 0)
        assert ring.mul_bracket(ring.one, 7) == ring.of([1] * 7)
        assert ring.mul_bracket(([2, 5], 1), -3) == ring.mul(([2, 5], 1), ring.of([-1] * 3, -3))

    def test_products_loop_over_the_sparser_factor(self):
        dense = list(range(1, 60))
        assert _imul(dense, [1, 0, 0, -1]) == _imul([1, 0, 0, -1], dense)
        expected = [0] * 62
        for i, c in enumerate(dense):
            expected[i] += c
            expected[i + 3] -= c
        assert _imul(dense, [1, 0, 0, -1]) == expected

    @settings(max_examples=300, deadline=None)
    @given(KERNEL_LISTS, KERNEL_LISTS)
    @example([0], [1]).via("an untrimmed zero factor")
    @example([0, 0], [0, 0, 3]).via("two untrimmed factors")
    @example([0, 0, -1, 0, 1], [5, 0, 2]).via("leading zeros, a first coefficient -1")
    @example([0, 7], [1, 1, 1]).via("a first coefficient 7")
    def test_products_match_the_schoolbook(self, a, b):
        # the first row is copied (scaled by 1, -1 or x), the rest added;
        # a factor may carry leading and trailing zeros
        product = _imul(a, b)
        assert trimmed(product) == IntResidues.times(a, b)
        assert len(product) <= max(len(a) + len(b) - 1, 0)


PARAM_ELEMENTS = st.tuples(
    st.dictionaries(st.integers(0, 2), st.lists(st.integers(-9, 9), max_size=30), max_size=3),
    st.integers(-5, 5),
)


def at(x, t):
    """The Z[a] ring element x = ({i: coeffs}, shift) with a = t."""
    total = []
    for i, coeffs in x[0].items():
        total = [u + t ** i * v for u, v in zip_longest(total, coeffs, fillvalue=0)]
    return total, x[1]


class TestParamRing:
    """The Phi_n leg's ring over Z[a] works part by part through its base
    ring: at any integer a = t, each operation agrees with the base ring's
    on the operands at a = t."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 3), st.integers(-3, 3), PARAM_ELEMENTS,
           PARAM_ELEMENTS, st.integers(-30, 60).filter(bool), st.integers(-5, 5), st.booleans())
    def test_parts_evaluate_to_the_base_ring(self, m, e, t, x, y, t_bracket, k, cancels):
        # over a base ring that cancels Phi_m, too: the same lift and
        # modulus, with the entry points that cancel (Phi_1 divides no
        # bracket, and no modulus has it)
        assume(m > 1 or not cancels)
        powers = _phi_powers(m, e)
        base = _Ring(powers[-1], m, e, powers if cancels else None)
        ring = _ParamRing(base)
        ints = IntResidues(m, e)

        def residue(z):
            return ints.shift(ints.reduce(z[0]), z[1])

        def check(z, expected):
            assert all(z[0].values()), "a zero part is kept"
            assert residue(at(z, t)) == residue(expected)

        px, py = ring.of(*x), ring.of(*y)
        bx, by = at(px, t), at(py, t)
        check(px, base.of(*at(x, t)))
        check(ring.mul(px, py), base.mul(bx, by))
        check(ring.mul(py, px), base.mul(by, bx))
        check(ring.mul_bracket(px, t_bracket), base.mul_bracket(bx, t_bracket))
        (z, cancelled), (expected, base_cancelled) = (ring.enter_bracket(px, t_bracket),
                                                      base.enter_bracket(bx, t_bracket))
        check(z, expected)
        assert cancelled == base_cancelled == (cancels and t_bracket % m == 0)
        for v in range(e + 1):   # a zero term stays zero, unscaled
            z, expected = ring.scale(px, v), base.scale(bx, v)
            assert (z is None) == (expected is None) == (cancels and v == e and bool(bx[0]))
            if z is not None:
                check(z, expected)
        check(ring.add(px, py), base.add(bx, by))
        check(ring.neg(px), base.neg(bx))
        check(ring.shift(px, k), base.shift(bx, k))
        check(ring.one, base.one)
        # the zero test reads every part modulo Phi_m^e
        parts = px[0].keys() | py[0].keys()
        equal = all(residue((px[0].get(i, []), px[1])) == residue((py[0].get(i, []), py[1]))
                    for i in parts)
        assert same_ratio(ring, px, ring.one, py, ring.one) == equal
        if same_ratio(ring, px, py, py, px):
            assert same_ratio(base, bx, by, by, bx)
        assert same_ratio(ring, ring.mul(px, py), py, px, ring.one)
        for i in range(3):
            multiple = ring.add(px, ring.of({i: powers[-1]}, k))
            assert same_ratio(ring, multiple, ring.one, px, ring.one)
            assert not same_ratio(ring, ring.add(px, ring.of({i: [1]}, k)), ring.one, px, ring.one)
        assert ring.is_zero(ring.add(px, ring.neg(px)))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 3), PARAM_ELEMENTS, PARAM_ELEMENTS,
           KERNEL_LISTS, KERNEL_LISTS)
    def test_products_leave_their_operands_unchanged(self, m, e, x, y, a, b):
        # the product sums its parts in lists of its own, and reduces
        # only those; a scaled term is a product too
        powers = _phi_powers(m, e)
        base = _Ring(powers[-1], m, e, powers)
        ring = _ParamRing(base)
        px, py = ring.of(*x), ring.of(*y)
        operands = copy.deepcopy((px, py, a, b))
        for product in (ring.mul(px, py), ring.mul(py, px), ring.scale(px, e - 1)):
            held = [id(c) for z in (px, py) for c in z[0].values()]
            assert not {id(c) for c in product[0].values()} & set(held)
        _imul(a, b)
        base.mul((a, 0), (b, 0))
        assert (px, py, a, b) == operands

    def test_avatars_split_into_powers_of_a(self):
        # the factors at j = 1 of (q; q^2), (aq; q^2) and (q/a; q^2), and of
        # (q^-5; q^2) and (a q^-5; q^2), in Z[a][q, 1/q]
        ring = _ParamRing(_Ring())

        def factor(c, param):
            return ring.factor(ConcreteFactor(c, 2, 1, param), 1)[0]

        assert factor(1, "") == ({0: [1, 0, 0, -1]}, 0)         # 1 - q^3
        assert factor(1, "aq") == ({0: [1], 1: [0, 0, 0, -1]}, 0)   # 1 - a q^3
        assert factor(1, "q_div_a") == ({0: [0, 0, 0, -1], 1: [1]}, 0)  # a - q^3
        assert factor(-5, "") == ({0: [-1, 0, 0, 1]}, -3)       # 1 - q^-3
        assert factor(-5, "aq") == ({0: [0, 0, 0, 1], 1: [-1]}, -3)  # 1 - a q^-3
        # a paired factor (1 - a q^e)(1 - q^e / a) = 1 - b q^e + q^(2e) at
        # e = 3, 0 and -3 in Z[b][q, 1/q], b = a + 1/a; its b^1 part sits
        # -e places above the shared shift 2e where e < 0
        assert factor(1, "b") == ({0: [1, 0, 0, 0, 0, 0, 1], 1: [0, 0, 0, -1]}, 0)
        assert factor(-2, "b") == ({0: [2], 1: [-1]}, 0)      # 2 - b
        assert factor(-5, "b") == ({0: [1, 0, 0, 0, 0, 0, 1], 1: [0, 0, 0, -1]}, -6)
        # times a, at integer a = t, it is the product of the two avatars
        # (1 - t q^e)(t - q^e)
        base = _Ring()
        for c, t in [(c, t) for c in (3, 1, -2, -3, -5, -8) for t in (1, -1, 2, -3, 5)]:
            (parts, shift), e = factor(c, "b"), c + 2
            scaled = [t * u + (t * t + 1) * v
                      for u, v in zip_longest(parts[0], parts.get(1, []), fillvalue=0)]
            avatars = base.mul(base.of(*atom(e, 1, t)), base.of(*atom(e, t, 1)))
            assert same_ratio(base, (scaled, shift), base.one, avatars, base.one), (c, t)


def rational_pair(case, n):
    """The q_pair failure route before the cross-multiplied one: both sums
    added term by term as reduced rational functions (a gcd at every
    addition), then the oracle's verdict and texts read off the reduced
    difference: the pole orders from its denominator, the valuations from
    its numerator (the two are coprime) and the witness as its residue."""
    totals = []
    for pair in (case.lhs_pair, case.rhs_pair):
        summand = concretize_summand(pair.summand, None)
        total = RationalFunction.zero()
        for k in range(eval_int(pair.bound, n=n) + 1):
            total = total + build_concrete_summand(summand, k, n)
        totals.append(total)
    diff = totals[0] - totals[1]
    support = modulus_support(case.modulus, n)
    if diff.is_zero:
        return "pass", None, "difference is identically zero"
    poles = [(m, v) for m in sorted(support) if (v := _phi_valuation(diff.den, cyclotomic_by_division(m)))]
    if poles:
        return "obstruction", None, "; ".join(
            f"pole of order {v} at the order-{m} cyclotomic" for m, v in poles
        ) + ": congruence ill-posed"
    fails = [(m, v) for m in sorted(support)
             if (v := _phi_valuation(diff.num.poly_part(), cyclotomic_by_division(m))) < support[m]]
    if not fails:
        return "pass", None, "difference divisible by the modulus"
    witness = residue_reduce(diff.num, diff.den, modulus_by_division(support))
    return "fail", witness, "; ".join(
        f"valuation {v} < {support[m]} at the order-{m} cyclotomic" for m, v in fails)


class TestPairClassification:
    """Failing q_pair instances are classified cross-multiplied, with the
    reduced rational-function route's verdicts and witnesses."""

    @settings(max_examples=25, deadline=None)
    @given(
        # (case, n, smallest left cut, right cut): the rational route takes
        # minutes on the uncut conj1b sums, even at n = 5
        st.sampled_from([("conj1a", 5, 0, 0), ("conj1a", 9, 1, 0), ("conj1b", 5, 1, 2)]),
        st.integers(0, 2),
        st.integers(-1, 1),
        st.integers(0, 1),
    )
    def test_matches_rational_route_when_perturbed(self, registry, instance, cut, exponent,
                                                   power):
        cid, n, min_cut, rhs_cut = instance
        case = perturbed_pair(registry.get(cid), min_cut + cut, exponent, power, rhs_cut)
        result = verify_conjecture_pair(case, n)
        status, witness, detail = rational_pair(case, n)
        assert result.status == status
        if result.strategy == "fast+oracle":
            assert result.witness == witness
            assert repr(result.witness) == repr(witness)
            assert result.detail == detail

    def test_long_failing_pair_finishes(self, registry):
        # conj1b at n = 9 with the left bound raised from n - 1 to n + 2:
        # the reduced rational-function route did not finish in 300 s
        case = perturbed_pair(registry.get("conj1b"), cut=-3)
        start = time.perf_counter()
        result = verify_conjecture_pair(case, 9)
        assert time.perf_counter() - start < 60
        assert (result.status, result.strategy) == ("fail", "fast+oracle")
        assert result.witness_digest == "8f64442ccc3df341"

"""Cyclotomics, q-integers, q-shifted factorials, and spec compilation."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import (
    RationalFunction,
    build_concrete_closed_form,
    build_concrete_summand,
    cyclotomic_by_division,
    modulus_by_division,
    q_pochhammer,
)
from supercong.exprs import eval_fraction
from supercong.oracle import _modulus, one_minus_q_power, q_bracket
from supercong.polys import LaurentPoly, poly_divrem
from supercong.qobjects import (
    ConcreteFactor,
    ConcreteSummand,
    DegenerateFactor,
    SpecError,
    SummandSpec,
    atom,
    concretize_closed_form,
    concretize_summand,
    cyclotomic,
    modulus_support,
    paired,
)


def P(*coeffs, low=0):
    return LaurentPoly([Fraction(c) for c in coeffs], low)


def phi(n):
    """``cyclotomic(n)`` as a Laurent polynomial."""
    return LaurentPoly.from_int_coeffs(cyclotomic(n))


def modulus(support):
    """``oracle._modulus(support)`` as a Laurent polynomial."""
    return LaurentPoly.from_int_coeffs(_modulus(support))


def totient(n):
    return sum(1 for k in range(1, n + 1) if _gcd(k, n) == 1)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


class TestCyclotomic:
    def test_first_one(self):
        assert cyclotomic(1) == (-1, 1)

    def test_fourth_is_q2_plus_1(self):
        assert cyclotomic(4) == (1, 0, 1)

    def test_twelfth_by_division(self):
        divisor = LaurentPoly.one()
        for d in (1, 2, 3, 4, 6):
            divisor = divisor * phi(d)
        quo, rem = poly_divrem(P(*([-1] + [0] * 11 + [1])), divisor)
        assert rem.is_zero
        assert phi(12) == quo

    def test_product_over_divisors_up_to_60(self):
        for n in range(1, 61):
            product = LaurentPoly.one()
            for d in range(1, n + 1):
                if n % d == 0:
                    product = product * phi(d)
            assert product == P(*([-1] + [0] * (n - 1) + [1])), n

    def test_degree_is_totient_up_to_60(self):
        for n in range(1, 61):
            assert len(cyclotomic(n)) - 1 == totient(n), n

    def test_moebius_product_matches_division_up_to_200(self):
        for n in range(1, 201):
            assert phi(n) == cyclotomic_by_division(n), n

    def test_a_changed_result_leaves_the_cache_alone(self):
        # the result is memoized: a caller that changes what it got must not
        # change what the next caller gets
        first = cyclotomic(7)
        try:
            first[0] += 1
        except TypeError:
            pass
        assert cyclotomic(7) == (1,) * 7


class TestQInteger:
    def test_small_values(self):
        assert q_bracket(1) == P(1)
        assert q_bracket(5) == P(1, 1, 1, 1, 1)

    def test_six_factors_into_cyclotomics(self):
        assert q_bracket(6) == phi(2) * phi(3) * phi(6)

    def test_bracket_extends_to_negatives(self):
        assert q_bracket(0).is_zero
        assert q_bracket(-1) == P(-1, low=-1)
        # (1 - q^t)/(1 - q) identity for negative t
        for t in (-1, -2, -5):
            assert q_bracket(t) * P(1, -1) == P(1) - P(1, low=t)

    def test_atom_layout(self):
        # x - y q^e as (coeffs, shift), the avatars' layout as well
        assert atom(3, 2, 5) == ([2, 0, 0, -5], 0)
        assert atom(-2, 2, 5) == ([-5, 0, 2], -2)
        assert atom(0, 3, 1) == ([2], 0)
        assert atom(0) == ([], 0)
        assert one_minus_q_power(-2) == P(-1, 0, 1, low=-2)


class TestPochhammer:
    def test_empty_product(self):
        assert q_pochhammer(1, 4, 0) == LaurentPoly.one()

    def test_two_factors(self):
        assert q_pochhammer(1, 4, 2) == P(1, -1, 0, 0, 0, -1, 1)

    def test_laurent_base(self):
        assert q_pochhammer(-1, 4, 1) == P(1) - P(1, low=-1)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(-3, 5), st.integers(1, 6), st.integers(0, 8), st.integers(0, 8)
    )
    def test_splitting(self, c, s, j, k):
        whole = q_pochhammer(c, s, j + k)
        split = q_pochhammer(c, s, j) * q_pochhammer(c + s * j, s, k)
        assert whole == split


def _exponents(spec, d, count):
    """e(k) = alpha k^2 + beta k + gamma for k < count, from the spec's
    Fractions: the reference the compiled exponent is checked against."""
    alpha, beta, gamma = (eval_fraction(e, d=d) for e in spec.q_exp)
    return [alpha * k * k + beta * k + gamma for k in range(count)]


class TestSummandCompilation:
    def test_k0_is_prefactor_bracket(self, registry):
        for case in registry:
            if case.family != "q":
                continue
            for d in case.d_values or (None,):
                concrete = concretize_summand(case.summand, d)
                term = build_concrete_summand(concrete, 0, n=5, a_mode="symbolic" if any(
                    f.param for f in case.summand.factors) else None)
                expected = RationalFunction(
                    q_bracket(concrete.prefactor_index(0)).shift(concrete.exponent(0))
                )
                assert term == expected, case.id

    def test_exponent_integrality_for_all_registered(self, registry):
        for case in registry:
            specs = []
            if case.family == "q":
                specs.append((case.summand, case.d_values))
            if case.family == "q_pair":
                specs.append((case.lhs_pair.summand, None))
                specs.append((case.rhs_pair.summand, None))
            for spec, d_values in specs:
                for d in d_values or (None,):
                    concrete = concretize_summand(spec, d)
                    assert [concrete.exponent(k) for k in range(41)] == \
                        _exponents(spec, d, 41), (case.id, d)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 6)), min_size=3, max_size=3))
    @example([(1, 3), (2, 3), (0, 1)])  # integral at k = 0, 1 only
    @example([(1, 2), (1, 2), (0, 1)])  # k(k + 1)/2: integral everywhere
    def test_three_points_decide_integrality(self, coeffs):
        # e(k) is quadratic, so k = 0, 1, 2 decide what k = 0..40 decides
        spec = SummandSpec(prefactor_m="1", prefactor_r="0",
                           q_exp=tuple(f"{num}/{den}" for num, den in coeffs), factors=())

        def message(check):
            try:
                check()
            except SpecError as exc:
                return str(exc)
            return None

        def forty_one_points():
            for k, e in enumerate(_exponents(spec, None, 41)):
                if e.denominator != 1:
                    raise SpecError(f"non-integral q-exponent {e} at k={k}")

        assert message(lambda: concretize_summand(spec, None)) == message(forty_one_points)
        if message(forty_one_points) is None:
            concrete = concretize_summand(spec, None)
            assert [concrete.exponent(k) for k in range(41)] == _exponents(spec, None, 41)

    def test_first_family_term(self, registry):
        # [7] (1-q)(1-q)^3 / ((1-q^2)(1-q^4)^3) * q^2, assembled independently
        case = registry.get("thm1_1")
        term = build_concrete_summand(concretize_summand(case.summand, None), 1, n=5)
        num = q_bracket(7) * one_minus_q_power(1) * one_minus_q_power(1) ** 3
        den = one_minus_q_power(2) * one_minus_q_power(4) ** 3
        assert term == RationalFunction(num.shift(2), den)

    def test_negative_prefactor_term(self, registry):
        # the [6k-1] family at d=2, k=1:
        # [5] (1-q^-1)(1-q^-1)(1-q)^2 / ((1-q^2)(1-q^4)(1-q^2)^2) q^3
        case = registry.get("thm7")
        term = build_concrete_summand(concretize_summand(case.summand, 2), 1, n=5)
        num = (
            q_bracket(5)
            * one_minus_q_power(-1)
            * one_minus_q_power(-1)
            * one_minus_q_power(1) ** 2
        )
        den = one_minus_q_power(2) * one_minus_q_power(4) * one_minus_q_power(2) ** 2
        assert term == RationalFunction(num.shift(3), den)

    @pytest.mark.parametrize("num, den, expected", [
        # (c, s, power, param) of each factor; the b factors the view keeps,
        # or None where some parametric factor has no partner
        ([(1, 2, 1, ""), (1, 2, 1, "aq"), (1, 2, 1, "q_div_a")],
         [(4, 4, 1, "q_div_a"), (4, 4, 1, "aq")], ([(1, 2, 1)], [(4, 4, 1)])),
        ([(3, 2, 1, "aq"), (1, 2, 2, "aq"), (1, 2, 2, "q_div_a"), (3, 2, 1, "q_div_a")], [],
         ([(1, 2, 2), (3, 2, 1)], [])),
        ([(1, 2, 1, "aq"), (1, 2, 1, "q_div_a"), (1, 2, 1, "q_div_a"), (1, 2, 1, "aq")], [],
         ([(1, 2, 1), (1, 2, 1)], [])),
        ([(1, 2, 1, "")], [(2, 2, 1, "")], ([], [])),
        ([(1, 2, 1, "aq"), (3, 2, 1, "q_div_a")], [], None),      # c differs
        ([(1, 2, 1, "aq"), (1, 4, 1, "q_div_a")], [], None),      # s differs
        ([(1, 2, 2, "aq"), (1, 2, 1, "q_div_a")], [], None),      # power differs
        ([(1, 2, 1, "aq")], [(1, 2, 1, "q_div_a")], None),        # side differs
        ([(1, 2, 1, "aq"), (1, 2, 1, "aq"), (1, 2, 1, "q_div_a")], [], None),  # one left over
    ])
    def test_paired_view_matches_pairs_as_multisets(self, num, den, expected):
        summand = ConcreteSummand(m=1, r=0, e0=0, delta1=1, delta2=0,
                                  num=tuple(ConcreteFactor(*f) for f in num),
                                  den=tuple(ConcreteFactor(*f) for f in den))
        view = paired(summand)
        if expected is None:
            assert view is None
            return
        for side, before, pairs in ((view.num, summand.num, expected[0]),
                                    (view.den, summand.den, expected[1])):
            assert [f for f in side if not f.param] == [f for f in before if not f.param]
            assert sorted((f.c, f.s, f.power) for f in side if f.param) == pairs
            assert {f.param for f in side if f.param} <= {"b"}
        assert (view.m, view.r, view.e0, view.delta1) == (1, 0, 0, 1)

    def test_degenerate_denominator_raises(self, registry):
        case = registry.get("thm7")
        concrete = concretize_summand(case.summand, 3)
        # at d=3 the numerator factor (q^0; q^3)_k kills terms, which is legal;
        # force a denominator degeneracy instead
        bad = ConcreteSummand(
            m=6, r=1,
            e0=0, delta1=2, delta2=2,   # q^(k^2 + k)
            num=(),
            den=(ConcreteFactor(c=0, s=4, power=1, param=""),),
        )
        with pytest.raises(DegenerateFactor):
            build_concrete_summand(bad, 1, n=5)


class TestClosedForm:
    def test_first_family_at_n5(self, registry):
        case = registry.get("thm1_1")
        rhs = build_concrete_closed_form(concretize_closed_form(case.closed_form, 5, None), 5)
        expected = RationalFunction(
            (q_pochhammer(2, 4, 1) * q_bracket(5)).shift(-1), q_pochhammer(4, 4, 1)
        )
        assert rhs == expected

    def test_vanishing_branch(self, registry):
        case = registry.get("thm1_1")
        rhs = build_concrete_closed_form(concretize_closed_form(case.closed_form, 7, None), 7)
        assert rhs.is_zero

    def test_general_family_shift(self, registry):
        # d=3, n=7: (q^3;q^6)_1/(q^5;q^6)_1 [7] q^-2
        case = registry.get("thm3_1")
        concrete = concretize_closed_form(case.closed_form, 7, 3)
        assert concrete.shift == -2
        rhs = build_concrete_closed_form(concrete, 7)
        expected = RationalFunction(
            (q_pochhammer(3, 6, 1) * q_bracket(7)).shift(-2), q_pochhammer(5, 6, 1)
        )
        assert rhs == expected

    def test_no_branch_applies(self, registry):
        with pytest.raises(SpecError, match=r"^no closed-form branch applies at n=6, d=None$"):
            concretize_closed_form(registry.get("thm1_1").closed_form, 6, None)

    def test_non_integral_length_rejected(self, registry):
        case = registry.get("qG2")
        with pytest.raises(SpecError):
            concretize_closed_form(case.closed_form, 6, None)


class TestModulus:
    def test_cyclotomic_square(self, registry):
        spec = registry.get("guo1_d4").modulus
        assert modulus(modulus_support(spec, 3)) == phi(3) ** 2

    def test_q_integer_times_square_small(self, registry):
        spec = registry.get("thm1_1").modulus
        assert modulus(modulus_support(spec, 3)) == P(1, 1, 1) ** 3  # [3] = phi_3

    def test_q_integer_times_square_degree(self, registry):
        spec = registry.get("thm1_1").modulus
        product = modulus(modulus_support(spec, 9))
        assert product == q_bracket(9) * phi(9) ** 2
        assert product.span == 8 + 2 * 6

    def test_support_matches_product(self, registry):
        spec = registry.get("conj1b").modulus  # [n] phi^4
        support = modulus_support(spec, 9)
        assert support == {3: 1, 9: 5}

    def test_parametric_factors_never_materialize(self, registry):
        # (1 - a q^n)(a - q^n) Phi_n: only Phi_n enters the univariate modulus
        spec = registry.get("thm2").modulus
        assert spec.parametric_kinds()
        assert modulus_support(spec, 5) == {5: 1}
        assert modulus(modulus_support(spec, 5)) == phi(5)

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(st.integers(1, 60), st.integers(1, 3), max_size=4))
    def test_product_matches_the_cyclotomics_by_division(self, support):
        assert modulus(support) == modulus_by_division(support)

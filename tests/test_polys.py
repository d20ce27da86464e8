"""Exact polynomial core: division, gcd, rational functions, residues."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import param_pochhammer
from supercong.paramfield import ParamRational
from supercong.polys import (
    LaurentPoly,
    NonUnitDenominator,
    RationalFunction,
    Residue,
    poly_divrem,
    poly_gcd,
    poly_gcdex,
    residue_reduce,
)
from supercong.qobjects import cyclotomic


def P(*coeffs, low=0):
    return LaurentPoly([Fraction(c) for c in coeffs], low)


q = P(0, 1)
one = P(1)


class TestLaurentPoly:
    def test_trims_to_canonical_form(self):
        assert LaurentPoly([0, 1, 2, 0, 0]).coeffs == (1, 2)
        assert LaurentPoly([0, 1, 2, 0, 0]).low == 1
        zero = LaurentPoly([0, 0])
        assert zero.is_zero and zero.low == 0 and zero.coeffs == ()

    def test_negative_exponents(self):
        p = P(1, 0, 1, low=-2)  # q^-2 + 1
        assert p.degree == 0
        assert p.coefficient(-2) == 1
        assert (p * q.shift(1)).low == 0

    def test_evaluation(self):
        p = P(1, 2, 1)  # (1+q)^2
        assert p(Fraction(3)) == 16
        assert P(1, low=-1)(Fraction(1, 2)) == 2

    def test_pow_and_shift(self):
        assert (one + q) ** 2 == P(1, 2, 1)
        assert q.shift(-3) == P(1, low=-2)


class TestDivRem:
    def test_exact_factorization(self):
        quo, rem = poly_divrem(P(-1, 0, 1), P(-1, 1))
        assert quo == P(1, 1) and rem.is_zero

    def test_geometric_remainder(self):
        quo, rem = poly_divrem(P(0, 0, 0, 1), P(-1, 1))
        assert quo == P(1, 1, 1) and rem == one

    def test_cyclotomic_cofactor(self):
        # dividing q^12 - 1 by the product of the proper-divisor cyclotomics
        divisor = one
        for d in (1, 2, 3, 4, 6):
            divisor = divisor * cyclotomic(d)
        q12 = P(*([-1] + [0] * 11 + [1]))
        quo, rem = poly_divrem(q12, divisor)
        assert rem.is_zero
        assert quo == P(1, 0, -1, 0, 1)  # q^4 - q^2 + 1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_divrem(one, LaurentPoly())

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(-99, 99), min_size=1, max_size=31),
        st.lists(st.integers(-99, 99), min_size=1, max_size=31),
        st.integers(-3, 3),
        st.integers(-3, 3),
    )
    def test_reconstruction(self, ac, bc, alow, blow):
        a = LaurentPoly([Fraction(c) for c in ac], alow)
        b = LaurentPoly([Fraction(c) for c in bc], blow)
        if b.is_zero:
            return
        quo, rem = poly_divrem(a, b)
        assert quo * b + rem == a
        assert rem.is_zero or rem.span < b.span


class TestGcd:
    def test_shared_linear_factor(self):
        assert poly_gcd(P(-1, 0, 1), P(1, -2, 1)) == P(-1, 1)

    def test_distinct_cyclotomics_coprime(self):
        assert poly_gcd(cyclotomic(5), cyclotomic(3)) == one

    def test_repeated_cyclotomic(self):
        phi5 = cyclotomic(5)
        a = P(-1, 1) * phi5 * phi5
        b = phi5 ** 3
        assert poly_gcd(a, b) == phi5 * phi5

    def test_gcd_of_zeros_rejected(self):
        with pytest.raises(ValueError):
            poly_gcd(LaurentPoly(), LaurentPoly())

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=6),
        st.lists(st.integers(-9, 9), min_size=1, max_size=6),
        st.lists(st.integers(-9, 9), min_size=2, max_size=5),
    )
    def test_common_factor_extraction(self, ac, bc, gc):
        a, b, g = (LaurentPoly([Fraction(c) for c in cs]) for cs in (ac, bc, gc))
        if a.is_zero or b.is_zero or g.is_zero or g.span == 0:
            return
        if poly_gcd(a, b).span != 0:
            return  # property stated for coprime a, b
        # q is a unit, so the gcd is normalized monic with monomial content dropped
        assert poly_gcd(a * g, b * g) == g.poly_part().monic()


class TestResidues:
    def test_inverse_of_one_minus_q(self):
        phi3 = cyclotomic(3)
        r = residue_reduce(RationalFunction(one, P(1, -1)), phi3)
        assert r.value == LaurentPoly([Fraction(2, 3), Fraction(1, 3)])
        # check (1-q)(q+2)/3 == 1 mod phi3
        back = Residue(phi3, P(1, -1)) * r
        assert back.value == one

    def test_root_of_unity_power(self):
        assert Residue(cyclotomic(3), P(0, 0, 0, 1)).value == one

    def test_zero_reduces_to_zero(self):
        assert residue_reduce(RationalFunction.zero(), cyclotomic(7)).is_zero

    def test_add_zero_and_inverse_contract(self):
        phi5 = cyclotomic(5)
        x = Residue(phi5, P(3, 1, 0, 2))
        zero = Residue(phi5, LaurentPoly())
        assert (x + zero).value == x.value
        assert (x * x.inverse()).value == one

    def test_q_squared_at_i(self):
        phi4 = cyclotomic(4)
        rq = Residue(phi4, q)
        assert (rq * rq).value == P(-1)

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            Residue(cyclotomic(3), q) + Residue(cyclotomic(4), q)

    def test_non_unit_denominator_reported(self):
        with pytest.raises(NonUnitDenominator):
            residue_reduce(RationalFunction(one, P(1, 0, -1)), cyclotomic(2))

    def test_negative_exponent_reduction(self):
        phi3 = cyclotomic(3)
        assert Residue(phi3, P(1, low=-1)).value == Residue(phi3, P(0, 0, 1)).value

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=5),
        st.lists(st.integers(-9, 9), min_size=1, max_size=5),
        st.sampled_from([3, 4, 5, 7, 12]),
    )
    def test_reduction_is_multiplicative(self, ac, bc, n):
        phi = cyclotomic(n)
        a = LaurentPoly([Fraction(c) for c in ac])
        b = LaurentPoly([Fraction(c) for c in bc])
        left = Residue(phi, a * b)
        right = Residue(phi, a) * Residue(phi, b)
        assert left.value == right.value

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=6),
        st.sampled_from([3, 4, 5, 7, 12]),
    )
    @example(coeffs=[3, 0, 3], n=7)  # extended Euclid ends on the monomial q, not 1
    def test_every_unit_inverts_exactly(self, coeffs, n):
        phi = cyclotomic(n)
        u = Residue(phi, LaurentPoly([Fraction(c) for c in coeffs]))
        try:
            inverse = u.inverse()
        except NonUnitDenominator:
            return  # not a unit: outside the contract
        assert (u * inverse).value == one


class TestRationalFunction:
    def test_normal_form(self):
        f = RationalFunction(P(0, 2, 2), P(0, 0, 4, 4))  # (2q+2q^2)/(4q^2+4q^3) = 1/(2q)
        assert f.den.low == 0
        assert f.den.leading == 1
        assert f == RationalFunction(P(1, low=-1), P(2))

    def test_arithmetic_round_trip(self):
        f = RationalFunction(one, P(1, -1))
        g = RationalFunction(q, P(1, 0, -1))
        h = f + g
        assert h - g == f
        assert (f * g) / g == f

    def test_equality_against_scalars(self):
        assert RationalFunction(P(2), P(2)) == 1
        assert RationalFunction.zero() == 0


class TestBivariate:
    def test_aq_at_minus_one(self):
        # a*q reduced mod q+1 is -a
        a = ParamRational.generator()
        value = LaurentPoly([ParamRational.const(0), a])
        r = Residue(cyclotomic(2), value)
        assert r.value == LaurentPoly((-a,))

    def test_evaluation_at_q_equals_one(self):
        # 1/(1-aq) mod q-1 = 1/(1-a)
        a = ParamRational.generator()
        den = LaurentPoly([ParamRational.const(1), -a])
        f = RationalFunction(LaurentPoly((ParamRational.const(1),)), den, reduce=False)
        r = residue_reduce(f, cyclotomic(1))
        expected = ParamRational.const(1) / (ParamRational.const(1) - a)
        assert r.value == LaurentPoly((expected,))

    def test_pochhammer_pair_mod_phi3(self):
        # (1-aq)(1-q/a) mod phi_3, against the hand-expanded reduction:
        # 1 - (a + 1/a) q + q^2 == -(a^2 + a + 1)/a * q  (using q^2 = -1 - q)
        a = ParamRational.generator()
        product = param_pochhammer(1, 2, 1, "aq") * param_pochhammer(1, 2, 1, "q_div_a")
        r = Residue(cyclotomic(3), product)
        expected = -((a * a + a + 1) / a)
        assert r.value == LaurentPoly([ParamRational.const(0), expected])

    def test_param_rational_field_axioms(self):
        a = ParamRational.generator()
        x = (a * a - 1) / (a + 1)
        assert x == a - 1            # gcd reduction
        y = ParamRational.const(Fraction(3, 2))
        assert (x + y) - y == x
        assert x / x == 1
        assert x.substitute(Fraction(5)) == 4


class TestExtendedEuclid:
    def test_bezout_identity(self):
        a = P(1, 0, 1) * P(1, 1)
        b = P(1, 1) * P(3, 1)
        g, u, v = poly_gcdex(a, b)
        assert g == P(1, 1)
        assert u * a + v * b == g

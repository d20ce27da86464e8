"""Exact polynomial core: division, gcd, residues, and the tests' rational
functions in normal form."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import RationalFunction, param_pochhammer
from supercong.paramfield import ParamRational
from supercong.polys import (
    LaurentPoly,
    NonUnitDenominator,
    poly_divrem,
    poly_gcd,
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
        assert p.low + p.span == 0  # the top exponent
        assert p.low == -2 and p.coeffs[0] == 1
        assert (p * q.shift(1)).low == 0

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


def reduced(p, n):
    """The residue of p modulo Phi_n."""
    return residue_reduce(p, one, cyclotomic(n))


class TestResidues:
    def test_inverse_of_one_minus_q(self):
        phi3 = cyclotomic(3)
        r = residue_reduce(one, P(1, -1), phi3)
        assert r == LaurentPoly([Fraction(2, 3), Fraction(1, 3)])
        # check (1-q)(q+2)/3 == 1 mod phi3
        assert reduced(P(1, -1) * r, 3) == one

    def test_root_of_unity_power(self):
        assert reduced(P(0, 0, 0, 1), 3) == one

    def test_zero_reduces_to_zero(self):
        assert residue_reduce(LaurentPoly(), P(1, 1), cyclotomic(7)).is_zero

    def test_add_zero_and_inverse_contract(self):
        x = P(3, 1, 0, 2)
        assert reduced(x + LaurentPoly(), 5) == reduced(x, 5)
        assert reduced(x * residue_reduce(one, x, cyclotomic(5)), 5) == one

    def test_q_squared_at_i(self):
        assert reduced(q * q, 4) == P(-1)

    def test_non_unit_denominator_reported(self):
        with pytest.raises(NonUnitDenominator):
            residue_reduce(one, P(1, 0, -1), cyclotomic(2))

    def test_modulus_must_keep_q_a_unit(self):
        # zero, a constant, and a modulus divisible by q
        for modulus in (LaurentPoly(), P(2), q * cyclotomic(3)):
            with pytest.raises(ValueError):
                residue_reduce(one, one, modulus)

    def test_negative_exponent_reduction(self):
        assert reduced(P(1, low=-1), 3) == reduced(P(0, 0, 1), 3)
        # a Laurent denominator: 1 / q == q^2 == -1 - q modulo Phi_3
        assert residue_reduce(one, q, cyclotomic(3)) == P(-1, -1)
        assert residue_reduce(P(1, low=-2), P(1, low=-1), cyclotomic(3)) == reduced(P(1, low=-1), 3)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=5),
        st.lists(st.integers(-9, 9), min_size=1, max_size=5),
        st.sampled_from([3, 4, 5, 7, 12]),
    )
    def test_reduction_is_multiplicative(self, ac, bc, n):
        a = LaurentPoly([Fraction(c) for c in ac])
        b = LaurentPoly([Fraction(c) for c in bc])
        assert reduced(a * b, n) == reduced(reduced(a, n) * reduced(b, n), n)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=6),
        st.sampled_from([3, 4, 5, 7, 12]),
    )
    @example(coeffs=[3, 0, 3], n=7)  # extended Euclid ends on the monomial q, not 1
    def test_every_unit_inverts_exactly(self, coeffs, n):
        u = LaurentPoly([Fraction(c) for c in coeffs])
        try:
            inverse = residue_reduce(one, u, cyclotomic(n))
        except NonUnitDenominator:
            return  # not a unit: outside the contract
        assert reduced(u * inverse, n) == one

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=8),
        st.integers(-12, 12),
        st.lists(st.integers(-9, 9), min_size=1, max_size=8),
        st.integers(-12, 12),
        st.sampled_from([1, 3, 4, 5, 7, 12]),
        st.integers(1, 3),
    )
    def test_residue_times_denominator_is_numerator(self, nc, nlow, dc, dlow, n, e):
        # checked by division alone: q is a unit modulo Phi_n^e, so
        # r * den == num there iff Phi_n^e divides q^k (r * den - num)
        num = LaurentPoly([Fraction(c) for c in nc], nlow)
        den = LaurentPoly([Fraction(c) for c in dc], dlow)
        modulus = cyclotomic(n) ** e
        if den.is_zero:
            return
        try:
            r = residue_reduce(num, den, modulus)
        except NonUnitDenominator:
            assert poly_gcd(den, modulus).span > 0
            return
        assert r.is_zero or (r.low >= 0 and r.low + r.span < modulus.span)
        check = r * den - num
        _, rem = poly_divrem(check.shift(-min(check.low, 0)), modulus)
        assert rem.is_zero


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
        assert h - h == RationalFunction.zero()

    def test_equality_against_scalars(self):
        assert RationalFunction(P(2), P(2)) == RationalFunction(one)
        assert RationalFunction(P(3), P(6, low=2)) == RationalFunction(P(Fraction(1, 2), low=-2))
        assert RationalFunction.zero().is_zero


class TestBivariate:
    def test_aq_at_minus_one(self):
        # a*q reduced mod q+1 is -a
        a = ParamRational.generator()
        value = LaurentPoly([0, a])
        assert reduced(value, 2) == LaurentPoly((-a,))

    def test_evaluation_at_q_equals_one(self):
        # 1/(1-aq) mod q-1 = 1/(1-a)
        a = ParamRational.generator()
        den = LaurentPoly([1, -a])
        r = residue_reduce(LaurentPoly((ParamRational(one),)), den, cyclotomic(1))
        expected = 1 / (1 - a)
        assert r == LaurentPoly((expected,))

    def test_pochhammer_pair_mod_phi3(self):
        # (1-aq)(1-q/a) mod phi_3, against the hand-expanded reduction:
        # 1 - (a + 1/a) q + q^2 == -(a^2 + a + 1)/a * q  (using q^2 = -1 - q)
        a = ParamRational.generator()
        product = param_pochhammer(1, 2, 1, "aq") * param_pochhammer(1, 2, 1, "q_div_a")
        expected = -((a * a + a + 1) / a)
        assert reduced(product, 3) == LaurentPoly([0, expected])

    def test_param_rational_field_axioms(self):
        a = ParamRational.generator()
        x = (a * a - 1) / (a + 1)
        assert x == a - 1            # gcd reduction
        y = ParamRational(P(Fraction(3, 2)))
        assert (x + y) - y == x
        assert x / x == 1
        assert x * (a + 1) == a * a - 1

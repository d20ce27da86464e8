"""The engine's fast route and its oracle against sympy, on small random
plain congruences: all three must give the same verdict."""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from supercong.engine import _congruence_holds
from supercong.oracle import oracle_congruence
from supercong.qobjects import ConcreteClosedForm, ConcreteFactor, ConcreteSummand

sp = pytest.importorskip("sympy")
q = sp.Symbol("q")

factors = st.lists(st.tuples(st.integers(-3, 4), st.integers(1, 3), st.integers(1, 2)),
                   max_size=2)
ratios = st.lists(st.tuples(st.integers(-2, 4), st.integers(1, 3), st.integers(0, 3)),
                  max_size=2)


@st.composite
def congruences(draw):
    """(summand, bound, closed form, modulus support, n) of a plain
    congruence: n <= 9, bound <= 4, at most two factors on each side."""
    n = draw(st.integers(2, 9))
    bound = draw(st.integers(0, 4))
    m, r = draw(st.integers(0, 3)), draw(st.one_of(st.integers(-2, 3), st.just(n)))
    # q^(alpha k^2 + beta k + gamma), by its forward differences
    alpha, beta, gamma = draw(st.integers(0, 1)), draw(st.integers(-1, 2)), draw(st.integers(-1, 1))
    summand = ConcreteSummand(
        m=m, r=r, e0=gamma, delta1=alpha + beta, delta2=2 * alpha,
        num=tuple(ConcreteFactor(c, s, p, "") for c, s, p in draw(factors)),
        den=tuple(ConcreteFactor(c, s, p, "") for c, s, p in draw(factors)),
    )
    assume(all(f.exponent_at(j) for f in summand.den for j in range(bound)))
    if draw(st.booleans()):
        closed = ConcreteClosedForm(kind="zero")
    else:
        den = draw(ratios)
        assume(all(c + s * j for c, s, length in den for j in range(length)))
        closed = ConcreteClosedForm(kind="ratio", sign=draw(st.sampled_from([1, -1])),
                                    shift=draw(st.integers(-2, 2)),
                                    n_multiplier=draw(st.booleans()), num=tuple(draw(ratios)),
                                    den=tuple(den))
    support = {n: draw(st.integers(1, 2))}
    if draw(st.booleans()):   # times [n]: every divisor of n above 1 once more
        for m in range(2, n + 1):
            if n % m == 0:
                support[m] = support.get(m, 0) + 1
    return summand, bound, closed, support, n


def _poch(c: int, s: int, length: int):
    return sp.Mul(*[1 - q ** (c + s * j) for j in range(length)])


def _bracket(t: int):
    return (1 - q ** t) / (1 - q)


def sympy_status(summand, bound, closed, support, n) -> str:
    """The verdict from sympy's rational functions: the cyclotomic
    valuations of the difference's numerator and denominator, each counted
    by repeated division by sympy's Phi_m."""
    total = 0
    for k in range(bound + 1):
        term = _bracket(summand.prefactor_index(k)) * q ** summand.exponent(k)
        for f in summand.num:
            term *= _poch(f.c, f.s, k) ** f.power
        for f in summand.den:
            term /= _poch(f.c, f.s, k) ** f.power
        total += term
    if closed.kind == "zero":
        rhs = sp.Integer(0)
    else:
        rhs = closed.sign * q ** closed.shift * (_bracket(n) if closed.n_multiplier else 1)
        rhs *= sp.Mul(*[_poch(*f) for f in closed.num]) / sp.Mul(*[_poch(*f) for f in closed.den])
    num, den = sp.fraction(sp.together(total - rhs))
    num, den = sp.Poly(sp.expand(num), q), sp.Poly(sp.expand(den), q)
    if num.is_zero:
        return "pass"

    def valuation(p, m):
        phi, v = sp.Poly(sp.cyclotomic_poly(m, q), q), 0
        while True:
            quo, rem = sp.div(p, phi)
            if not rem.is_zero:
                return v
            p, v = quo, v + 1

    orders = {m: valuation(num, m) - valuation(den, m) for m in support}
    if any(v < 0 for v in orders.values()):
        return "obstruction"
    return "fail" if any(orders[m] < e for m, e in support.items()) else "pass"


# Passing statements whose right side is nonzero modulo the modulus, which
# random draws rarely give: the fast route's cross-multiplied difference
# must cancel the right side's numerator, not add it.  1 == 1 mod Phi_2,
# and 1 + q == (1 - q^2) / (1 - q) mod Phi_3.
ONE = ConcreteClosedForm(kind="ratio")
BRACKET_TWO = ConcreteClosedForm(kind="ratio", num=((2, 1, 1),), den=((1, 1, 1),))
# A failing statement whose only denominator carrying Phi_5 is the closed
# form's: [5] == (1 - q^5) / (1 - q^10) fails mod Phi_5, the right side
# being 1/2 there, yet cross-multiplied without cancelling Phi_5 both sides
# vanish.
HALF_AT_PHI_5 = ConcreteClosedForm(kind="ratio", num=((5, 5, 1),), den=((10, 10, 1),))
# and one whose closed form alone has a pole there, of order 1: an
# obstruction, its pole order read from the closed form
POLE_AT_PHI_5 = ConcreteClosedForm(kind="ratio", den=((5, 5, 1),))


@settings(max_examples=60, deadline=None)
@given(congruences())
@example((ConcreteSummand(m=0, r=1, e0=0, delta1=0, delta2=0, num=(), den=()), 0, ONE,
          {2: 1}, 2))
@example((ConcreteSummand(m=0, r=1, e0=0, delta1=1, delta2=0, num=(), den=()), 1,
          BRACKET_TWO, {3: 1}, 3))
@example((ConcreteSummand(m=0, r=5, e0=0, delta1=0, delta2=0, num=(), den=()), 0,
          HALF_AT_PHI_5, {5: 1}, 5))
@example((ConcreteSummand(m=0, r=5, e0=0, delta1=0, delta2=0, num=(), den=()), 0,
          POLE_AT_PHI_5, {5: 1}, 5))
def test_fast_route_oracle_and_sympy_agree(congruence):
    summand, bound, closed, support, n = congruence
    status, _, _ = oracle_congruence(summand, bound, closed, support, n)
    assert status == sympy_status(summand, bound, closed, support, n)
    assert _congruence_holds(summand, bound, closed, support, n) == (status == "pass")

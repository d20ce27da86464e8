"""Reference builders shared by the tests, none of which the package uses.

``RationalFunction`` is the tests' normal form of a quotient of Laurent
polynomials: every value is reduced by a gcd as it is built, so two values
are equal exactly when their numerators and denominators are.  The q-shifted
factorial builders are a third route, independent of the engine's integer
rings and of its oracle: each factorial is built as a whole ``LaurentPoly``,
a free parameter a as ``ParamRational`` coefficients, and every term and
closed form as a ``RationalFunction``, so tests compare the engine against
values in normal form.  Beside them sit the engine's telescoped product as a
rational function, Gamma_p at one argument by its defining product, the
failure classifier's route by whole exact divisions, the parametric Phi_n
leg by exact evaluation at integer values of a, and the
quadratic-summation parameter grid.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from supercong.engine import (
    _closed_form_sides_int,
    _factor_rings,
    _horner_sum_int,
    _telescoped_form,
)
from supercong.padic import PadicContext, PadicResidue, _representative
from supercong.paramfield import ParamRational
from supercong.polys import LaurentPoly, poly_divrem, poly_gcd, residue_reduce
from supercong.qobjects import (
    ClosedFormBranch,
    ConcreteClosedForm,
    ConcreteFactor,
    ConcreteSummand,
    DegenerateFactor,
    SpecError,
    atom,
    concretize_closed_form,
    cyclotomic,
    modulus_from_support,
    one_minus_q_power,
    q_bracket,
    q_integer,
)
from supercong.registry import SpecializedProduct


# ---------------------------------------------------------------------------
# rational functions in normal form
# ---------------------------------------------------------------------------

class RationalFunction:
    """Reduced quotient of Laurent polynomials.

    Normal form: den is a plain polynomial (lowest exponent 0) with leading
    coefficient 1, gcd(num, den) = 1, and all monomial content lives in num.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: Optional[LaurentPoly] = None):
        if den is None:
            den = LaurentPoly.one()
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self.num, self.den = LaurentPoly(), LaurentPoly.one()
            return
        num, den = num.shift(-den.low), den.poly_part()
        if den.span > 0:
            g = poly_gcd(num, den)
            (num, num_r), (den, den_r) = poly_divrem(num, g), poly_divrem(den, g)
            if not (num_r.is_zero and den_r.is_zero):
                raise ArithmeticError(f"gcd {g!r} does not divide {num!r} / {den!r}")
        inv = 1 / den.leading
        self.num, self.den = num.scale(inv), den.monic()

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls(LaurentPoly())

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.den - other.num * self.den, self.den * other.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __repr__(self) -> str:
        return f"({self.num!r}) / ({self.den!r})"


# ---------------------------------------------------------------------------
# q-shifted factorials and the terms and closed forms built from them
# ---------------------------------------------------------------------------

def q_pochhammer(c: int, s: int, k: int) -> LaurentPoly:
    """(q^c; q^s)_k = prod_{j=0}^{k-1} (1 - q^{c+js}); empty product for k=0.

    c may be negative (Laurent), s must be positive.
    """
    if s < 1:
        raise ValueError("pochhammer step must be positive")
    if k < 0:
        raise ValueError("pochhammer length must be nonnegative")
    out = LaurentPoly.one()
    for j in range(k):
        out = out * one_minus_q_power(c + j * s)
    return out


_PARAM_A = ParamRational.generator()
_PARAM_ONE = ParamRational(LaurentPoly.one())


def _one_plus_coeff_q_power(coeff: ParamRational, e: int) -> LaurentPoly:
    """1 + coeff * q^e over Q(a) coefficients."""
    if e == 0:
        return LaurentPoly((1 + coeff,))
    if e > 0:
        return LaurentPoly([1] + [0] * (e - 1) + [coeff], 0)
    return LaurentPoly([coeff] + [0] * (-e - 1) + [1], e)


def param_pochhammer(c: int, s: int, k: int, kind: str) -> LaurentPoly:
    """(a q^c; q^s)_k or (q^c / a; q^s)_k with ParamRational coefficients."""
    if kind == "aq":
        coeff = -_PARAM_A
    elif kind == "q_div_a":
        coeff = -(_PARAM_ONE / _PARAM_A)
    else:
        raise SpecError(f"unknown parametric factor kind {kind!r}")
    out = LaurentPoly((_PARAM_ONE,))
    for j in range(k):
        out = out * _one_plus_coeff_q_power(coeff, c + j * s)
    return out


def _materialize_factor(cf: ConcreteFactor, k: int, n: int, a_mode: Optional[str]) -> LaurentPoly:
    if cf.param == "":
        return q_pochhammer(cf.c, cf.s, k) ** cf.power
    if a_mode == "symbolic":
        return param_pochhammer(cf.c, cf.s, k, "aq" if cf.param == "aq" else "q_div_a") ** cf.power
    if a_mode == "qn":
        shift = n if cf.param == "aq" else -n
    elif a_mode == "q-n":
        shift = -n if cf.param == "aq" else n
    else:
        raise SpecError("parametric factor in a non-parametric build")
    return q_pochhammer(cf.c + shift, cf.s, k) ** cf.power


def build_concrete_summand(
    concrete: ConcreteSummand, k: int, n: int, a_mode: Optional[str] = None
) -> RationalFunction:
    """The exact k-th term as a reduced rational function.

    a_mode selects how parametric factors are treated: None (must be absent),
    "symbolic" (coefficients in Q(a)), or "qn"/"q-n" (specialize a to q^{+n}
    or q^{-n}).  Raises DegenerateFactor if a denominator factor vanishes
    identically.
    """
    num = q_bracket(concrete.prefactor_index(k))
    if num.is_zero:
        return RationalFunction.zero()
    for cf in concrete.num:
        num = num * _materialize_factor(cf, k, n, a_mode)
        if num.is_zero:
            return RationalFunction.zero()
    den = LaurentPoly.one()
    for cf in concrete.den:
        factor = _materialize_factor(cf, k, n, a_mode)
        if factor.is_zero:
            raise DegenerateFactor(
                f"denominator factor (q^{cf.c}; q^{cf.s})_{k} vanishes"
            )
        den = den * factor
    num = num.shift(concrete.exponent(k))
    return RationalFunction(num, den)


def build_closed_form(
    branches: tuple[ClosedFormBranch, ...], n: int, d: Optional[int] = None
) -> RationalFunction:
    """The exact right-hand side for the (n, d) instance: either 0 or
    sign * (ratio of q-shifted factorials) * [n]^{0,1} * q^{shift}."""
    concrete = concretize_closed_form(branches, n, d)
    return build_concrete_closed_form(concrete, n)


def build_concrete_closed_form(concrete: ConcreteClosedForm, n: int) -> RationalFunction:
    if concrete.kind == "zero":
        return RationalFunction.zero()
    num = LaurentPoly.one()
    for c, s, length in concrete.num:
        num = num * q_pochhammer(c, s, length)
    den = LaurentPoly.one()
    for c, s, length in concrete.den:
        factor = q_pochhammer(c, s, length)
        if factor.is_zero:
            raise DegenerateFactor(f"closed-form denominator (q^{c}; q^{s})_{length} vanishes")
        den = den * factor
    if concrete.n_multiplier:
        num = num * q_integer(n)
    num = num.shift(concrete.shift)
    if concrete.sign < 0:
        num = -num
    return RationalFunction(num, den)


# ---------------------------------------------------------------------------
# the engine's telescoping, Gamma_p and failure witnesses by slower routes
# ---------------------------------------------------------------------------

def telescoped_product(sp: SpecializedProduct, n: int, d: Optional[int]) -> RationalFunction:
    """The finite form of the infinite-product right side (see
    engine._telescoped_form) built as a reduced rational function."""
    return build_concrete_closed_form(_telescoped_form(sp, n, d), n)


def padic_gamma(x: Fraction, ctx: PadicContext) -> PadicResidue:
    """Gamma_p(x) mod p^m by its defining product, one integer at a time:
    (-1)^r times the product of the j with 0 < j < r and p !| j, for the
    representative r of x."""
    r = _representative(x, ctx)
    product = 1
    for j in range(1, r):
        if j % ctx.p:
            product = product * j % ctx.modulus
    return PadicResidue(ctx, -product if r % 2 else product)


def _phi_valuation(p: LaurentPoly, phi: LaurentPoly) -> int:
    """The number of times phi divides p, by repeated exact division."""
    v = 0
    current = p
    while not current.is_zero:
        quo, rem = poly_divrem(current, phi)
        if not rem.is_zero:
            return v
        v += 1
        current = quo
    return v


def classify_by_full_division(left: tuple, right: tuple, support: dict,
                              parametric: bool = False):
    """engine._classify by whole exact divisions: every valuation counted in
    full on the undivided difference, Phi_m^v_m(DEN) then divided out of
    both sides one exact division at a time, and the witness reduced
    modulo M directly, with no fold onto a sparse multiple."""
    (num_l, den_l), (num_r, den_r) = left, right
    diff, den = num_l * den_r - num_r * den_l, den_l * den_r
    if diff.is_zero:
        return None
    num_c, den_c = diff.poly_part(), den.poly_part()
    poles, fails, orders = [], [], {}
    for m in sorted(support):
        orders[m] = _phi_valuation(den_c, cyclotomic(m))
        v = _phi_valuation(num_c, cyclotomic(m)) - orders[m]
        if v < 0:
            poles.append((m, -v))
        elif v < support[m]:
            fails.append((m, v))
    if poles or not fails:
        return poles, fails, None, False
    for m in sorted(orders):
        for _ in range(orders[m]):
            (num_c, num_r), (den_c, den_r) = (poly_divrem(num_c, cyclotomic(m)),
                                              poly_divrem(den_c, cyclotomic(m)))
            if not (num_r.is_zero and den_r.is_zero):
                raise ArithmeticError(f"Phi_{m} does not divide both sides")
    modulus = modulus_from_support(support)
    if parametric and modulus.span > 6:
        return poles, fails, poly_divrem(num_c, modulus)[1], True
    return poles, fails, residue_reduce(num_c.shift(diff.low - den.low), den_c, modulus), False


def evaluation_leg_holds(summand: ConcreteSummand, bound: int, closed: ConcreteClosedForm,
                         cyc_power: int, n: int) -> bool:
    """The parametric Phi_n leg by exact evaluation at integer values of a.

    Each avatar has degree 1 in a, so the Horner term N_k prod_{j>k} D_j
    has degree at most k P_num + (bound - k) P_den in a, with P_num and
    P_den the total powers of the parametric numerator and denominator
    factors; Dacc has at most bound P_den and the closed form none.  The
    modulus and its lift are monic and free of a, so the reduced
    cross-multiplied difference is a polynomial in a of degree at most
    D = bound max(P_num, P_den), and reduction commutes with substituting
    an integer for a.  A nonzero polynomial of degree at most D has at most
    D roots, so the difference vanishes iff it vanishes at the D + 1
    integers 0, 1, -1, 2, -2, ...
    """
    p_num = sum(f.power for f in summand.num if f.param)
    p_den = sum(f.power for f in summand.den if f.param)
    values = [(i + 1) // 2 * (1 if i % 2 else -1) for i in range(bound * max(p_num, p_den) + 1)]
    for ring, strip in _factor_rings({n: cyc_power}, closed, n, (summand, bound)):
        rn, rd = _closed_form_sides_int(closed, n, ring, strip)
        for t in values:
            avatars = {"": (1, 1), "aq": (1, t), "q_div_a": (t, 1)}
            sides = _horner_sum_int(summand, bound, ring,
                                    lambda f, j: atom(f.exponent_at(j), *avatars[f.param]), strip)
            if not ring.same_ratio(*sides, rn, rd):
                return False
    return True


# ---------------------------------------------------------------------------
# quadratic-summation parameters
# ---------------------------------------------------------------------------

def rahman_grid(count: int = 20, seed: int = 20240817) -> list[tuple[float, float, float, float]]:
    """Deterministic (q, a, b, d) grid with q in {0.1..0.6} and parameters
    drawn in [-0.9, 0.9], resampled when any right-side denominator factor
    or the (1-a) prefactor gets within 1e-6 of zero."""
    rng = random.Random(seed)
    qs = [0.1 + 0.5 * i / (count - 1) for i in range(count)]
    grid = []
    for q in qs:
        while True:
            a = rng.uniform(-0.9, 0.9)
            b = rng.uniform(-0.9, 0.9)
            d = rng.uniform(-0.9, 0.9)
            if abs(1.0 - a) < 1e-3 or abs(b) < 1e-3 or abs(d) < 1e-3:
                continue
            if _rahman_well_posed(q, a, b, d):
                grid.append((q, a, b, d))
                break
    return grid


def _rahman_well_posed(q: float, a: float, b: float, d: float) -> bool:
    q2 = q * q
    for x in (q, q2 * a / b, q2 * a / d, q * b * d, a * q2, q * b, q * d, a * q2 / (b * d)):
        term = x
        while abs(term) > 1e-12:
            if abs(1.0 - term) < 1e-6:
                return False
            term *= q2
    return True

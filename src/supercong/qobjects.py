"""q-objects and the declarative statement specs built from them.

Covers the construction side of the verification engine: cyclotomic
polynomials, the one (coeffs, shift) layout of the atoms x - y q^e and of
the brackets [t] (``atom``, ``bracket``), and the compilation of
declarative summand / closed-form / modulus specs (as shipped in the JSON
registry) at fixed n and d.  Specs compile to concrete exponent data (the
(c, s, power) of every q-shifted factorial, the q-exponent of the k-th
term, the cyclotomic support of the modulus), not to rational functions:
each route of the engine builds its own polynomials from that data.

The statement catalog is data, not code: one spec record per labeled
statement, so adding a conjecture is a registry edit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .exprs import SpecError, eval_bool, eval_fraction, eval_int
from .polys import LaurentPoly, poly_divrem


class DegenerateFactor(SpecError):
    """A denominator factor evaluated to the zero polynomial.

    Happens when a Pochhammer factor in a denominator reaches exponent 0
    (the factor 1 - q^0), e.g. under an unlucky parameter specialization.
    The statement is undefined there: a value out of its domain, so every
    lane reports it as an obstruction, never skips it.
    """


# ---------------------------------------------------------------------------
# basic q-objects
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic(n: int) -> LaurentPoly:
    """The n-th cyclotomic polynomial, by exact division of q^n - 1 by the
    product of the cyclotomics of the proper divisors.

    Memoized; the cache is only ever appended to, so concurrent readers are
    safe under the interpreter's atomic dict operations.
    """
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    q_n_minus_1 = LaurentPoly.from_int_coeffs([-1] + [0] * (n - 1) + [1])
    if n == 1:
        return q_n_minus_1
    divisor = LaurentPoly.one()
    for d in range(1, n):
        if n % d == 0:
            divisor = divisor * cyclotomic(d)
    quotient, remainder = poly_divrem(q_n_minus_1, divisor)
    if not remainder.is_zero:
        raise ArithmeticError(f"cyclotomic recursion must divide exactly at n={n}")
    return quotient


def atom(e: int, x=1, y=1) -> tuple[list, int]:
    """x - y q^e as (coeffs, shift), whose value is coeffs(q) q^shift: the
    one layout of the atoms 1 - q^e and of their avatars x - y q^e in a free
    parameter (zero, as no coefficients, when e == 0 and x == y)."""
    if e > 0:
        return [x] + [0] * (e - 1) + [-y], 0
    if e < 0:
        return [-y] + [0] * (-e - 1) + [x], e
    return ([x - y] if x != y else []), 0


def bracket(t: int) -> tuple[list, int]:
    """[t] = (1 - q^t)/(1 - q) for any integer t, as (coeffs, shift).

    For t < 0 this is the Laurent value -q^t [-t]; [0] = 0.  Needed because
    prefactors like [6k - 1] start at [-1] = -1/q when k = 0.
    """
    if t >= 0:
        return [1] * t, 0
    return [-1] * (-t), t


def q_integer(n: int) -> LaurentPoly:
    """[n] = 1 + q + ... + q^(n-1)."""
    if n < 1:
        raise ValueError("q-integer index must be positive")
    return LaurentPoly.from_int_coeffs(*bracket(n))


def q_bracket(t: int) -> LaurentPoly:
    """[t] as an exact Laurent polynomial (see ``bracket``)."""
    return LaurentPoly.from_int_coeffs(*bracket(t))


def one_minus_q_power(e: int) -> LaurentPoly:
    """1 - q^e as an exact Laurent polynomial (zero when e == 0)."""
    return LaurentPoly.from_int_coeffs(*atom(e))


# ---------------------------------------------------------------------------
# declarative statement specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PochFactor:
    """One q-shifted factorial in a summand: (base q^exp; q^step)_k^power.

    ``param`` is "" for a plain factor, "aq" for (a q^exp; q^step)_k, and
    "q_div_a" for (q^exp / a; q^step)_k.  ``exp`` and ``step`` are registry
    expressions in d.
    """

    exp: str
    step: str
    side: str          # "num" | "den"
    power: int = 1
    param: str = ""

    def __post_init__(self):
        if self.side not in ("num", "den"):
            raise SpecError(f"factor side must be num/den, got {self.side!r}")
        if self.power < 1:
            raise SpecError("factor power must be >= 1")
        if self.param not in ("", "aq", "q_div_a"):
            raise SpecError(f"unknown param marker {self.param!r}")


@dataclass(frozen=True)
class SummandSpec:
    """The k-th term of a truncated sum: [m k + r] * (factors) * q^{e(k)}
    with e(k) = alpha k^2 + beta k + gamma (expressions in d)."""

    prefactor_m: str
    prefactor_r: str
    q_exp: tuple[str, str, str]
    factors: tuple[PochFactor, ...]


@dataclass(frozen=True)
class ClosedLen:
    """(q^exp; q^step)_{length}: one factor of a closed-form ratio."""

    exp: str
    step: str
    length: str


@dataclass(frozen=True)
class ClosedFormBranch:
    when: str                       # condition in n (and d); "True" for single branch
    kind: str                       # "ratio" | "zero"
    num: tuple[ClosedLen, ...] = ()
    den: tuple[ClosedLen, ...] = ()
    n_multiplier: bool = False
    q_shift: str = "0"
    sign: int = 1


@dataclass(frozen=True)
class ModulusFactor:
    kind: str
    power: int = 1

    def __post_init__(self):
        if self.kind not in ("cyclotomic", "q_integer", "one_minus_a_qn", "a_minus_qn"):
            raise SpecError(f"unknown modulus factor kind {self.kind!r}")
        if self.power < 1:
            raise SpecError("modulus factor power must be >= 1")


@dataclass(frozen=True)
class ModulusSpec:
    factors: tuple[ModulusFactor, ...]

    def parametric_kinds(self) -> tuple[str, ...]:
        return tuple(f.kind for f in self.factors if f.kind in ("one_minus_a_qn", "a_minus_qn"))


# ---------------------------------------------------------------------------
# compiled (concrete) forms for a fixed n, d
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcreteFactor:
    c: int
    s: int
    power: int
    param: str

    def exponent_at(self, j: int) -> int:
        return self.c + j * self.s


@dataclass(frozen=True)
class ConcreteSummand:
    m: int
    r: int
    alpha: Fraction
    beta: Fraction
    gamma: Fraction
    num: tuple[ConcreteFactor, ...]
    den: tuple[ConcreteFactor, ...]

    def exponent(self, k: int) -> int:
        e = self.alpha * k * k + self.beta * k + self.gamma
        if e.denominator != 1:
            raise SpecError(f"non-integral q-exponent {e} at k={k}")
        return e.numerator

    def prefactor_index(self, k: int) -> int:
        return self.m * k + self.r


def concretize_summand(spec: SummandSpec, d: Optional[int]) -> ConcreteSummand:
    names = {"d": d}
    num, den = [], []
    for f in spec.factors:
        cf = ConcreteFactor(
            c=eval_int(f.exp, **names),
            s=eval_int(f.step, **names),
            power=f.power,
            param=f.param,
        )
        if cf.s < 1:
            raise SpecError(f"factor step {cf.s} must be positive")
        (num if f.side == "num" else den).append(cf)
    return ConcreteSummand(
        m=eval_int(spec.prefactor_m, **names),
        r=eval_int(spec.prefactor_r, **names),
        alpha=eval_fraction(spec.q_exp[0], **names),
        beta=eval_fraction(spec.q_exp[1], **names),
        gamma=eval_fraction(spec.q_exp[2], **names),
        num=tuple(num),
        den=tuple(den),
    )


@dataclass(frozen=True)
class ConcreteClosedForm:
    kind: str                        # "ratio" | "zero"
    sign: int = 1
    shift: int = 0
    n_multiplier: bool = False
    num: tuple[tuple[int, int, int], ...] = ()   # (c, s, length)
    den: tuple[tuple[int, int, int], ...] = ()


def concretize_closed_form(
    branches: tuple[ClosedFormBranch, ...], n: int, d: Optional[int]
) -> ConcreteClosedForm:
    names = {"n": n, "d": d}
    for branch in branches:
        if branch.when == "True" or eval_bool(branch.when, **names):
            if branch.kind == "zero":
                return ConcreteClosedForm(kind="zero")
            num = tuple(
                (eval_int(f.exp, **names), eval_int(f.step, **names), eval_int(f.length, **names))
                for f in branch.num
            )
            den = tuple(
                (eval_int(f.exp, **names), eval_int(f.step, **names), eval_int(f.length, **names))
                for f in branch.den
            )
            for c, s, length in num + den:
                if length < 0:
                    raise SpecError(f"negative closed-form length {length}")
                if s < 1:
                    raise SpecError("closed-form step must be positive")
            for c, s, length in den:   # a factor 1 - q^0 leaves the ratio undefined
                if c <= 0 and c % s == 0 and -c < s * length:
                    raise DegenerateFactor(f"closed-form denominator (q^{c}; q^{s})_{length} vanishes")
            return ConcreteClosedForm(
                kind="ratio",
                sign=branch.sign,
                shift=eval_int(branch.q_shift, **names),
                n_multiplier=branch.n_multiplier,
                num=num,
                den=den,
            )
    raise SpecError(f"no closed-form branch applies at n={n}, d={d}")


def modulus_support(spec: ModulusSpec, n: int) -> dict[int, int]:
    """Cyclotomic index -> multiplicity for the univariate part of the
    modulus.  [n] contributes every divisor of n above 1 exactly once; the
    parametric factors contribute nothing."""
    if n < 2:
        raise SpecError("modulus requires n >= 2")
    support: dict[int, int] = {}
    for f in spec.factors:
        if f.kind == "cyclotomic":
            support[n] = support.get(n, 0) + f.power
        elif f.kind == "q_integer":
            for m in range(2, n + 1):
                if n % m == 0:
                    support[m] = support.get(m, 0) + f.power
    return support


def modulus_from_support(support: dict[int, int]) -> LaurentPoly:
    out = LaurentPoly.one()
    for m in sorted(support):
        out = out * cyclotomic(m) ** support[m]
    return out


def validate_summand_exponents(spec: SummandSpec, d: Optional[int]) -> None:
    """The q-exponent e(k) must be an integer for every k; checked at load.

    e is quadratic, so e(k) = e(0) + k*D1 + C(k, 2)*D2 with the forward
    differences D1 = e(1) - e(0) and D2 = e(2) - 2e(1) + e(0): integers at
    k = 0, 1, 2 make e integral at every k, and the first k where it is not
    is at most 2."""
    concrete = concretize_summand(spec, d)
    for k in range(3):
        concrete.exponent(k)  # raises SpecError on non-integrality

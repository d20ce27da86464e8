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

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

from .exprs import SpecError, eval_bool, eval_fraction, eval_int


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
def cyclotomic(n: int) -> tuple[int, ...]:
    """The integer coefficients of the n-th cyclotomic polynomial, from q^0,
    by the Moebius product Phi_n = prod_{d | n} (q^d - 1)^mu(n/d).

    mu(n/d) is nonzero only where n/d is squarefree, so the d are n over
    the products of distinct primes of n.  Every product by q^d - 1 comes
    first, a shifted subtraction; then each division by q^d - 1 is exact
    and runs the recurrence C[i] = C[i - d] - P[i], whose last d values are
    the remainder.  Memoized, so the result is a tuple that no caller can
    change; the cache is only ever appended to, so concurrent readers are
    safe under the interpreter's atomic dict operations.
    """
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    signed, k, p = [(n, 1)], n, 2   # (d, mu(n/d))
    while k > 1:
        if k % p == 0:
            signed += [(d // p, -mu) for d, mu in signed]
            while k % p == 0:
                k //= p
        p += 1
    coeffs = [1]
    for d, mu in sorted(signed, key=lambda dm: -dm[1]):
        if mu > 0:
            coeffs = [u - v for u, v in zip([0] * d + coeffs, coeffs + [0] * d)]
            continue
        quo = [-c for c in coeffs]
        for i in range(d, len(quo)):
            quo[i] += quo[i - d]
        coeffs, rem = quo[:-d], quo[-d:]
        if any(rem):
            raise ArithmeticError(f"q^{d} - 1 does not divide the Moebius product at n={n}")
    return tuple(coeffs)


def atom(e: int, x=1, y=1) -> tuple[list, int]:
    """x - y q^e as (coeffs, shift), whose value is coeffs(q) q^shift: the
    one layout of the atoms 1 - q^e and of their avatars x - y q^e in a free
    parameter (zero, as no coefficients, when e == 0 and x == y)."""
    if e > 0:
        return [x] + [0] * (e - 1) + [-y], 0
    if e < 0:
        return [-y] + [0] * (-e - 1) + [x], e
    return ([x - y] if x != y else []), 0


def _avatar(param: str, a) -> tuple:
    """(x, y) of the avatar x - y q^e of a factor carrying ``param`` at the
    parameter value a: 1 - q^e stays, 1 - a q^e stays, and 1 - q^e / a
    becomes a - q^e; the stripped 1/a units cancel between numerator and
    denominator because the registry keeps them balanced.  The oracle
    enters every parametric factor so, the fast route only unpaired ones."""
    return {"": (1, 1), "aq": (1, a), "q_div_a": (a, 1)}[param]


def bracket(t: int) -> tuple[list, int]:
    """[t] = (1 - q^t)/(1 - q) for any integer t, as (coeffs, shift).

    For t < 0 this is the Laurent value -q^t [-t]; [0] = 0.  Needed because
    prefactors like [6k - 1] start at [-1] = -1/q when k = 0.
    """
    if t >= 0:
        return [1] * t, 0
    return [-1] * (-t), t


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


# each modulus factor kind, as `supercong list` writes it; a kind carries the
# parameter a exactly when its text names a
MODULUS_KINDS = {"cyclotomic": "Phi_n", "q_integer": "[n]", "one_minus_a_qn": "(1-aq^n)",
                 "a_minus_qn": "(a-q^n)"}


@dataclass(frozen=True)
class ModulusFactor:
    kind: str      # a key of MODULUS_KINDS
    power: int = 1


@dataclass(frozen=True)
class ModulusSpec:
    factors: tuple[ModulusFactor, ...]

    def parametric_kinds(self) -> tuple[str, ...]:
        return tuple(f.kind for f in self.factors if "a" in MODULUS_KINDS[f.kind])


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
    """A compiled summand.  Its q-exponent e(k) is quadratic in k, so it is
    kept by its forward differences: e(k) = e0 + k delta1 + C(k, 2) delta2."""

    m: int
    r: int
    e0: int
    delta1: int
    delta2: int
    num: tuple[ConcreteFactor, ...]
    den: tuple[ConcreteFactor, ...]

    def exponent(self, k: int) -> int:
        return self.e0 + k * self.delta1 + k * (k - 1) // 2 * self.delta2

    def prefactor_index(self, k: int) -> int:
        return self.m * k + self.r


def specialize(summand: ConcreteSummand, bound: int, shift: int) -> ConcreteSummand:
    """``summand`` to ``bound`` at a = q^shift: (a q^c; q^s) becomes
    (q^(c + shift); q^s) and (q^c / a; q^s) becomes (q^(c - shift); q^s).
    Every factor is plain and each side is sorted, so two summands whose
    factors are the same multisets compare equal.  A denominator factor at
    q^0 in a term is out of the domain."""
    offset = {"": 0, "aq": shift, "q_div_a": -shift}
    num, den = (tuple(ConcreteFactor(*csp, "") for csp in sorted(
                (f.c + offset[f.param], f.s, f.power) for f in side))
                for side in (summand.num, summand.den))
    if any(f.exponent_at(j) == 0 for f in den for j in range(bound)):
        raise DegenerateFactor(
            f"denominator factor hits q^0 under the a = q^{shift} specialization")
    return replace(summand, num=num, den=den)


def paired(summand: ConcreteSummand) -> Optional[ConcreteSummand]:
    """``summand`` with each (a q^c; q^s)^p of a side merged with a
    (q^c / a; q^s)^p of the same side into one factor of param "b",
    b = a + 1/a, matched as multisets; None where some parametric factor
    has no such partner."""
    sides = []
    for side in (summand.num, summand.den):
        aq, q_div_a = (sorted((f.c, f.s, f.power) for f in side if f.param == param)
                       for param in ("aq", "q_div_a"))
        if aq != q_div_a:
            return None
        sides.append(tuple(f for f in side if not f.param)
                     + tuple(ConcreteFactor(*csp, "b") for csp in aq))
    return replace(summand, num=sides[0], den=sides[1])


def concretize_summand(spec: SummandSpec, d: Optional[int]) -> ConcreteSummand:
    """``spec`` at d.  Its q-exponent must be an integer at every k; e(k) is
    quadratic, so integers at k = 0, 1, 2 make it integral everywhere, and
    the first k where it is not is at most 2."""
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
    m, r = eval_int(spec.prefactor_m, **names), eval_int(spec.prefactor_r, **names)
    alpha, beta, gamma = (eval_fraction(text, **names) for text in spec.q_exp)
    e = [gamma, alpha + beta + gamma, 4 * alpha + 2 * beta + gamma]   # e(0), e(1), e(2)
    for k in range(3):
        if e[k].denominator != 1:
            raise SpecError(f"non-integral q-exponent {e[k]} at k={k}")
    e0, e1, e2 = (value.numerator for value in e)
    return ConcreteSummand(m=m, r=r, e0=e0, delta1=e1 - e0, delta2=e2 - 2 * e1 + e0,
                           num=tuple(num), den=tuple(den))


@dataclass(frozen=True)
class ConcreteClosedForm:
    kind: str                        # "ratio" | "zero"
    sign: int = 1
    shift: int = 0
    n_multiplier: bool = False
    num: tuple[tuple[int, int, int], ...] = ()   # (c, s, length)
    den: tuple[tuple[int, int, int], ...] = ()


def closed_form_content(closed: ConcreteClosedForm, n: int) -> Optional[tuple]:
    """(sign, power of q, {d: multiplicity of Phi_d}) of ``closed`` at n, or
    None where it is zero.

    1 - q^e is -prod_{d | e} Phi_d for e > 0 and q^e prod_{d | -e} Phi_d for
    e < 0, and [n] = prod_{d | n, d > 1} Phi_d for n >= 1.  The Phi_d are
    distinct irreducibles of Z[q, 1/q] and its units are +-q^k, so two
    forms are equal iff their contents are (Lang, Algebra, VI 3).  A zero
    numerator atom makes the form zero; the compiles refuse a zero
    denominator atom.
    """
    if closed.kind == "zero":
        return None
    sign, power, phis = closed.sign, closed.shift, {}

    def count(e: int, side: int, low: int = 1):
        for d in range(low, e + 1):
            if e % d == 0:
                phis[d] = phis.get(d, 0) + side

    for runs, side in ((closed.num, 1), (closed.den, -1)):
        for e in (c + s * j for c, s, length in runs for j in range(length)):
            if e == 0:
                return None
            sign, power = (-sign, power) if e > 0 else (sign, power + side * e)
            count(abs(e), side)
    if closed.n_multiplier:
        count(n, 1, low=2)
    return sign, power, {d: v for d, v in phis.items() if v}


def _sums(summand: ConcreteSummand, bound: int, right) -> tuple:
    """The (summand, bound) of every sum in a statement: the left one, and
    ``right`` too unless it is a closed form."""
    return ((summand, bound),) + (() if isinstance(right, ConcreteClosedForm) else (right,))


def select_branch(branches, what: str, **names):
    """The first of ``branches`` whose ``when`` holds at ``names``: the one
    branch selector of closed forms and p-adic right sides.  When none
    applies it raises SpecError "no <what> applies at <names>"."""
    for branch in branches:
        if branch.when == "True" or eval_bool(branch.when, **names):
            return branch
    raise SpecError(f"no {what} applies at " + ", ".join(f"{k}={v}" for k, v in names.items()))


def resolve_bound(expr: str, **names) -> int:
    """The truncation bound ``expr`` at ``names``; a negative one is out of its domain."""
    bound = eval_int(expr, **names)
    if bound < 0:
        raise SpecError(f"negative truncation bound {bound}")
    return bound


def concretize_closed_form(
    branches: tuple[ClosedFormBranch, ...], n: int, d: Optional[int]
) -> ConcreteClosedForm:
    names = {"n": n, "d": d}
    branch = select_branch(branches, "closed-form branch", **names)
    if branch.kind == "zero":
        return ConcreteClosedForm(kind="zero")
    num, den = (tuple((eval_int(f.exp, **names), eval_int(f.step, **names), eval_int(f.length, **names))
                      for f in side) for side in (branch.num, branch.den))
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

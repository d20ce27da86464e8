"""Exact p-adic arithmetic at finite precision and the q -> 1 checks.

Works modulo p^m throughout: valuations of rationals, classical rising
factorials, the Morita Gamma function computed by its defining product over
an integer representative, and the verification driver comparing an exact
rational truncated sum against a residue right side in the valuation sense
(v_p(LHS - lift(RHS)) >= m is independent of the chosen lift).

The defining product of Gamma_p runs over the integers below a
representative r < p^m, and it is taken a whole block of p at a time: the
p - 1 integers bp < j < (b+1)p multiply to F(bp) with
F(x) = (x+1)(x+2)...(x+p-1), and (bp)^m == 0 mod p^m, so F truncated below
x^m gives every block in O(m) (Cohen, Number Theory II, GTM 240, 11.5).
A sweep then costs O(p^(m-1) m + p m) steps instead of O(p^m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

from .engine import CaseResult, case_result
from .exprs import eval_fraction, eval_int
from .qobjects import SpecError, resolve_bound, select_branch
from .registry import CaseDefinition, PadicRhsBranch, RealSumSpec


@dataclass(frozen=True)
class PadicContext:
    """Odd prime p and working precision p^m."""

    p: int
    m: int

    def __post_init__(self):
        if self.p < 3 or not is_odd_prime(self.p):
            raise ValueError(f"context prime must be an odd prime, got {self.p}")
        if self.m < 1:
            raise ValueError("precision exponent must be >= 1")

    @property
    def modulus(self) -> int:
        return self.p ** self.m


@dataclass(frozen=True)
class PadicResidue:
    context: PadicContext
    value: int

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.context.modulus)


def is_odd_prime(n: int) -> bool:
    if n < 3 or n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def padic_valuation(x: Fraction, p: int) -> float:
    """v_p(x); +inf for zero.  Negative when p divides the denominator."""
    if x == 0:
        return math.inf
    v = 0
    num = abs(x.numerator)
    while num % p == 0:
        num //= p
        v += 1
    den = x.denominator
    while den % p == 0:
        den //= p
        v -= 1
    return v


def rising_factorial(x: Fraction, k: int) -> Fraction:
    """(x)_k = x (x+1) ... (x+k-1); empty product for k = 0."""
    if k < 0:
        raise SpecError(f"negative rising-factorial length {k}")
    out = Fraction(1)
    for j in range(k):
        out *= x + j
    return out


def _representative(x: Fraction, ctx: PadicContext) -> int:
    """The integer in [0, p^m) congruent to x; requires x p-integral."""
    mod = ctx.modulus
    if x.denominator % ctx.p == 0:
        raise SpecError(f"{x} is not p-integral at p={ctx.p}")
    return (x.numerator % mod) * pow(x.denominator, -1, mod) % mod


def _block_coefficients(ctx: PadicContext) -> list[int]:
    """d_0 .. d_(m-1) with (bp+1)(bp+2)...(bp+p-1) == sum_k d_k b^k mod p^m
    for every integer b: the coefficients c_k of F(x) = (x+1)...(x+p-1)
    below x^m, times p^k."""
    p, m, mod = ctx.p, ctx.m, ctx.modulus
    coeffs = [1] + [0] * (m - 1)
    for i in range(1, p):
        coeffs = [(i * c + (coeffs[k - 1] if k else 0)) % mod for k, c in enumerate(coeffs)]
    return [c * p ** k % mod for k, c in enumerate(coeffs)]


def padic_gamma_many(xs: Sequence[Fraction], ctx: PadicContext) -> list[PadicResidue]:
    """Morita Gamma at several p-integral arguments with one shared product
    sweep: Gamma_p(r) = (-1)^r * prod of j for 0 < j < r, p !| j, reduced
    mod p^m, where r is the representative of x.  Continuity of Gamma_p
    makes the value mod p^m depend only on r mod p^m.

    The sweep visits the sorted representatives in turn, one integer at a
    time except where a whole block bp < j < (b+1)p lies below r: that
    block enters as one value of _block_coefficients, by Horner in b.
    """
    reps = [_representative(x, ctx) for x in xs]
    order = sorted(set(reps))
    p, mod = ctx.p, ctx.modulus
    block = _block_coefficients(ctx)[::-1]
    values: dict[int, int] = {}
    product = 1
    j = 1
    for r in order:
        while j < r:
            if j % p == 0 and j + p <= r:
                value = 0
                for d in block:
                    value = value * (j // p) + d
                product = product * value % mod
                j += p
            else:
                if j % p:
                    product = product * j % mod
                j += 1
        values[r] = (-product if r % 2 else product) % mod
    return [PadicResidue(ctx, values[r]) for r in reps]


# ---------------------------------------------------------------------------
# registry-driven verification
# ---------------------------------------------------------------------------

def real_partial_sums(spec: RealSumSpec, bound: int, p: Optional[int] = None) -> list[Fraction]:
    """S_0 .. S_bound, the exact partial sums of the real series described
    by ``spec`` (a 'sum' spec; its expressions may name the prime p)."""
    if spec.kind != "sum":
        raise ValueError("real_partial_sums needs a 'sum' spec")
    m = eval_int(spec.prefactor[0], p=p)
    r = eval_int(spec.prefactor[1], p=p)
    geo = eval_fraction(spec.geometric_base, p=p)
    bases = [(eval_fraction(base, p=p), power) for base, power in spec.rising]
    sums = []
    total = Fraction(0)
    term_rising = [Fraction(1)] * len(bases)
    factorial = Fraction(1)
    geo_pow = Fraction(1)
    for k in range(bound + 1):
        if k:
            for i, (base, _) in enumerate(bases):
                term_rising[i] *= base + (k - 1)
            factorial *= k
            geo_pow *= geo
        term = Fraction(m * k + r)
        for i, (_, power) in enumerate(bases):
            term *= term_rising[i] ** power
        term /= geo_pow * factorial ** spec.factorial_power
        total += term
        sums.append(total)
    return sums


def rising_ratio_value(spec: RealSumSpec | PadicRhsBranch, p: int) -> Fraction:
    """p^p_power * prod (x)_L / prod (y)_L, exact: a rising-ratio left side
    or right-side branch, whose num and den are (x, L) pairs."""
    out = Fraction(p) ** spec.p_power
    for base, length in spec.num:
        out *= rising_factorial(eval_fraction(base, p=p), eval_int(length, p=p))
    for base, length in spec.den:
        out /= rising_factorial(eval_fraction(base, p=p), eval_int(length, p=p))
    return out


def _rhs_value(branch: PadicRhsBranch, p: int, threshold: int):
    """Either ("exact", Fraction) or ("residue", int lift)."""
    if branch.kind == "zero":
        return "exact", Fraction(0)
    if branch.kind == "rising_ratio":
        return "exact", Fraction(branch.sign) * rising_ratio_value(branch, p)
    if branch.kind == "gamma_ratio":
        ctx = PadicContext(p, threshold)
        args = [eval_fraction(b, p=p) for b in branch.num] + [eval_fraction(b, p=p) for b in branch.den]
        values = padic_gamma_many(args, ctx)
        mod = ctx.modulus
        lift = 1
        for residue in values[: len(branch.num)]:
            lift = lift * residue.value % mod
        for residue in values[len(branch.num):]:
            lift = lift * pow(residue.value, -1, mod) % mod
        lift = branch.sign * p ** branch.p_power * lift
        return "residue", lift
    raise ValueError(f"unknown right-side kind {branch.kind!r}")


def verify_padic_case(case: CaseDefinition, p: int) -> CaseResult:
    """One q -> 1 instance: v_p(LHS - RHS) >= threshold, exact arithmetic.

    For exact-rational right sides the achieved valuation is reported
    exactly; for Gamma_p residues it is capped at the threshold because the
    excess depends on the choice of lift.  A value that is out of its
    domain at this p (a condition dividing by zero, a negative bound or
    length, a Gamma_p argument that is not p-integral) is an obstruction.
    """
    done = partial(case_result, case, {"p": p}, strategy="padic")
    if not is_odd_prime(p):
        return done("skipped", detail="p is not an odd prime")
    threshold = case.threshold
    try:
        if not case.applies(p=p):
            return done("skipped", detail="residue condition not satisfied")
        if case.real_lhs.kind == "sum":
            lhs = real_partial_sums(case.real_lhs, resolve_bound(case.padic_bound, p=p), p=p)[-1]
        else:
            lhs = rising_ratio_value(case.real_lhs, p)
        mode, rhs = _rhs_value(select_branch(case.padic_rhs, "p-adic right side", p=p), p, threshold)
    except SpecError as exc:
        return done("obstruction", detail=str(exc))
    diff = lhs - rhs
    v = padic_valuation(diff, p)
    achieved = None if v == math.inf else int(v)
    if mode == "residue" and achieved is not None:
        achieved = min(achieved, threshold)
    passed = v >= threshold
    detail = f"v_{p}(difference) = {'inf' if achieved is None else achieved}, need >= {threshold}"
    return done("pass" if passed else "fail", valuation=achieved, detail=detail)

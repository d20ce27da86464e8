"""Exact p-adic arithmetic at finite precision and the q -> 1 checks.

Works modulo p^m throughout: valuations of rationals, classical rising
factorials, the Morita Gamma function computed by its defining product over
an integer representative, and the verification driver comparing an exact
rational truncated sum against a residue right side in the valuation sense
(v_p(LHS - lift(RHS)) >= m is independent of the chosen lift).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

from .engine import CaseResult, case_result
from .exprs import eval_bool, eval_fraction, eval_int
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
        raise ValueError("rising factorial length must be nonnegative")
    out = Fraction(1)
    for j in range(k):
        out *= x + j
    return out


def _representative(x: Fraction, ctx: PadicContext) -> int:
    """The integer in [0, p^m) congruent to x; requires x p-integral."""
    mod = ctx.modulus
    if x.denominator % ctx.p == 0:
        raise ValueError(f"{x} is not p-integral at p={ctx.p}")
    return (x.numerator % mod) * pow(x.denominator, -1, mod) % mod


def padic_gamma_many(xs: Sequence[Fraction], ctx: PadicContext) -> list[PadicResidue]:
    """Morita Gamma at several p-integral arguments with one shared product
    sweep: Gamma_p(r) = (-1)^r * prod of j for 0 < j < r, p !| j, reduced
    mod p^m, where r is the representative of x.  Continuity of Gamma_p
    makes the value mod p^m depend only on r mod p^m.
    """
    reps = [_representative(x, ctx) for x in xs]
    order = sorted(set(reps))
    mod = ctx.modulus
    values: dict[int, int] = {}
    product = 1
    j = 1
    for r in order:
        while j < r:
            if j % ctx.p:
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


def rising_ratio_value(spec: RealSumSpec, p: int) -> Fraction:
    """p^p_power * prod (x)_L / prod (y)_L, exact."""
    out = Fraction(p) ** spec.p_power
    for base, length in spec.num:
        out *= rising_factorial(eval_fraction(base, p=p), eval_int(length, p=p))
    for base, length in spec.den:
        out /= rising_factorial(eval_fraction(base, p=p), eval_int(length, p=p))
    return out


def _rhs_branch(branches, p: int) -> PadicRhsBranch:
    for branch in branches:
        if branch.when == "True" or eval_bool(branch.when, p=p):
            return branch
    raise ValueError(f"no p-adic right side applies at p={p}")


def _rhs_value(branch: PadicRhsBranch, p: int, threshold: int):
    """Either ("exact", Fraction) or ("residue", int lift)."""
    if branch.kind == "zero":
        return "exact", Fraction(0)
    if branch.kind == "rising_ratio":
        spec = RealSumSpec(kind="rising_ratio", num=branch.num, den=branch.den,
                           p_power=branch.p_power)
        return "exact", Fraction(branch.sign) * rising_ratio_value(spec, p)
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
    excess depends on the choice of lift.
    """
    done = partial(case_result, case, {"p": p}, strategy="padic")
    if not is_odd_prime(p):
        return done("skipped", detail="p is not an odd prime")
    if not case.applies(p=p):
        return done("skipped", detail="residue condition not satisfied")

    threshold = case.threshold
    if case.real_lhs.kind == "sum":
        bound = eval_int(case.padic_bound, p=p)
        lhs = real_partial_sums(case.real_lhs, bound, p=p)[-1]
    else:
        lhs = rising_ratio_value(case.real_lhs, p)

    branch = _rhs_branch(case.padic_rhs, p)
    mode, rhs = _rhs_value(branch, p, threshold)
    diff = lhs - Fraction(rhs) if mode == "exact" else lhs - rhs
    v = padic_valuation(diff, p)
    achieved = None if v == math.inf else int(v)
    if mode == "residue" and achieved is not None:
        achieved = min(achieved, threshold)
    passed = v >= threshold
    detail = f"v_{p}(difference) = {'inf' if achieved is None else achieved}, need >= {threshold}"
    return done("pass" if passed else "fail", valuation=achieved, detail=detail)

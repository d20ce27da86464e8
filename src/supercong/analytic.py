"""Double-precision confirmation of the infinite identities.

Everything here is numeric confirmation, not proof: the q-identities and
the quadratic summation are evaluated on both sides in binary64 with a
relative-residual acceptance, the pi-series are summed exactly in rational
arithmetic (then floated) with Richardson extrapolation covering the one
series whose terms only decay like 1/k^2, and the q-Gamma limit is checked
for monotone convergence along q -> 1^-.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Optional, Sequence

from .engine import CaseResult, case_result
from .exprs import eval_fraction, eval_int
from .padic import real_partial_sums
from .qobjects import ConcreteSummand, concretize_summand
from .registry import CaseDefinition

DEFAULT_RAHMAN_PARAMS = (1.0 / 3.0, 1.0 / 5.0, 1.0 / 7.0)
_TAIL_EPS = 1e-17
_HARD_CAP = 800


def q_product_infinite(c: float, s: float, q: float, tol: float = 1e-15) -> float:
    """prod_{j>=0} (1 - q^(c+js)), truncated once |q^(c+js)| < tol."""
    if not abs(q) < 1:
        raise ValueError("|q| must be below 1 for infinite products")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return _base_product_infinite(q ** c, q ** s, tol)


def _base_product_infinite(x: float, step_q: float, tol: float = 1e-15) -> float:
    """prod_{j>=0} (1 - x * step_q^j) for a numeric base x."""
    out = 1.0
    term = x
    while abs(term) >= tol:
        out *= 1.0 - term
        term *= step_q
    return out


def _summand_series(concrete: ConcreteSummand, q: float) -> float:
    """Sum the q-series described by a summand spec at numeric q.

    Tail policy: stop after three consecutive terms below _TAIL_EPS relative
    to the partial sum, with a hard cap.
    """
    total = 0.0
    num_run = [1.0] * len(concrete.num)
    den_run = [1.0] * len(concrete.den)
    small = 0
    one_minus_q = 1.0 - q
    for k in range(_HARD_CAP + 1):
        if k:
            for i, f in enumerate(concrete.num):
                num_run[i] *= (1.0 - q ** f.exponent_at(k - 1)) ** f.power
            for i, f in enumerate(concrete.den):
                den_run[i] *= (1.0 - q ** f.exponent_at(k - 1)) ** f.power
        t = concrete.prefactor_index(k)
        term = (1.0 - q ** t) / one_minus_q
        for value in num_run:
            term *= value
        for value in den_run:
            term /= value
        term *= q ** concrete.exponent(k)
        total += term
        small = small + 1 if abs(term) < _TAIL_EPS * max(1.0, abs(total)) else 0
        if small >= 3:
            break
    return total


@dataclass
class IdentityCheck:
    lhs: float
    rhs: float
    residual: float
    passed: bool


def _product_spec_value(case: CaseDefinition, q: float) -> float:
    rp = case.rhs_product
    base = eval_int(rp.base)
    num, den = (math.prod(q_product_infinite(eval_int(e), base, q) for e in side)
                for side in (rp.num, rp.den))
    return rp.sign * num / den


def rahman_lhs(q: float, a: float, b: float, d: float) -> float:
    """The quadratic-summation series at numeric parameters."""
    total = 0.0
    run = 1.0  # product of all k-indexed factors
    small = 0
    for k in range(_HARD_CAP + 1):
        if k:
            j = k - 1
            run *= (1.0 - a * q ** (2 * j)) * (1.0 - (q * a / (b * d)) * q ** j)
            run *= (1.0 - b * q ** j) * (1.0 - d * q ** j)
            run /= (1.0 - q ** k) * (1.0 - q * b * d * q ** (2 * j))
            run /= (1.0 - (a * q * q / b) * q ** (2 * j)) * (1.0 - (a * q * q / d) * q ** (2 * j))
        term = (1.0 - a * q ** (3 * k)) / (1.0 - a) * run * q ** ((k * k + k) // 2)
        total += term
        small = small + 1 if abs(term) < _TAIL_EPS * max(1.0, abs(total)) else 0
        if small >= 3:
            break
    return total


def rahman_rhs(q: float, a: float, b: float, d: float, perturb: bool = False) -> float:
    """Infinite-product side; ``perturb`` swaps b and d in exactly one factor
    (a deliberately broken variant used as a negative control)."""
    q2 = q * q
    first_num = q * (d if perturb else b)
    num = (
        _base_product_infinite(a * q2, q2)
        * _base_product_infinite(first_num, q2)
        * _base_product_infinite(q * d, q2)
        * _base_product_infinite(a * q2 / (b * d), q2)
    )
    den = (
        _base_product_infinite(q, q2)
        * _base_product_infinite(q2 * a / b, q2)
        * _base_product_infinite(q2 * a / d, q2)
        * _base_product_infinite(q * b * d, q2)
    )
    return num / den


def check_identity_numeric(
    case: CaseDefinition,
    q: float,
    params: Optional[dict] = None,
    tol: Optional[float] = None,
    perturb_rhs: bool = False,
) -> IdentityCheck:
    """Evaluate both sides independently; relative residual against tol."""
    if not 0 < abs(q) < 1:
        raise ValueError("identity checks need 0 < |q| < 1")
    tol = tol if tol is not None else case.tol
    if case.builtin == "rahman":
        p = params or {}
        a = p.get("a", DEFAULT_RAHMAN_PARAMS[0])
        b = p.get("b", DEFAULT_RAHMAN_PARAMS[1])
        d = p.get("d", DEFAULT_RAHMAN_PARAMS[2])
        lhs = rahman_lhs(q, a, b, d)
        rhs = rahman_rhs(q, a, b, d, perturb=perturb_rhs)
    else:
        concrete = concretize_summand(case.summand, None)
        lhs = _summand_series(concrete, q)
        rhs = _product_spec_value(case, q)
    residual = abs(lhs - rhs) / max(1.0, abs(rhs))
    return IdentityCheck(lhs=lhs, rhs=rhs, residual=residual, passed=residual < tol)


# ---------------------------------------------------------------------------
# pi-series with exact partial sums
# ---------------------------------------------------------------------------

def pi_target(name: str) -> float:
    g34 = math.gamma(0.75)
    if name == "two_sqrt2_over_sqrtpi_gamma34_sq":
        return 2.0 * math.sqrt(2.0) / (math.sqrt(math.pi) * g34 * g34)
    if name == "neg_sqrt_2pi_over_2_gamma34_sq":
        return -math.sqrt(2.0 * math.pi) / (2.0 * g34 * g34)
    raise ValueError(f"unknown pi-series target {name!r}")


def richardson_extrapolate(partials: Sequence[Fraction], order: int) -> Fraction:
    """Neville extrapolation of S_k to k -> inf on nodes 1/(k+1), exact.

    Uses the last ``order``+1 partial sums; appropriate when the remainder
    has an asymptotic expansion in 1/k (true for the algebraically
    convergent series here).
    """
    pts = [
        (Fraction(1, len(partials) - order + i), partials[len(partials) - order - 1 + i])
        for i in range(order + 1)
    ]
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    for level in range(1, order + 1):
        for i in range(order + 1 - level):
            xi, xj = xs[i], xs[i + level]
            ys[i] = (xi * ys[i + 1] - xj * ys[i]) / (xi - xj)
    return ys[0]


@dataclass
class PiCheck:
    partial_sum: float
    accelerated: float
    target: float
    gap: float
    gap_raw: float
    passed: bool


def check_pi_formula(case: CaseDefinition, n_terms: int, tol: Optional[float] = None) -> PiCheck:
    """Partial sum vs the Gamma-oracle constant.

    The reported gap extrapolates the exact partial-sum sequence when the
    raw tail has not collapsed yet (terms ~ 1/k^2 leave a ~1/N raw gap that
    no desk-scale N closes directly); the raw gap is reported alongside and
    must shrink with N.
    """
    if n_terms < 0:
        raise ValueError("need at least the k = 0 term")
    tol = tol if tol is not None else case.tol
    target = pi_target(case.target)
    partials = real_partial_sums(case.real_lhs, n_terms)
    raw = partials[-1]
    gap_raw = abs(float(raw) - target)
    if n_terms >= 12 and abs(partials[-1] - partials[-6]) > Fraction(1, 10 ** 13):
        order = min(14, n_terms // 3)
        accelerated = richardson_extrapolate(partials, order)
    else:
        accelerated = raw
    gap = abs(float(accelerated) - target)
    return PiCheck(
        partial_sum=float(raw),
        accelerated=float(accelerated),
        target=target,
        gap=gap,
        gap_raw=gap_raw,
        passed=gap < tol,
    )


# ---------------------------------------------------------------------------
# q-Gamma limit
# ---------------------------------------------------------------------------

@dataclass
class GammaLimitCheck:
    x: float
    values: list[float]
    gaps: list[float]
    decreasing: bool


def _log_base_product(x: float, step_q: float, tol: float = 1e-18) -> float:
    """log prod (1 - x * step_q^j); in log space because the raw products
    underflow near q = 1 (the Euler product shrinks like exp(-c/(1-q)))."""
    out = 0.0
    term = x
    while abs(term) >= tol:
        out += math.log1p(-term)
        term *= step_q
    return out


def check_gamma_limit(x: float, q_sequence: Sequence[float]) -> GammaLimitCheck:
    """(q;q)_inf/(q^x;q)_inf (1-q)^(1-x) along q -> 1^-; gaps to Gamma(x)
    must shrink."""
    if x <= 0:
        raise ValueError("the limit check needs x > 0")
    values = []
    for q in q_sequence:
        if not 0 < q < 1:
            raise ValueError("q sequence must sit inside (0, 1)")
        log_value = (
            _log_base_product(q, q)
            - _log_base_product(q ** x, q)
            + (1.0 - x) * math.log(1.0 - q)
        )
        values.append(math.exp(log_value))
    gamma_x = math.gamma(x)
    gaps = [abs(v - gamma_x) for v in values]
    decreasing = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    return GammaLimitCheck(x=x, values=values, gaps=gaps, decreasing=decreasing)


# ---------------------------------------------------------------------------
# harness driver
# ---------------------------------------------------------------------------

def verify_analytic_case(case: CaseDefinition, params: dict, tol: Optional[float] = None) -> CaseResult:
    done = partial(case_result, case, params, strategy="numeric")
    if case.family == "analytic_identity":
        check = check_identity_numeric(case, params["q"], tol=tol)
        return done(
            "pass" if check.passed else "fail",
            residual=check.residual,
            detail=f"lhs={check.lhs!r} rhs={check.rhs!r}",
        )
    if case.family == "pi_series":
        check = check_pi_formula(case, params["N"], tol=tol)
        return done(
            "pass" if check.passed else "fail",
            residual=check.gap,
            detail=(
                f"partial={check.partial_sum!r} accelerated={check.accelerated!r} "
                f"target={check.target!r} raw_gap={check.gap_raw!r}"
            ),
        )
    if case.family == "gamma_limit":
        worst = 0.0
        failures = []
        for x_expr in case.x_values:
            x = float(eval_fraction(x_expr))
            check = check_gamma_limit(x, case.q_values)
            worst = max(worst, check.gaps[-1])
            if not check.decreasing:
                failures.append(x_expr)
        if failures:
            return done("fail", residual=worst, detail=f"gaps not decreasing at x in {failures}")
        return done("pass", residual=worst, detail="gaps strictly decreasing toward Gamma(x)")
    raise ValueError(f"not an analytic case: {case.id}")

"""Verification engine for the symbolic (q-side) statements.

A case instance with modulus M = prod Phi_m^e_m is checked one cyclotomic
factor at a time: the Phi_m^e_m are pairwise coprime and monic, so M
divides a polynomial iff each of them does.  For each m the check runs by
exact arithmetic modulo Phi_m^(e_m + c_m), cross-multiplied, so no
polynomial is ever inverted.  Every atom 1 - q^e and bracket [t] that Phi_m
divides enters divided by Phi_m (q^e - 1 is squarefree, so it divides at
most once) and its valuation is counted instead; c_m is the largest pole
order of a term or of the closed form at Phi_m, usually 0.  With the
stripped denominators W and RD' units modulo Phi_m,
S == R (mod Phi_m^e) holds iff Phi_m^c W RD' (S - R) == 0 (mod Phi_m^(e+c)),
which stays correct where individual terms have poles at Phi_m (naive
term-by-term inversion would falsely obstruct there).

With E = e_m + c_m, the sums are built in the lift Z[q]/((q^m - 1)^E):
Phi_m^E divides the sparse (q^m - 1)^E, so reducing modulo it is a ring
map onto Z[q]/(Phi_m^E), and it folds a coefficient in O(E) where the
dense Phi_m^E costs O(deg): m coefficients at a time for E >= 2, and for
E = 1, where q^m == 1, by one addition of the two halves of a list of at
most 2m coefficients (a product of two reduced elements) or by one strided
sum per residue of a longer one.  The cross-multiplied difference
Phi_m^c W RD' (S - R) is one Horner state: it starts at the right side's
numerator, negated, the numerator product starts at its denominator, and
each step multiplies the state by the step's denominator atoms and adds
its term, so the left side's denominator product is never formed and no
cross product of two dense elements is taken at the end.  Only the final
test, one monic division per power of a, reduces modulo Phi_m^E itself.
Atoms enter one at a time, each stripped and reduced once to at most
E + 1 terms; a product takes one row per nonzero coefficient of the
sparser factor, copying the first and adding the rest (a monomial factor
is one shifted copy), so multiplying by an atom costs linear time and one
list pass, and a bracket [t] is multiplied in by running sums.

Fast paths run over plain integer coefficient lists (every modulus here is
monic with integer coefficients, so remainders stay integral).  One loop,
``_congruence_holds``, decides every lane's cyclotomic part over the
modulus's whole cyclotomic support; where a sum carries the parameter a it
runs with coefficients in Z[a] (``_ParamRing``): the lift and Phi_m^E are
free of a, so each power of a is summed in place and reduced alone, and the
check is exact with no evaluation at a.  Every q-lane decides its
cyclotomic part through ``_cyclotomic_verdict``, and a failure of any of
them is classified by one routine, ``_classify``: both sides over explicit
full denominators, read once into integer lists per power of a, one
cross-multiplied difference, cyclotomic valuations by one pass of exact
divisions per cyclotomic (Phi_m is monic and free of a, so no field is
needed), and the exact residue of the difference as witness, folded through
the lift before the final reduction.  ``oracle_congruence`` feeds it a
statement's sum and its right side, a closed form or a second sum; it is
also the independent second route the tests check the fast path against.
``verify_q`` turns every q and q_pair instance into a result: it compiles
the statement once and runs one leg per pairwise coprime factor of the
modulus on it, the a = q^(+-n) specializations and the cyclotomic verdict.
An a = q^(+-n) leg decides its sum by one Horner pass started at the
telescoped product; a second, unfused pass runs only for a failure's
witness.
A spec value out of its domain raises SpecError (ExpressionError and
DegenerateFactor are ones), which it reports as an obstruction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain
from math import comb, lcm
from typing import Optional

from .exprs import eval_int
from .polys import LaurentPoly, poly_divrem, poly_gcd, residue_reduce
from .paramfield import ParamRational
from .qobjects import (
    ConcreteClosedForm,
    ConcreteSummand,
    DegenerateFactor,
    SpecError,
    atom,
    bracket,
    concretize_closed_form,
    concretize_summand,
    cyclotomic,
    modulus_from_support,
    modulus_support,
    one_minus_q_power,
    q_bracket,
    q_integer,
    resolve_bound,
)
from .registry import CaseDefinition, ProductSpec


@dataclass
class CaseResult:
    case_id: str
    kind: str
    family: str
    params: dict
    status: str                      # pass | fail | skipped | obstruction | error
    strategy: str
    observe: bool = False
    witness: Optional[object] = None
    witness_digest: Optional[str] = None
    valuation: Optional[int] = None
    residual: Optional[float] = None
    elapsed: float = 0.0
    detail: str = ""
    flags: tuple = ()

    def to_dict(self, include_timing: bool = True) -> dict:
        return {
            "id": self.case_id,
            "kind": self.kind,
            "family": self.family,
            "params": dict(sorted(self.params.items())),
            "status": self.status,
            "strategy": self.strategy,
            "observe": self.observe,
            "witness_digest": self.witness_digest,
            "valuation": self.valuation,
            "residual": self.residual,
            "elapsed": round(self.elapsed, 6) if include_timing else 0.0,
            "detail": self.detail,
            "flags": list(self.flags),
        }


def _digest_witness(witness) -> Optional[str]:
    if witness is None:
        return None
    return hashlib.sha256(repr(witness).encode()).hexdigest()[:16]


def case_result(case: CaseDefinition, params: dict, status: str, strategy: str,
                witness=None, **fields) -> CaseResult:
    """The result of ``case`` at ``params``, the one place results are made.

    Identity, observe mode and flags come from the case and the digest is
    that of ``witness``.  ``fields`` sets valuation, residual or detail;
    ``elapsed`` stays 0 until ``harness.execute_job``, which times every
    lane call, sets it.
    """
    return CaseResult(
        case_id=case.id,
        kind=case.kind,
        family=case.family,
        params=params,
        status=status,
        strategy=strategy,
        observe=case.observe,
        witness=witness,
        witness_digest=_digest_witness(witness),
        flags=case.flags,
        **fields,
    )


# ---------------------------------------------------------------------------
# integer-coefficient ring helpers
# ---------------------------------------------------------------------------

def _imul(a: list, b: list) -> list:
    """a * b as a new list, one row per nonzero coefficient x of the sparser
    factor: O(len) for an atom or a bracket, schoolbook for two dense
    factors.  The first row is copied into the zero output (b scaled by x),
    so only the rows after it are added, and a monomial is that one copy,
    shifted; a zero factor, even an untrimmed [0], gives []."""
    if len(b) - b.count(0) < len(a) - a.count(0):
        a, b = b, a
    rows = [(i, x) for i, x in enumerate(a) if x]
    if not rows:
        return []
    (i, x), width = rows[0], len(b)
    first = b if x == 1 else [x * v for v in b]
    if len(rows) == 1:
        return [0] * i + first   # a monomial: one shifted, scaled copy
    out = [0] * (len(a) + width - 1)
    out[i:i + width] = first
    for i, x in rows[1:]:
        window = out[i:i + width]
        if x == 1:
            out[i:i + width] = [u + v for u, v in zip(window, b)]
        elif x == -1:
            out[i:i + width] = [u - v for u, v in zip(window, b)]
        else:
            out[i:i + width] = [u + x * v for u, v in zip(window, b)]
    return out


def _trimmed(coeffs: list) -> list:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _monic_divmod(a: list, m: list) -> tuple[list, list]:
    """(quotient, remainder) of the integer polynomial a by the monic
    integer polynomial m, both with no trailing zeros."""
    rem, dm = list(a), len(m) - 1
    terms = [(j, c) for j, c in enumerate(m[:dm]) if c]
    quo = [0] * max(len(a) - dm, 0)
    for i in range(len(a) - 1, dm - 1, -1):
        c = rem[i]
        if c:
            base = i - dm
            quo[base] = c
            for j, x in terms:
                rem[base + j] -= c * x
    return _trimmed(quo), _trimmed(rem[:dm])


def _int_poly(p: LaurentPoly) -> list:
    if p.low != 0 or any(c.denominator != 1 for c in p.coeffs):
        raise ValueError(f"expected a plain integer polynomial, got {p!r}")
    return [int(c) for c in p.coeffs]


class _Ring:
    """Shift-tracked arithmetic modulo Phi_m^e, or in Z[q, 1/q] when e is 0:
    elements are (coeffs, shift), representing coeffs(q) * q^shift.

    For e >= 1, coeffs are kept reduced modulo the sparse multiple
    L = (q^m - 1)^e = sum_j C(e, j) (-1)^(e - j) q^(mj), which is monic of
    degree me.  Z[q] -> Z[q]/(L) -> Z[q]/(Phi_m^e) are ring maps and q is a
    unit in both, so every sum and product computed here maps to the one
    modulo Phi_m^e; only ``vanishes`` reduces modulo ``modulus``, the
    dense Phi_m^e itself.  An element that is zero here is zero modulo
    Phi_m^e, but not conversely.  The fold only adds and scales by
    integers, so it reduces coefficients of any exact type; ``_classify``
    uses it alone, with no ``modulus``, to fold a witness modulo
    (q^N - 1)^E.
    """

    def __init__(self, modulus: Optional[list] = None, m: int = 1, e: int = 0):
        self.m = modulus
        self.step = m
        self.top = m * e
        # the coefficients of q^0, q^m, ..., q^(m(e - 1)) in L
        self.lift = [comb(e, j) * (-1) ** (e - j) for j in range(e)]

    def _reduce(self, coeffs: list) -> list:
        """coeffs modulo L; the list itself is folded, so callers pass one
        of their own.  Where q^m == 1 (e = 1) a list of at most 2m
        coefficients folds by one addition of its two halves, and a longer
        one, such as a zero-padded upshift, by one strided sum per residue;
        for e >= 2 the top m coefficients fold at a time."""
        step, top = self.step, self.top
        if len(coeffs) <= top or not self.lift:
            return _trimmed(coeffs)
        if len(self.lift) == 1:
            # q^m == 1: coefficient i is the sum of those at i + m*K, the
            # two halves added once when K is at most 1
            if len(coeffs) <= 2 * step:
                return _trimmed([u + v for u, v in zip(coeffs, coeffs[step:])]
                                + coeffs[len(coeffs) - step:step])
            return _trimmed([sum(coeffs[i::step]) for i in range(step)])
        # q^(top + i) == -sum_j lift[j] q^(mj + i): fold the top m
        # coefficients at a time; each lands at least m places lower
        hi = len(_trimmed(coeffs))
        while hi > top:
            lo = max(hi - step, top)
            block = coeffs[lo:hi]
            del coeffs[lo:]
            for j, c in enumerate(self.lift):
                base = lo - top + step * j
                window = coeffs[base:base + len(block)]
                coeffs[base:base + len(block)] = [u - c * v for u, v in zip(window, block)]
            hi = lo
        return _trimmed(coeffs)

    def of(self, coeffs: list, shift: int = 0) -> tuple[list, int]:
        return self._reduce(list(coeffs)), shift

    one = property(lambda self: ([1], 0))

    def mul(self, x, y):
        return self._reduce(_imul(x[0], y[0])), x[1] + y[1]

    def mul_bracket(self, x, t: int):
        """x * [t] for t != 0 by running sums, in O(len + |t|):
        coefficient j of x * (1 + ... + q^(t-1)) is x[j-t+1] + ... + x[j]."""
        coeffs, shift = x
        if t < 0:   # [t] = -q^t [-t]
            coeffs, shift, t = [-c for c in coeffs], shift + t, -t
        sums = list(accumulate(coeffs + [0] * (t - 1), initial=0))
        return self._reduce([b - a for a, b in zip([0] * (t - 1) + sums, sums[1:])]), shift

    def add(self, x, y):
        s = min(x[1], y[1])
        cx = self._upshift(x[0], x[1] - s)
        cy = self._upshift(y[0], y[1] - s)
        if len(cx) < len(cy):
            cx, cy = cy, cx
        return _trimmed([u + v for u, v in zip(cx, cy)] + cx[len(cy):]), s

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def neg(self, x):
        return [-c for c in x[0]], x[1]

    def shift(self, x, k):
        return x[0], x[1] + k

    def _upshift(self, coeffs, k):
        if not coeffs or k == 0:
            return coeffs
        return self._reduce([0] * k + coeffs)

    def is_zero(self, x) -> bool:
        """x is zero here (sufficient, not necessary, for zero mod Phi_m^e)."""
        return not x[0]

    def vanishes(self, x) -> bool:
        """x == 0 modulo Phi_m^e, decided by the one reduction modulo
        ``modulus`` (in Z[q, 1/q] where there is none)."""
        return not (x[0] if self.m is None else _monic_divmod(x[0], self.m)[1])

    def same_ratio(self, num1, den1, num2, den2) -> bool:
        """num1/den1 == num2/den2, decided cross-multiplied."""
        return self.vanishes(self.sub(self.mul(num1, den2), self.mul(num2, den1)))


class _ParamRing:
    """The ring ``base`` (a _Ring) with coefficients in Z[a]: ({i: coeffs},
    shift) stands for sum_i a^i coeffs(q) q^shift, no part zero.  The lift
    (q^m - 1)^e and Phi_m^e are monic and free of a, so reducing acts on
    each power of a alone, and an element vanishes modulo Phi_m^e iff every
    part does.  So all but ``mul`` work part by part through the base ring;
    ``mul`` sums the products of the parts into each power of a in place,
    then reduces each sum once.  No operation writes into a list of its
    operands."""

    def __init__(self, base: _Ring):
        self.base = base

    one = property(lambda self: ({0: [1]}, 0))
    shift, is_zero = _Ring.shift, _Ring.is_zero

    def _each(self, x, op):
        """op, a base-ring map moving every shift alike, on each part."""
        parts, shift = {}, x[1]
        for i, coeffs in x[0].items():
            coeffs, shift = op((coeffs, x[1]))
            if coeffs:
                parts[i] = coeffs
        return parts, shift

    def of(self, coeffs, shift: int = 0):
        """An element from its parts, or from the one list of its a^0 part."""
        parts = coeffs if isinstance(coeffs, dict) else {0: coeffs}
        return self._each((parts, shift), lambda x: self.base.of(*x))

    def mul(self, x, y):
        """x * y; y may be the bare (coeffs, shift) that _Strip.power
        returns.  Each part of the product is summed in place in the first
        list _imul made for it, a list of its own, and reduced once."""
        out, y = {}, y if isinstance(y[0], dict) else self.of(*y)
        for i, c in x[0].items():
            for j, d in y[0].items():
                p = _imul(c, d)
                acc = out.setdefault(i + j, p)
                if acc is not p:
                    acc[:len(p)] = [u + v for u, v in zip(acc, p)] + p[len(acc):]
        return {k: r for k, p in out.items() if (r := self.base._reduce(p))}, x[1] + y[1]

    def mul_bracket(self, x, t: int):
        return self._each(x, lambda p: self.base.mul_bracket(p, t))

    def add(self, x, y):
        parts = {i: self.base.add((x[0].get(i, []), x[1]), (y[0].get(i, []), y[1]))[0]
                 for i in x[0].keys() | y[0].keys()}
        return {i: c for i, c in parts.items() if c}, min(x[1], y[1])

    def neg(self, x):
        return self._each(x, self.base.neg)

    def vanishes(self, x) -> bool:
        """x == 0 modulo Phi_m^e: every part is."""
        return not any(_monic_divmod(coeffs, self.base.m)[1] for coeffs in x[0].values())


# ---------------------------------------------------------------------------
# one cyclotomic factor of the modulus at a time
# ---------------------------------------------------------------------------

def _divides(m: int, e: int) -> bool:
    """Phi_m | 1 - q^e, and for m >= 2 also Phi_m | [e].  q^e - 1 is the
    squarefree product of the Phi_d with d | e, so Phi_m divides it once
    when m | e and not at all otherwise.  A zero atom (e = 0) is left as it
    is."""
    return e != 0 and e % m == 0


class _Strip:
    """Cancels Phi_m from a cross-multiplied sum decided modulo
    Phi_m^(e + c).

    Every atom 1 - q^e and bracket [t] that Phi_m divides enters divided by
    Phi_m, and its valuation is counted instead.  A term of valuation v
    then enters multiplied by Phi_m^(c + v): c is the largest pole order
    (_pole_order), so the power is never negative, and a term whose power
    is at least e + c vanishes modulo Phi_m^(e + c) and is dropped.
    ``powers`` is [Phi_m^0, ..., Phi_m^(e + c)].
    """

    def __init__(self, m: int, c: int, powers: list):
        self.m = m
        self.c = c
        self.phi = powers[1]
        self.powers = powers[:-1]

    def power(self, v: int):
        """Phi_m^(c + v) as a ring element, or None where it vanishes."""
        i = self.c + v
        if i < 0:
            raise ArithmeticError(f"a term of valuation {v} exceeds the pole order {self.c}")
        return (self.powers[i], 0) if i < len(self.powers) else None


def _stripped(ring, x: tuple, e: Optional[int], strip: Optional[_Strip]) -> tuple:
    """The atom x = 1 - q^e or [e], given as integer (coeffs, shift), as an
    element of ``ring`` reduced once, and the number of Phi_m cancelled from
    it: (x / Phi_m, 1) where ``strip`` cancels Phi_m, else (x, 0).  e is
    None for a parametric atom, which is never divisible."""
    if strip is not None and e is not None and _divides(strip.m, e):
        quo, rem = _monic_divmod(x[0], strip.phi)
        if rem:
            raise ArithmeticError(f"inexact division by {strip.phi!r}: remainder {rem!r}")
        return ring.of(quo, x[1]), 1
    return ring.of(*x), 0


def _term_valuations(summand: ConcreteSummand, bound: int, m: int) -> list:
    """The Phi_m-valuation of every nonzero term k <= bound, from the
    exponents alone (parametric factors are units modulo Phi_m)."""
    num = [f for f in summand.num if not f.param]
    den = [f for f in summand.den if not f.param]
    vals, v = [], 0
    for k in range(bound + 1):
        if k:
            if any(f.exponent_at(k - 1) == 0 for f in num):
                break  # a zero numerator atom: every later term vanishes
            v += sum(f.power for f in num if _divides(m, f.exponent_at(k - 1)))
            v -= sum(f.power for f in den if _divides(m, f.exponent_at(k - 1)))
        t = summand.prefactor_index(k)
        if t:
            vals.append(v + _divides(m, t))
    return vals


def _pole_order(m: int, closed: Optional[ConcreteClosedForm], n: int, sums) -> int:
    """c = max(0, -min_k v_k, v(RD) - v(RN)) at Phi_m over the terms of
    every (summand, bound) in ``sums`` and the closed form."""
    c = max([0] + [-v for summand, bound in sums for v in _term_valuations(summand, bound, m)])
    if closed is not None and closed.kind == "ratio":
        v_num = sum(_divides(m, a + s * j) for a, s, length in closed.num for j in range(length))
        v_den = sum(_divides(m, a + s * j) for a, s, length in closed.den for j in range(length))
        c = max(c, v_den - v_num - (closed.n_multiplier and _divides(m, n)))
    return c


def _phi_powers(m: int, top: int) -> list:
    """[Phi_m^0, ..., Phi_m^top] as plain integer coefficient lists."""
    phi = _int_poly(cyclotomic(m))
    powers = [[1]]
    for _ in range(top):
        powers.append(_imul(powers[-1], phi))
    return powers


def _factor_rings(support: dict, closed: Optional[ConcreteClosedForm], n: int, *sums):
    """(ring, strip) for each Phi_m^e of the modulus, the ring deciding
    modulo Phi_m^(e + c) and computing in the lift Z[q]/((q^m - 1)^(e + c))
    (see _Ring).

    The Phi_m^e are pairwise coprime and monic, so a polynomial is
    divisible by their product iff it is divisible by each one.  Phi_m is
    cancelled (strip, see _Strip) only where a denominator atom of some
    (summand, bound) in ``sums`` or of the closed form carries it;
    elsewhere no term has a pole at Phi_m, c = 0, strip is None and the
    sparse atoms enter as they are.  A term that strip drops as a multiple
    of Phi_m^(e + c) is zero in the final reduction, so the lift changes
    no verdict.
    """
    closed_den = closed.den if closed is not None else ()
    for m in sorted(support):
        den_exponents = chain(
            (f.exponent_at(j) for summand, bound in sums for f in summand.den
             if not f.param for j in range(bound)),
            (a + s * j for a, s, length in closed_den for j in range(length)),
        )
        if any(_divides(m, e) for e in den_exponents):
            c = _pole_order(m, closed, n, sums)
            powers = _phi_powers(m, support[m] + c)
            yield _Ring(powers[-1], m, support[m] + c), _Strip(m, c, powers)
        else:
            yield _Ring(_phi_powers(m, support[m])[-1], m, support[m]), None


# ---------------------------------------------------------------------------
# fast cross-multiplied sweep of one truncated sum
# ---------------------------------------------------------------------------

def _avatar(param: str, a) -> tuple:
    """(x, y) of the avatar x - y q^e of a factor carrying ``param`` at the
    parameter value a: 1 - q^e stays, 1 - a q^e stays, and 1 - q^e / a
    becomes a - q^e; the stripped 1/a units cancel between numerator and
    denominator because the registry keeps them balanced."""
    return {"": (1, 1), "aq": (1, a), "q_div_a": (a, 1)}[param]


def _free_factor(f, j: int):
    """The j-th factor of the Pochhammer f: 1 - q^e as it is, and an avatar
    x - y q^e (x, y of degree at most 1 in a) split into its a^0 and a^1
    parts, an element for _ParamRing."""
    if not f.param:
        return atom(f.exponent_at(j))
    (x0, y0), (x1, y1) = _avatar(f.param, 0), _avatar(f.param, 1)
    low, shift = atom(f.exponent_at(j), x0, y0)
    return {0: low, 1: atom(f.exponent_at(j), x1 - x0, y1 - y0)[0]}, shift


def _horner_sum_int(summand: ConcreteSummand, bound: int, ring: _Ring,
                    strip: Optional[_Strip] = None, factor=_free_factor, right=None):
    """Returns (SS, Dacc) with SS = sum_k N_k prod_{j>k} D_j and
    Dacc = prod_j D_j, both as shift-tracked ring elements; given the right
    side ``right`` = (RN, RD), returns (SS RD - RN Dacc, None) instead.

    The k-th exact term is N_k / prod_{j<=k} D_j, so the true sum S equals
    SS / Dacc; comparisons happen cross-multiplied.  The one state h is
    multiplied by each denominator atom and gains each term.  Started at
    -RN, with the numerator product started at RD, it ends as the
    cross-multiplied difference itself, SS RD - RN Dacc, and no Dacc is
    formed.  ``factor(f, j)`` gives the j-th factor of the Pochhammer f as
    a ring element (coeffs, shift); for a factor without the parameter it
    must be 1 - q^(f.exponent_at(j)).  With ``strip``, SS and Dacc are
    those of Phi_m^c S with Phi_m cancelled from every atom:
    SS = sum_k Phi_m^(c + v_k) N'_k prod_{j>k} D'_j.
    """

    def stripped(f, j):
        return _stripped(ring, factor(f, j), None if f.param else f.exponent_at(j), strip)

    pnum, h, dacc = ((ring.one, ring.of([], 0), ring.one) if right is None
                     else (right[1], ring.neg(right[0]), None))
    v = 0   # valuation of the numerator product minus that of the denominators
    for k in range(bound + 1):
        if k:
            # one atom at a time: a reduced atom has at most E + 1 terms
            for f in summand.num:
                x, dv = stripped(f, k - 1)
                v += dv * f.power
                for _ in range(f.power):
                    pnum = ring.mul(pnum, x)
            for f in summand.den:
                x, dv = stripped(f, k - 1)
                v -= dv * f.power
                for _ in range(f.power):
                    h = ring.mul(h, x)
                    if dacc is not None:
                        dacc = ring.mul(dacc, x)
        t = summand.prefactor_index(k)
        if not t or ring.is_zero(pnum):
            continue  # the term is zero
        vb = strip is not None and _divides(strip.m, t)
        term = (ring.mul(pnum, _stripped(ring, bracket(t), t, strip)[0]) if vb
                else ring.mul_bracket(pnum, t))
        if strip is not None:
            scale = strip.power(v + vb)
            if scale is None:
                continue  # divisible by Phi_m^(e + c): zero in the final reduction
            term = ring.mul(term, scale)
        h = ring.add(h, ring.shift(term, summand.exponent(k)))
    return h, dacc


def _closed_form_sides_int(closed: ConcreteClosedForm, n: int, ring: _Ring,
                           strip: Optional[_Strip] = None):
    """RN (with sign, [n] multiplier and q-shift folded in) and RD; with
    ``strip``, those of Phi_m^c R with Phi_m cancelled from every atom."""
    if closed.kind == "zero":
        return ring.of([], 0), ring.one

    def atoms(lengths):
        return ((atom(a + s * j), a + s * j) for a, s, length in lengths for j in range(length))

    rn, rd, v = ring.one, ring.one, 0
    for x, e in chain(atoms(closed.num), [(bracket(n), n)] if closed.n_multiplier else []):
        x, dv = _stripped(ring, x, e, strip)
        rn, v = ring.mul(rn, x), v + dv
    for x, e in atoms(closed.den):
        x, dv = _stripped(ring, x, e, strip)
        rd, v = ring.mul(rd, x), v - dv
    if strip is not None:
        scale = strip.power(v)
        rn = ring.mul(rn, scale) if scale is not None else ring.of([], 0)
    rn = ring.shift(rn, closed.shift)
    if closed.sign < 0:
        rn = ring.neg(rn)
    return rn, rd


def _sums(summand: ConcreteSummand, bound: int, right) -> tuple:
    """The (summand, bound) of every sum in a statement: the left one, and
    ``right`` too unless it is a closed form."""
    return ((summand, bound),) + (() if isinstance(right, ConcreteClosedForm) else (right,))


def _congruence_holds(summand: ConcreteSummand, bound: int, right, support: dict,
                      n: int) -> bool:
    """The truncated sum == ``right``, a closed form or a second
    (summand, bound), mod the modulus of cyclotomic support ``support``, one
    factor of it at a time (stops at the first disagreement).  Where a sum
    carries the parameter a, every ring is over Z[a] (_ParamRing) with the
    parametric factors as their avatars: they are units modulo Phi_m over
    Q(a), and cancelling Phi_m from the plain atoms adds no degree in a.
    In each ring the left sum's Horner state starts at the right side
    (RN, RD), the closed form's or the second sum's (SS, Dacc), and ends as
    the cross-multiplied difference, which must vanish."""
    sums = _sums(summand, bound, right)
    closed = right if len(sums) == 1 else None
    parametric = any(f.param for s, _ in sums for f in s.num + s.den)
    for ring, strip in _factor_rings(support, closed, n, *sums):
        ring = _ParamRing(ring) if parametric else ring
        other = (_closed_form_sides_int(closed, n, ring, strip) if closed is not None
                 else _horner_sum_int(*right, ring, strip))
        if not ring.vanishes(_horner_sum_int(summand, bound, ring, strip, right=other)[0]):
            return False
    return True


# ---------------------------------------------------------------------------
# exact rational-function oracle (independent slow route)
# ---------------------------------------------------------------------------

def _oracle_parts(p: LaurentPoly, low: int) -> dict:
    """p / q^low (low <= p.low) over Z[a]: one integer coefficient list
    from q^0 per power of a, none zero.  Raises ArithmeticError at a
    coefficient outside Z[a]."""
    parts, pad = {}, p.low - low
    for k, c in enumerate(p.coeffs, pad):
        if isinstance(c, ParamRational):
            if c.den != 1:
                raise ArithmeticError(f"coefficient {c!r} is not in Z[a]")
            terms = enumerate(c.num.coeffs, c.num.low)
        else:
            terms = ((0, c),)
        for i, x in terms:
            if x.denominator != 1:
                raise ArithmeticError(f"coefficient {c!r} is not in Z[a]")
            if x:
                parts.setdefault(i, [0] * (pad + len(p.coeffs)))[k] = int(x)
    return {i: _trimmed(coeffs) for i, coeffs in parts.items()}


def _parts_muladd(acc: dict, x: dict, y: dict, sign: int = 1) -> dict:
    """acc + sign * x * y over Z[a][q], schoolbook over the nonzero
    coefficients of x; the lists of acc are updated in place."""
    for i, c in x.items():
        for j, d in y.items():
            out = acc.setdefault(i + j, [])
            out.extend([0] * (len(c) + len(d) - 1 - len(out)))
            for k, u in enumerate(c):
                if u:
                    u *= sign
                    out[k:k + len(d)] = [s + u * v for s, v in zip(out[k:k + len(d)], d)]
    return {i: coeffs for i, coeffs in acc.items() if _trimmed(coeffs)}


def _count_divisions(parts: dict, phi: list, limit: Optional[int] = None,
                     keep: Optional[int] = None) -> tuple[int, dict]:
    """(v, parts / phi^min(v, keep)), where v counts the exact divisions of
    the Z[a][q] element ``parts`` by the monic phi in Z[q], stopping at
    ``limit``; without ``keep``, parts / phi^v.  phi is free of a, so a
    division acts on each part alone and is exact iff every part's
    remainder is zero."""
    v, kept = 0, parts
    while any(map(any, parts.values())) and (limit is None or v < limit):
        divided = {i: _monic_divmod(coeffs, phi) for i, coeffs in parts.items()}
        if any(rem for _, rem in divided.values()):
            break
        v, parts = v + 1, {i: quo for i, (quo, _) in divided.items() if quo}
        if keep is None or v <= keep:
            kept = parts
    return v, kept


def _from_parts(parts: dict, parametric: bool) -> LaurentPoly:
    """The polynomial from q^0 with these parts, over Q(a) for a
    ``parametric`` statement and Q otherwise: witnesses are digested by
    repr, where a constant -1/3 prints as ((-1/3)) over Q(a), (-1/3) over Q."""
    if not parametric:
        if parts.keys() - {0}:
            raise ArithmeticError("a power of a in a statement without the parameter")
        return LaurentPoly.from_int_coeffs(parts.get(0, []))
    width = max(parts, default=0) + 1
    return LaurentPoly([
        ParamRational(LaurentPoly.from_int_coeffs(
            [parts[i][k] if k < len(parts.get(i, ())) else 0 for i in range(width)]))
        for k in range(max(map(len, parts.values()), default=0))
    ])


def _term_parts(summand: ConcreteSummand, bound: int) -> tuple[LaurentPoly, LaurentPoly]:
    """The sum written over the shared full denominator, by direct products.

    Term denominators are nested in k, so den_bound serves as the common
    denominator; term k gets the explicit factor tail den_bound / den_k,
    assembled as a suffix product rather than by division.  Parametric
    factors enter through their polynomial avatars.  No modular reduction
    and no gcds anywhere: this is the independent slow route.
    """
    bundles = []
    for j in range(bound):
        bundle = LaurentPoly.one()
        for f in summand.den:
            for _ in range(f.power):
                bundle = bundle * _param_avatar(f, j)
        bundles.append(bundle)
    tails = [LaurentPoly.one()] * (bound + 1)
    for k in range(bound - 1, -1, -1):
        tails[k] = bundles[k] * tails[k + 1]
    d_full = tails[0]
    total = LaurentPoly.zero()
    running_num = LaurentPoly.one()
    for k in range(bound + 1):
        if k:
            for f in summand.num:
                for _ in range(f.power):
                    running_num = running_num * _param_avatar(f, k - 1)
        num_k = (q_bracket(summand.prefactor_index(k)) * running_num).shift(summand.exponent(k))
        total = total + num_k * tails[k]
    return total, d_full


def _closed_form_polys(closed: ConcreteClosedForm, n: int) -> tuple[LaurentPoly, LaurentPoly]:
    """(RN, RD) with sign, [n] multiplier and q-shift folded into RN."""
    if closed.kind == "zero":
        return LaurentPoly.zero(), LaurentPoly.one()
    rn = LaurentPoly.one()
    for c, s, length in closed.num:
        for j in range(length):
            rn = rn * one_minus_q_power(c + s * j)
    rd = LaurentPoly.one()
    for c, s, length in closed.den:
        for j in range(length):
            rd = rd * one_minus_q_power(c + s * j)
    if closed.n_multiplier:
        rn = rn * q_integer(n)
    rn = rn.shift(closed.shift)
    if closed.sign < 0:
        rn = -rn
    return rn, rd


def _classify(left: tuple, right: tuple, support: dict, parametric: bool = False):
    """left - right modulo M = prod Phi_m^support[m], for two fractions
    (num, den) of explicit polynomials over Z[a]: the one failure route of
    every lane.

    Both fractions are read once into integer parts, one per power of a
    (_oracle_parts), and cross-multiplied there as DIFF / DEN.  It vanishes
    modulo M iff v_m(DIFF) - v_m(DEN) >= support[m] at every m; a negative
    difference of valuations is a pole, where the congruence is not even
    well posed.  Phi_m is monic in Z[q] and free of a, so exact division by
    it acts on each part alone and needs no field or gcd (von zur Gathen &
    Gerhard, Modern Computer Algebra, ch. 2).  One pass per m: DEN is
    divided by Phi_m until a remainder appears, DIFF at most
    v_m(DEN) + support[m] times (nothing reads more), and the pair keeps
    going as DIFF / Phi_m^v_m(DEN) and DEN / Phi_m^v_m(DEN); the Phi_m are
    pairwise coprime, so the later valuations are those of the undivided
    pair.

    Returns None when DIFF is identically zero, else (poles, fails, witness,
    scaled): poles lists (m, order) and fails lists (m, valuation).  Only a
    failure without poles has a witness: with the Phi_m^v_m(DEN) cancelled,
    DEN is a unit modulo M and the witness is the exact residue of
    DIFF / DEN, over Q(a) for a ``parametric`` statement.  Modulo an M of
    degree above 6 that inversion would swell over Q(a), so a parametric
    witness is then the cancelled DIFF modulo the monic M, part by part, a
    unit multiple of the residue, and ``scaled`` is True.  The cancelled
    sides are first folded modulo the sparse multiple (q^N - 1)^E of M (N
    the lcm of the m, E the largest power; see _Ring); the remainder modulo
    M is unique, so the witness is the same.
    """
    sides = (*left, *right)
    low = min(p.low for p in sides)
    num_l, den_l, num_r, den_r = (_oracle_parts(p, low) for p in sides)
    del left, right, sides   # the parts replace the Q(a) polynomials
    diff = _parts_muladd(_parts_muladd({}, num_l, den_r), num_r, den_l, -1)
    if not diff:
        return None
    den = _parts_muladd({}, den_l, den_r)
    # DIFF / DEN = q^lead diff / den, diff starting at its lowest term
    lead = min(next(k for k, c in enumerate(coeffs) if c) for coeffs in diff.values())
    diff = {i: coeffs[lead:] for i, coeffs in diff.items()}
    poles, fails = [], []
    for m in sorted(support):
        phi = _int_poly(cyclotomic(m))
        order, den = _count_divisions(den, phi)
        v, diff = _count_divisions(diff, phi, order + support[m], keep=order)
        v -= order
        if v < 0:
            poles.append((m, -v))
        elif v < support[m]:
            fails.append((m, v))
    if poles or not fails:
        return poles, fails, None, False
    lift = _Ring(None, lcm(*support), max(support.values()))
    diff, den = ({i: folded for i, coeffs in parts.items() if (folded := lift.of(coeffs)[0])}
                 for parts in (diff, den))
    modulus = modulus_from_support(support)
    if parametric and modulus.span > 6:
        monic = _int_poly(modulus)
        return poles, fails, _from_parts({i: _monic_divmod(coeffs, monic)[1]
                                          for i, coeffs in diff.items()}, True), True
    return poles, fails, residue_reduce(_from_parts(diff, parametric).shift(lead),
                                        _from_parts(den, parametric), modulus), False


def oracle_congruence(
    summand: ConcreteSummand,
    bound: int,
    right,
    support: dict,
    n: int,
) -> tuple[str, Optional[LaurentPoly], str]:
    """Brute-force verdict: the whole sum over one common denominator minus
    ``right``, a closed form or a second (summand, bound) over its own,
    classified by ``_classify``.

    Returns (status, witness, detail).
    """
    sums = _sums(summand, bound, right)
    other = _term_parts(*right) if len(sums) > 1 else _closed_form_polys(right, n)
    verdict = _classify(_term_parts(summand, bound), other, support,
                        parametric=any(f.param for s, _ in sums for f in s.num + s.den))
    if verdict is None:
        return "pass", None, "difference is identically zero"
    poles, fails, witness, scaled = verdict
    if poles:
        detail = "; ".join(
            f"pole of order {order} at the order-{m} cyclotomic" for m, order in poles
        )
        return "obstruction", None, detail + ": congruence ill-posed"
    if not fails:
        return "pass", None, "difference divisible by the modulus"
    detail = "; ".join(
        f"valuation {v} < {support[m]} at the order-{m} cyclotomic" for m, v in fails
    )
    return "fail", witness, detail + (" (witness scaled by a unit)" if scaled else "")


# ---------------------------------------------------------------------------
# public verification operations
# ---------------------------------------------------------------------------

def _cyclotomic_verdict(summand: ConcreteSummand, bound: int, right, support: dict,
                        n: int) -> tuple:
    """(strategy, status, witness, detail) of the truncated sum == ``right``,
    a closed form or a second (summand, bound), modulo prod Phi_m^support[m]:
    a zero denominator factor in a term of either sum is an obstruction, the
    per-factor fast check decides, and the oracle runs only to classify a
    failure, with its own texts."""
    if any(f.exponent_at(j) == 0 for s, b in _sums(summand, bound, right) for f in s.den
           if not f.param for j in range(b)):
        return "fast", "obstruction", None, "zero denominator factor in a term"
    if _congruence_holds(summand, bound, right, support, n):
        return "fast", "pass", None, ""
    return ("fast+oracle", *oracle_congruence(summand, bound, right, support, n))


# (modulus factor kind, sign of n in a = q^(+-n), label) of the specialized legs
_SPECIALIZED_LEGS = (("a_minus_qn", 1, "a=q^n"), ("one_minus_a_qn", -1, "a=q^-n"))
_WORST_FIRST = ("obstruction", "fail", "pass")


def verify_q(case: CaseDefinition, params: dict) -> CaseResult:
    """One q or q_pair instance at params["n"] (and "d"), as the harness
    plans it: the one reader of a q record, which compiles its statement
    once, and the one place a q-lane result is made.

    One leg per pairwise coprime factor of the modulus (Guo & Zudilin, Adv.
    Math. 346, 2019), each on the compiled statement: a - q^n and 1 - a q^n
    by ``verify_identity_specialized`` at a = q^(+-n), the cyclotomic part,
    every Phi_m^e, with a free by ``_cyclotomic_verdict``.  A statement
    with the parameter a reports parametric_crt and its worst leg, the
    cyclotomic one labelled "mod Phi_n"; any other reports its one leg as it
    is.  A SpecError is an obstruction; any other exception escapes.
    """
    n, d = params["n"], params.get("d")
    parametric = case.parametric
    out = {"n": n, **({"d": d} if d is not None else {})}
    if case.family == "q" and not parametric:
        out["bound"] = params.get("bound") or case.bounds[0]
    done = partial(case_result, case, out, strategy="parametric_crt" if parametric else "fast")
    legs = []   # (label, status, witness, detail)
    try:
        if not case.applies(n=n, d=d):
            return done("skipped", detail="condition not satisfied")
        support = modulus_support(case.modulus, n)
        sums = ([(side.summand, side.bound) for side in (case.lhs_pair, case.rhs_pair)]
                if case.family == "q_pair" else [(case.summand, out.get("bound", case.bounds[0]))])
        (summand, bound), *rest = [(concretize_summand(spec, d), resolve_bound(expr, n=n, d=d))
                                   for spec, expr in sums]
        specialized = [(sign, label) for kind, sign, label in _SPECIALIZED_LEGS
                       if kind in case.modulus.parametric_kinds()]
        product = _telescoped_form(case.specialized_product, n, d) if specialized else None
        right = rest[0] if rest else concretize_closed_form(case.closed_form, n, d)
        for sign, label in specialized:
            outcome = verify_identity_specialized(summand, bound, product, right, sign * n)
            legs.append((label, "pass" if outcome["equal"] else "fail",
                         outcome["witness"] and outcome["witness"][0], outcome["detail"]))
        if support or not parametric:
            strategy, *verdict = _cyclotomic_verdict(summand, bound, right, support, n)
            legs.append(("mod Phi_n", *verdict))
    except SpecError as exc:
        return done("obstruction", detail=str(exc))
    # the first leg of the worst status decides; no leg at all passes
    _, status, witness, detail = min(legs, key=lambda leg: _WORST_FIRST.index(leg[1]),
                                     default=("", "pass", None, ""))
    if not parametric:
        return done(status, strategy=strategy, witness=witness, detail=detail)
    return done(status, witness=witness, detail="; ".join(
        f"{label}: {s}" + (f" ({note})" if note and s != "pass" else "") for label, s, _, note in legs))


# One verify_q call each: perfbench/tracing.py times each lane by these
# names, and verify_q_case dispatches through them so that every instance
# passes one.  The follow-up to the benchmark refresh (ROADMAP item 1a)
# deletes them and the dispatch.

def verify_congruence(case: CaseDefinition, n: int, d: Optional[int] = None,
                      bound: Optional[str] = None) -> CaseResult:
    return verify_q(case, {"n": n, "d": d, "bound": bound})


def verify_conjecture_pair(case: CaseDefinition, n: int) -> CaseResult:
    return verify_q(case, {"n": n})


def verify_parametric(case: CaseDefinition, n: int, d: Optional[int] = None) -> CaseResult:
    return verify_q(case, {"n": n, "d": d})


# ---------------------------------------------------------------------------
# parametric lane: terminating specializations + cyclotomic leg in a
# ---------------------------------------------------------------------------

def _telescoped_form(sp: ProductSpec, n: int, d: Optional[int]) -> ConcreteClosedForm:
    """The infinite-product right side as the finite ratio it telescopes to.

    Within each residue class mod the base s, numerator and denominator
    exponents pair up smallest with smallest, and
    (q^a; q^s)_inf / (q^b; q^s)_inf is (q^a; q^s)_((b-a)/s) when a <= b and
    1 / (q^b; q^s)_((a-b)/s) otherwise.  A nonpositive numerator exponent
    divisible by s makes the whole product zero; the same situation in the
    denominator is degenerate.
    """
    base = eval_int(sp.base, n=n, d=d)
    if base < 1:
        raise SpecError("product base step must be positive")
    nums = sorted((eval_int(e, n=n, d=d) for e in sp.num), key=lambda e: (e % base, e))
    dens = sorted((eval_int(e, n=n, d=d) for e in sp.den), key=lambda e: (e % base, e))
    if any(b <= 0 and b % base == 0 for b in dens):
        raise DegenerateFactor("infinite product has a vanishing denominator factor")
    if any(a <= 0 and a % base == 0 for a in nums):
        return ConcreteClosedForm(kind="zero")
    if [a % base for a in nums] != [b % base for b in dens]:
        raise SpecError("infinite-product spec does not telescope to a finite form")
    return ConcreteClosedForm(
        kind="ratio",
        sign=sp.sign,
        num=tuple((a, base, (b - a) // base) for a, b in zip(nums, dens) if a < b),
        den=tuple((b, base, (a - b) // base) for a, b in zip(nums, dens) if b < a),
    )


def _witness(ring: _Ring, num1, den1, num2, den2) -> tuple[LaurentPoly, LaurentPoly]:
    """num1/den1 - num2/den2, ratios of Z[q, 1/q] elements, as the normal
    form (num, den) of a reduced rational function: den is plain with a
    nonzero constant term, monic and coprime to num, and num carries all
    monomial content.  The form is unique (von zur Gathen & Gerhard, Modern
    Computer Algebra, ch. 3 and 4.3)."""
    num = LaurentPoly.from_int_coeffs(*ring.sub(ring.mul(num1, den2), ring.mul(num2, den1)))
    den = LaurentPoly.from_int_coeffs(*ring.mul(den1, den2))
    num, den = num.shift(-den.low), den.poly_part()
    g = poly_gcd(num, den)
    (num, num_r), (den, den_r) = poly_divrem(num, g), poly_divrem(den, g)
    if not (num_r.is_zero and den_r.is_zero):
        raise ArithmeticError(f"gcd {g!r} does not divide {num!r} / {den!r}")
    inv = 1 / den.leading
    return num.scale(inv), den.scale(inv)


def verify_identity_specialized(summand: ConcreteSummand, bound: int, product: ConcreteClosedForm,
                                closed: ConcreteClosedForm, shift: int) -> dict:
    """Exact check of the terminating identity at a = q^shift, shift = +-n:
    the sum of ``summand`` to ``bound``, where (a q^c; q^s) becomes
    (q^{c+shift}; q^s) and (q^c / a; q^s) becomes (q^{c-shift}; q^s), must
    equal both the telescoped infinite product ``product`` and the closed
    form ``closed``.

    Returns {"equal": bool, "witness": (num, den) | None, "detail": str}.
    Both are decided in Z[q, 1/q]: the first by one Horner pass started at
    the product's sides, whose state must vanish, the second
    cross-multiplied.  Only a mismatch builds the witness, the difference in
    normal form; for the first, an unfused pass gives the sum's (SS, Dacc).
    """
    offset = {"": 0, "aq": shift, "q_div_a": -shift}
    if any(f.exponent_at(j) + offset[f.param] == 0 for f in summand.den for j in range(bound)):
        raise DegenerateFactor(
            f"denominator factor hits q^0 under the a = q^{shift} specialization")
    ring = _Ring()
    horner = partial(_horner_sum_int, summand, bound, ring,
                     factor=lambda f, j: atom(f.exponent_at(j) + offset[f.param]))
    prod, form = (_closed_form_sides_int(x, abs(shift), ring) for x in (product, closed))
    if not ring.vanishes(horner(right=prod)[0]):
        left, right = horner(), prod
        detail = f"sum at a = q^{'+' if shift > 0 else '-'}n differs from the telescoped product"
    elif not ring.same_ratio(*prod, *form):
        left, right = prod, form
        detail = "telescoped product differs from the closed form"
    else:
        return {"equal": True, "witness": None, "detail": "terminating identity holds"}
    return {"equal": False, "witness": _witness(ring, *left, *right), "detail": detail}


_PARAM_A = ParamRational.generator()


def _param_avatar(f, j: int) -> LaurentPoly:
    """The polynomial stand-in of the j-th factor of f over Q(a).  Plain
    atoms keep Fraction coefficients, which poly_divrem divides exactly."""
    if not f.param:
        return one_minus_q_power(f.exponent_at(j))
    return LaurentPoly(*atom(f.exponent_at(j), *_avatar(f.param, _PARAM_A)))


def verify_q_case(case: CaseDefinition, params: dict) -> CaseResult:
    """Dispatch one q-family instance (used by the harness)."""
    if case.family == "q_pair":
        return verify_conjecture_pair(case, params["n"])
    if case.parametric:
        return verify_parametric(case, params["n"], params.get("d"))
    return verify_congruence(case, params["n"], params.get("d"), bound=params.get("bound"))

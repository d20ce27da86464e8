"""Verification engine for the q-side statements: results, lanes and legs.

The per-factor rings of the fast route are ``ring``; the exact oracle is
``oracle``.  One loop, ``_congruence_holds``, decides every lane's
cyclotomic part over the modulus's whole cyclotomic support; where a sum
carries the parameter a it runs on the sum's ``paired`` view, with
coefficients in Z[b], b = a + 1/a: the lift and Phi_m^E are free of b, so
each power of b is summed in place and reduced alone, and the check is
exact with no evaluation at a.  The
cross-multiplied difference Phi_m^c W RD' (S - R) is one Horner state: it
starts at the right side's numerator, negated, the numerator product starts
at its denominator, and each step multiplies the state by the step's
denominator atoms and adds its term, so the left side's denominator product
is never formed and no cross product of two dense elements is taken at the
end.  Every atom, bracket and term enters as the factor's ring enters it,
so neither the Horner pass nor the closed form's sides knows whether Phi_m
is cancelled.  Every q-lane decides its cyclotomic part through
``_cyclotomic_verdict``, and a failure of any of them is classified by the
oracle.
``verify_q`` turns every q and q_pair instance into a result: it compiles
the statement once and runs one leg per pairwise coprime factor of the
modulus on it, the a = q^(+-n) specializations and the cyclotomic verdict.
The a = q^(+-n) legs build the telescoped product once and decide it equal
to the closed form once, by cyclotomic content; the paired view gives both
legs one specialized sum, which takes one Horner pass started at the
product, and a second, unfused pass runs only for a failure's witness.
A spec value out of its domain raises SpecError (ExpressionError and
DegenerateFactor are ones, and so is an unpaired parametric factor), which
it reports as an obstruction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Optional

from .exprs import eval_int
from .oracle import _witness, oracle_congruence
from .qobjects import (ConcreteClosedForm, ConcreteSummand, DegenerateFactor, SpecError, _sums,
                       atom, bracket, closed_form_content, concretize_closed_form,
                       concretize_summand, modulus_support, paired, resolve_bound, specialize)
from .registry import CaseDefinition, ProductSpec
from .ring import _factor_rings, _ParamRing, _Ring


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

    def to_dict(self) -> dict:
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
            "elapsed": round(self.elapsed, 6),
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
# fast cross-multiplied sweep of one truncated sum
# ---------------------------------------------------------------------------

def _horner_sum_int(summand: ConcreteSummand, bound: int, ring: _Ring, right=None):
    """Returns (SS, Dacc) with SS = sum_k N_k prod_{j>k} D_j and
    Dacc = prod_j D_j, both as shift-tracked ring elements; given the right
    side ``right`` = (RN, RD), returns (SS RD - RN Dacc, None) instead.

    The k-th exact term is N_k / prod_{j<=k} D_j, so the true sum S equals
    SS / Dacc; comparisons happen cross-multiplied.  The one state h is
    multiplied by each denominator atom and gains each term.  Started at
    -RN, with the numerator product started at RD, it ends as the
    cross-multiplied difference itself, SS RD - RN Dacc, and no Dacc is
    formed.  Every atom enters as ``ring`` enters it: in a ring that
    cancels Phi_m, SS and Dacc are those of Phi_m^c S with Phi_m cancelled
    from every atom, SS = sum_k Phi_m^(c + v_k) N'_k prod_{j>k} D'_j.
    """
    pnum, h, dacc = ((ring.one, ring.of([], 0), ring.one) if right is None
                     else (right[1], ring.neg(right[0]), None))
    v = 0   # Phi_m cancelled from the numerator product minus from the denominators
    for k in range(bound + 1):
        if k:
            # one atom at a time: a reduced atom has at most E + 1 terms
            for f in summand.num:
                x, dv = ring.factor(f, k - 1)
                v += dv * f.power
                for _ in range(f.power):
                    pnum = ring.mul(pnum, x)
            for f in summand.den:
                x, dv = ring.factor(f, k - 1)
                v -= dv * f.power
                for _ in range(f.power):
                    h = ring.mul(h, x)
                    if dacc is not None:
                        dacc = ring.mul(dacc, x)
        t = summand.prefactor_index(k)
        if not t or ring.is_zero(pnum):
            continue  # the term is zero
        term, dv = ring.enter_bracket(pnum, t)
        term = ring.scale(term, v + dv)
        if term is None:
            continue  # divisible by Phi_m^(e + c): zero in the final reduction
        h = ring.add(h, ring.shift(term, summand.exponent(k)))
    return h, dacc


def _closed_form_sides_int(closed: ConcreteClosedForm, n: int, ring: _Ring):
    """RN (with sign, [n] multiplier and q-shift folded in) and RD, every
    atom as ``ring`` enters it: in a ring that cancels Phi_m, those of
    Phi_m^c R with Phi_m cancelled from every atom.  A zero numerator atom
    makes RN zero, and no pole order scales a zero RN."""
    if closed.kind == "zero":
        return ring.of([], 0), ring.one

    def atoms(lengths):
        return ((atom(a + s * j), a + s * j) for a, s, length in lengths for j in range(length))

    rn, rd, v = ring.one, ring.one, 0
    for x, e in chain(atoms(closed.num), [(bracket(n), n)] if closed.n_multiplier else []):
        x, dv = ring.enter(x, e)
        rn, v = ring.mul(rn, x), v + dv
    for x, e in atoms(closed.den):
        x, dv = ring.enter(x, e)
        rd, v = ring.mul(rd, x), v - dv
    rn = ring.shift(ring.scale(rn, v) or ring.of([], 0), closed.shift)
    if closed.sign < 0:
        rn = ring.neg(rn)
    return rn, rd


def _congruence_holds(summand: ConcreteSummand, bound: int, right, support: dict,
                      n: int) -> bool:
    """The truncated sum == ``right``, a closed form or a second
    (summand, bound), mod the modulus of cyclotomic support ``support``, one
    factor of it at a time (stops at the first disagreement).  Every sum
    runs as its ``paired`` view; where one carries the parameter a, every
    ring is a _ParamRing over Z[b], b = a + 1/a.  Cancelling Phi_m from the
    plain atoms adds no degree in b.  In each ring the left sum's Horner
    state starts at the right side (RN, RD), the closed form's or the
    second sum's (SS, Dacc), and ends, at the ring's last live term
    (``live``), as the cross-multiplied difference, which must vanish."""
    sums = [(paired(s), b) for s, b in _sums(summand, bound, right)]
    closed = right if len(sums) == 1 else None
    parametric = any(f.param for s, _ in sums for f in s.num + s.den)
    summand, *rest = [s for s, _ in sums]
    for ring in _factor_rings(support, closed, n, *sums):
        ring = _ParamRing(ring) if parametric else ring
        other = (_closed_form_sides_int(closed, n, ring) if closed is not None
                 else _horner_sum_int(rest[0], ring.live[1], ring))
        if not ring.vanishes(_horner_sum_int(summand, ring.live[0], ring, right=other)[0]):
            return False
    return True


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
    at a = q^(+-n) by ``_specialized_legs``, which sums the one specialized
    summand both share once, and the cyclotomic part, every Phi_m^e, with
    a free by ``_cyclotomic_verdict``.  A statement with the parameter a
    reports parametric_crt and its worst leg, the cyclotomic one labelled
    "mod Phi_n"; any other reports its one leg as it is.  A SpecError is an
    obstruction; any other exception escapes.
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
        if specialized:
            signs = [sign for sign, _ in specialized]
            outcomes = _specialized_legs(summand, bound, product, right, n, signs)
            legs += [(label, "fail" if witness else "pass", witness and witness[0], detail)
                     for (_, label), (witness, detail) in zip(specialized, outcomes)]
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


def _specialized_legs(summand: ConcreteSummand, bound: int, product: ConcreteClosedForm,
                      closed: ConcreteClosedForm, n: int, signs):
    """(witness, detail) of the terminating identity at a = q^(sign n) for
    each of ``signs``: sum = telescoped product ``product`` = closed form
    ``closed``, the witness None where both hold, else the first difference
    (num, den) in normal form.  Product = closed form is decided once, by
    cyclotomic content, and only its failure builds the closed form's
    sides.  The summand's ``paired`` view is the same at a = q^n and
    a = q^-n, so it is specialized once, at the first sign, and summed
    once."""
    ring = _Ring()
    sides = _closed_form_sides_int(product, n, ring)
    mismatch = (None if closed_form_content(product, n) == closed_form_content(closed, n)
                else _witness(*sides, *_closed_form_sides_int(closed, n, ring)))
    plain = specialize(paired(summand), bound, signs[0] * n)
    witness = verify_identity_specialized(plain, bound, sides)
    for sign in signs:
        if witness is not None:
            yield witness, f"sum at a = q^{'+-'[sign < 0]}n differs from the telescoped product"
        else:
            yield mismatch, ("telescoped product differs from the closed form" if mismatch
                             else "terminating identity holds")


def verify_identity_specialized(summand: ConcreteSummand, bound: int, product) -> Optional[tuple]:
    """The witness of the sum of the plain ``summand`` (a = q^(+-n) put in
    by ``specialize``) to ``bound`` against the telescoped product's sides
    ``product`` in Z[q, 1/q], or None where they are equal: one Horner pass
    started at them decides, and only a mismatch sums again, unstarted."""
    ring = _Ring()
    if ring.vanishes(_horner_sum_int(summand, bound, ring, right=product)[0]):
        return None
    return _witness(*_horner_sum_int(summand, bound, ring), *product)


def verify_q_case(case: CaseDefinition, params: dict) -> CaseResult:
    """Dispatch one q-family instance (used by the harness)."""
    if case.family == "q_pair":
        return verify_conjecture_pair(case, params["n"])
    if case.parametric:
        return verify_parametric(case, params["n"], params.get("d"))
    return verify_congruence(case, params["n"], params.get("d"), bound=params.get("bound"))

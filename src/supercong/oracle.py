"""The exact oracle: the independent second route, and every witness.

A failure of any q-lane is classified by one routine, ``_classify``: both
sides over explicit full denominators, read once into integer lists per
power of a, one cross-multiplied difference, cyclotomic valuations by one
pass of exact divisions per cyclotomic (Phi_m is monic and free of a, so no
field is needed), and the exact residue of the difference as witness,
folded through the lift of ``ring._Lift`` before the final reduction.
``oracle_congruence`` feeds it a statement's sum and its right side, a
closed form or a second sum; it is also the independent second route the
tests check the fast path against.  The q-lanes' only Fraction and Q(a)
arithmetic is here; of the fast route's kernel it reads only the integer
division and the lift fold.
"""

from __future__ import annotations

from math import lcm
from typing import Optional

from .paramfield import ParamRational
from .polys import LaurentPoly, poly_divrem, poly_gcd, residue_reduce
from .qobjects import ConcreteClosedForm, ConcreteSummand, _avatar, _sums, atom, bracket, cyclotomic
from .ring import _Lift, _monic_divmod, _trimmed


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


def _count_divisions(parts: dict, phi: tuple, limit: Optional[int] = None,
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


def _modulus(support: dict) -> list:
    """M = prod Phi_m^support[m] as integer coefficients from q^0, by
    schoolbook products."""
    out = {0: [1]}
    for m in sorted(support):
        for _ in range(support[m]):
            out = _parts_muladd({}, out, {0: cyclotomic(m)})
    return out[0]


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
        rn = rn * q_bracket(n)
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
    the lcm of the m, E the largest power; see _Lift); the remainder modulo
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
        phi = cyclotomic(m)
        order, den = _count_divisions(den, phi)
        v, diff = _count_divisions(diff, phi, order + support[m], keep=order)
        v -= order
        if v < 0:
            poles.append((m, -v))
        elif v < support[m]:
            fails.append((m, v))
    if poles or not fails:
        return poles, fails, None, False
    lift = _Lift(None, lcm(*support), max(support.values()))
    diff, den = ({i: folded for i, coeffs in parts.items() if (folded := lift.of(coeffs)[0])}
                 for parts in (diff, den))
    modulus = _modulus(support)
    if parametric and len(modulus) - 1 > 6:
        return poles, fails, _from_parts({i: _monic_divmod(coeffs, modulus)[1]
                                          for i, coeffs in diff.items()}, True), True
    return poles, fails, residue_reduce(_from_parts(diff, parametric).shift(lead),
                                        _from_parts(den, parametric),
                                        LaurentPoly.from_int_coeffs(modulus)), False


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


def _witness(ring: _Lift, num1, den1, num2, den2) -> tuple[LaurentPoly, LaurentPoly]:
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


def q_bracket(t: int) -> LaurentPoly:
    """[t] as an exact Laurent polynomial (see ``qobjects.bracket``)."""
    return LaurentPoly.from_int_coeffs(*bracket(t))


def one_minus_q_power(e: int) -> LaurentPoly:
    """1 - q^e as an exact Laurent polynomial (zero when e == 0)."""
    return LaurentPoly.from_int_coeffs(*atom(e))


_PARAM_A = ParamRational.generator()


def _param_avatar(f, j: int) -> LaurentPoly:
    """The polynomial stand-in of the j-th factor of f over Q(a).  Plain
    atoms keep Fraction coefficients, which poly_divrem divides exactly."""
    if not f.param:
        return one_minus_q_power(f.exponent_at(j))
    return LaurentPoly(*atom(f.exponent_at(j), *_avatar(f.param, _PARAM_A)))

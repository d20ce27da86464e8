"""The fast route's integer kernel: one cyclotomic factor at a time.

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
sum per residue of a longer one.  Only the final test, one monic division
per power of a, reduces modulo Phi_m^E itself.  Atoms enter one at a time,
each stripped and reduced once to at most E + 1 terms; a product takes one
row per nonzero coefficient of the sparser factor, copying the first and
adding the rest (a monomial factor is one shifted copy), so multiplying by
an atom costs linear time and one list pass, and a bracket [t] is
multiplied in by running sums.  Everything here runs over plain integer
coefficient lists (every modulus here is monic with integer coefficients,
so remainders stay integral), with coefficients in Z[a] (``_ParamRing``)
where a sum carries the parameter a.
"""

from __future__ import annotations

from itertools import accumulate, chain
from math import comb
from typing import Optional

from .qobjects import ConcreteClosedForm, ConcreteSummand, cyclotomic


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
    phi = list(cyclotomic(m))
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


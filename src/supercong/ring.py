"""The fast route's integer kernel: one cyclotomic factor at a time.

A case instance with modulus M = prod Phi_m^e_m is checked one cyclotomic
factor at a time: the Phi_m^e_m are pairwise coprime and monic, so M
divides a polynomial iff each of them does.  For each m the check runs by
exact arithmetic modulo Phi_m^(e_m + c_m), cross-multiplied, so no
polynomial is ever inverted.  Each factor's ring is the one place that
knows how an atom enters: where a denominator carries Phi_m, every atom
1 - q^e and bracket [t] that Phi_m divides enters divided by Phi_m (q^e - 1
is squarefree, so it divides at most once) and its valuation is counted
instead; c_m is the largest pole order of a term or of the closed form at
Phi_m, usually 0.  With the cancelled denominators W and RD' units modulo
Phi_m,
S == R (mod Phi_m^e) holds iff Phi_m^c W RD' (S - R) == 0 (mod Phi_m^(e+c)),
which stays correct where individual terms have poles at Phi_m (naive
term-by-term inversion would falsely obstruct there).

With E = e_m + c_m, the sums are built modulo a sparse multiple of
Phi_m^E, so reducing is a ring map onto Z[q]/(Phi_m^E) that folds a
coefficient in O(E) where the dense Phi_m^E costs O(deg).  For E = 1 it is
q^m - 1, the cyclic ring (``_Cyclic``): an element keeps at most m
coefficients, a shift is a rotation and a sum one element-wise addition.
For E >= 2 it is (q^m - 1)^E, the lift (``_Ring``), folded m coefficients
at a time.  Only the final test, one monic division per power of b,
reduces modulo Phi_m^E itself.  Atoms enter one at a time, each reduced
once to at most E + 1 terms; a product takes one row per nonzero
coefficient of the sparser factor, copying the first and adding the rest,
so multiplying by an atom costs linear time and one list pass, and a
bracket [t] is multiplied in by running sums.  Everything here runs over
plain integer coefficient lists (every modulus here is monic with integer
coefficients, so remainders stay integral), with coefficients in Z[b],
b = a + 1/a (``_ParamRing``) where a sum carries the parameter a.  Only
the fast route reads this module's rings; the oracle reads its integer
division alone.
"""

from __future__ import annotations

from itertools import accumulate, chain
from math import comb
from typing import Optional

from .qobjects import (ConcreteClosedForm, ConcreteSummand, atom, bracket, closed_form_content,
                       cyclotomic)


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


# ---------------------------------------------------------------------------
# one cyclotomic factor of the modulus at a time
# ---------------------------------------------------------------------------

def _divides(m: int, e: int) -> bool:
    """Phi_m | 1 - q^e, and for m >= 2 also Phi_m | [e].  q^e - 1 is the
    squarefree product of the Phi_d with d | e, so Phi_m divides it once
    when m | e and not at all otherwise.  A zero atom (e = 0) is left as it
    is."""
    return e != 0 and e % m == 0


class _Ring:
    """The ring of one factor Phi_m^e of the modulus, the one place that
    knows how an atom enters a sum (``factor``, ``enter``, ``enter_bracket``)
    and how a term of valuation v is scaled (``scale``).  Elements are
    (coeffs, shift), representing coeffs(q) * q^shift; with e = 0 and no
    ``modulus`` the ring is Z[q, 1/q] itself.

    For e >= 1, coeffs are kept reduced modulo the sparse multiple
    L = (q^m - 1)^e = sum_j C(e, j) (-1)^(e - j) q^(mj), which is monic of
    degree me (``_factor_rings`` builds it for e >= 2).  Z[q] -> Z[q]/(L)
    -> Z[q]/(Phi_m^e) are ring maps and q is a unit in both, so every sum
    and product computed here maps to the one modulo Phi_m^e; only
    ``vanishes`` reduces modulo ``modulus``, the dense Phi_m^e itself.  An
    element that is zero here is zero modulo Phi_m^e, but not conversely.

    Given ``powers`` = [Phi_m^0, ..., Phi_m^(e + c)] it decides modulo
    Phi_m^(e + c) and cancels Phi_m: every atom and bracket that Phi_m
    divides enters divided by it, and a term of valuation v enters times
    Phi_m^(c + v), dropped where that vanishes; c is the largest pole order
    (_pole_order), so the power is never negative.  Without ``powers``
    every atom enters as it is.
    """

    def __init__(self, modulus: Optional[list] = None, m: int = 1, e: int = 0,
                 powers: Optional[list] = None, c: int = 0, live: tuple = ()):
        self.m, self.live, self.step, self.top = modulus, live, m, m * e
        # the coefficients of q^0, q^m, ..., q^(m(e - 1)) in L
        self.lift = [comb(e, j) * (-1) ** (e - j) for j in range(e)]
        self.powers, self.c = powers, c

    def _reduce(self, coeffs: list) -> list:
        """coeffs modulo L, the top m coefficients folded at a time; the
        list itself is folded, so callers pass one of their own."""
        step, top = self.step, self.top
        if len(coeffs) <= top or not self.lift:
            return _trimmed(coeffs)
        # q^(top + i) == -sum_j lift[j] q^(mj + i): each block lands at
        # least m places lower
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
        return self.shift((self._reduce(list(coeffs)), 0), shift)

    one = property(lambda self: ([1], 0))
    _product = staticmethod(_imul)   # the unreduced product of two lists

    def mul(self, x, y):
        return self._reduce(self._product(x[0], y[0])), x[1] + y[1]

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

    def enter(self, x: tuple, e: int):
        """(x / Phi_m, 1) where the ring cancels a Phi_m that divides the
        atom 1 - q^e or bracket [e] x, given as integer (coeffs, shift),
        else (x, 0); the element is reduced once."""
        if self.powers is None or not _divides(self.step, e):
            return self.of(*x), 0
        quo, rem = _monic_divmod(x[0], self.powers[1])
        if rem:
            raise ArithmeticError(f"inexact division by {self.powers[1]!r}: remainder {rem!r}")
        return self.of(quo, x[1]), 1

    def factor(self, f, j: int):
        """The j-th factor 1 - q^e of the plain Pochhammer f, entered."""
        e = f.exponent_at(j)
        return self.enter(atom(e), e)

    def enter_bracket(self, x, t: int):
        """x * [t] and the number of Phi_m cancelled from [t]: by running
        sums unless the ring cancels a Phi_m that divides [t]."""
        if self.powers is not None and _divides(self.step, t):
            return self.mul(x, self.enter(bracket(t), t)[0]), 1
        return self.mul_bracket(x, t), 0

    def scale(self, x, v: int):
        """The term x of valuation v times Phi_m^(c + v), or None where that
        vanishes modulo Phi_m^(e + c); x itself where nothing is cancelled
        or x is zero."""
        if self.powers is None or not x[0]:
            return x
        i = self.c + v
        if i < 0:
            raise ArithmeticError(f"a term of valuation {v} exceeds the pole order {self.c}")
        return self.mul(x, self.of(self.powers[i])) if i < len(self.powers) - 1 else None


class _Cyclic(_Ring):
    """The ring of a factor Phi_m^E with E = 1, built in Z[q]/(q^m - 1),
    where q^m == 1: an element keeps at most m coefficients and the shift 0,
    and ``of`` folds a list and its shift into residues mod m."""

    def _reduce(self, coeffs: list) -> list:
        """coeffs modulo q^m - 1, each one past m added onto its residue, in place."""
        m = self.step
        if len(coeffs) > m:
            for i in [i for i in range(m, len(coeffs)) if coeffs[i]]:
                coeffs[i % m] += coeffs[i]
            del coeffs[m:]
        return _trimmed(coeffs)

    def shift(self, x, k):
        """x q^k: its m coefficients rotated by k mod m."""
        r, m = k % self.step, self.step
        if not (r and x[0]):
            return x[0], 0
        coeffs = x[0] + [0] * (m - len(x[0]))
        return _trimmed(coeffs[m - r:] + coeffs[:m - r]), 0

    def add(self, x, y):
        a, b = sorted((x[0], y[0]), key=len)
        return _trimmed([u + v for u, v in zip(a, b)] + b[len(a):]), 0

    def _product(self, a: list, b: list) -> list:
        """a * b modulo q^m - 1 for reduced a and b, as m coefficients (none
        for a zero factor): the denser b rotated by i for each nonzero a[i]."""
        if len(b) - b.count(0) < len(a) - a.count(0):
            a, b = b, a
        rows = [(i, x) for i, x in enumerate(a) if x]
        m, out = self.step, None
        b = b + [0] * (m - len(b))
        for i, x in rows:
            row = b[m - i:] + b[:m - i]
            if out is None:
                out = row if x == 1 else [x * v for v in row]
            elif x == -1:
                out = [u - v for u, v in zip(out, row)]
            else:
                out = [u + x * v for u, v in zip(out, row)]
        return out or []

    def mul_bracket(self, x, t: int):
        """x * [t] for t != 0: [Km + r] == K (1 + ... + q^(m-1)) + [r] and
        x (1 + ... + q^(m-1)) == sum(x) (1 + ... + q^(m-1)), so coefficient
        j is K sum(x) + x[j-r+1] + ... + x[j], indices mod m."""
        if t < 0:   # [t] = -q^t [-t]
            return self.shift(self.mul_bracket(self.neg(x), -t), t)
        m = self.step
        whole, r = divmod(t, m)
        coeffs = x[0] + [0] * (m - len(x[0]))
        sums = list(accumulate(coeffs + coeffs, initial=0))
        whole *= sums[m]
        return _trimmed([b - a + whole for a, b in zip(sums[m + 1 - r:], sums[m + 1:])]), 0


class _ParamRing(_Ring):
    """The ring ``base``, a lift or a cyclic ring, with coefficients in
    Z[b], b = a + 1/a, for a ``paired`` summand: ({i: coeffs}, shift)
    stands for sum_i b^i coeffs(q) q^shift, no part zero.  The sparse
    modulus and Phi_m^e are monic and free of b, so reducing acts on each
    power of b alone, and an element vanishes modulo Phi_m^e iff every part
    does.  So all but ``mul`` work part by part through the base ring's
    arithmetic; ``mul`` sums the base's products of the parts into each
    power of b in place, then reduces each sum once.  No operation writes
    into a list of its operands.  It takes over the base's state, so atoms
    enter and terms scale as there; only a paired factor enters here."""

    def __init__(self, base: _Ring):
        vars(self).update(vars(base))
        self.base = base

    one = property(lambda self: ({0: [1]}, 0))

    def _each(self, x, op):
        """op, a base-ring map moving every shift alike, on each part; an
        element with no parts has shift 0, as a cyclic base's elements do."""
        parts, shift = {}, 0
        for i, coeffs in x[0].items():
            coeffs, shift = op((coeffs, x[1]))
            if coeffs:
                parts[i] = coeffs
        return parts, shift

    def of(self, coeffs, shift: int = 0):
        """An element from its parts, or from the one list of its b^0 part."""
        parts = coeffs if isinstance(coeffs, dict) else {0: coeffs}
        return self._each((parts, shift), lambda x: self.base.of(*x))

    def factor(self, f, j: int):
        """The j-th factor of the Pochhammer f.  A paired one (param "b"),
        1 - b q^e + q^(2e), enters as its b^0 part 1 + q^(2e) and b^1 part
        -q^e, a unit modulo Phi_m over Q(a), never cancelled."""
        if not f.param:
            return super().factor(f, j)
        e = f.exponent_at(j)
        low = min(0, 2 * e)
        ends = [1] + [0] * (abs(2 * e) - 1) + [1] if e else [2]
        return self.of({0: ends, 1: [0] * (e - low) + [-1]}, low), 0

    def mul(self, x, y):
        """x * y.  Each part of the product is summed in place in the first
        list made for it, a list of its own, and reduced once."""
        out = {}
        for i, c in x[0].items():
            for j, d in y[0].items():
                p = self.base._product(c, d)
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

    def shift(self, x, k):
        return self._each(x, lambda p: self.base.shift(p, k))

    def vanishes(self, x) -> bool:
        """x == 0 modulo Phi_m^e: every part is."""
        return not any(_monic_divmod(coeffs, self.m)[1] for coeffs in x[0].values())


def _term_valuations(summand: ConcreteSummand, bound: int, m: int) -> list:
    """(k, v) for every nonzero term k <= bound, v its Phi_m-valuation, from
    the exponents alone (parametric factors are units modulo Phi_m)."""
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
            vals.append((k, v + _divides(m, t)))
    return vals


def _pole_order(m: int, closed: Optional[ConcreteClosedForm], n: int, walks) -> int:
    """c = max(0, -min_k v_k, -v(R)) at Phi_m over the (k, v_k) of every
    sum's ``walks`` and the closed form R, v(R) read from its cyclotomic
    content (none where R is zero)."""
    content = closed_form_content(closed, n) if closed is not None else None
    v_closed = content[2].get(m, 0) if content is not None else 0
    return max([0, -v_closed] + [-v for walk in walks for _, v in walk])


def _phi_powers(m: int, top: int) -> list:
    """[Phi_m^0, ..., Phi_m^top] as plain integer coefficient lists."""
    phi = list(cyclotomic(m))
    powers = [[1]]
    for _ in range(top):
        powers.append(_imul(powers[-1], phi))
    return powers


def _factor_rings(support: dict, closed: Optional[ConcreteClosedForm], n: int, *sums):
    """One ring for each Phi_m^e of the modulus, deciding modulo
    Phi_m^E, E = e + c, in Z[q]/(q^m - 1) where E = 1 (_Cyclic) and in the
    lift Z[q]/((q^m - 1)^E) otherwise (_Ring).

    The Phi_m^e are pairwise coprime and monic, so a polynomial is
    divisible by their product iff it is divisible by each one.  The ring
    cancels Phi_m only where a denominator atom of some (summand, bound) in
    ``sums`` or of the closed form carries it; elsewhere no term has a pole
    at Phi_m, c = 0 and the sparse atoms enter as they are.  A term the
    ring drops as a multiple of Phi_m^(e + c) is zero in the final
    reduction, so the lift changes no verdict.  Each sum's pass stops at
    ``live``, its last k with v_k < e (or -1): every later term is a
    multiple of Phi_m^e and every later denominator atom enters as a unit
    modulo Phi_m, so the state vanishes iff it vanishes at k.
    """
    closed_den = closed.den if closed is not None else ()
    for m in sorted(support):
        e, c, powers = support[m], 0, None
        walks = [_term_valuations(summand, bound, m) for summand, bound in sums]
        live = tuple(max((k for k, v in walk if v < e), default=-1) for walk in walks)
        den_exponents = chain(
            (f.exponent_at(j) for summand, bound in sums for f in summand.den
             if not f.param for j in range(bound)),
            (a + s * j for a, s, length in closed_den for j in range(length)),
        )
        if any(_divides(m, x) for x in den_exponents):
            c = _pole_order(m, closed, n, walks)
            powers = _phi_powers(m, e + c)
        ring = _Cyclic if e + c == 1 else _Ring
        yield ring((powers or _phi_powers(m, e))[-1], m, e + c, powers, c, live)

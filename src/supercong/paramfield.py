"""Elements of the fraction field Q(a).

These are the coefficients for the free-parameter verification lane: a
polynomial in q whose coefficients are ParamRational values represents an
element of Q(a)[q].  Every arithmetic step reduces by gcd eagerly, which
keeps degree growth bounded at the small parameter sizes this lane runs at.

ParamRational mixes transparently with int and Fraction operands so the
generic polynomial code in ``polys`` works unchanged over Q(a).
"""

from __future__ import annotations

from fractions import Fraction

from .polys import LaurentPoly, poly_divrem, poly_gcd

_ONE = LaurentPoly((Fraction(1),))


def _coerce(value) -> "ParamRational | None":
    if isinstance(value, ParamRational):
        return value
    if isinstance(value, (int, Fraction)):
        return ParamRational(LaurentPoly((Fraction(value),)), _ONE, reduce=False)
    return None


class ParamRational:
    """num(a)/den(a) with Fraction coefficients, den monic, gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = _ONE, *, reduce: bool = True):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in Q(a)")
        if num.low < 0 or den.low < 0:
            raise ValueError("Q(a) elements are built from plain polynomials in a")
        if num.is_zero:
            self.num = num
            self.den = _ONE
            return
        if reduce:
            # cancel the common a-monomial first (a is not a unit here, and
            # poly_gcd deliberately ignores monomial content)
            t = min(num.low, den.low)
            if t:
                num = num.shift(-t)
                den = den.shift(-t)
            if den.span > 0:
                g = poly_gcd(num, den)
                if g.span > 0:
                    num, _ = poly_divrem(num, g)
                    den, _ = poly_divrem(den, g)
        lead = den.leading
        if lead != 1:
            num = num.scale(Fraction(1) / lead)
            den = den.monic()
        self.num = num
        self.den = den

    # -- constructors ---------------------------------------------------

    @classmethod
    def generator(cls) -> "ParamRational":
        """The transcendental a itself."""
        return cls(LaurentPoly((Fraction(0), Fraction(1))), _ONE, reduce=False)

    # -- field arithmetic ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return ParamRational(self.num + other.num, self.den)
        return ParamRational(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return ParamRational(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return ParamRational(LaurentPoly(), _ONE, reduce=False)
        return ParamRational(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "ParamRational":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero in Q(a)")
        return ParamRational(self.den, self.num)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __eq__(self, other) -> bool:
        coerced = _coerce(other)
        if coerced is None:
            return NotImplemented
        return self.num == coerced.num and self.den == coerced.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        num = repr(self.num).replace("q", "a")
        if self.den == _ONE:
            return num
        return f"({num})/({repr(self.den).replace('q', 'a')})"


# ---------------------------------------------------------------------------
# primitive-PRS gcd for polynomials in q over Q(a)
#
# The straightforward Euclidean algorithm over the fraction field suffers
# catastrophic coefficient swell (each remainder step squares the rational
# content).  Clearing denominators and running a primitive pseudo-remainder
# sequence over Q[a] keeps every intermediate a polynomial and strips the
# content after each step, which is the standard cure.
# ---------------------------------------------------------------------------

def clear_denominators(p: LaurentPoly) -> LaurentPoly:
    """Multiply by an a-polynomial so every coefficient has denominator 1.

    The multiplier is a unit of Q(a), so gcd computations are unaffected.
    """
    multiplier = _ONE
    for c in p.coeffs:
        if isinstance(c, ParamRational) and c.den != _ONE:
            g = poly_gcd(multiplier, c.den) if c.den.span > 0 else _ONE
            extra, _ = poly_divrem(c.den, g)
            multiplier = multiplier * extra
    if multiplier == _ONE:
        return p
    scaled = p * ParamRational(multiplier, _ONE, reduce=False)
    return scaled


def _coeff_numerator(c) -> LaurentPoly:
    if isinstance(c, ParamRational):
        if c.den != _ONE:
            raise ValueError("coefficient still has an a-denominator")
        return c.num
    return LaurentPoly((Fraction(c),))


def content_primitive(p: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """(content, primitive part) of a denominator-free poly in q over Q[a]."""
    if p.is_zero:
        return LaurentPoly((Fraction(1),)), p
    content = None
    for c in p.coeffs:
        if c == 0:
            continue
        num = _coeff_numerator(c)
        content = num if content is None else poly_gcd(content, num)
        if content.span == 0:
            content = _ONE
            break
    if content.span == 0:
        return _ONE, p
    inv = ParamRational(_ONE, content, reduce=False)
    return content, p * inv


def pseudo_rem(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """prem(a, b): lead(b)^(span difference + 1) * a reduced by b, staying
    denominator-free the whole way."""
    a = a.poly_part()
    b = b.poly_part()
    lead = b.coeffs[-1]
    while not a.is_zero and a.span >= b.span:
        shift = a.span - b.span
        a = a * lead - LaurentPoly(b.coeffs, shift) * a.coeffs[-1]
    return a


def param_poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd in Q(a)[q] via the primitive pseudo-remainder sequence."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if a.is_zero:
        return b.poly_part().monic()
    if b.is_zero:
        return a.poly_part().monic()
    _, x = content_primitive(clear_denominators(a.poly_part()))
    _, y = content_primitive(clear_denominators(b.poly_part()))
    if x.span < y.span:
        x, y = y, x
    while not y.is_zero:
        r = pseudo_rem(x, y)
        if r.is_zero:
            x, y = y, r
        else:
            _, r = content_primitive(r)
            x, y = y, r
        if not y.is_zero and y.span == 0:
            return LaurentPoly((Fraction(1),))
    return x.monic()

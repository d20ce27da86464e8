"""Dense exact univariate arithmetic: Laurent polynomials, their division
and gcd, and the residue of a quotient modulo a polynomial.

Coefficients are duck typed over an exact field.  Plain ``fractions.Fraction``
coefficients serve the cyclotomic polynomials, the witnesses and the oracle;
``paramfield.ParamRational`` coefficients over Q(a) serve only the oracle, for
statements carrying the free parameter a (the fast routes run on integers).
The integers 0 and 1 act as the additive and multiplicative identities for
either coefficient type, which keeps one implementation serving both.
A rational function is kept by its caller as a (numerator, denominator)
pair; ``poly_gcd`` and ``poly_divrem`` bring one to normal form.

Polynomials are immutable after construction and safe to share across
workers.  Storage is dense: every modulus in this project has degree below
roughly three times the largest checked index, where dense wins on
simplicity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


class NonUnitDenominator(ArithmeticError):
    """A denominator shares a factor with the modulus.

    Raised by residue reduction when the congruence under check is not
    well posed at this modulus.  Carries the offending gcd so callers can
    report the obstruction rather than silently skipping it.
    """

    def __init__(self, gcd: "LaurentPoly"):
        super().__init__(f"denominator shares factor {gcd} with the modulus")
        self.gcd = gcd


class LaurentPoly:
    """c_0 q^low + c_1 q^(low+1) + ... with exact field coefficients.

    Invariants: the first and last stored coefficients are nonzero unless
    the polynomial is zero; the zero polynomial stores no coefficients and
    has ``low == 0``.
    """

    __slots__ = ("low", "coeffs")

    def __init__(self, coeffs: Iterable = (), low: int = 0):
        coeffs = list(coeffs)
        lead = len(coeffs)
        while lead and coeffs[lead - 1] == 0:
            lead -= 1
        del coeffs[lead:]
        trail = 0
        while trail < len(coeffs) and coeffs[trail] == 0:
            trail += 1
        if trail:
            coeffs = coeffs[trail:]
            low += trail
        self.low = low if coeffs else 0
        self.coeffs = tuple(coeffs)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls((Fraction(1),))

    @classmethod
    def from_int_coeffs(cls, coeffs: Sequence[int], low: int = 0) -> "LaurentPoly":
        return cls([Fraction(c) for c in coeffs], low)

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def span(self) -> int:
        """Degree spread: top exponent minus bottom exponent; -1 for zero."""
        return len(self.coeffs) - 1

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def poly_part(self) -> "LaurentPoly":
        """The same coefficients anchored at exponent 0."""
        return LaurentPoly(self.coeffs, 0)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q^k."""
        if self.is_zero:
            return self
        return LaurentPoly(self.coeffs, self.low + k)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        low = min(self.low, other.low)
        top = max(self.low + len(self.coeffs), other.low + len(other.coeffs))
        out = [0] * (top - low)
        for i, c in enumerate(self.coeffs):
            out[self.low - low + i] = c
        for i, c in enumerate(other.coeffs):
            out[other.low - low + i] = out[other.low - low + i] + c
        return LaurentPoly(out, low)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly([-c for c in self.coeffs], self.low)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            if self.is_zero or other.is_zero:
                return LaurentPoly()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return LaurentPoly(out, self.low + other.low)
        # scalar from the coefficient field
        return LaurentPoly([c * other for c in self.coeffs], self.low)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c) -> "LaurentPoly":
        return LaurentPoly([a * c for a in self.coeffs], self.low)

    def monic(self) -> "LaurentPoly":
        if self.is_zero:
            return self
        lead = self.leading
        if lead == 1:
            return self
        return LaurentPoly([c / lead for c in self.coeffs], self.low)

    # -- comparisons ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self.low == other.low and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return self.is_zero
            return self.low == 0 and len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash((self.low, self.coeffs))

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            text = str(c)
            if " " in text or "/" in text:
                text = f"({text})"
            e = self.low + i
            if e == 0:
                parts.append(text)
            elif e == 1:
                parts.append(f"{text}*q")
            else:
                parts.append(f"{text}*q^{e}")
        return " + ".join(parts)


def poly_divrem(a: LaurentPoly, b: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Division with remainder: a = q*b + r, r zero or span(r) < span(b).

    Plain inputs divide classically.  For Laurent inputs, b's monomial
    content (a unit) moves into the quotient and any remaining negative
    anchor of a is factored out front, so reconstruction a = q*b + r is
    exact over the coefficient field either way.
    """
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero:
        return LaurentPoly(), LaurentPoly()
    beta = b.low
    div = b.coeffs
    anchor = min(a.low - beta, 0)
    offset = a.low - beta - anchor
    rem = [0] * offset + list(a.coeffs)
    lead = div[-1]
    n, m = len(rem), len(div)
    if n < m:
        return LaurentPoly(), a
    quo = [0] * (n - m + 1)
    for i in range(n - m, -1, -1):
        c = rem[i + m - 1]
        if c == 0:
            continue
        factor = c / lead
        quo[i] = factor
        for j in range(m):
            rem[i + j] = rem[i + j] - factor * div[j]
    return (
        LaurentPoly(quo, anchor),
        LaurentPoly(rem[: m - 1], anchor + beta),
    )


def _has_field_extension_coeffs(p: LaurentPoly) -> bool:
    return any(not isinstance(c, (int, Fraction)) for c in p.coeffs)


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic gcd of the polynomial parts (q is a unit, so monomial content
    is ignored).

    Fraction coefficients run the plain Euclidean algorithm; Q(a)
    coefficients are routed through the primitive pseudo-remainder sequence
    (the fraction-field Euclid swells catastrophically there).
    """
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if _has_field_extension_coeffs(a) or _has_field_extension_coeffs(b):
        from .paramfield import param_poly_gcd

        return param_poly_gcd(a, b)
    x, y = a.poly_part(), b.poly_part()
    while not y.is_zero:
        _, r = poly_divrem(x, y)
        x, y = y, r.poly_part()
    return x.monic()


def residue_reduce(num: LaurentPoly, den: LaurentPoly, modulus: LaurentPoly) -> LaurentPoly:
    """The residue r of num / den in F[q]/(modulus): r * den == num, and r
    is a plain polynomial of degree below that of the modulus.

    The modulus must be a plain nonconstant polynomial with nonzero constant
    term (every cyclotomic product here qualifies), so q is a unit and
    Laurent num and den reduce too.  As in von zur Gathen & Gerhard, Modern
    Computer Algebra, 4.3: the inverse of den by the extended Euclidean
    algorithm, then one product and one remainder (num and den are reduced
    first, so the product is of two residues).

    Raises NonUnitDenominator when gcd(den, modulus) != 1: the congruence is
    not well posed at this modulus and the caller must report that.
    """
    if modulus.low != 0 or modulus.span < 1:
        raise ValueError("modulus must be a plain nonconstant polynomial with nonzero constant term")
    _, num_r = poly_divrem(num.poly_part(), modulus)
    _, den_r = poly_divrem(den.poly_part(), modulus)
    # extended Euclid on (den_r, modulus), keeping only den_r's cofactor:
    # u * den_r == g modulo the modulus, with g the monic gcd
    r0, r1 = den_r, modulus
    u0, u1 = LaurentPoly.one(), LaurentPoly()
    while not r1.is_zero:
        quo, rem = poly_divrem(r0, r1)
        r0, r1 = r1, rem
        u0, u1 = u1, u0 - quo * u1
    inv = 1 / r0.leading
    g, u = r0.scale(inv), u0.scale(inv)
    if g.span != 0:
        raise NonUnitDenominator(g)
    # g = q^k (the Euclidean algorithm runs over F[q, 1/q]), so
    # u * den == q^(den.low + k) and num / den == num * u * q^-(den.low + k)
    _, r = poly_divrem(num_r * u, modulus)
    r = r.shift(num.low - den.low - g.low)
    # each step up from a negative exponent cancels the lowest coefficient
    # against a multiple q^low * modulus; the span stays below the modulus's
    while r.low < 0:
        r = r - modulus.shift(r.low).scale(r.coeffs[0] / modulus.coeffs[0])
    _, r = poly_divrem(r, modulus)
    return r

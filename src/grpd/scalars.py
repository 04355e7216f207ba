"""Exact scalars: rationals, Gaussian rationals, and square-root comparisons.

Every pass/fail decision in this package reduces to arithmetic in these
types. The only irrational-aware operation is `sqrt_leq`, which decides
square-root inequalities by repeated squaring, so floating point never
enters a verification path.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import DocumentError, _echo, _number

# Fraction("1e999999999") computes 10**999999999; decimal exponents are held
# to the digit limit Python itself puts on integer literals
_MAX_EXPONENT = 4300

_PLAIN = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?").fullmatch


def rational(value: int | str | Fraction) -> Fraction:
    """Coerce an int, a 'p/q' string, or a Fraction to an exact rational.

    Floats are rejected: they are not exact and must never leak in. So are
    booleans, which JSON writes as true and false, and a decimal exponent
    beyond 4300 in magnitude.
    """
    if not isinstance(value, str):
        if isinstance(value, float):
            raise TypeError("floating point values are not exact")
        if isinstance(value, bool):
            raise TypeError(f"expected a rational, got {value}")
        return Fraction(value)
    try:
        # 'p' or 'p/q' in ASCII digits, with no exponent, is read first without
        # Fraction's regex; a zero denominator is left to Fraction, reworded below
        plain = plain_rational(value)
        if plain:
            return Fraction(*plain)
        # the exponent may carry a sign, underscores and surrounding spaces; past
        # leading zeros, five of its digits already exceed the bound
        _, e, exponent = value.lower().rpartition("e")
        digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        if not (e and digits.isdecimal() and int(digits[:5]) > _MAX_EXPONENT):
            return Fraction(value)
    except ValueError:
        # Fraction's own message quotes the whole string
        raise ValueError(f"Invalid literal for Fraction: {_echo(value)}") from None
    except ZeroDivisionError:
        # Fraction's own message is the repr Fraction(p, 0)
        raise ZeroDivisionError(f"zero denominator in {_echo(value)}") from None
    raise ValueError(f"decimal exponent of {_echo(value)} exceeds {_MAX_EXPONENT}")


def plain_rational(value: str) -> tuple[int, int] | None:
    """(p, q) with q > 0, not reduced, for a 'p' or 'p/q' string of ASCII
    digits, read without Fraction; None for any other string, a zero
    denominator or digits past int()'s limit, all left to :func:`rational`."""
    plain = _PLAIN(value)
    try:
        num, den = int(plain[1]), int(plain[2] or 1)
    except (TypeError, ValueError):  # TypeError: a string that did not match
        return None
    return (num, den) if den else None


def format_rational(value: int | Fraction) -> str:
    """Render as 'p/q', or 'p' when the denominator is 1."""
    try:
        return str(Fraction(value))
    except ValueError as exc:  # raised by str() past the int-to-str digit limit
        raise DocumentError(f"cannot write the value {_number(str, value)}") from exc


class GaussianRational:
    """A complex number with rational real and imaginary parts.

    It is held as one reduced integer triple (num_re + num_im*i) / den, with
    den > 0 and gcd(num_re, num_im, den) == 1, so equal values are equal
    triples and arithmetic runs on ints. Instances are immutable.
    """

    __slots__ = ("num_re", "num_im", "den")

    def __new__(
        cls, re: int | str | Fraction = Fraction(0), im: int | str | Fraction = Fraction(0)
    ) -> GaussianRational:
        if not isinstance(re, Fraction):
            re = rational(re)
        if not isinstance(im, Fraction):
            im = rational(im)
        p, q, r, s = re.numerator, re.denominator, im.numerator, im.denominator
        if q == s:
            return _triple(p, r, q)
        # with p/q and r/s in lowest terms, no prime of lcm(q, s) divides both
        # scaled numerators, so the triple is reduced
        d = q * s // gcd(q, s)
        return _triple(p * (d // q), r * (d // s), d)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"GaussianRational is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"GaussianRational is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (GaussianRational, (self.re, self.im))

    @property
    def re(self) -> Fraction:
        return Fraction(self.num_re, self.den)

    @property
    def im(self) -> Fraction:
        return Fraction(self.num_im, self.den)

    def __eq__(self, other) -> bool:
        if type(other) is not GaussianRational:
            return NotImplemented
        return self.num_re == other.num_re and self.num_im == other.num_im and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num_re, self.num_im, self.den))

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def __add__(self, other) -> GaussianRational:
        if type(other) is not GaussianRational:
            other = GaussianRational(other)
        d, f = self.den, other.den
        if d == f:
            return _reduced(self.num_re + other.num_re, self.num_im + other.num_im, d)
        return _reduced(self.num_re * f + other.num_re * d, self.num_im * f + other.num_im * d, d * f)

    __radd__ = __add__

    def __sub__(self, other) -> GaussianRational:
        if type(other) is not GaussianRational:
            other = GaussianRational(other)
        d, f = self.den, other.den
        if d == f:
            return _reduced(self.num_re - other.num_re, self.num_im - other.num_im, d)
        return _reduced(self.num_re * f - other.num_re * d, self.num_im * f - other.num_im * d, d * f)

    def __neg__(self) -> GaussianRational:
        return _triple(-self.num_re, -self.num_im, self.den)

    def __mul__(self, other) -> GaussianRational:
        if type(other) is not GaussianRational:
            other = GaussianRational(other)
        a, b, c, e = self.num_re, self.num_im, other.num_re, other.num_im
        return _reduced(a * c - b * e, a * e + b * c, self.den * other.den)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not (self.num_re or self.num_im)

    def __str__(self) -> str:
        if not self.num_im:
            return format_rational(self.re)
        return f"{format_rational(self.re)}{'+' if self.num_im > 0 else ''}{format_rational(self.im)}i"


_new = object.__new__
_set_re = GaussianRational.num_re.__set__
_set_im = GaussianRational.num_im.__set__
_set_den = GaussianRational.den.__set__


def _triple(num_re: int, num_im: int, den: int) -> GaussianRational:
    """The value of an already reduced triple with den > 0."""
    z = _new(GaussianRational)
    _set_re(z, num_re)
    _set_im(z, num_im)
    _set_den(z, den)
    return z


def _reduced(num_re: int, num_im: int, den: int) -> GaussianRational:
    """The value (num_re + num_im*i) / den for den > 0, in lowest terms."""
    g = gcd(num_re, num_im, den)
    if g != 1:
        num_re, num_im, den = num_re // g, num_im // g, den // g
    return _triple(num_re, num_im, den)


def gaussian(re: int | str | Fraction, im: int | str | Fraction = 0) -> GaussianRational:
    return GaussianRational(rational(re), rational(im))


def conj(z: GaussianRational) -> GaussianRational:
    """Complex conjugate."""
    return _triple(z.num_re, -z.num_im, z.den)


def inner(u: tuple[GaussianRational, ...], w: tuple[GaussianRational, ...]) -> GaussianRational:
    """sum_i u_i * conj(w_i), summed on the integer triples and reduced once."""
    re, im, den = 0, 0, 1
    for x, y in zip(u, w):
        a, b, c, e, d = x.num_re, x.num_im, y.num_re, y.num_im, x.den * y.den
        if d == den:
            re, im = re + a * c + b * e, im + b * c - a * e
        else:
            re, im, den = re * d + (a * c + b * e) * den, im * d + (b * c - a * e) * den, den * d
    return _reduced(re, im, den)


def abs_sq(z: GaussianRational) -> Fraction:
    """Squared modulus re^2 + im^2, a nonnegative rational."""
    a, b, d = z.num_re, z.num_im, z.den
    return Fraction(a * a + b * b, d * d)


def ensure_sq(value: int | str | Fraction) -> Fraction:
    """Coerce to a rational and require it to be a valid squared magnitude;
    a Fraction is checked as it is, not copied."""
    if not isinstance(value, Fraction):
        value = rational(value)
    if value.numerator < 0:
        raise ValueError(f"squared value must be nonnegative, got {_number(str, value)}")
    return value


def sqrt_leq(a: Fraction, b: Fraction, c: Fraction) -> bool:
    """Decide sqrt(a) <= sqrt(b) + sqrt(c) exactly for nonnegative rationals.

    If a <= b + c the inequality is immediate. Otherwise both sides of
    a - b - c <= 2*sqrt(b*c) are nonnegative and squaring decides it. Both
    steps run on ints: with a = pa/qa, b = pb/qb and c = pc/qc, t below is
    (a - b - c) * qa*qb*qc.
    """
    a, b, c = ensure_sq(a), ensure_sq(b), ensure_sq(c)
    pa, qa = a.numerator, a.denominator
    pb, qb = b.numerator, b.denominator
    pc, qc = c.numerator, c.denominator
    t = pa * qb * qc - (pb * qc + pc * qb) * qa
    if t <= 0:
        return True
    return t * t <= 4 * pb * pc * qa * qa * qb * qc


# --- document encoding -------------------------------------------------------


def parse_gaussian(doc) -> GaussianRational:
    """Decode {"re": "p/q", "im": "p/q"}; a bare "p/q" string means a real."""
    if isinstance(doc, (str, int)):
        return gaussian(doc)
    if not isinstance(doc, dict):
        raise ValueError(f"expected a rational string or re/im object, got {_echo(doc)}")
    extra = set(doc) - {"re", "im"}
    if extra:
        raise ValueError(f"unexpected keys {_echo(sorted(extra))}")
    return gaussian(doc.get("re", 0), doc.get("im", 0))


def format_gaussian(z: GaussianRational) -> dict:
    return {"re": format_rational(z.re), "im": format_rational(z.im)}

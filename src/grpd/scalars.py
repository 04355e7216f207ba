"""Exact scalars: rationals, Gaussian rationals, and square-root comparisons.

Every pass/fail decision in this package reduces to arithmetic in these
types. The only irrational-aware operation is `sqrt_leq`, which decides
square-root inequalities by repeated squaring, so floating point never
enters a verification path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DocumentError, _echo, _number

# Rationals are plain `fractions.Fraction` values: always in lowest terms,
# positive denominator, arbitrary-precision components.
Rational = Fraction

# Fraction("1e999999999") computes 10**999999999; decimal exponents are held
# to the digit limit Python itself puts on integer literals
_MAX_EXPONENT = 4300


def rational(value: int | str | Fraction) -> Fraction:
    """Coerce an int, a 'p/q' string, or a Fraction to an exact rational.

    Floats are rejected: they are not exact and must never leak in. So is
    a decimal exponent beyond 4300 in magnitude.
    """
    if isinstance(value, float):
        raise TypeError("floating point values are not exact")
    if not isinstance(value, str):
        return Fraction(value)
    # the exponent may carry a sign, underscores and surrounding spaces; past
    # leading zeros, five of its digits already exceed the bound
    _, e, exponent = value.lower().rpartition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if e and digits.isdecimal() and int(digits[:5]) > _MAX_EXPONENT:
        raise ValueError(f"decimal exponent of {_echo(value)} exceeds {_MAX_EXPONENT}")
    try:
        return Fraction(value)
    except ValueError:
        # Fraction's own message quotes the whole string
        raise ValueError(f"Invalid literal for Fraction: {_echo(value)}") from None


def format_rational(value: int | Fraction) -> str:
    """Render as 'p/q', or 'p' when the denominator is 1."""
    try:
        return str(Fraction(value))
    except ValueError as exc:  # raised by str() past the int-to-str digit limit
        raise DocumentError(f"cannot write the value {_number(str, value)}") from exc


@dataclass(frozen=True)
class GaussianRational:
    """A complex number with rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if not isinstance(self.re, Fraction):
            object.__setattr__(self, "re", rational(self.re))
        if not isinstance(self.im, Fraction):
            object.__setattr__(self, "im", rational(self.im))

    def _coerce(self, other) -> GaussianRational:
        if isinstance(other, GaussianRational):
            return other
        return GaussianRational(rational(other))

    def __add__(self, other) -> GaussianRational:
        other = self._coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> GaussianRational:
        other = self._coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> GaussianRational:
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other) -> GaussianRational:
        other = self._coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self) -> str:
        if self.im == 0:
            return format_rational(self.re)
        return f"{format_rational(self.re)}{'+' if self.im > 0 else ''}{format_rational(self.im)}i"


def gaussian(re: int | str | Fraction, im: int | str | Fraction = 0) -> GaussianRational:
    return GaussianRational(rational(re), rational(im))


def conj(z: GaussianRational) -> GaussianRational:
    """Complex conjugate."""
    return GaussianRational(z.re, -z.im)


def abs_sq(z: GaussianRational) -> Fraction:
    """Squared modulus re^2 + im^2, a nonnegative rational."""
    return z.re * z.re + z.im * z.im


def ensure_sq(value: int | str | Fraction) -> Fraction:
    """Coerce to a rational and require it to be a valid squared magnitude."""
    value = rational(value)
    if value < 0:
        raise ValueError(f"squared value must be nonnegative, got {_number(str, value)}")
    return value


def sqrt_leq(a: Fraction, b: Fraction, c: Fraction) -> bool:
    """Decide sqrt(a) <= sqrt(b) + sqrt(c) exactly for nonnegative rationals.

    If a <= b + c the inequality is immediate. Otherwise both sides of
    a - b - c <= 2*sqrt(b*c) are nonnegative and squaring decides it.
    """
    a, b, c = ensure_sq(a), ensure_sq(b), ensure_sq(c)
    if a <= b + c:
        return True
    t = a - b - c
    return t * t <= 4 * b * c


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

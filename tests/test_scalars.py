import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grpd.errors import DocumentError, _echo
from grpd.scalars import (
    GaussianRational,
    abs_sq,
    conj,
    ensure_sq,
    format_gaussian,
    format_rational,
    gaussian,
    parse_gaussian,
    rational,
    sqrt_leq,
)

rationals = st.fractions(min_value=-100, max_value=100)
nonneg = st.fractions(min_value=0, max_value=500)


def test_conj_examples():
    assert conj(gaussian(1, 2)) == gaussian(1, -2)
    assert conj(gaussian("3/4", 0)) == gaussian("3/4", 0)
    assert conj(gaussian(0, -1)) == gaussian(0, 1)


def test_abs_sq_examples():
    assert abs_sq(gaussian(0, 0)) == 0
    assert abs_sq(gaussian(1, -1)) == 2
    assert abs_sq(gaussian("1/2", "1/3")) == Fraction(13, 36)


def test_sqrt_leq_examples():
    assert sqrt_leq(Fraction(4), Fraction(1), Fraction(1))  # equality boundary
    assert not sqrt_leq(Fraction(9), Fraction(1), Fraction(1))
    assert sqrt_leq(Fraction(2), Fraction(1), Fraction(1, 4))


def test_sqrt_leq_rejects_negative_inputs():
    with pytest.raises(ValueError):
        sqrt_leq(Fraction(-1), Fraction(0), Fraction(0))
    with pytest.raises(ValueError):
        ensure_sq(Fraction(-3, 7))


def test_rational_rejects_floats():
    with pytest.raises(TypeError):
        rational(0.5)
    with pytest.raises(TypeError):
        gaussian(0.5)


def test_rational_rejects_booleans():
    for value in (True, False):
        with pytest.raises(TypeError, match=f"expected a rational, got {value}"):
            rational(value)
        with pytest.raises(TypeError):
            gaussian(0, value)


@pytest.mark.parametrize("text", ["1e5000", "1E-5000", "2e+1_0000"])
def test_rational_bounds_the_decimal_exponent(text):
    # Fraction alone would build 10 ** exponent before any check could run
    with pytest.raises(ValueError, match="exponent"):
        rational(text)


def test_rational_accepts_exponents_up_to_the_bound():
    assert rational("3e2") == 300
    assert rational("1e-0004300") == Fraction(1, 10**4300)


def reference_rational(value: str) -> Fraction:
    """``rational`` on a string as it was before plain 'p/q' strings were read
    without Fraction's regex: the exponent guard, then Fraction(value), with a
    zero denominator reported by the input's text."""
    _, e, exponent = value.lower().rpartition("e")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if e and digits.isdecimal() and int(digits[:5]) > 4300:
        raise ValueError(f"decimal exponent of {_echo(value)} exceeds 4300")
    try:
        return Fraction(value)
    except ValueError:
        raise ValueError(f"Invalid literal for Fraction: {_echo(value)}") from None
    except ZeroDivisionError:
        raise ZeroDivisionError(f"zero denominator in {_echo(value)}") from None


def outcome(read, value: str):
    try:
        return "value", read(value)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


PLAIN_CASES = [
    "007/010", "-0", "1/0", "1/000", "3/", "/2", "--1", " 1", "+1", "1_0",
    "\u0661\u0662", "\u00b2", "1e3", "1e99999", "7" * 5000, "-3/" + "1" * 5000,
    # where the plain match, tried first, meets the exponent guard
    "-0/3", "-7/0", "0/0", "1e5", "1e4300", "1E4301", "-2e-04301", "1e_4301", "3/4e5",
    "1/2 ", "12" * 2200 + "e1",
]


@pytest.mark.parametrize("text", PLAIN_CASES, ids=lambda text: repr(text[:12]))
def test_plain_strings_read_as_fraction_reads_them(text):
    expected = outcome(reference_rational, text)
    assert outcome(rational, text) == expected
    if expected[0] == "value":
        assert expected[1] == Fraction(text)


@given(
    st.one_of(
        st.from_regex(r"-?[0-9]+(/[0-9]+)?", fullmatch=True),
        st.text(alphabet="0123456789-+/_ e.\u0661\u00b2", max_size=12),
    )
)
def test_rational_on_strings_matches_the_fraction_reference(text):
    expected = outcome(reference_rational, text)
    assert outcome(rational, text) == expected
    if expected[0] == "value":
        assert expected[1] == Fraction(text)


def test_rational_formatting():
    assert format_rational(Fraction(3, 1)) == "3"
    assert format_rational(Fraction(-6, 8)) == "-3/4"
    assert rational("-3/4") == Fraction(-3, 4)


def test_gaussian_document_round_trip():
    z = gaussian("1/2", "-5/3")
    assert parse_gaussian(format_gaussian(z)) == z
    assert parse_gaussian("7") == gaussian(7)
    assert parse_gaussian({"im": "1"}) == gaussian(0, 1)
    with pytest.raises(ValueError):
        parse_gaussian({"re": "1", "imaginary": "2"})


def test_gaussian_arithmetic():
    z = gaussian(1, 2)
    w = gaussian("1/2", -1)
    assert z * w == gaussian(Fraction(5, 2), 0)
    assert z + w == gaussian("3/2", 1)
    assert z - z == gaussian(0)
    assert -z == gaussian(-1, -2)
    assert 2 * z == gaussian(2, 4)
    assert str(gaussian(1, -2)) == "1-2i"


@given(rationals, rationals)
def test_conj_is_an_involution(re, im):
    z = GaussianRational(re, im)
    assert conj(conj(z)) == z


@given(rationals, rationals)
def test_abs_sq_zero_iff_zero(re, im):
    z = GaussianRational(re, im)
    assert (abs_sq(z) == 0) == z.is_zero()


@given(rationals, rationals, rationals, rationals)
def test_conj_is_multiplicative(a, b, c, d):
    z, w = GaussianRational(a, b), GaussianRational(c, d)
    assert conj(z * w) == conj(z) * conj(w)
    assert abs_sq(z * w) == abs_sq(z) * abs_sq(w)


@given(nonneg, nonneg, nonneg)
def test_sqrt_leq_symmetric_in_last_two(a, b, c):
    assert sqrt_leq(a, b, c) == sqrt_leq(a, c, b)


@given(nonneg, nonneg)
def test_sqrt_leq_monotone_base_cases(a, b):
    assert sqrt_leq(a, a, b)
    assert sqrt_leq(a, b, a)


@given(
    st.fractions(min_value=0, max_value=30),
    st.fractions(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=1000),
)
def test_sqrt_leq_exact_boundary(x, y, n):
    # a = (x + y)^2 makes sqrt(a) = sqrt(x^2) + sqrt(y^2) exactly; the
    # tiniest rational bump above the boundary must flip the answer
    a = (x + y) * (x + y)
    assert sqrt_leq(a, x * x, y * y)
    if x + y > 0:
        assert not sqrt_leq(a * (1 + Fraction(1, n)), x * x, y * y)


def test_sqrt_leq_agrees_with_floats_off_the_boundary():
    rng = random.Random(97)
    checked = 0
    while checked < 10_000:
        a = Fraction(rng.randint(0, 400), rng.randint(1, 20))
        b = Fraction(rng.randint(0, 400), rng.randint(1, 20))
        c = Fraction(rng.randint(0, 400), rng.randint(1, 20))
        lhs = math.sqrt(a)
        rhs = math.sqrt(b) + math.sqrt(c)
        if abs(lhs - rhs) <= 1e-6:
            continue
        assert sqrt_leq(a, b, c) == (lhs <= rhs)
        checked += 1


# --- the integer kernel against a (Fraction, Fraction) reference -------------


def _ref_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _assert_normal(z: GaussianRational, expected: tuple[Fraction, Fraction]) -> None:
    # one reduced triple per value, so equality and hashing read it directly
    assert (z.re, z.im) == expected
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert z.den > 0 and math.gcd(z.num_re, z.num_im, z.den) == 1
    assert z == GaussianRational(*expected) and hash(z) == hash(GaussianRational(*expected))


@given(rationals, rationals, rationals, rationals)
def test_kernel_matches_a_fraction_pair_reference(a, b, c, d):
    z, w = GaussianRational(a, b), GaussianRational(c, d)
    x, y = (a, b), (c, d)
    _assert_normal(z, x)
    _assert_normal(z + w, (a + c, b + d))
    _assert_normal(z - w, (a - c, b - d))
    _assert_normal(z * w, _ref_mul(x, y))
    _assert_normal(-z, (-a, -b))
    _assert_normal(conj(z), (a, -b))
    assert abs_sq(z) == a * a + b * b
    assert z.is_zero() == (a == 0 and b == 0)
    assert (z == w) == (x == y)


@given(rationals, rationals, st.one_of(st.integers(-50, 50), rationals))
def test_kernel_coerces_rational_operands(a, b, r):
    z = GaussianRational(a, b)
    _assert_normal(z + r, (a + r, b))
    _assert_normal(r + z, (a + r, b))
    _assert_normal(z - r, (a - r, b))
    _assert_normal(z * r, (a * r, b * r))
    _assert_normal(r * z, (a * r, b * r))


@given(nonneg, nonneg, nonneg)
def test_sqrt_leq_matches_the_fraction_formula(a, b, c):
    t = a - b - c
    assert sqrt_leq(a, b, c) == (t <= 0 or t * t <= 4 * b * c)
    assert sqrt_leq(int(a), str(b), c) == sqrt_leq(Fraction(int(a)), b, c)


def test_equal_values_are_equal_objects_with_equal_hashes():
    half = GaussianRational(Fraction(2, 4))
    assert half == gaussian("1/2") and hash(half) == hash(gaussian("1/2"))
    assert GaussianRational("1/2", "-3/4") == gaussian(Fraction(2, 4), "-6/8")
    zeros = [
        GaussianRational(),
        gaussian(0),
        gaussian("0/7", "-0"),
        GaussianRational(Fraction(0), Fraction(0, 5)),
        gaussian("1/3", 2) - gaussian("1/3", 2),
        gaussian(5, -1) * 0,
        -gaussian(0),
        conj(gaussian(0)),
    ]
    assert all(z == zeros[0] and hash(z) == hash(zeros[0]) and z.is_zero() for z in zeros)
    assert gaussian(1) != 1 and gaussian(1) != Fraction(1)


def test_gaussian_rationals_are_immutable():
    z = gaussian("1/2", 3)
    for name in ("num_re", "den", "re", "im", "other"):
        with pytest.raises(AttributeError):
            setattr(z, name, 1)
        with pytest.raises(AttributeError):
            delattr(z, name)
    assert copy.deepcopy(z) == z and pickle.loads(pickle.dumps(z)) == z
    assert z == gaussian("1/2", 3)


def test_gaussian_text_and_document_bytes():
    cases = [
        (gaussian("-6/4"), "-3/2", {"re": "-3/2", "im": "0"}),
        (gaussian(2, "1/3"), "2+1/3i", {"re": "2", "im": "1/3"}),
        (gaussian("1/2", "-5/3"), "1/2-5/3i", {"re": "1/2", "im": "-5/3"}),
        (gaussian(0, -1), "0-1i", {"re": "0", "im": "-1"}),
    ]
    for z, text, doc in cases:
        assert str(z) == text
        assert format_gaussian(z) == doc
    assert repr(gaussian("1/2", -1)) == "GaussianRational(re=Fraction(1, 2), im=Fraction(-1, 1))"


def test_values_past_the_digit_limit_cannot_be_written():
    big = gaussian("1e4300", "1/3")
    with pytest.raises(DocumentError):
        format_gaussian(big)
    with pytest.raises(DocumentError):
        str(big)
    with pytest.raises(DocumentError):
        format_rational(Fraction(1, 10**4300))

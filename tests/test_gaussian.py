import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_gaussian
from strata.errors import DocumentParseError
from strata.gaussian import I, ONE, ZERO, GaussianRational, parse_gaussian, parse_rational

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=50)
gaussians = st.builds(GaussianRational, rationals, rationals)


def test_basic_arithmetic():
    a = GaussianRational(1, 2)
    b = GaussianRational(Fraction(1, 3), -1)
    assert a + b == GaussianRational(Fraction(4, 3), 1)
    assert a - b == GaussianRational(Fraction(2, 3), 3)
    assert a * b == GaussianRational(Fraction(1, 3) + 2, Fraction(2, 3) - 1)
    assert (a / b) * b == a


def test_int_coercion():
    assert GaussianRational(2) + 1 == GaussianRational(3)
    assert 2 * GaussianRational(0, 1) == GaussianRational(0, 2)
    assert 1 - GaussianRational(0, 1) == GaussianRational(1, -1)


@given(gaussians, gaussians, gaussians)
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    if c:
        assert (a * c) / c == a


@given(gaussians)
def test_canonical_roundtrip(z):
    assert parse_gaussian(z.canonical()) == z


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1", GaussianRational(1)),
        ("-2/3", GaussianRational(Fraction(-2, 3))),
        ("i", GaussianRational(0, 1)),
        ("-i", GaussianRational(0, -1)),
        ("2i", GaussianRational(0, 2)),
        ("6 i", GaussianRational(0, 6)),
        ("1+i", GaussianRational(1, 1)),
        ("1/2-3/4 i", GaussianRational(Fraction(1, 2), Fraction(-3, 4))),
        (5, GaussianRational(5)),
    ],
)
def test_parse_forms(text, expected):
    assert parse_gaussian(text) == expected


@pytest.mark.parametrize("bad", ["", "x", "1+", "1//2", "i i", "1+2", "/3", True, 1.5])
def test_parse_rejects(bad):
    with pytest.raises(DocumentParseError):
        parse_gaussian(bad)


def test_parse_rational():
    assert parse_rational("2/3") == Fraction(2, 3)
    assert parse_rational(-4) == Fraction(-4)
    with pytest.raises(DocumentParseError):
        parse_rational("1+i")
    with pytest.raises(DocumentParseError):
        parse_rational("2/0")


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


# -- the (a, b, d) class and its parsers against the Fraction-pair oracle -------

# Small numerators and denominators with repeats, so that equal denominators,
# cancellation to lowest terms and zero parts are all common.
small_rationals = st.one_of(
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4, 6, 9])),
    rationals,
)
pairs = st.tuples(small_rationals, small_rationals)
scalars = st.one_of(st.integers(-5, 5), small_rationals)


def both(p):
    return GaussianRational(*p), oracle_gaussian.GaussianRational(*p)


def agrees(z, oracle) -> bool:
    """Same value, and the triple is in lowest terms with a positive denominator."""
    return (
        type(z) is GaussianRational
        and z.re == oracle.re
        and z.im == oracle.im
        and z.d > 0
        and math.gcd(z.a, z.b, z.d) == 1
    )


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # compared by type and message
        return "error", (type(exc), str(exc))


@given(pairs, pairs)
def test_binary_operators_match_oracle(p, q):
    (z, oz), (w, ow) = both(p), both(q)
    assert agrees(z + w, oz + ow)
    assert agrees(z - w, oz - ow)
    assert agrees(z * w, oz * ow)
    assert agrees(-z, -oz)
    if ow:
        assert agrees(z / w, oz / ow)
    else:
        with pytest.raises(ZeroDivisionError, match="division by zero Gaussian rational"):
            z / w


@given(pairs, scalars)
def test_mixed_operands_match_oracle(p, c):
    z, oz = both(p)
    for new, old in (
        (z + c, oz + c), (c + z, c + oz), (z - c, oz - c), (c - z, c - oz),
        (z * c, oz * c), (c * z, c * oz),
    ):
        assert agrees(new, old)
    if c:
        assert agrees(z / c, oz / c)
    if oz:
        assert agrees(c / z, c / oz)
    assert (z == c) == (oz == c)
    assert (c == z) == (c == oz)
    assert (z != c) == (oz != c)


@given(pairs, pairs)
def test_predicates_and_hash_match_oracle(p, q):
    (z, oz), (w, ow) = both(p), both(q)
    assert bool(z) == bool(oz)
    assert (z == w) == (oz == ow)
    assert z.is_real() == oz.is_real()
    assert z.to_complex() == oz.to_complex()
    # The same value reached by another route has the same triple and hash.
    if w:
        again = (z * w) / w
        assert again == z and hash(again) == hash(z)
    assert hash(z + w - w) == hash(z)


@given(pairs)
def test_text_matches_oracle(p):
    z, oz = both(p)
    assert z.canonical() == oz.canonical()
    assert str(z) == str(oz)
    assert repr(z) == repr(oz)
    assert outcome(z.as_fraction) == outcome(oz.as_fraction)


def test_constructor_forms_match_oracle():
    for args in [(), (3,), (-2, 5), (Fraction(6, 4),), (Fraction(1, 3), Fraction(-1, 6)),
                 ("3/9", "-2"), (1.5, 0), (True, False), (0, Fraction(0, 7))]:
        assert agrees(GaussianRational(*args), oracle_gaussian.GaussianRational(*args))
    for args in [("x",), (None,), (1, "1/0"), (GaussianRational(1),)]:
        assert outcome(GaussianRational, *args) == outcome(oracle_gaussian.GaussianRational, *args)
    for z in (ZERO, ONE, I):
        with pytest.raises(AttributeError, match="GaussianRational is immutable"):
            z.a = 5
        with pytest.raises(AttributeError, match="GaussianRational is immutable"):
            z.re = 5
    assert (ZERO.a, ZERO.b, ZERO.d) == (0, 0, 1) and (I.a, I.b, I.d) == (0, 1, 1)
    with pytest.raises(TypeError):
        GaussianRational(1) + "x"
    assert (GaussianRational(1) == "1") is False


def assert_parses_like_oracle(value, *where):
    """Same value from both parsers, or the same exception type and message."""
    for parse, oracle in (
        (parse_gaussian, oracle_gaussian.parse_gaussian),
        (parse_rational, oracle_gaussian.parse_rational),
    ):
        got, want = outcome(parse, value, *where), outcome(oracle, value, *where)
        assert got[0] == want[0], (value, got, want)
        if got[0] == "error":
            assert got == want
        elif parse is parse_gaussian:
            assert agrees(got[1], want[1])
        else:
            assert type(got[1]) is Fraction and got[1] == want[1]


# Every shorthand form the README names, plus other forms Fraction(text)
# accepts and forms it rejects.
LITERALS = [
    "2", "i", "1-2i", "6 i", "a/b", "1/2", "-2/3", "3/2-1/1 i", "1/2+3/4 i", "-i", "+i", "2i",
    "2*i", "1+i", "1-i", "-1/2-i", "0", "-0", "+5", "007/010", "4/6", "0/5", "-0/3+0/2 i",
    "1.5", "1e3", "1E-2", "1_0", "1_0/2_0", ".5", "5.", "1.5e2-2.5i", "2/0", "0/0", "1/0 i",
    "", " ", "x", "1+", "1//2", "i i", "1+2", "/3", "3/", "--1", "+-1", "1/-2", "1/+2",
    "1-/2i", "i*", "*i", "1**i", "1+*i", "1e", "e", "_1", "1_", "1__0", "1.2.3", "١٢",
    "²", "1/2/3", "1 / 2", " - 3 / 4 i ", "1" * 5000,
    "2e-3i", "1+2e-3i", "1+2E+3i", "2e-3", "2e3i", "1e-3+2i", "1e-3-2e-3i", "e-3i", "1e+i",
]


# A sign right after an exponent's e belongs to the exponent, not to the imaginary part.
SIGNED_EXPONENTS = {
    "2e-3i": (0, Fraction(1, 500)), "1+2e-3i": (1, Fraction(1, 500)), "1+2E+3i": (1, 2000),
    "2e-3": (Fraction(1, 500), 0), "2e3i": (0, 2000), "1e-3+2i": (Fraction(1, 1000), 2),
}


@pytest.mark.parametrize("text", sorted(SIGNED_EXPONENTS))
def test_signed_exponents_stay_in_their_term(text):
    assert parse_gaussian(text) == GaussianRational(*SIGNED_EXPONENTS[text])


@pytest.mark.parametrize("text", LITERALS)
def test_literal_forms_match_oracle(text):
    assert_parses_like_oracle(text, "$.x")


@pytest.mark.parametrize("value", [0, -7, 10**30, True, False, 1.5, None, [1], {"re": 1}])
def test_non_string_literals_match_oracle(value):
    assert_parses_like_oracle(value)


# Fraction(text) expands "1e99999999" to a 10**99999999-digit integer, so
# exponents stay short here, also once the parsers drop whitespace.
@settings(max_examples=1000)
@given(
    st.text(alphabet="0123456789+-/i*. _e", max_size=12).filter(
        lambda t: not re.search(r"e[-+]?[\d_]{3,}", "".join(t.split()))
    )
)
def test_random_literals_match_oracle(text):
    assert_parses_like_oracle(text, "$.x")


@given(pairs)
def test_canonical_and_str_parse_back(p):
    z = GaussianRational(*p)
    assert agrees(parse_gaussian(z.canonical()), oracle_gaussian.GaussianRational(*p))
    assert agrees(parse_gaussian(str(z)), oracle_gaussian.GaussianRational(*p))

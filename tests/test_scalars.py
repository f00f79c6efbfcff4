from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tracelab.errors import ParseError
from tracelab.scalars import (
    APPROX,
    EXACT,
    GaussianRational,
    ToleranceContext,
    coerce,
    format_complex,
    one,
    parse_gaussian_rational,
    zero,
)


def test_arithmetic_is_exact_and_closed():
    a = GaussianRational(Fraction(1, 3), Fraction(2, 7))
    b = GaussianRational(Fraction(-5, 2), Fraction(1, 3))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * (b + b) == a * b + a * b
    assert (a / b) * b == a


def test_division_by_conjugate_norm():
    i = GaussianRational(0, 1)
    assert i * i == GaussianRational(-1)
    assert GaussianRational(1) / i == GaussianRational(0, -1)
    assert i.conjugate() == GaussianRational(0, -1)
    assert i.norm() == 1


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1/2-3/4i", GaussianRational(Fraction(1, 2), Fraction(-3, 4))),
        ("i", GaussianRational(0, 1)),
        ("-i", GaussianRational(0, -1)),
        ("3", GaussianRational(3)),
        ("2/5", GaussianRational(Fraction(2, 5))),
        ("-2+5i", GaussianRational(-2, 5)),
        ("1+1i", GaussianRational(1, 1)),
        ("3 i", GaussianRational(0, 3)),
        ("i+1", GaussianRational(1, 1)),
        ("+3", GaussianRational(3)),
    ],
)
def test_parse_round_trip(text, expected):
    value = parse_gaussian_rational(text)
    assert value == expected
    assert parse_gaussian_rational(str(value)) == value


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_gaussian_rational("")
    with pytest.raises(ParseError):
        parse_gaussian_rational("1+2j+3")
    with pytest.raises(ParseError):
        parse_gaussian_rational("x")


@pytest.mark.parametrize("text", ["1 2", "1/2 1/3", "1+2", "i-i", "2i3", "i 3"])
def test_parse_rejects_an_unsigned_or_same_kind_second_term(text):
    # a second term needs its own sign and the other kind
    with pytest.raises(ParseError):
        parse_gaussian_rational(text)


def test_tolerance_context_scaling():
    ctx = ToleranceContext(eps=1e-10)
    assert ctx.is_zero(5e-11)
    assert not ctx.is_zero(5e-9)
    # thresholds scale with the ambient magnitude
    assert ctx.is_zero(5e-7, scale=1e4)
    assert ctx.cluster_radius(1.0) == pytest.approx(1e-9)


def test_vacuity_is_relative_to_the_values_with_a_floor_of_one():
    ctx = ToleranceContext()
    assert ctx.VACUITY_RATIO == 0.1
    assert not ctx.is_vacuous(0.1)
    assert ctx.is_vacuous(0.11)
    assert not ctx.is_vacuous(0.1, scale=1e-20)  # tiny values: floor at 1
    assert not ctx.is_vacuous(1e3, scale=1e4)
    assert ctx.is_vacuous(2e3, scale=1e4)


def test_format_complex_full_precision():
    z = complex(1.1080496168687148, -3.5e-17)
    text = format_complex(z)
    assert "1.1080496168687148" in text
    assert text.endswith("j")


@pytest.mark.parametrize(
    "backend,half,gaussian",
    [
        (EXACT, GaussianRational(Fraction(1, 2)), GaussianRational(Fraction(1, 2), -3)),
        (APPROX, 0.5 + 0j, complex(0.5, -3.0)),
    ],
)
def test_coerce_zero_one(backend, half, gaussian):
    kind = type(half)
    cases = [
        (Fraction(1, 2), half),
        (GaussianRational(Fraction(1, 2), -3), gaussian),
        (0, zero(backend)),
        (1, one(backend)),
    ]
    for value, expected in cases:
        got = coerce(value, backend)
        assert type(got) is kind
        assert got == expected
    assert not zero(backend)
    assert zero(backend) + half == half
    assert one(backend) * gaussian == gaussian


RATIONALS = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
VALUES = st.one_of(
    st.integers(-50, 50),
    RATIONALS,
    st.builds(GaussianRational, RATIONALS),
    st.builds(GaussianRational, RATIONALS, RATIONALS),
)


@given(a=VALUES, b=VALUES, q=RATIONALS)
def test_equal_values_hash_alike(a, b, q):
    # across GaussianRational, int and Fraction, as sets and dicts require
    for x, y in ((a, b), (GaussianRational(q), q), (GaussianRational(q.numerator), q.numerator)):
        if x == y:
            assert hash(x) == hash(y)


def test_a_real_value_is_found_among_ints_and_fractions():
    assert GaussianRational(3) in {3}
    assert 3 in {GaussianRational(3)}
    assert Fraction(1, 2) in {GaussianRational(Fraction(1, 2))}
    assert GaussianRational(1, 1) not in {1}

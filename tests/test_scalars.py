"""Exact rational substrate: parsing, factorization, powers."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from lelekfan import (
    DomainError,
    FormatError,
    ResourceError,
    factor,
    format_scalar,
    parse_scalar,
    power,
)
from oracles import recompose, trial_factor_rational


def test_parse_and_format_round_trip():
    for text, expected in [("1/2", Fraction(1, 2)), ("3", Fraction(3)), ("27/8", Fraction(27, 8)), ("-4/6", Fraction(-2, 3))]:
        assert parse_scalar(text) == expected
    assert format_scalar(Fraction(2, 9)) == "2/9"
    assert format_scalar(Fraction(3)) == "3"
    assert format_scalar(Fraction(-2, 4)) == "-1/2"


@pytest.mark.parametrize("bad", ["", "1.5", "1/2/3", "a/b", "1e3", "1/0", "2 / 3"])
def test_parse_rejects_non_rational_literals(bad):
    with pytest.raises(FormatError):
        parse_scalar(bad)


def test_scalars_past_the_int_str_digit_limit():
    # 10^4 digits each side; str(int) and int(str) refuse more than 4300 by default
    numerator, denominator = "9" * 10_000, "1" + "0" * 9_998 + "3"
    q = Fraction(10**10_000 - 1, 10**9_999 + 3)
    assert format_scalar(q) == f"{numerator}/{denominator}"
    assert format_scalar(-q) == f"-{numerator}/{denominator}"
    assert format_scalar(q.numerator) == numerator
    for x in (q, -q, Fraction(q.numerator), 1 / q):
        assert parse_scalar(format_scalar(x)) == x
    assert parse_scalar("1/1" + "0" * 5_000) == Fraction(1, 10**5_000)


def test_format_scalar_matches_str_under_the_limit():
    rng = random.Random(5)
    for _ in range(300):
        q = Fraction(rng.randint(-(10**60), 10**60), rng.randint(1, 10**rng.randint(1, 60)))
        expected = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        assert format_scalar(q) == expected
        assert parse_scalar(expected) == q


def test_factor_examples():
    assert factor(Fraction(1)) == {}
    assert factor(Fraction(4, 9)) == {2: 2, 3: -2}
    assert factor(Fraction(27, 8)) == {2: -3, 3: 3}
    # cross-check the frozen values against the independent trial-division oracle
    assert trial_factor_rational(Fraction(4, 9)) == {2: 2, 3: -2}
    assert trial_factor_rational(Fraction(27, 8)) == {2: -3, 3: 3}


def test_factor_round_trip_random():
    rng = random.Random(101)
    for _ in range(300):
        q = Fraction(rng.randint(1, 10**6 - 1), rng.randint(1, 10**6 - 1))
        exponents = factor(q)
        assert recompose(exponents) == q
        assert all(e != 0 for e in exponents.values())


def test_factor_domain_and_bound_errors():
    with pytest.raises(DomainError):
        factor(Fraction(0))
    with pytest.raises(DomainError):
        factor(Fraction(-4, 9))
    with pytest.raises(ResourceError):
        factor(Fraction(1_000_003), prime_bound=10**3)  # 1000003 is prime


def test_factor_converts_any_rational_input():
    assert factor(12) == {2: 2, 3: 1}
    assert factor("4/9") == {2: 2, 3: -2}
    assert factor(0.25) == {2: -2}
    assert factor(1) == factor("1") == factor(1.0) == {}
    for bad in (0, -4, "0", "-4/9", 0.0, -0.5):
        with pytest.raises(DomainError, match="positive rational"):
            factor(bad)


def test_power_examples():
    assert power(Fraction(1, 2), 1) == Fraction(1, 2)
    assert power(Fraction(1, 2), -1) == Fraction(2)
    assert power(Fraction(4, 9), 3) == Fraction(64, 729)
    # oracle: repeated exact multiplication
    acc = Fraction(1)
    for _ in range(3):
        acc *= Fraction(4, 9)
    assert acc == Fraction(64, 729)


def test_power_zero_negative_exponent():
    with pytest.raises(DomainError):
        power(Fraction(0), -1)
    assert power(Fraction(0), 3) == 0


def test_power_rejects_non_integer_exponent():
    with pytest.raises(TypeError):
        power(Fraction(1, 2), 0.5)


def test_power_exponent_addition_law():
    rng = random.Random(7)
    for _ in range(200):
        q = Fraction(rng.randint(1, 99), rng.randint(1, 99))
        k = rng.randint(-32, 32)
        l = rng.randint(-32, 32)
        assert power(q, k) * power(q, l) == power(q, k + l)

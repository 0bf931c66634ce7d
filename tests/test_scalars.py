"""Exact rational substrate: parsing and factorization."""

from __future__ import annotations

import itertools
import math
import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from lelekfan import (
    DEFAULT_PRIME_BOUND,
    DomainError,
    FormatError,
    ResourceError,
    factor,
    format_scalar,
    parse_scalar,
)
from lelekfan import scalars
from oracles import echo_reference, recompose, trial_factor_int, trial_factor_rational

EMPTY_TABLE = (b"\x02", 2)  # the prime table before its first growth


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


def test_parse_scalar_long_literals_agree_with_decimal():
    # Literals over 4000 digits are parsed in halves; every split must give
    # the integer of one int(Decimal(...)) call, zeros at a split included.
    rng = random.Random(11)
    for n in (3999, 4000, 4001, 8001):
        for digits in (
            "".join(rng.choice("0123456789") for _ in range(n)),
            "1" + "0" * (n - 1),
            "0" * (n - 1) + "7",
        ):
            value = int(Decimal(digits))
            for sign, signed in (("", value), ("+", value), ("-", -value)):
                assert parse_scalar(sign + digits) == signed
                assert parse_scalar(f"{sign}1/{digits}") == Fraction(1, signed)


def test_parse_scalar_long_literal_time():
    # int(Decimal(...)) alone is quadratic: several seconds at this length.
    start = time.perf_counter()
    q = parse_scalar("7" * 400_000)
    assert time.perf_counter() - start < 2
    assert q == 7 * (10**400_000 - 1) // 9


def test_format_scalar_matches_str_under_the_limit():
    rng = random.Random(5)
    for _ in range(300):
        q = Fraction(rng.randint(-(10**60), 10**60), rng.randint(1, 10**rng.randint(1, 60)))
        expected = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        assert format_scalar(q) == expected
        assert parse_scalar(expected) == q


def _echo_cases():
    rng = random.Random(21)

    def of_length(n: int) -> int:
        return rng.randrange(10 ** (n - 1), 10**n)

    # Whole texts from 185 to 215 characters, as ints and as Fractions of
    # denominator 1, positive and negative.
    for n in range(185, 216):
        for _ in range(20):
            v = of_length(n)
            yield from (v, -v, Fraction(v), Fraction(-v))
    # Many-digit denominators, the limit falling inside the numerator, at
    # the slash and inside the denominator.
    for _ in range(2000):
        a = rng.randint(1, 230)
        b = rng.randint(max(1, 185 - a), 230)
        yield Fraction(rng.choice((1, -1)) * of_length(a), of_length(b))
    # Digit counts change at powers of ten and the bit-length estimate at
    # powers of two.
    for k in range(261):
        for v in (10**k, 10**k - 1, 10**k + 1):
            yield from (v, -v, Fraction(1, v or 1), Fraction(-7, v or 1))
    for b in range(900):
        for v in (2**b - 1, 2**b, 2**b + 1):
            yield from (v, -v, Fraction(3, v or 1))
    for n in (1000, 4000):
        yield from (of_length(n), -of_length(n), Fraction(of_length(n), of_length(n)))


def test_echo_matches_the_whole_text_reference():
    for value in _echo_cases():
        assert scalars._echo(value) == echo_reference(value), value


def test_echo_shows_text_as_is_and_other_values_by_repr():
    assert scalars._echo("1/2") == "1/2"
    assert scalars._echo(repr("1/2")) == "'1/2'"
    assert scalars._echo(["3", "1/2"]) == "['3', '1/2']"
    assert scalars._echo(0.5) == "0.5"
    assert scalars._echo(True) == "1"
    assert scalars._echo("x" * 200) == "x" * 200
    assert scalars._echo("x" * 201) == "x" * 200 + "... (201 characters)"
    assert scalars._echo(list(range(100))) == repr(list(range(100)))[:200] + "... (390 characters)"


def test_echo_of_a_million_digits_time():
    # Writing all 10^6 digits takes about 18 s; the echo converts about 200.
    n = 10**1_000_000 - 1
    start = time.perf_counter()
    text = scalars._echo(-n)
    assert time.perf_counter() - start < 1
    assert text == f"-{'9' * 199}... (1000001 characters)"


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
    with pytest.raises(ResourceError, match="factor 1000003 exceeds"):
        factor(Fraction(1_000_003))  # 1000003 is prime


def _expect_factor(n: int) -> None:
    """factor(n) and factor(1/n) against the oracle: exponents in prime order, or the refusal."""
    expected = trial_factor_int(n)
    leftover = math.prod(p**e for p, e in expected.items() if p > DEFAULT_PRIME_BOUND)
    if leftover > 1:
        for q in (Fraction(n), Fraction(1, n)):
            with pytest.raises(ResourceError, match=f"factor {leftover} exceeds"):
                factor(q)
        return
    assert list(factor(n).items()) == list(expected.items()), n
    assert list(factor(Fraction(1, n)).items()) == [(p, -e) for p, e in expected.items()], n


def test_factor_matches_trial_division_oracle():
    for n in range(1, 3000):
        _expect_factor(n)
    rng = random.Random(1213)
    for _ in range(300):
        # Every magnitude below 10**13, on both sides of the prime bound.
        _expect_factor(rng.randrange(1, 10 ** rng.randint(1, 13)))


def test_factor_at_the_prime_bound():
    p, q = 999983, 999979  # the two largest primes below 10**6
    u, v = 1_000_003, 1_000_033  # the two smallest above it
    for n in (p, p * q, p**2, q * p**3, 2 * p * q):
        _expect_factor(n)
    assert list(factor(Fraction(p, q**2)).items()) == [(p, 1), (q, -2)]
    for n, leftover in ((u, u), (u * v, u * v), (2 * 3 * u, u), (p * u**2, u**2)):
        with pytest.raises(ResourceError, match=f"factor {leftover} exceeds"):
            factor(n)


def test_prime_table_is_the_primes_below_the_bound(monkeypatch):
    monkeypatch.setattr(scalars, "_primes", EMPTY_TABLE)
    with pytest.raises(ResourceError):
        factor(1_000_003 * 1_000_033)  # needs every prime up to the bound
    primes = list(itertools.accumulate(scalars._primes[0]))
    assert len(primes) == 78498 and primes[-1] == 999983
    assert scalars._prime_gaps(10**9) is scalars._primes[0]  # the table stops at the bound
    # An independent sieve of Eratosthenes over the whole range.
    bound = DEFAULT_PRIME_BOUND
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\x00\x00"
    for d in range(2, math.isqrt(bound) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytes(len(range(d * d, bound + 1, d)))
    assert primes == list(itertools.compress(range(bound + 1), sieve))


def test_factor_across_prime_table_segments(monkeypatch):
    # Each growth of the table ends a segment; primes on either side of
    # each end, factored from an empty table and from the full one.
    monkeypatch.setattr(scalars, "_primes", EMPTY_TABLE)
    ends = []
    while scalars._primes[1] < DEFAULT_PRIME_BOUND:
        scalars._prime_gaps(scalars._primes[1] + 1)
        ends.append(scalars._primes[1])
    assert len(ends) > 10
    full = scalars._primes

    def is_prime(n):
        return trial_factor_int(n) == {n: 1}

    for end in ends:
        below = next(n for n in range(end, 1, -1) if is_prime(n))
        above = next(n for n in itertools.count(end + 1) if is_prime(n))
        cases = [(below * above, {below: 1, above: 1}), (above**2, {above: 2}), (below**3, {below: 3})]
        for n, expected in cases:
            if max(expected) > DEFAULT_PRIME_BOUND:
                continue
            for table in (EMPTY_TABLE, full):
                monkeypatch.setattr(scalars, "_primes", table)
                scalars._cached_division.cache_clear()  # divide again, over this table
                assert factor(n) == expected, (end, n)


def test_factor_converts_any_rational_input():
    assert factor(12) == {2: 2, 3: 1}
    assert factor("4/9") == {2: 2, 3: -2}
    assert factor(0.25) == {2: -2}
    assert factor(1) == factor("1") == factor(1.0) == {}
    for bad in (0, -4, "0", "-4/9", 0.0, -0.5):
        with pytest.raises(DomainError, match="positive rational"):
            factor(bad)


def test_factor_returns_a_new_dict_on_every_call():
    first = factor(Fraction(12, 35))
    assert first == {2: 2, 3: 1, 5: -1, 7: -1}
    first[2] = 99
    first[101] = 1
    del first[5]
    second = factor(Fraction(12, 35))
    assert second == {2: 2, 3: 1, 5: -1, 7: -1}
    assert second is not factor(Fraction(12, 35))


def test_factor_cache_is_bounded_in_entries_and_integer_size():
    cache = scalars._cached_division
    cache.cache_clear()
    maxsize = cache.cache_info().maxsize
    assert maxsize is not None
    for n in range(1, maxsize + 100):
        factor(n)
        assert cache.cache_info().currsize <= maxsize
    assert cache.cache_info().currsize == maxsize
    cache.cache_clear()
    below, past = (1 << 64) - 2, 1 << 64  # 64 and 65 bits, both factored within the bound
    assert (below.bit_length(), past.bit_length()) == (64, 65)
    for _ in range(2):
        assert factor(past) == {2: 64}
        assert factor(Fraction(1, past)) == {2: -64}
    assert cache.cache_info().currsize == 1  # only the denominator 1
    assert factor(below) == factor(below) == trial_factor_int(below)
    assert cache.cache_info().currsize == 2


def test_factor_refusal_is_raised_on_every_call():
    cache = scalars._cached_division
    cache.cache_clear()
    for _ in range(2):
        with pytest.raises(ResourceError, match="factor 1000003 exceeds"):
            factor(Fraction(2, 1_000_003))
    assert cache.cache_info().currsize == 1  # the numerator 2; a refusal is never cached


def test_factor_matches_the_oracle_on_random_rationals():
    # Twice each, so the second answer comes from the cache.
    rng = random.Random(2028)
    refused = 0
    for _ in range(500):
        n, d = (rng.randrange(1, 10 ** rng.randint(1, 7)) for _ in range(2))
        q = Fraction(n, d)
        expected = list(trial_factor_rational(q).items())
        past_bound = [p for p, _ in expected if p > DEFAULT_PRIME_BOUND]
        for _ in range(2):
            if past_bound:
                with pytest.raises(ResourceError, match=f"factor {past_bound[0]} exceeds"):
                    factor(q)
            else:
                assert list(factor(q).items()) == expected, q
        refused += bool(past_bound)
    assert 0 < refused < 100


def test_coprime_fraction_is_the_fraction_of_its_terms():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randrange(0, 10 ** rng.randint(1, 500))
        d = rng.randrange(1, 10 ** rng.randint(1, 500))
        g = math.gcd(n, d)
        n, d = n // g, d // g
        q, expected = scalars._coprime_fraction(n, d), Fraction(n, d)
        assert type(q) is Fraction
        assert (q.numerator, q.denominator) == (n, d)
        assert q == expected and hash(q) == hash(expected)
        assert format_scalar(q) == format_scalar(expected)
        assert q * 3 - 1 == expected * 3 - 1 and (q < expected + 1) and not q > expected

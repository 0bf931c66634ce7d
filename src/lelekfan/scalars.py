"""Exact rational arithmetic and factorization primitives.

Every slope and coordinate in the pipeline is a `fractions.Fraction`
(always in lowest terms, denominator positive), so equality and comparison
are exact; floats appear only at the rendering and distance-enclosure
boundary, derived from exact values at the last step.

Wire format: rationals serialize as "p/q", or just "p" when q == 1, in all
JSON payloads and CLI arguments. Integers of any size are read and written
through `decimal.Decimal`, whose conversions to and from `int` are exact and
have no digit limit; `int(text)` and `str(n)` refuse more than
`sys.get_int_max_str_digits()` digits (4300 by default since Python 3.11
and 3.10.7).
"""

from __future__ import annotations

import operator
import re
from decimal import Decimal
from fractions import Fraction

from .errors import DomainError, FormatError, ResourceError

DEFAULT_PRIME_BOUND = 10**6

_SCALAR_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def _digits(n: int) -> str:
    # The same text as str(n), for integers of any size.
    return str(Decimal(n))


def parse_scalar(text: str) -> Fraction:
    """Parse a "p/q" or "p" literal into an exact rational."""
    m = _SCALAR_RE.match(text.strip())
    if m is None:
        raise FormatError(f"not a rational literal: {text!r} (expected p or p/q)")
    numerator = int(Decimal(m.group(1)))
    denominator = int(Decimal(m.group(2))) if m.group(2) else 1
    if denominator == 0:
        raise FormatError(f"zero denominator: {text!r}")
    return Fraction(numerator, denominator)


def format_scalar(q: Fraction) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    if type(q) is not Fraction:
        q = Fraction(q)
    if q.denominator == 1:
        return _digits(q.numerator)
    return f"{_digits(q.numerator)}/{_digits(q.denominator)}"


def _trial_division(n: int, prime_bound: int) -> dict[int, int]:
    exponents: dict[int, int] = {}
    d = 2
    while d * d <= n and d <= prime_bound:
        while n % d == 0:
            exponents[d] = exponents.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        if n > prime_bound:
            raise ResourceError(
                f"factor {n} exceeds the prime bound {prime_bound}; "
                "raise prime_bound for larger inputs"
            )
        # d*d > n, so the leftover cofactor is prime
        exponents[n] = exponents.get(n, 0) + 1
    return exponents


def factor(q: Fraction, prime_bound: int = DEFAULT_PRIME_BOUND) -> dict[int, int]:
    """Prime factorization of a positive rational as {prime: exponent}.

    Denominator primes carry negative exponents; the empty map is the
    rational 1. Numerator and denominator are coprime, so their prime
    supports never overlap.
    """
    if type(q) is not Fraction:
        q = Fraction(q)
    if q.numerator <= 0:
        raise DomainError(f"factor requires a positive rational, got {format_scalar(q)}")
    exponents = _trial_division(q.numerator, prime_bound)
    for p, e in _trial_division(q.denominator, prime_bound).items():
        exponents[p] = -e
    return exponents


def power(q: Fraction, k: int) -> Fraction:
    """Exact integer power of a rational; negative exponents invert."""
    q = Fraction(q)
    k = operator.index(k)  # reject non-integer exponents before ** widens to float
    if q == 0 and k < 0:
        raise DomainError("0 cannot be raised to a negative power")
    return q**k

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

import itertools
import re
from decimal import Decimal
from fractions import Fraction
from math import isqrt

from .errors import DomainError, FormatError, ResourceError

DEFAULT_PRIME_BOUND = 10**6

_SCALAR_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")

# The most characters of an input value that one error message echoes.
_ECHO_LIMIT = 200


def _echo(text: str) -> str:
    """`text` for an error message, cut to _ECHO_LIMIT characters and marked when cut."""
    if len(text) <= _ECHO_LIMIT:
        return text
    return f"{text[:_ECHO_LIMIT]}... ({len(text)} characters)"


def _digits(n: int) -> str:
    # The same text as str(n), for integers of any size.
    return str(Decimal(n))


def parse_scalar(text: str) -> Fraction:
    """Parse a "p/q" or "p" literal into an exact rational."""
    m = _SCALAR_RE.match(text.strip())
    if m is None:
        raise FormatError(f"not a rational literal: {_echo(repr(text))} (expected p or p/q)")
    numerator = int(Decimal(m.group(1)))
    denominator = int(Decimal(m.group(2))) if m.group(2) else 1
    if denominator == 0:
        raise FormatError(f"zero denominator: {_echo(repr(text))}")
    return Fraction(numerator, denominator)


def format_scalar(q: Fraction) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    if type(q) is not Fraction:
        q = Fraction(q)
    if q.denominator == 1:
        return _digits(q.numerator)
    return f"{_digits(q.numerator)}/{_digits(q.denominator)}"


# Most odd numbers in one sieve segment. Each segment's buffers stay under
# glibc's 128 KiB mmap threshold: freeing a larger block raises that
# threshold, and the process then keeps more freed memory for the rest of
# its life.
_SEGMENT = 1 << 16

# The prime table: every prime up to `sieved`, stored as the gaps between
# consecutive primes, counted from 0 (2, 1, 2, 2, 4, ...). Every gap below
# DEFAULT_PRIME_BOUND fits in a byte (the largest is 114), so the whole table
# is 78 KB of bytes where a list of ints would take 2.8 MB. The pair is
# replaced whole, never mutated, so a caller always iterates a complete table.
_primes = (b"\x02", 2)


def _prime_gaps(limit: int) -> bytes:
    """The prime table, sieved in segments until it holds every prime up to limit.

    The table stops at DEFAULT_PRIME_BOUND, whatever the limit. It only
    grows, so it may hold primes past `limit`.
    """
    global _primes
    gaps, sieved = _primes
    limit = min(limit, DEFAULT_PRIME_BOUND)
    if sieved >= limit:
        return gaps
    last = sum(gaps)
    while sieved < limit:
        # A segment at most doubles the table, so for sieved >= 4 the table
        # holds every odd prime below sqrt(hi) (3 * sieved + 1 <= sieved**2);
        # for sieved == 2 there is none.
        lo = sieved + 1  # odd: sieved is even
        hi = min(lo + 2 * min(sieved, _SEGMENT), DEFAULT_PRIME_BOUND + 1)
        is_prime = bytearray(b"\x01") * ((hi - lo) // 2)  # index i is lo + 2i
        p = 2
        for gap in gaps[1:]:
            p += gap
            if p * p >= hi:
                break
            # Clear the odd multiples of p from max(p*p, lo) on.
            start = max(p * p, -(-lo // p) * p)
            if start % 2 == 0:
                start += p
            first = (start - lo) // 2
            is_prime[first::p] = bytes(len(range(first, len(is_prime), p)))
        new_gaps = bytearray()
        for p in itertools.compress(range(lo, hi, 2), is_prime):
            new_gaps.append(p - last)
            last = p
        gaps += new_gaps
        sieved = hi - 1
    _primes = (gaps, sieved)
    return gaps


def _trial_division(n: int) -> dict[int, int]:
    exponents: dict[int, int] = {}
    gaps, sieved = _primes
    if n > sieved * sieved:
        gaps = _prime_gaps(isqrt(n))
    p = 0
    for gap in gaps:
        p += gap
        if p * p > n:
            break
        if n % p == 0:
            n //= p
            e = 1
            while n % p == 0:
                n //= p
                e += 1
            exponents[p] = e
    if n > 1:
        # Every prime up to min(sqrt(n), DEFAULT_PRIME_BOUND) is divided out,
        # so a leftover within the bound is prime; past it, n has a factor
        # trial division cannot reach.
        if n > DEFAULT_PRIME_BOUND:
            raise ResourceError(f"factor {n} exceeds the prime bound {DEFAULT_PRIME_BOUND}")
        exponents[n] = 1
    return exponents


def factor(q: Fraction) -> dict[int, int]:
    """Prime factorization of a positive rational as {prime: exponent}.

    Denominator primes carry negative exponents; the empty map is the
    rational 1. Numerator and denominator are coprime, so their prime
    supports never overlap. Each is factored by trial division over a
    table of the primes up to DEFAULT_PRIME_BOUND (10**6), sieved on first
    use only as far as the inputs need. The numerator's primes come first,
    then the denominator's, each in increasing order. Raises ResourceError,
    naming the leftover cofactor, when a prime factor exceeds the bound.
    """
    if type(q) is not Fraction:
        q = Fraction(q)
    numerator, denominator = q.numerator, q.denominator
    if numerator <= 0:
        raise DomainError(f"factor requires a positive rational, got {format_scalar(q)}")
    exponents = _trial_division(numerator)
    for p, e in _trial_division(denominator).items():
        exponents[p] = -e
    return exponents

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

import functools
import itertools
import re
from decimal import Decimal
from fractions import Fraction
from math import isqrt, log10

from .errors import DomainError, FormatError, ResourceError

DEFAULT_PRIME_BOUND = 10**6

_SCALAR_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")

# The most characters of an input value that one error message echoes.
_ECHO_LIMIT = 200

_LOG10_2 = log10(2)


def _echo(value) -> str:
    """How an error message shows `value`: cut to _ECHO_LIMIT characters and marked when cut.

    An int or Fraction reads as `format_scalar` writes it, a str as itself
    and anything else as its repr. A number's text is never built whole:
    only the leading digits the message keeps are converted, so the cost
    does not grow with the square of the value's size.
    """
    if isinstance(value, (int, Fraction)):
        head, size = _leading_text(value.numerator)
        if value.denominator != 1:
            # The numerator's head fills the limit unless it is the whole numerator.
            tail, tail_size = _leading_text(value.denominator)
            head, size = f"{head}/{tail}", size + 1 + tail_size
    else:
        head = value if isinstance(value, str) else repr(value)
        size = len(head)
    if size <= _ECHO_LIMIT:
        return head
    return f"{head[:_ECHO_LIMIT]}... ({size} characters)"


def _leading_text(n: int) -> tuple[str, int]:
    """The first _ECHO_LIMIT characters of n's decimal text, and that text's whole length.

    |n| has floor(b * log10 2) or one more digits for b = n.bit_length(),
    and the float product may round across an integer, so the estimate
    int(b * log10 2) is at most one above the true count. Cutting one digit
    fewer than the estimate allows thus leaves a head of at least
    _ECHO_LIMIT digits, and the count is read off that head exactly.
    """
    cut = max(0, int(n.bit_length() * _LOG10_2) - _ECHO_LIMIT - 1)
    head = ("-" if n < 0 else "") + _digits(abs(n) // 10**cut)
    return head[:_ECHO_LIMIT], len(head) + cut


def _digits(n: int) -> str:
    # The same text as str(n), for integers of any size.
    return str(Decimal(n))


# The longest digit string converted by one int(Decimal(...)) call. That
# conversion takes time quadratic in the length, so longer strings are
# split in halves and the halves' integers combined.
_LEAF_DIGITS = 4000


def _parse_int(text: str) -> int:
    """The integer of an optionally signed decimal digit string of any length."""
    if len(text) <= _LEAF_DIGITS:
        return int(Decimal(text))
    if text[0] in "+-":
        n = _parse_int(text[1:])
        return -n if text[0] == "-" else n
    k = len(text) // 2
    return _parse_int(text[:-k]) * 10**k + _parse_int(text[-k:])


def parse_scalar(text: str) -> Fraction:
    """Parse a "p/q" or "p" literal into an exact rational."""
    m = _SCALAR_RE.match(text.strip())
    if m is None:
        raise FormatError(f"not a rational literal: {_echo(repr(text))} (expected p or p/q)")
    numerator = _parse_int(m.group(1))
    denominator = _parse_int(m.group(2)) if m.group(2) else 1
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


def _coprime_fraction(n: int, d: int) -> Fraction:
    """The Fraction n/d for coprime integers n and d > 0, built without a gcd.

    Fraction(n, d) divides both by gcd(n, d) even when it is 1, and that
    gcd costs about the square of their size; a caller that already has
    lowest terms (a product reduced by two small gcds) skips it. The
    object is what Fraction._from_coprime_ints builds on Python 3.12 and
    later; every supported version keeps a Fraction's value in the slots
    `_numerator` and `_denominator`.
    """
    q = object.__new__(Fraction)
    q._numerator = n
    q._denominator = d
    return q


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


def _trial_division(n: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of a positive integer n, in increasing prime order."""
    pairs = []
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
            pairs.append((p, e))
    if n > 1:
        # Every prime up to min(sqrt(n), DEFAULT_PRIME_BOUND) is divided out,
        # so a leftover within the bound is prime; past it, n has a factor
        # trial division cannot reach.
        if n > DEFAULT_PRIME_BOUND:
            raise ResourceError(
                f"factor {_echo(n)} exceeds the prime bound {DEFAULT_PRIME_BOUND}"
            )
        pairs.append((n, 1))
    return tuple(pairs)


# Integers below this have their factorizations memoised, at most
# _FACTOR_CACHE_SIZE of them, least recently used first out; a larger one is
# factored again on every call, so one huge input cannot pin memory. A
# refusal raises and is never cached. Entries are tuples, and `factor` builds
# a new dict from them on every call, so no caller can change a cached entry.
_CACHED_BELOW = 1 << 64
_FACTOR_CACHE_SIZE = 1024
_cached_division = functools.lru_cache(maxsize=_FACTOR_CACHE_SIZE)(_trial_division)


def _prime_powers(n: int) -> tuple[tuple[int, int], ...]:
    return _cached_division(n) if n < _CACHED_BELOW else _trial_division(n)


def factor(q: Fraction) -> dict[int, int]:
    """Prime factorization of a positive rational as {prime: exponent}.

    Denominator primes carry negative exponents; the empty map is the
    rational 1. Numerator and denominator are coprime, so their prime
    supports never overlap. Each is factored by trial division over a
    table of the primes up to DEFAULT_PRIME_BOUND (10**6), sieved on first
    use only as far as the inputs need, and remembered when it is below
    2**64. The numerator's primes come first, then the denominator's, each
    in increasing order. Raises ResourceError, naming the leftover
    cofactor, when a prime factor exceeds the bound.
    """
    if type(q) is not Fraction:
        q = Fraction(q)
    numerator, denominator = q.numerator, q.denominator
    if numerator <= 0:
        raise DomainError(f"factor requires a positive rational, got {_echo(q)}")
    exponents = dict(_prime_powers(numerator))
    for p, e in _prime_powers(denominator):
        exponents[p] = -e
    return exponents

"""Exact never-connect decision for a pair of rational slopes.

A pair with 0 < r < 1 < rho never connects (NC) when r^k = rho^l has no
integer solution besides k = l = 0, i.e. the prime exponent vectors of r
and rho are not parallel over the rationals. The test cross-multiplies
exponent entries, so no logarithms and no rounding are involved.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from ._value import Value
from .errors import DomainError, NcViolation
from .scalars import _echo, factor


class NcVerdict(Value, namedtuple("NcVerdict", "is_nc witness")):
    """Outcome of the never-connect check.

    `witness` is present exactly when the pair is dependent; it is the
    minimal integer pair (k, l) with k > 0 and r^k == rho^l.
    """

    __slots__ = ()
    is_nc: bool
    witness: tuple[int, int] | None

    def __new__(cls, is_nc, witness=None):
        if is_nc == (witness is not None):
            raise ValueError("witness must be present exactly when the pair is dependent")
        return tuple.__new__(cls, (is_nc, witness))

    def to_json_dict(self) -> dict:
        return {
            "is_nc": self.is_nc,
            "witness": list(self.witness) if self.witness is not None else None,
        }


_INDEPENDENT = NcVerdict(True)


def check_nc(r: Fraction, rho: Fraction) -> NcVerdict:
    """Decide exactly whether (r, rho) never connect.

    `r` and `rho` are converted with `Fraction(...)` unless they already are
    exactly of type Fraction (ints, strings, floats and Fraction subclasses
    are converted), so the range tests below compare integers in lowest
    terms. Raises DomainError when the pair is outside
    0 < r < 1 < rho; a wrong range is a different failure from
    multiplicative dependence and is never reported as is_nc=False.
    """
    if type(r) is not Fraction:
        r = Fraction(r)
    if type(rho) is not Fraction:
        rho = Fraction(rho)
    # Denominators are positive, so 0 < r < 1 is 0 < p < q for r = p/q.
    if not 0 < r.numerator < r.denominator:
        raise DomainError(
            f"never-connect requires 0 < r < 1, got r = {_echo(r)}"
        )
    if not rho.numerator > rho.denominator:
        raise DomainError(
            f"never-connect requires rho > 1, got rho = {_echo(rho)}"
        )
    exp_r = factor(r)
    exp_rho = factor(rho)
    if exp_r.keys() != exp_rho.keys():
        return _INDEPENDENT
    ratio = None  # common value of exp_r[p] / exp_rho[p] when the vectors are parallel
    for p, e in exp_r.items():
        this = Fraction(e, exp_rho[p])
        if ratio is None:
            ratio = this
        elif this != ratio:
            return _INDEPENDENT
    # Parallel vectors: k*exp_r = l*exp_rho forces l/k = ratio, so the minimal
    # witness with k > 0 is the reduced (denominator, numerator) pair.
    k, l = ratio.denominator, ratio.numerator
    assert r**k == rho**l
    return NcVerdict(False, (k, l))


def require_nc(r: Fraction, rho: Fraction) -> None:
    """Raise NcViolation unless (r, rho) never connect."""
    verdict = check_nc(r, rho)
    if not verdict.is_nc:
        k, l = verdict.witness
        raise NcViolation(
            f"slopes are multiplicatively dependent: "
            f"({_echo(Fraction(r))})^{k} == "
            f"({_echo(Fraction(rho))})^{l}",
            witness=verdict.witness,
        )

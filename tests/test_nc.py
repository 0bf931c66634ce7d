"""Never-connect decision vs direct power-equality search."""

from __future__ import annotations

from fractions import Fraction

import pytest

from lelekfan import DomainError, NcVerdict, NcViolation, check_nc, require_nc
from oracles import nc_brute_witness, nc_merge_witness


def test_dependent_pair_one_half_two():
    verdict = check_nc(Fraction(1, 2), Fraction(2))
    assert not verdict.is_nc
    assert verdict.witness == (1, -1)
    assert Fraction(1, 2) ** 1 == Fraction(2) ** -1


def test_independent_pair_one_half_three():
    # oracle: no equality anywhere on the exponent grid
    assert nc_brute_witness(Fraction(1, 2), Fraction(3)) is None
    verdict = check_nc(Fraction(1, 2), Fraction(3))
    assert verdict.is_nc
    assert verdict.witness is None


def test_dependent_pair_four_ninths():
    verdict = check_nc(Fraction(4, 9), Fraction(27, 8))
    assert not verdict.is_nc
    assert verdict.witness == (3, -2)
    assert Fraction(4, 9) ** 3 == Fraction(27, 8) ** -2 == Fraction(64, 729)


def test_verdict_has_a_witness_exactly_when_dependent():
    for is_nc, witness in ((True, (1, 1)), (False, None)):
        with pytest.raises(ValueError, match="witness must be present exactly"):
            NcVerdict(is_nc, witness)


def test_witness_reevaluates_exactly():
    for r, rho in [(Fraction(1, 2), Fraction(4)), (Fraction(2, 3), Fraction(9, 4)), (Fraction(8, 27), Fraction(9, 4))]:
        verdict = check_nc(r, rho)
        assert not verdict.is_nc
        k, l = verdict.witness
        assert k > 0
        assert r**k == rho**l


def test_agrees_with_brute_force_on_small_pool():
    pool_r = [Fraction(p, q) for q in range(2, 13) for p in range(1, q)]
    pool_rho = [Fraction(q, p) for q in range(2, 13) for p in range(1, q)]
    for r in pool_r[::5]:
        for rho in pool_rho[::5]:
            brute = nc_brute_witness(r, rho)
            verdict = check_nc(r, rho)
            assert verdict.is_nc == (brute is None), (r, rho, brute, verdict)
            assert nc_merge_witness(r, rho) == brute, (r, rho)


def test_constructed_dependent_pairs_yield_minimal_witnesses():
    import random

    rng = random.Random(99)
    for _ in range(40):
        s = rng.randint(2, 9)
        t = rng.randint(1, s - 1)
        base = Fraction(s, t)
        r = base ** -rng.randint(1, 4)
        rho = base ** rng.randint(1, 4)
        verdict = check_nc(r, rho)
        assert not verdict.is_nc
        # the naive brute's first hit is the minimal positive k
        assert verdict.witness == nc_brute_witness(r, rho, bound=64)


def test_preconditions_name_the_violated_clause():
    with pytest.raises(DomainError, match="0 < r < 1"):
        check_nc(Fraction(3, 2), Fraction(3))
    with pytest.raises(DomainError, match="rho > 1"):
        check_nc(Fraction(1, 2), Fraction(2, 3))
    with pytest.raises(DomainError, match="0 < r < 1"):
        check_nc(Fraction(0), Fraction(3))
    with pytest.raises(DomainError, match="0 < r < 1"):
        check_nc(Fraction(1), Fraction(3))


@pytest.mark.parametrize(
    "r, rho", [("1/2", 3), (0.5, "3"), (Fraction(1, 2), 3.0)], ids=["str-int", "float-str", "fraction-float"]
)
def test_check_nc_converts_any_rational_input(r, rho):
    assert check_nc(r, rho) == NcVerdict(True)
    assert check_nc(r, "9/3") == check_nc(Fraction(1, 2), Fraction(3))


def test_check_nc_non_fraction_input_keeps_witness_and_errors():
    assert check_nc("1/4", 2.0).witness == (1, -2)
    assert check_nc(0.25, "8").witness == (3, -2)
    for r in (0, 1, -1, "0", 1.0, "-1/2", "3/2"):
        with pytest.raises(DomainError, match="0 < r < 1"):
            check_nc(r, 3)
    for rho in (1, "1", 1.0, -3, "-3", "2/3", 0):
        with pytest.raises(DomainError, match="rho > 1"):
            check_nc("1/2", rho)


def test_require_nc_raises_with_witness():
    with pytest.raises(NcViolation) as info:
        require_nc(Fraction(1, 2), Fraction(2))
    assert info.value.witness == (1, -1)
    require_nc(Fraction(1, 2), Fraction(3))  # no raise

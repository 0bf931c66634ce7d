"""Legs, membership, enumeration, the truncated metric, and the leg file format."""

from __future__ import annotations

import gc
import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from oracles import enumerate_legs_reference, fan_to_dict, leg_reference, membership_reference

from lelekfan import (
    DENSITY_EPSILONS,
    DomainError,
    FanApprox,
    FormatError,
    Leg,
    PointPrefix,
    RelationSpec,
    ResourceError,
    Word,
    build_leg,
    cantor_relation,
    density_witness,
    enumerate_legs,
    fan_from_dict,
    fan_relation,
    format_scalar,
    is_degenerating,
    leg_point,
    line_pair_relation,
    load_fan,
    membership,
    sample_deep_points,
    sample_legs,
    save_fan,
    truncated_metric,
)
from lelekfan import analysis, mahavier, render
from lelekfan.cli import main
from lelekfan.mahavier import (
    _collector_paused,
    _drawn,
    _fan_json,
    _fields_text,
    _grow_legs,
    _leg_text_hook,
    _LegText,
    _save,
    _symbol_values,
    _walk,
)

R = Fraction(1, 2)
RHO = Fraction(3)
F = fan_relation(R, RHO)
G = cantor_relation(R)
L = line_pair_relation(R, RHO)
# four slopes, two below 1 and two above
Q = RelationSpec((Fraction(1, 3), Fraction(3, 4), Fraction(2), Fraction(5)))


def test_relation_validation():
    assert F.slopes == (Fraction(1, 2), Fraction(1), Fraction(3))
    assert G.slopes == (Fraction(1, 2), Fraction(1))
    assert line_pair_relation(R, RHO).slopes == (Fraction(1, 2), Fraction(3))
    with pytest.raises(DomainError):
        RelationSpec(())
    with pytest.raises(DomainError):
        RelationSpec((Fraction(0),))
    with pytest.raises(DomainError):
        RelationSpec((Fraction(1, 2), Fraction(1, 2)))


def test_membership_examples():
    assert membership(PointPrefix((0, 0, 0)), F)
    assert membership(PointPrefix((Fraction(2, 9), Fraction(2, 3), Fraction(1, 3), 1)), F)
    # oracle: consecutive ratios are 3, 1/2, 3, all slopes of F
    coords = (Fraction(2, 9), Fraction(2, 3), Fraction(1, 3), Fraction(1))
    assert [b / a for a, b in zip(coords, coords[1:])] == [Fraction(3), Fraction(1, 2), Fraction(3)]
    # 3/4 over 1/2 is 3/2, not a slope of F
    assert not membership(PointPrefix((Fraction(1, 2), Fraction(1, 2), Fraction(3, 4))), F)


def test_membership_zero_pairs():
    assert membership(PointPrefix((Fraction(1, 3), 0, 0)), F) is False  # (1/3, 0) is on no positive-slope line
    assert membership(PointPrefix((0, Fraction(1, 3))), F) is False
    assert membership(PointPrefix((0, 0, 0, 0)), G)


def test_point_prefix_bounds():
    with pytest.raises(DomainError):
        PointPrefix((Fraction(3, 2),))
    with pytest.raises(DomainError):
        PointPrefix((Fraction(-1, 2),))
    assert PointPrefix((Fraction(0), Fraction(1))).coords == (0, 1)


class _Tagged(Fraction):
    """A Fraction subclass: converted like any other non-Fraction input."""


def test_point_prefix_converts_only_non_fraction_coords():
    point = PointPrefix([0, "1/2", 1, Fraction(1, 3)])
    assert point.coords == (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(1, 3))
    assert type(point.coords) is tuple
    assert all(type(c) is Fraction for c in point.coords)
    assert [type(c) for c in PointPrefix((_Tagged(1, 2),)).coords] == [Fraction]
    # a tuple of Fractions is stored as given
    coords = (Fraction(1, 4), Fraction(3, 4))
    assert PointPrefix(coords).coords is coords
    for bad in ([Fraction(-1, 2)], ["3/2"], [2], (_Tagged(3, 2),), (_Tagged(-1, 3),)):
        with pytest.raises(DomainError, match="outside"):
            PointPrefix(bad)


def test_build_leg_examples():
    diag = build_leg(Word((1, 1, 1)))
    assert diag.prefix_products == (1, 1, 1)
    assert diag.t_max == 1

    leg = build_leg(Word((Fraction(3), Fraction(1, 2), Fraction(3))))
    assert leg.prefix_products == (Fraction(3), Fraction(3, 2), Fraction(9, 2))
    assert leg.t_max == Fraction(2, 9)

    small = build_leg(Word((Fraction(1, 2), Fraction(1, 2))))
    assert small.prefix_products == (Fraction(1, 2), Fraction(1, 4))
    assert small.t_max == 1


def test_build_leg_rejects_non_positive_symbols():
    for symbols in ((0,), (Fraction(1, 2), Fraction(-3))):
        with pytest.raises(DomainError, match="word symbols must be positive"):
            build_leg(Word(symbols))


def test_leg_point_examples():
    leg = build_leg(Word((Fraction(3), Fraction(1, 2), Fraction(3))))
    assert leg_point(leg, 0).coords == (0, 0, 0, 0)
    assert leg_point(leg, Fraction(2, 9)).coords == (
        Fraction(2, 9),
        Fraction(2, 3),
        Fraction(1, 3),
        Fraction(1),
    )
    diag = build_leg(Word((1, 1, 1)))
    assert leg_point(diag, 1).coords == (1, 1, 1, 1)
    with pytest.raises(
        DomainError, match=r"parameter 1/4 outside \[0, 2/9\]; the point would leave the unit cube"
    ):
        leg_point(leg, Fraction(1, 4))
    with pytest.raises(
        DomainError, match=r"parameter -1/9 outside \[0, 2/9\]; the point would leave the unit cube"
    ):
        leg_point(leg, Fraction(-1, 9))


def test_leg_points_pass_membership():
    fan = enumerate_legs(F, 5)
    rng = random.Random(5)
    for _ in range(100):
        leg = fan.legs[rng.randrange(len(fan.legs))]
        t = leg.t_max * rng.randint(0, 64) / 64
        assert membership(leg_point(leg, t), F)


def _leg_points(relation, depth: int) -> list:
    """Points at t_max/7 and t_max of every third leg: no zero coordinate, ends at 1."""
    legs = enumerate_legs(relation, depth).legs[::3]
    return [leg_point(leg, leg.t_max * k / 7) for leg in legs for k in (1, 7)]


def _witnesses() -> list:
    """Density witnesses of (5/7, 11/4) at depth 40: long climbs, ~1500-bit denominators."""
    r, rho = Fraction(5, 7), Fraction(11, 4)
    points = sample_deep_points(fan_relation(r, rho), 40, 6, seed=11)
    return [density_witness(x, eps, r, rho)[0] for x in points for eps in DENSITY_EPSILONS]


def _non_members(point: PointPrefix) -> list:
    """Points made from a member with no zero coordinate, each off the member's relation."""
    c = point.coords
    i = len(c) // 2
    made = [
        PointPrefix(c[:i] + (c[i] * Fraction(6, 7),) + c[i + 1 :]),
        PointPrefix((0,) * i + c[i:]),
    ]
    j = next((k for k in range(len(c) - 1) if c[k] != c[k + 1]), None)
    if j is not None:
        made.append(PointPrefix(c[:j] + (c[j + 1], c[j]) + c[j + 2 :]))
    return made


def test_membership_matches_definition():
    W = fan_relation(Fraction(5, 7), Fraction(11, 4))
    relations = (F, G, L, Q, W)
    own = [(p, F) for p in _leg_points(F, 5)]
    own += [(p, G) for p in _leg_points(G, 7)] + [(p, L) for p in _leg_points(L, 6)]
    own += [(p, W) for p in _witnesses()]
    assert max(c.denominator for p, _ in own for c in p.coords).bit_length() > 1000
    made = [(q, relation) for p, relation in own for q in _non_members(p)]
    # F-points whose word uses the slope 3, tested against G.
    off_g = [p for p in _leg_points(F, 5) if any(y > x for x, y in zip(p.coords, p.coords[1:]))]
    assert off_g
    for p, relation in own:
        assert membership(p, relation) and membership_reference(p, relation)
    for q, relation in made:
        assert not membership(q, relation) and not membership_reference(q, relation)
    for p in off_g:
        assert not membership(p, G) and not membership_reference(p, G)
    every = [p for p, _ in own] + [q for q, _ in made] + off_g
    for p in every:
        # The same point as equal-but-distinct Fractions, and a relation of fresh slopes.
        copy = PointPrefix(tuple(Fraction(c.numerator, c.denominator) for c in p.coords))
        for relation in relations:
            fresh = RelationSpec(tuple(Fraction(s.numerator, s.denominator) for s in relation.slopes))
            expected = membership_reference(p, relation)
            assert membership(p, relation) is expected
            assert membership(copy, fresh) is expected
    # Coordinates given as ints.
    for coords, relation, expected in [
        ((1, 1, 1), G, True),
        ((0, 0, 1), F, False),
        ((1, 0, 0), F, False),
        ((0, 0, 0), L, True),
        ((1, 1), L, False),
        ((Fraction(1, 3), 1, 1), F, True),
    ]:
        point = PointPrefix(coords)
        assert membership(point, relation) is membership_reference(point, relation) is expected


def test_enumerate_depth_one_caps():
    fan = enumerate_legs(F, 1)
    assert [leg.t_max for leg in fan.legs] == [1, 1, Fraction(1, 3)]


def test_enumerate_depth_zero_is_bare_segment():
    fan = enumerate_legs(F, 0)
    assert len(fan.legs) == 1
    assert fan.legs[0].t_max == 1
    assert fan.legs[0].prefix_products == ()


def test_enumerate_counts_and_budget():
    assert len(enumerate_legs(G, 4).legs) == 16
    assert len(enumerate_legs(F, 4).legs) == 81
    with pytest.raises(ResourceError, match="sampl"):
        enumerate_legs(F, 13)


def test_enumerate_refuses_a_deep_word_without_the_power():
    # budget 8 has bit length 4: G at depth 4 is refused with 2^4 printed, at
    # depth 5 and past it without computing the power. One slope has a single
    # word at every depth.
    assert len(enumerate_legs(G, 3, budget=8).legs) == 8
    with pytest.raises(ResourceError, match=r"^2\^4 = 16 legs exceeds the budget 8; "):
        enumerate_legs(G, 4, budget=8)
    # 10^5000 is echoed cut, as "2^1000...0... (5001 characters)".
    refused = r"^2\^[0-9.]+( \(\d+ characters\))? legs exceeds the budget 8; "
    for depth in (5, 10**9, 10**5000):
        with pytest.raises(ResourceError, match=refused):
            enumerate_legs(G, depth, budget=8)
    assert len(enumerate_legs(RelationSpec((1,)), 100, budget=1).legs) == 1
    with pytest.raises(ResourceError, match=r"^1\^100 = 1 legs exceeds the budget 0; "):
        enumerate_legs(RelationSpec((1,)), 100, budget=0)


def test_g_fullness():
    fan = enumerate_legs(G, 6)
    assert all(leg.t_max == 1 for leg in fan.legs)
    rng = random.Random(3)
    for _ in range(20):
        r = Fraction(rng.randint(1, 15), 16)
        if r == 1:
            continue
        for leg in enumerate_legs(cantor_relation(r), 4).legs:
            assert leg.t_max == 1


def test_leg_injectivity_small_depths():
    for depth in range(1, 6):
        fan = enumerate_legs(F, depth)
        products = {leg.prefix_products for leg in fan.legs}
        assert len(products) == 3**depth


def test_monotone_caps():
    rng = random.Random(11)
    for _ in range(200):
        word = tuple(F.slopes[rng.randrange(3)] for _ in range(rng.randint(0, 8)))
        extension = word + (F.slopes[rng.randrange(3)],)
        assert build_leg(Word(extension)).t_max <= build_leg(Word(word)).t_max


def test_distinct_legs_share_only_the_top():
    # Distinct product sequences force t = 0 at any common point: coordinate 0
    # pins the parameters equal, and a nonzero parameter would equate the products.
    left = build_leg(Word((RHO, R)))
    right = build_leg(Word((RHO, Fraction(1))))
    assert left.prefix_products != right.prefix_products
    differing = next(
        k for k, (a, b) in enumerate(zip(left.prefix_products, right.prefix_products)) if a != b
    )
    for i in range(1, 9):
        t = min(left.t_max, right.t_max) * i / 8
        assert leg_point(left, t).coords[differing + 1] != leg_point(right, t).coords[differing + 1]
    assert leg_point(left, 0) == leg_point(right, 0)


def test_subset_monotonicity():
    f_fan = enumerate_legs(F, 5)
    g_fan = enumerate_legs(G, 5)
    f_by_word = {leg.word.symbols: leg for leg in f_fan.legs}
    for leg in g_fan.legs:
        assert f_by_word[leg.word.symbols] == leg


@pytest.mark.parametrize("name", ["F", "G", "L", "Q"])
def test_enumerate_matches_reference(name):
    relation = {"F": F, "G": G, "L": L, "Q": Q}[name]
    for depth in range(7):
        legs = enumerate_legs(relation, depth).legs
        reference = enumerate_legs_reference(relation, depth)
        assert len(legs) == len(reference) == len(relation.slopes) ** depth
        for leg, ref in zip(legs, reference):
            assert leg.word == ref.word
            assert leg.prefix_products == ref.prefix_products
            assert leg.t_max == ref.t_max
        assert legs == reference


# 4/9 = 2^2/3^2 and 27/8 = 3^3/2^3: a product of one by the other cancels
# primes both ways, so the integer walk divides by both of its gcds.
GCD = RelationSpec((Fraction(4, 9), Fraction(1), Fraction(27, 8)))


def _assert_exact_leg(leg, reference):
    assert leg == reference
    assert type(leg) is Leg and type(leg.word) is Word
    assert all(type(p) is Fraction for p in leg.prefix_products)
    assert type(leg.t_max) is Fraction


def test_integer_walk_reduces_by_both_gcds():
    assert build_leg(Word(GCD.slopes[::-2])).prefix_products == (Fraction(27, 8), Fraction(3, 2))
    for depth in range(7):
        legs = enumerate_legs(GCD, depth).legs
        reference = enumerate_legs_reference(GCD, depth)
        assert len(legs) == len(reference) == 3**depth
        for leg, ref in zip(legs, reference):
            _assert_exact_leg(leg, ref)
    rng = random.Random(22)
    for _ in range(200):
        symbols = tuple(GCD.slopes[rng.randrange(3)] for _ in range(40))
        _assert_exact_leg(build_leg(Word(symbols)), leg_reference(symbols))
    # One walk over words of mixed lengths in random order, with repeats and
    # shared prefixes out of lexicographic order: every step the walk has
    # taken before is found in its tables, and must give the same leg.
    words = [
        tuple(GCD.slopes[rng.randrange(3)] for _ in range(rng.randrange(12))) for _ in range(150)
    ]
    words += [w[: rng.randrange(len(w) + 1)] for w in words[:100]] + words[50:100]
    rng.shuffle(words)
    legs = list(_grow_legs(words))
    assert len(legs) == len(words)
    for leg, symbols in zip(legs, words):
        _assert_exact_leg(leg, leg_reference(symbols))


def test_walk_values_are_the_fractions_of_their_terms():
    # The walk builds each product and cap from its reduced terms without
    # Fraction's gcd: each must be the Fraction that plain arithmetic gives,
    # in value, terms, hash and text, on enumerated, sampled, loaded and
    # single legs.
    rng = random.Random(29)
    walks = [enumerate_legs(relation, 6).legs for relation in (F, GCD)]
    walks.append(sample_legs(F, 400, 20, seed=5))
    walks.append(fan_from_dict(fan_to_dict(enumerate_legs(GCD, 4))).legs)
    walks.append([build_leg(Word(tuple(GCD.slopes[rng.randrange(3)] for _ in range(60)))) for _ in range(20)])
    for legs in walks:
        for leg in legs:
            reference = leg_reference(leg.word.symbols)
            pairs = list(zip(leg.prefix_products, reference.prefix_products)) + [(leg.t_max, reference.t_max)]
            for value, expected in pairs:
                assert type(value) is Fraction
                assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)
                assert value == expected and hash(value) == hash(expected)
                assert str(value) == str(expected) and format_scalar(value) == format_scalar(expected)


@pytest.mark.parametrize("name", ["F", "G", "L"])
def test_walk_builds_one_fraction_per_value(name):
    # Prefix products and caps are shared across legs and depths: one
    # object per distinct value over both, so a cap of 1 is the walk's 1
    # that a slope-1 prefix reaches.
    relation = {"F": F, "G": G, "L": L}[name]
    fans = [enumerate_legs(relation, depth).legs for depth in range(9)]
    fans.append(sample_legs(relation, 40, 50, seed=3))
    fans.append(fan_from_dict(fan_to_dict(enumerate_legs(relation, 6))).legs)
    for legs in fans:
        values = [p for leg in legs for p in leg.prefix_products]
        values += [leg.t_max for leg in legs]
        assert all(type(v) is Fraction for v in values)
        assert len({id(v) for v in values}) == len(set(values))


def test_walk_leaves_no_reference_cycle():
    # The slope 1 maps a (product, t_max) pair to itself; the step table is
    # keyed by ids, so no pair refers to another and refcounting frees the fan.
    gc.collect()
    gc.disable()
    try:
        fan = enumerate_legs(F, 6)
        legs = sample_legs(F, 40, 50, seed=3)
        assert len(fan.legs) == 3**6 and len(legs) == 50
        del fan, legs
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_word_converts_only_non_fraction_symbols():
    mixed = Word((1, Fraction(1, 2)))
    exact = Word((Fraction(1), Fraction(1, 2)))
    assert [type(s) for s in mixed.symbols] == [Fraction, Fraction]
    assert mixed == exact and hash(mixed) == hash(exact)
    assert Word([Fraction(1, 2)]).symbols == (Fraction(1, 2),)
    # a tuple of Fractions is stored as given
    symbols = (Fraction(1, 2), Fraction(3))
    assert Word(symbols).symbols is symbols


def test_sample_legs_is_build_leg_of_each_drawn_word():
    # One walk builds every sampled leg; it must equal build_leg of each
    # word drawn by the documented rule, depth randrange calls per word.
    for relation in (F, G, Q):
        slopes = relation.slopes
        for seed in (0, 1, 7, 2024):
            for depth, count in ((0, 3), (1, 20), (9, 40), (60, 25), (5, 0)):
                rng = random.Random(seed)
                words = [
                    tuple(slopes[rng.randrange(len(slopes))] for _ in range(depth))
                    for _ in range(count)
                ]
                legs = sample_legs(relation, depth, count, seed)
                assert legs == tuple(build_leg(Word(w)) for w in words)
                for leg, w in zip(legs, words):
                    _assert_exact_leg(leg, leg_reference(w))


def test_sample_legs_deterministic():
    a = sample_legs(F, 40, 100, seed=7)
    b = sample_legs(F, 40, 100, seed=7)
    assert a == b
    assert len(a) == 100
    c = sample_legs(F, 1, 10, seed=1)
    assert len(c) == 10
    assert {leg.word.symbols[0] for leg in c} <= set(F.slopes)
    d = sample_legs(G, 5, 32, seed=3)
    assert all(set(leg.word.symbols) <= set(G.slopes) for leg in d)


def test_truncated_metric_examples():
    p = PointPrefix((0, 0, 0, 0))
    q = PointPrefix((Fraction(2, 9), Fraction(2, 3), Fraction(1, 3), 1))
    # oracle: direct rational evaluation of the weighted sum
    direct = (
        Fraction(2, 9) / 2
        + Fraction(2, 3) / 4
        + Fraction(1, 3) / 8
        + Fraction(1) / 16
    )
    assert direct == Fraction(55, 144)
    value, tail = truncated_metric(p, q)
    assert value == Fraction(55, 144)
    assert tail == Fraction(1, 16)

    value, tail = truncated_metric(PointPrefix((1, 1)), PointPrefix((0, 0)))
    assert (value, tail) == (Fraction(3, 4), Fraction(1, 4))

    value, tail = truncated_metric(q, q)
    assert value == 0


def test_truncated_metric_matches_definition():
    rng = random.Random(17)

    def coord(bits: int) -> Fraction:
        d = rng.randrange(1, 1 << bits)
        return Fraction(rng.randint(0, d), d)

    pairs = []
    for n, bits in [(1, 4), (6, 8), (12, 64), (40, 256)]:
        for _ in range(10):
            p = tuple(coord(bits) for _ in range(n))
            q = tuple(coord(bits) for _ in range(n))
            shared = tuple(a if rng.random() < 0.5 else b for a, b in zip(p, q))
            copies = tuple(Fraction(a.numerator, a.denominator) for a in p)
            mixed = tuple(a if rng.random() < 0.5 else b for a, b in zip(copies, q))
            pairs += [(p, q), (p, shared), (shared, q), (p, copies), (copies, mixed), (p, p)]
    # The last 40 coordinates of each witness (up to ~1500-bit denominators)
    # against the 40 before them, shifted by one.
    witness_pairs = [(w.coords[-40:], w.coords[-41:-1]) for w in _witnesses() if len(w) > 40]
    for a, b in pairs + witness_pairs:
        expected = sum((abs(x - y) / 2 ** (k + 1) for k, (x, y) in enumerate(zip(a, b))), Fraction(0))
        value, tail = truncated_metric(PointPrefix(a), PointPrefix(b))
        assert type(value) is Fraction and type(tail) is Fraction
        assert value == expected
        assert tail == Fraction(1, 2 ** len(a))
        if a == b:
            assert value == 0


def test_truncated_metric_shape_error():
    with pytest.raises(DomainError, match="prefix lengths differ: 2 vs 3"):
        truncated_metric(PointPrefix((0, 0)), PointPrefix((0, 0, 0)))


def test_metric_axioms_random():
    rng = random.Random(23)

    def random_point(length):
        return PointPrefix(tuple(Fraction(rng.randint(0, 64), 64) for _ in range(length)))

    for _ in range(300):
        length = rng.randint(1, 10)
        p, q, s = (random_point(length) for _ in range(3))
        vpq, _ = truncated_metric(p, q)
        vqp, _ = truncated_metric(q, p)
        assert vpq == vqp
        vps, _ = truncated_metric(p, s)
        vsq, _ = truncated_metric(s, q)
        assert vpq <= vps + vsq
        assert (vpq == 0) == (p == q)


def test_metric_sandwich_under_extension():
    rng = random.Random(29)
    for _ in range(200):
        length = rng.randint(1, 10)
        a = tuple(Fraction(rng.randint(0, 64), 64) for _ in range(length + 1))
        b = tuple(Fraction(rng.randint(0, 64), 64) for _ in range(length + 1))
        v_short, t_short = truncated_metric(PointPrefix(a[:-1]), PointPrefix(b[:-1]))
        v_long, t_long = truncated_metric(PointPrefix(a), PointPrefix(b))
        assert v_long >= v_short
        assert v_long + t_long <= v_short + t_short


def test_degeneracy_flag():
    leg = build_leg(Word((RHO,) * 8))
    assert not is_degenerating(leg)  # t_max = 3^-8 is still above 2^-20
    assert is_degenerating(leg, threshold=Fraction(1, 6000))
    assert not is_degenerating(build_leg(Word((1, 1))))


def test_fan_approx_depth_validation():
    leg = build_leg(Word((R,)))
    with pytest.raises(DomainError, match="leg of depth 1 in a depth-2 approximation"):
        FanApprox(F, 2, (leg,))
    with pytest.raises(DomainError, match="depth must be non-negative"):
        FanApprox(F, -1, ())


def test_negative_depth_is_domain_error():
    with pytest.raises(DomainError, match="depth must be non-negative"):
        enumerate_legs(F, -1)
    with pytest.raises(DomainError, match="depth must be non-negative"):
        sample_legs(F, -1, 3, seed=0)


def test_negative_count_is_domain_error():
    with pytest.raises(DomainError, match="count must be non-negative"):
        sample_legs(F, 3, -2, seed=0)
    assert sample_legs(F, 3, 0, seed=0) == ()


def test_leg_file_round_trip(tmp_path):
    fan = enumerate_legs(F, 3)
    path = tmp_path / "legs.json"
    save_fan(fan, path)
    again = load_fan(path)
    assert again == fan

    data = fan_to_dict(fan)
    assert data["relation"]["slopes"] == ["1/2", "1", "3"]
    assert data["depth"] == 3
    assert {"word", "t_max"} == set(data["legs"][0])
    assert fan_from_dict(data) == fan


def test_leg_file_verification_errors(tmp_path):
    fan = enumerate_legs(F, 2)
    data = fan_to_dict(fan)
    data["legs"][0]["t_max"] = "1/7"
    with pytest.raises(FormatError, match="t_max"):
        fan_from_dict(data)

    data = fan_to_dict(fan)
    data["legs"][0]["word"] = ["1/2"]
    with pytest.raises(FormatError, match="depth"):
        fan_from_dict(data)

    data = fan_to_dict(fan)
    data["legs"][0]["word"] = ["1/2", "5"]
    with pytest.raises(FormatError, match="slope"):
        fan_from_dict(data)

    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(FormatError):
        load_fan(bad)
    bad.write_bytes(b"\xff\xfe{}")  # not UTF-8
    with pytest.raises(FormatError, match="not valid JSON"):
        load_fan(bad)


def _leg_orders() -> dict:
    """Legs of F in enumerated, shuffled, reversed and sampled order, and a depth-0 fan."""
    legs = enumerate_legs(F, 4).legs
    shuffled = list(legs)
    random.Random(3).shuffle(shuffled)
    return {
        "enumerated": FanApprox(F, 4, legs),
        "shuffled": FanApprox(F, 4, tuple(shuffled)),
        "reversed": FanApprox(F, 4, legs[::-1]),
        "sampled": FanApprox(F, 30, sample_legs(F, 30, 200, seed=4)),
        "depth-0": enumerate_legs(F, 0),
    }


def _saved_fans() -> dict:
    """The fans of `_leg_orders`, F, G and L enumerated at depths 0-7, and an empty fan."""
    fans = _leg_orders()
    for name, relation in (("F", F), ("G", G), ("Lrr", L)):
        for depth in range(8):
            fans[f"{name}{depth}"] = enumerate_legs(relation, depth)
    fans["empty"] = FanApprox(F, 3, ())
    return fans


@pytest.mark.parametrize(
    "order",
    ["enumerated", "shuffled", "reversed", "sampled", "depth-0", "empty"]
    + [f"{name}{depth}" for name in ("F", "G", "Lrr") for depth in range(8)],
)
def test_save_fan_writes_one_indented_dump(tmp_path, order):
    # save_fan writes leg by leg; its bytes are those of one json.dumps.
    fan = _saved_fans()[order]
    path = tmp_path / "legs.json"
    save_fan(fan, path)
    expected = json.dumps(fan_to_dict(fan), indent=2) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")
    assert load_fan(path) == fan


# The further fields of leg i are EXTRA_FIELDS[name][i % len]: flat
# values of every JSON type, equal values of different types (True == 1,
# False == 0, -0.0 == 0.0) on successive legs under one key, and nested
# values, each laid out as json.dumps lays it out.
EXTRA_FIELDS = {
    "true-then-1": ({"flag": True}, {"flag": 1}),
    "1-then-true": ({"flag": 1}, {"flag": True}),
    "0-and-false": ({"flag": 0, "other": False}, {"flag": False, "other": 0}),
    "signed-zeros": ({"x": 0.0}, {"x": -0.0}, {"x": 0}),
    "string": ({"kind": "exact", "note": 'a "quoted"\nline'}, {"kind": "1"}),
    "none": ({"value": None}, {"value": "null"}),
    "empty-more": ({},),
    "empty-dict-value": ({"meta": {}}, {"meta": []}),
    "nested": ({"meta": {"a": [1, {"b": None}], "c": {}}, "n": 2},),
}


@pytest.mark.parametrize("fields", EXTRA_FIELDS)
@pytest.mark.parametrize("name", ["F3", "sampled", "depth-0", "empty"])
def test_fan_json_lays_out_extra_fields_as_json_dumps(name, fields):
    fan = {
        "F3": enumerate_legs(F, 3),
        "sampled": FanApprox(F, 20, sample_legs(F, 20, 12, seed=5)),
        "depth-0": FanApprox(G, 0, tuple(build_leg(Word(())) for _ in range(3))),
        "empty": FanApprox(F, 3, ()),
    }[name]
    choices = EXTRA_FIELDS[fields]
    position = {id(leg): i for i, leg in enumerate(fan.legs)}

    def more(leg):
        return _fields_text(choices[position[id(leg)] % len(choices)])

    head = {"depth": fan.depth, "count": 0, "flagged": True, "nested": {"a": [1, {}]}}
    legs = [{**d, **choices[i % len(choices)]} for i, d in enumerate(fan_to_dict(fan)["legs"])]
    expected = json.dumps({**head, "legs": legs}, indent=2) + "\n"
    assert "".join(_fan_json(head, fan.relation, fan.legs, more)) == expected


def test_fields_text_lays_out_flat_fields_as_json_dumps():
    fields = [
        {},
        {"kind": "exact", "peak_index": 0, "peak_value": "1", "degenerating": False},
        {"kind": "exact", "peak_index": 12, "peak_value": "1", "degenerating": True},
        {"note": 'a "quoted"\nline \u00e9', "count": -3, "big": 10**30, "value": None},
    ]
    leg = {"word": ["1"], "t_max": "1"}
    without = json.dumps({"legs": [leg]}, indent=2)
    for flat in fields:
        laid_out = without.replace('"1"\n    }', f'"1"{_fields_text(flat)}\n    }}')
        assert laid_out == json.dumps({"legs": [{**leg, **flat}]}, indent=2), flat


@pytest.mark.parametrize("order", ["enumerated", "shuffled", "reversed", "sampled", "depth-0"])
def test_loaded_legs_match_build_leg(order):
    fan = _leg_orders()[order]
    loaded = fan_from_dict(fan_to_dict(fan))
    assert len(loaded.legs) == len(fan.legs)
    for leg, original in zip(loaded.legs, fan.legs):
        assert leg.word == original.word
        assert leg == build_leg(Word(leg.word.symbols))
        assert leg == leg_reference(leg.word.symbols)
        # every symbol is the loaded relation's own slope object
        assert all(any(s is t for t in loaded.relation.slopes) for s in leg.word.symbols)


def test_every_tampered_t_max_is_rejected():
    # A stale t_max copied from the leg before must fail too, even when the
    # two words share every symbol but the last.
    legs = fan_to_dict(enumerate_legs(F, 2))["legs"]
    for i, leg in enumerate(legs):
        stale = legs[i - 1]["t_max"] if i else "1/7"
        if stale == leg["t_max"]:
            stale = "1/7"
        data = fan_to_dict(enumerate_legs(F, 2))
        data["legs"][i]["t_max"] = stale
        message = (
            f"stored t_max {stale} disagrees with recomputed {leg['t_max']} "
            f"for word {leg['word']}"
        )
        with pytest.raises(FormatError) as info:
            fan_from_dict(data)
        assert str(info.value) == message


def test_tampered_t_max_after_a_shared_prefix_keeps_its_error_order():
    data = fan_to_dict(enumerate_legs(F, 3))
    legs = data["legs"]
    # (1, 1, 1) then (1, 1, 3): all but the last symbol shared, t_max 1 then 1/3
    i = next(k for k, leg in enumerate(legs) if leg["word"] == ["1", "1", "3"])
    assert legs[i - 1]["word"] == ["1", "1", "1"] and legs[i - 1]["t_max"] == "1"
    legs[i]["t_max"] = "1"
    legs[i + 1]["word"] = ["1", "1", "5"]  # a later error must not be reported first
    with pytest.raises(FormatError) as info:
        fan_from_dict(data)
    assert str(info.value) == (
        "stored t_max 1 disagrees with recomputed 1/3 for word ['1', '1', '3']"
    )


def _one_id_per_value(legs):
    """The legs, checking that no t_max id seen before returns with another value."""
    seen = {}
    for leg in legs:
        value = (leg.t_max.numerator, leg.t_max.denominator)
        assert seen.setdefault(id(leg.t_max), value) == value
        yield leg


@pytest.mark.parametrize(
    "relation, depth, walk",
    [
        (F, 7, lambda: _walk(F, 7, 3**7)),
        (Q, 4, lambda: _walk(Q, 4, 4**4)),
        (G, 0, lambda: _walk(G, 0, 1)),
        (F, 40, lambda: _drawn(random.Random(3), F, 40, 50)),
        (F, 5, lambda: _drawn(random.Random(3), F, 5, 0)),
    ],
    ids=["F7", "Q4", "G0", "sampled", "no-legs"],
)
def test_fan_json_writes_a_one_shot_walk_as_its_tuple(relation, depth, walk):
    # Streamed, each leg is dropped once its piece is made, and the writer's
    # memo by id keeps each t_max it keys alive.
    head = {"depth": depth}

    def flag(leg):
        return {"degenerating": is_degenerating(leg, Fraction(1, 9))}

    def more(leg):
        return _fields_text(flag(leg))

    legs = tuple(walk())
    dumped = [{**d, **flag(leg)} for d, leg in zip(fan_to_dict(FanApprox(relation, depth, legs))["legs"], legs)]
    expected = json.dumps({**head, "legs": dumped}, indent=2) + "\n"
    assert "".join(_fan_json(head, relation, legs, more)) == expected
    del legs, dumped
    gc.collect()
    assert "".join(_fan_json(head, relation, _one_id_per_value(walk()), more)) == expected


def test_save_writes_a_stream_of_separately_built_legs_as_its_tuple(tmp_path):
    # Each leg is built by a walk of its own and dropped once it is written,
    # so nothing but the writer keeps its t_max alive, and the next leg's
    # t_max may take a dead one's id.
    rng = random.Random(11)
    words = [Word(tuple(rng.choice(F.slopes) for _ in range(6))) for _ in range(400)]
    held, streamed = tmp_path / "held.json", tmp_path / "streamed.json"
    assert _save(held, F, 6, tuple(build_leg(word) for word in words)) == 400
    assert _save(streamed, F, 6, (build_leg(word) for word in words)) == 400
    assert streamed.read_bytes() == held.read_bytes()


def test_fan_json_finds_equal_but_distinct_symbols():
    fan = enumerate_legs(Q, 3)
    # the same legs, every symbol an equal but distinct Fraction object
    copies = FanApprox(
        Q,
        3,
        tuple(
            build_leg(Word(tuple(Fraction(s.numerator, s.denominator) for s in leg.word.symbols)))
            for leg in fan.legs
        ),
    )
    assert all(
        s is not t for a, b in zip(fan.legs, copies.legs)
        for s, t in zip(a.word.symbols, b.word.symbols)
    )
    # Each copy is found by value among Q's slopes and written as that slope.
    head = {"depth": 3}
    expected = json.dumps({**head, "legs": fan_to_dict(fan)["legs"]}, indent=2) + "\n"
    assert "".join(_fan_json(head, Q, copies.legs)) == "".join(_fan_json(head, Q, fan.legs)) == expected


def test_symbol_values_memoises_nothing_when_missing_raises():
    def refuse(symbol):
        raise DomainError(f"refused {symbol}")

    lookup = _symbol_values(Q, range(len(Q.slopes)), refuse)
    foreign = Fraction(5, 7)
    for _ in range(2):
        with pytest.raises(DomainError, match="refused 5/7"):
            lookup((Q.slopes[0], foreign))
    copies = tuple(Fraction(s.numerator, s.denominator) for s in reversed(Q.slopes))
    assert lookup(copies) == list(reversed(range(len(Q.slopes))))


def test_fan_to_dict_writes_a_foreign_symbol(tmp_path):
    leg = build_leg(Word((Fraction(1, 2), Fraction(7, 5))))
    fan = FanApprox(F, 2, (leg, enumerate_legs(F, 2).legs[-1], leg))
    data = fan_to_dict(fan)
    assert data["legs"][0] == data["legs"][2] == {"word": ["1/2", "7/5"], "t_max": "1"}
    path = tmp_path / "legs.json"
    save_fan(fan, path)
    assert path.read_text(encoding="utf-8") == json.dumps(data, indent=2) + "\n"


def _malformed(case: str) -> dict:
    data = fan_to_dict(enumerate_legs(F, 1))
    leg = data["legs"][0]
    if case == "no-t_max":
        del leg["t_max"]
    elif case == "no-word":
        del leg["word"]
    elif case == "int-symbol":
        leg["word"] = [3]
    elif case == "leg-not-object":
        data["legs"][0] = "x"
    elif case == "depth-not-integer":
        data["depth"] = "a"
    elif case == "word-is-string":
        leg["word"] = "3"
    elif case == "slopes-not-strings":
        data["relation"]["slopes"] = [1, 2]
    elif case == "legs-not-list":
        data["legs"] = {"0": leg}
    return data


MALFORMED = [
    "no-t_max",
    "no-word",
    "int-symbol",
    "leg-not-object",
    "depth-not-integer",
    "word-is-string",
    "slopes-not-strings",
    "legs-not-list",
]


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_leg_file_is_format_error(case):
    with pytest.raises(FormatError, match="malformed leg file"):
        fan_from_dict(_malformed(case))


def test_malformed_leg_file_exits_3(tmp_path, capsys):
    for case in MALFORMED:
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(_malformed(case)))
        assert main(["endpoints", "--in", str(path)]) == 3, case
        assert "malformed leg file" in capsys.readouterr().err, case


# A leg-shaped object, {"word": [...], "t_max": "..."}, anywhere but in
# "legs", legs the reader keeps as dicts, and legs whose texts the reader
# shares: each error reads as it did when the reader kept every object a
# dict (texts recorded then).
LEG_SHAPED_ERRORS = {
    "document": "malformed leg file: 'relation'",
    "relation": "malformed leg file: 'slopes'",
    "slopes": "malformed leg file: slopes {'word': ['1/2'], 't_max': '1'} is not a list",
    "slope": "malformed leg file: slope {'word': ['1/2'], 't_max': '1'} is not a string",
    "depth": "malformed leg file: depth {'word': ['1/2'], 't_max': '1'} is not an integer",
    "legs": "malformed leg file: legs {'word': ['1/2'], 't_max': '1'} is not a list",
    "leg-in-a-list": "malformed leg file: leg [{'word': ['1/2'], 't_max': '1'}] is not an object",
    "extra-key": "stored t_max 1/9 disagrees with recomputed 1/3 for word ['3']",
    "extra-key-no-t_max": (
        "malformed leg file: leg {'word': ['3'], 'note': {'word': ['1/2'], 't_max': '1'}} "
        "has no 't_max'"
    ),
    "word-holds-a-list": "malformed leg file: symbol ['3'] is not a string",
    "word-holds-a-leg": "malformed leg file: symbol {'word': ['1/2'], 't_max': '1'} is not a string",
    "word-is-a-leg": "malformed leg file: word {'word': ['1/2'], 't_max': '1'} is not a list",
    "t_max-is-a-leg": "malformed leg file: t_max {'word': ['1/2'], 't_max': '1'} is not a string",
    "keys-reversed": "stored t_max 1/9 disagrees with recomputed 1/3 for word ['3']",
    "word-length": "word ['3', '3'] has length 2, expected depth 1",
    "foreign-symbol": "symbol 5 is not a slope of the relation",
    # The text "1/3" is checked on the first leg, then fails on the second.
    "shared-t_max-text": "stored t_max 1/3 disagrees with recomputed 1 for word ['1/2']",
}


def _leg_shaped(case: str) -> dict:
    leg = {"word": ["1/2"], "t_max": "1"}
    data = {
        "relation": {"slopes": ["1/2", "1", "3"]},
        "depth": 1,
        "legs": [{"word": ["3"], "t_max": "1/3"}],
    }
    first = data["legs"][0]
    if case == "document":
        return leg
    if case == "relation":
        data["relation"] = leg
    elif case == "slopes":
        data["relation"]["slopes"] = leg
    elif case == "slope":
        data["relation"]["slopes"][0] = leg
    elif case == "depth":
        data["depth"] = leg
    elif case == "legs":
        data["legs"] = leg
    elif case == "leg-in-a-list":
        data["legs"] = [[leg]]
    elif case == "extra-key":
        data["legs"][0] = {"word": ["3"], "t_max": "1/9", "note": leg}
    elif case == "extra-key-no-t_max":
        data["legs"][0] = {"word": ["3"], "note": leg}
    elif case == "word-holds-a-list":
        first["word"] = [["3"]]
    elif case == "word-holds-a-leg":
        first["word"] = [leg]
    elif case == "word-is-a-leg":
        first["word"] = leg
    elif case == "t_max-is-a-leg":
        first["t_max"] = leg
    elif case == "keys-reversed":
        data["legs"][0] = {"t_max": "1/9", "word": ["3"]}
    elif case == "word-length":
        first["word"] = ["3", "3"]
    elif case == "foreign-symbol":
        first["word"] = ["5"]
    elif case == "shared-t_max-text":
        data["legs"].append({"word": ["1/2"], "t_max": "1/3"})
    return data


@pytest.mark.parametrize("case", LEG_SHAPED_ERRORS)
def test_leg_shaped_objects_keep_their_errors(tmp_path, case):
    path = tmp_path / "legs.json"
    path.write_text(json.dumps(_leg_shaped(case)), encoding="utf-8")
    for read in (lambda: load_fan(path), lambda: fan_from_dict(_leg_shaped(case))):
        with pytest.raises(FormatError) as info:
            read()
        assert str(info.value) == LEG_SHAPED_ERRORS[case]


def test_leg_text_hook_keeps_what_it_does_not_recognise():
    hook = _leg_text_hook()
    kept = [
        {"word": [["3"]], "t_max": "1"},  # unhashable items
        {"word": [{"a": 1}], "t_max": "1"},
        {"word": ["3", 3], "t_max": "1"},
        {"word": [1.0], "t_max": "1"},
        {"word": [True], "t_max": "1"},
        {"word": ["3"], "t_max": 1},
        {"word": "3", "t_max": "1"},
        {"t_max": "1", "word": ["3"]},
        {"word": ["3"], "t_max": "1", "note": None},
        {"word": ["3"]},
        {},
    ]
    for obj in kept:
        assert hook(obj) is obj
    a = hook({"word": ["1/2", "3"], "t_max": "1/3"})
    b = hook({"word": ["".join(["1/", "2"]), "".join(["1/", "2"])], "t_max": "".join(["1/", "3"])})
    assert type(a) is type(b) is _LegText
    assert repr(a) == repr({"word": ["1/2", "3"], "t_max": "1/3"})
    assert a["word"] == ["1/2", "3"] and a["t_max"] == "1/3"
    # Each text is the first equal text the hook saw.
    assert b.word[0] is b.word[1] is a.word[0] and b.t_max is a.t_max
    assert hook({"word": [], "t_max": "1"}) == _LegText((), "1")


@pytest.mark.parametrize("case", MALFORMED)
def test_load_fan_keeps_the_malformed_leg_file_errors(tmp_path, case):
    path = tmp_path / "legs.json"
    path.write_text(json.dumps(_malformed(case)), encoding="utf-8")
    with pytest.raises(FormatError) as expected:
        fan_from_dict(_malformed(case))
    with pytest.raises(FormatError) as info:
        load_fan(path)
    assert str(info.value) == str(expected.value)


def test_load_fan_holds_the_fan_not_the_parsed_legs(tmp_path):
    # Leg objects are read as tuples of shared texts, not as a dict holding
    # a list of new strings each, and each is dropped once its leg is
    # rebuilt: about 360 bytes per leg of F8 at the peak here (the loaded
    # fan alone holds about 345), about 500 when the parsed legs were all
    # held until the last was checked, and about 820 when every leg
    # object stayed a dict.
    path = tmp_path / "F8.json"
    save_fan(enumerate_legs(F, 8), path)
    tracemalloc.start()
    try:
        fan = load_fan(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(fan.legs) == 3**8
    assert peak < 430 * len(fan.legs), peak


def _recording(legs, states: list):
    """The legs, one at a time, appending the collector's state as each is read."""
    for leg in legs:
        states.append(gc.isenabled())
        yield leg


class _RecordingLegs(tuple):
    """A tuple of legs whose iteration appends the collector's state to `states`."""

    states: list = []

    def __iter__(self):
        return _recording(tuple.__iter__(self), self.states)


def test_fans_are_built_with_the_collector_paused(tmp_path, monkeypatch):
    fan = enumerate_legs(F, 4)
    path = tmp_path / "F4.json"
    save_fan(fan, path)
    states = _RecordingLegs.states = []
    grow = mahavier._grow_legs
    monkeypatch.setattr(mahavier, "_grow_legs", lambda words: _recording(grow(words), states))
    make_hook = mahavier._leg_text_hook

    def recording_hook():
        hook = make_hook()

        def record(obj):
            states.append(gc.isenabled())
            return hook(obj)

        return record

    monkeypatch.setattr(mahavier, "_leg_text_hook", recording_hook)
    weights = [2.0 ** -(k + 1) for k in range(5)]
    # Its words decrease, so `_angles` puts them in a table, after its order
    # check has read the first two legs.
    reversed_fan = FanApprox(F, 4, _RecordingLegs(fan.legs[::-1]))
    builds = {
        "enumerate_legs": (lambda: enumerate_legs(F, 4), 0),
        "sample_legs": (lambda: sample_legs(F, 30, 50, seed=1), 0),
        "load_fan": (lambda: load_fan(path), 0),
        "_trie": (lambda: analysis._trie(_recording(fan.legs, states), weights), 0),
        "_angles": (lambda: render._angles(reversed_fan, render.ANGLE_CANTOR), 2),
    }
    assert gc.isenabled()
    for name, (build, checked_first) in builds.items():
        states.clear()
        build()
        assert len(states) > checked_first and not any(states[checked_first:]), name
        assert gc.isenabled(), name
    # The parsed objects and the rebuilt legs: 81 of each, and the document.
    states.clear()
    load_fan(path)
    assert len(states) == 81 + 1 + 1 + 81


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_collector_state_is_restored(tmp_path, enabled):
    good = tmp_path / "good.json"
    save_fan(enumerate_legs(F, 4), good)
    tampered = fan_to_dict(enumerate_legs(F, 4))
    tampered["legs"][40]["t_max"] = "1/7"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(tampered), encoding="utf-8")
    cut = tmp_path / "cut.json"
    cut.write_text(good.read_text(encoding="utf-8")[:1000], encoding="utf-8")
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert len(load_fan(good).legs) == 81
        assert gc.isenabled() is enabled
        with pytest.raises(FormatError, match="stored t_max 1/7"):
            load_fan(bad)
        assert gc.isenabled() is enabled
        with pytest.raises(FormatError, match="not valid JSON"):
            load_fan(cut)
        assert gc.isenabled() is enabled
        enumerate_legs(F, 3)
        sample_legs(F, 3, 5, seed=0)
        assert gc.isenabled() is enabled
        with _collector_paused():
            with _collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()

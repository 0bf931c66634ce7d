"""SVG rendering: determinism, angle injectivity, document validity."""

from __future__ import annotations

import collections
import random
import tracemalloc
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from oracles import angles_reference, cantor_angle_reference, render_reference

from lelekfan import render
from lelekfan import (
    ANGLE_CANTOR,
    ANGLE_UNIFORM,
    DomainError,
    FanApprox,
    RenderConfig,
    RelationSpec,
    Word,
    angle_fractions,
    build_leg,
    cantor_relation,
    enumerate_legs,
    fan_relation,
    render_fan,
    sample_legs,
)

F = fan_relation(Fraction(1, 2), Fraction(3))
G = cantor_relation(Fraction(1, 2))


def test_depth_zero_single_stroke():
    svg = render_fan(enumerate_legs(F, 0))
    assert svg.count("<line ") == 1


def test_g_fan_stroke_count_and_separation():
    fan = enumerate_legs(G, 5)
    svg = render_fan(fan, RenderConfig(angle_map=ANGLE_CANTOR))
    assert svg.count("<line ") == 32
    fractions = sorted(x for _, x in angle_fractions(fan, ANGLE_CANTOR))
    # two middle-thirds bundles: nothing falls in the removed middle interval
    assert all(x <= Fraction(1, 3) or x >= Fraction(2, 3) for x in fractions)
    assert sum(1 for x in fractions if x <= Fraction(1, 3)) == 16


def test_angle_injectivity_both_maps():
    fan = enumerate_legs(F, 5)
    for angle_map in (ANGLE_CANTOR, ANGLE_UNIFORM):
        values = [x for _, x in angle_fractions(fan, angle_map)]
        assert len(set(values)) == len(values) == 3**5


@pytest.mark.parametrize("name", ["F", "G"])
def test_cantor_angles_match_digit_sum(name):
    relation = {"F": F, "G": G}[name]
    fans = [enumerate_legs(relation, depth) for depth in range(1, 9)]
    fans.append(FanApprox(relation, 60, sample_legs(relation, 60, 50, seed=5)))
    for fan in fans:
        pairs = angle_fractions(fan, ANGLE_CANTOR)
        assert len(pairs) == len({leg.word for leg in fan.legs})
        for leg, x in pairs:
            assert x == cantor_angle_reference(leg.word.symbols, relation.slopes)


def test_render_is_deterministic():
    fan = enumerate_legs(F, 4)
    config = RenderConfig(angle_map=ANGLE_UNIFORM, sweep=72.0)
    assert render_fan(fan, config) == render_fan(fan, config)


def test_render_is_valid_svg():
    svg = render_fan(enumerate_legs(F, 3))
    root = ET.fromstring(svg)
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    assert root.get("version") == "1.1"
    lines = root.findall(".//{http://www.w3.org/2000/svg}line")
    assert len(lines) == 27


def test_render_length_encodes_t_max():
    fan = enumerate_legs(F, 1)  # caps 1, 1, 1/3
    svg = render_fan(fan)
    root = ET.fromstring(svg)
    lines = root.findall(".//{http://www.w3.org/2000/svg}line")
    apex_y = float(lines[0].get("y1"))

    def length(line):
        dx = float(line.get("x2")) - float(line.get("x1"))
        dy = float(line.get("y2")) - apex_y
        return (dx * dx + dy * dy) ** 0.5

    lengths = sorted(length(line) for line in lines)
    assert lengths[0] == pytest.approx(lengths[2] / 3, rel=1e-6)
    assert lengths[1] == pytest.approx(lengths[2], rel=1e-6)


def test_config_validation():
    with pytest.raises(DomainError):
        RenderConfig(sweep=0.0)
    with pytest.raises(DomainError):
        RenderConfig(sweep=180.0)
    with pytest.raises(DomainError):
        RenderConfig(angle_map="spiral")
    with pytest.raises(DomainError):
        RenderConfig(width=0)
    with pytest.raises(DomainError):
        render_fan(enumerate_legs(F, 2), RenderConfig(stroke_width=-1.0))
    with pytest.raises(DomainError, match="empty fan"):
        render_fan(FanApprox(F, 2, ()))
    with pytest.raises(DomainError, match="unknown angle map: 'spiral'"):
        angle_fractions(enumerate_legs(F, 2), "spiral")
    for width in (float("nan"), float("inf"), float("-inf"), 0.0, 10**5000):
        with pytest.raises(DomainError, match="stroke width"):
            RenderConfig(stroke_width=width)
    # Ints past the float range are refused, not overflowed while drawing.
    for size in ({"width": 10**400}, {"height": 10**309}):
        with pytest.raises(DomainError, match="width and height must be positive and finite"):
            RenderConfig(**size)


def test_angles_find_equal_but_distinct_symbols():
    fan = enumerate_legs(F, 4)
    copies = FanApprox(
        F,
        4,
        tuple(
            build_leg(Word(tuple(Fraction(s.numerator, s.denominator) for s in leg.word.symbols)))
            for leg in fan.legs
        ),
    )
    assert copies.legs[0].word.symbols[0] is not F.slopes[0]
    for angle_map in (ANGLE_CANTOR, ANGLE_UNIFORM):
        expected = [(leg.word, x) for leg, x in angle_fractions(fan, angle_map)]
        assert [(leg.word, x) for leg, x in angle_fractions(copies, angle_map)] == expected
        config = RenderConfig(angle_map=angle_map)
        assert render_fan(copies, config) == render_fan(fan, config)


def test_foreign_symbol_is_domain_error():
    leg = build_leg(Word((Fraction(1, 2), Fraction(5, 7))))
    fan = FanApprox(F, 2, (leg,))
    for angle_map in (ANGLE_CANTOR, ANGLE_UNIFORM):
        with pytest.raises(DomainError, match="symbol 5/7 is not a slope"):
            angle_fractions(fan, angle_map)
    with pytest.raises(DomainError, match="symbol 5/7 is not a slope"):
        render_fan(fan)


def test_duplicate_sampled_legs_render_once():
    from lelekfan import FanApprox, sample_legs

    legs = sample_legs(F, 2, 40, seed=2)
    fan = FanApprox(F, 2, legs)
    svg = render_fan(fan)
    distinct_words = len({leg.word.symbols for leg in legs})
    assert svg.count("<line ") == distinct_words


def _fans_to_render() -> dict:
    """Enumerated, sampled, shuffled and hand-built fans, several with repeated words."""
    shuffled = list(enumerate_legs(F, 4).legs) * 2
    random.Random(5).shuffle(shuffled)
    q = RelationSpec((Fraction(1, 3), Fraction(3, 4), Fraction(2), Fraction(5)))
    words = [(Fraction(3), Fraction(1, 2)), (Fraction(1), Fraction(1)), (Fraction(3), Fraction(3))]
    # Hand-built legs, each symbol an equal but distinct Fraction object.
    hand = [build_leg(Word(tuple(Fraction(s.numerator, s.denominator) for s in w))) for w in words]
    return {
        "F5": enumerate_legs(F, 5),
        "G6": enumerate_legs(G, 6),
        "Q3": enumerate_legs(q, 3),
        "sampled": FanApprox(F, 3, sample_legs(F, 3, 60, seed=7)),
        "sampled-deep": FanApprox(F, 40, sample_legs(F, 40, 30, seed=3)),
        "shuffled": FanApprox(F, 4, tuple(shuffled)),
        "hand-built": FanApprox(F, 2, tuple(hand + hand[::-1])),
        "one-word": FanApprox(F, 2, (hand[0], hand[0])),
        "depth-0": enumerate_legs(F, 0),
    }


@pytest.mark.parametrize("angle_map", [ANGLE_CANTOR, ANGLE_UNIFORM])
@pytest.mark.parametrize(
    "name",
    ["F5", "G6", "Q3", "sampled", "sampled-deep", "shuffled", "hand-built", "one-word", "depth-0"],
)
def test_render_fan_matches_reference(name, angle_map):
    fan = _fans_to_render()[name]
    expected = [(id(leg), x) for leg, x in angles_reference(fan, angle_map)]
    assert [(id(leg), x) for leg, x in angle_fractions(fan, angle_map)] == expected
    for config in (
        RenderConfig(angle_map=angle_map),
        RenderConfig(width=301, height=97, angle_map=angle_map, sweep=170.5, stroke_width=0.25),
    ):
        assert render_fan(fan, config) == render_reference(fan, config)


@pytest.mark.parametrize("angle_map", [ANGLE_CANTOR, ANGLE_UNIFORM])
def test_drawing_an_enumerated_fan_holds_nothing_per_leg(angle_map):
    # Its words strictly increase, so they are drawn in their own order,
    # with no table of words, and the lines are made one at a time: about
    # 1 byte per leg of F8 at the peak here; a table of its words takes
    # over 100.
    fan = enumerate_legs(F, 8)
    tracemalloc.start()
    try:
        collections.deque(render._svg_lines(fan, RenderConfig(angle_map=angle_map)), 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * len(fan.legs), peak

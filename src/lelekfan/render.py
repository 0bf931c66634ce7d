"""Deterministic SVG pictures of finite fan approximations.

Legs are drawn as straight planar strokes from a common apex, fanning
downward; the ambient object lives in the Hilbert cube, so the picture is
a schematic in which the angle encodes the word and the radial length
encodes t_max. Angles are computed exactly, as ratios of integers, and
converted to floats only when coordinates are written, so identical input
yields byte-identical output.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import namedtuple
from fractions import Fraction

from ._value import Value
from .errors import DomainError
from .mahavier import FanApprox, Leg, _collector_paused, _symbol_values
from .scalars import _echo

ANGLE_CANTOR = "cantor"
ANGLE_UNIFORM = "uniform"


class RenderConfig(
    Value,
    namedtuple(
        "RenderConfig",
        "width height angle_map sweep stroke_width",
        defaults=(800, 600, ANGLE_CANTOR, 60.0, 1.0),
    ),
):
    """Picture size in pixels, angle map, sweep in degrees inside (0, 180), stroke width."""

    __slots__ = ()
    width: int
    height: int
    angle_map: str
    sweep: float  # degrees, inside (0, 180)
    stroke_width: float

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # Compared exactly: an int past the float range is refused, not overflowed later.
        largest = sys.float_info.max
        if not (0 < self.width <= largest and 0 < self.height <= largest):
            raise DomainError("width and height must be positive and finite")
        if not 0 < self.sweep < 180:
            raise DomainError(f"sweep must lie in (0, 180) degrees, got {_echo(self.sweep)}")
        # Only a sweep far below 1 degree has a half-angle sine of 0. Larger ones skip
        # the sine, so the default config built at import maps no libm sine pages.
        if self.sweep < 1 and _half_sine(self.sweep) == 0:
            raise DomainError(f"sweep {_echo(self.sweep)} degrees is too narrow to draw")
        if self.angle_map not in (ANGLE_CANTOR, ANGLE_UNIFORM):
            raise DomainError(f"unknown angle map: {_echo(repr(self.angle_map))}")
        if not 0 < self.stroke_width <= largest:
            raise DomainError(
                f"stroke width must be positive and finite, got {_echo(self.stroke_width)}"
            )
        return self


def _half_sine(sweep) -> float:
    """sin(sweep / 2) for a sweep in degrees: `render_fan` divides by it."""
    return math.sin(math.radians(sweep) / 2.0)


def _digit_map(n_slopes: int) -> tuple[tuple[int, ...], int]:
    # Two symbols land on middle-thirds digits {0, 2}; three use 0/1/2.
    if n_slopes == 2:
        return (0, 2), 3
    return tuple(range(n_slopes)), max(3, n_slopes)


def _not_a_slope(symbol: Fraction):
    raise DomainError(f"symbol {_echo(symbol)} is not a slope of the relation")


def _angles(fan: FanApprox, angle_map: str):
    """An iterator over (leg, num, den) per distinct word, in sorted word order.

    The angle is num/den, as `angle_fractions` documents it, in integers
    that need not be coprime. Every DomainError is raised by this call,
    before the iterator is returned. When the words strictly increase, as
    an enumerated fan's do, the legs are read in their own order and no
    table is held. Otherwise each distinct word's first leg goes into a
    table whose keys are then sorted, with the collector paused: the table
    holds only tuples of ints and legs.
    """
    slopes = fan.relation.slopes
    index = _symbol_values(fan.relation, range(len(slopes)), _not_a_slope)
    digits, base = _digit_map(len(slopes))

    def key(leg) -> tuple:
        return tuple(index(leg.word.symbols))

    # (key, leg) per distinct word, in sorted word order.
    if all(a < b for a, b in itertools.pairwise(map(key, fan.legs))):
        count, ordered = len(fan.legs), ((key(leg), leg) for leg in fan.legs)
    else:
        with _collector_paused():
            unique: dict[tuple, Leg] = {}
            for leg in fan.legs:
                unique.setdefault(key(leg), leg)
            keys = sorted(unique)
        count, ordered = len(keys), ((k, unique[k]) for k in keys)

    if angle_map == ANGLE_CANTOR:
        def cantor(item):
            word, leg = item
            if not word:
                return leg, 1, 2
            # Horner in integers: the digits of the word as one base-`base` numeral.
            num = 0
            for idx in word:
                num = num * base + digits[idx]
            return leg, num, base ** len(word)

        return map(cantor, ordered)
    if angle_map == ANGLE_UNIFORM:
        if count == 1:
            return ((leg, 1, 2) for _, leg in ordered)
        return ((leg, rank, count - 1) for rank, (_, leg) in enumerate(ordered))
    raise DomainError(f"unknown angle map: {_echo(repr(angle_map))}")


def angle_fractions(fan: FanApprox, angle_map: str) -> list[tuple[Leg, Fraction]]:
    """Exact angular position in [0, 1] per distinct word, before any float conversion.

    Cantor mapping reads the word as base-`base` digits of a middle-thirds
    coordinate; uniform mapping spreads the sorted words evenly. Distinct
    words receive distinct fractions under both maps. A symbol that is not a
    slope of the fan's relation is a DomainError.
    """
    return [(leg, Fraction(num, den)) for leg, num, den in _angles(fan, angle_map)]


def _fmt(value: float) -> str:
    return f"{value:.4f}"


def _svg_lines(fan: FanApprox, config: RenderConfig):
    """An iterator over the lines of `render_fan`'s document, each with its newline.

    Every DomainError is raised by this call, before the iterator is
    returned, so a caller can write the lines as they are drawn and never
    hold them. An angle num/den and a cap t_max = p/q are converted as
    num / den and p / q, which round correctly, as float of the reduced
    Fraction does.
    """
    if not fan.legs:
        raise DomainError("cannot render an empty fan")
    width, height = config.width, config.height
    margin = 10.0
    apex_x, apex_y = width / 2.0, margin + 10.0  # top-center
    sweep = math.radians(config.sweep)
    vertical = height - apex_y - margin
    horizontal = (apex_x - margin) / _half_sine(config.sweep)
    radius = max(min(vertical, horizontal), 1.0)
    angles = _angles(fan, config.angle_map)

    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">\n',
        f'<rect width="{width}" height="{height}" fill="white"/>\n',
        f'<g stroke="black" stroke-width="{config.stroke_width:g}" stroke-linecap="round">\n',
    )
    apex = f'<line x1="{_fmt(apex_x)}" y1="{_fmt(apex_y)}" '

    def stroke(angle) -> str:
        leg, num, den = angle
        length = radius * (leg.t_max.numerator / leg.t_max.denominator)
        phi = (num / den - 0.5) * sweep
        end_x = apex_x + length * math.sin(phi)
        end_y = apex_y + length * math.cos(phi)
        return f'{apex}x2="{_fmt(end_x)}" y2="{_fmt(end_y)}"/>\n'

    return itertools.chain(head, map(stroke, angles), ("</g>\n", "</svg>\n"))


def render_fan(fan: FanApprox, config: RenderConfig = RenderConfig()) -> str:
    """Render a fan as an SVG 1.1 document, byte-deterministic for fixed inputs.

    The document is the lines of `_svg_lines`, joined, so each float is
    that of its exact Fraction.
    """
    return "".join(_svg_lines(fan, config))

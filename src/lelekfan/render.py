"""Deterministic SVG pictures of finite fan approximations.

Legs are drawn as straight planar strokes from a common apex, fanning
downward; the ambient object lives in the Hilbert cube, so the picture is
a schematic in which the angle encodes the word and the radial length
encodes t_max. Angles are computed as exact rationals and converted to
floats only when coordinates are written, so identical input yields
byte-identical output.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from ._value import Value
from .errors import DomainError
from .mahavier import FanApprox, Leg, _symbol_values
from .scalars import _echo, format_scalar

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
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise DomainError("width and height must be positive and finite")
        if not 0 < self.sweep < 180:
            raise DomainError(f"sweep must lie in (0, 180) degrees, got {self.sweep}")
        if self.angle_map not in (ANGLE_CANTOR, ANGLE_UNIFORM):
            raise DomainError(f"unknown angle map: {self.angle_map!r}")
        if not (math.isfinite(self.stroke_width) and self.stroke_width > 0):
            raise DomainError(
                f"stroke width must be positive and finite, got {self.stroke_width}"
            )
        return self


def _digit_map(n_slopes: int) -> tuple[tuple[int, ...], int]:
    # Two symbols land on middle-thirds digits {0, 2}; three use 0/1/2.
    if n_slopes == 2:
        return (0, 2), 3
    return tuple(range(n_slopes)), max(3, n_slopes)


def _not_a_slope(symbol: Fraction):
    raise DomainError(f"symbol {_echo(format_scalar(symbol))} is not a slope of the relation")


def angle_fractions(fan: FanApprox, angle_map: str) -> list[tuple[Leg, Fraction]]:
    """Exact angular position in [0, 1] per distinct word, before any float conversion.

    Cantor mapping reads the word as base-`base` digits of a middle-thirds
    coordinate; uniform mapping spreads the sorted words evenly. Distinct
    words receive distinct fractions under both maps. A symbol that is not a
    slope of the fan's relation is a DomainError.
    """
    slopes = fan.relation.slopes
    index = _symbol_values(fan.relation, range(len(slopes)), _not_a_slope)
    digits, base = _digit_map(len(slopes))

    unique: dict[tuple, Leg] = {}
    for leg in fan.legs:
        unique.setdefault(tuple(index(leg.word.symbols)), leg)
    ordered = sorted(unique.items())

    pairs = []
    if angle_map == ANGLE_CANTOR:
        for key, leg in ordered:
            if not key:
                pairs.append((leg, Fraction(1, 2)))
                continue
            # Horner in integers: the digits of key as one base-`base` numeral.
            num = 0
            for idx in key:
                num = num * base + digits[idx]
            pairs.append((leg, Fraction(num, base ** len(key))))
    elif angle_map == ANGLE_UNIFORM:
        count = len(ordered)
        for rank, (_, leg) in enumerate(ordered):
            x = Fraction(rank, count - 1) if count > 1 else Fraction(1, 2)
            pairs.append((leg, x))
    else:
        raise DomainError(f"unknown angle map: {angle_map!r}")
    return pairs


def _fmt(value: float) -> str:
    return f"{value:.4f}"


def render_fan(fan: FanApprox, config: RenderConfig = RenderConfig()) -> str:
    """Render a fan as an SVG 1.1 document, byte-deterministic for fixed inputs."""
    if not fan.legs:
        raise DomainError("cannot render an empty fan")
    width, height = config.width, config.height
    margin = 10.0
    apex_x, apex_y = width / 2.0, margin + 10.0  # top-center
    half_sweep = math.radians(config.sweep) / 2.0
    vertical = height - apex_y - margin
    horizontal = (apex_x - margin) / math.sin(half_sweep)
    radius = max(min(vertical, horizontal), 1.0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<g stroke="black" stroke-width="{config.stroke_width:g}" stroke-linecap="round">',
    ]
    for leg, x_frac in angle_fractions(fan, config.angle_map):
        phi = (float(x_frac) - 0.5) * math.radians(config.sweep)
        length = radius * float(leg.t_max)
        end_x = apex_x + length * math.sin(phi)
        end_y = apex_y + length * math.cos(phi)
        parts.append(
            f'<line x1="{_fmt(apex_x)}" y1="{_fmt(apex_y)}" '
            f'x2="{_fmt(end_x)}" y2="{_fmt(end_y)}"/>'
        )
    parts.append("</g>")
    parts.append("</svg>")
    parts.append("")
    return "\n".join(parts)

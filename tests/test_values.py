"""The contract of the nine value types: equality, hash, repr, immutability, validation."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from lelekfan import (
    DomainError,
    EndpointVerdict,
    FanApprox,
    GreedyTrace,
    Leg,
    NcVerdict,
    PointPrefix,
    RelationSpec,
    RenderConfig,
    Word,
    build_leg,
    check_nc,
    classify_endpoint,
    enumerate_legs,
    fan_relation,
    greedy_sequence,
    leg_point,
)

R = Fraction(1, 2)
RHO = Fraction(3)
TIP = (Fraction(1, 3), Fraction(1), Fraction(1, 2))  # the tip of the leg (rho, r) at t = 1/3

# Per type: a function building one instance afresh, and its fields in order.
VALUES = {
    RelationSpec: (lambda: RelationSpec((R, 1, RHO)), ("slopes",)),
    Word: (lambda: Word((RHO, R)), ("symbols",)),
    Leg: (lambda: build_leg(Word((RHO, R))), ("word", "prefix_products", "t_max")),
    PointPrefix: (lambda: PointPrefix(TIP), ("coords",)),
    FanApprox: (lambda: enumerate_legs(fan_relation(R, RHO), 2), ("relation", "depth", "legs")),
    NcVerdict: (lambda: check_nc(Fraction(4, 9), Fraction(27, 8)), ("is_nc", "witness")),
    GreedyTrace: (
        lambda: greedy_sequence(Fraction(2, 5), R, RHO, 4),
        ("start", "symbols", "partials", "running_max"),
    ),
    EndpointVerdict: (
        lambda: classify_endpoint(PointPrefix(TIP), Fraction(1, 100)),
        ("kind", "point", "peak_index", "peak_value", "delta"),
    ),
    RenderConfig: (
        lambda: RenderConfig(width=640, sweep=90.0),
        ("width", "height", "angle_map", "sweep", "stroke_width"),
    ),
}


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)
def test_value_type_contract(cls):
    make, fields = VALUES[cls]
    value, again = make(), make()
    assert type(value) is cls and value is not again
    assert value == again and not value != again
    # The hash of the field tuple, as for a frozen dataclass.
    values = tuple(getattr(value, name) for name in fields)
    assert hash(value) == hash(again) == hash(values)
    assert cls(**dict(zip(fields, values))) == value
    namespace = {"Fraction": Fraction, **{c.__name__: c for c in VALUES}}
    assert repr(value).startswith(f"{cls.__name__}({fields[0]}=")
    assert eval(repr(value), namespace) == value
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert values == tuple(getattr(value, name) for name in fields)


def test_value_repr_is_pinned():
    assert repr(check_nc(R, RHO)) == "NcVerdict(is_nc=True, witness=None)"
    leg = build_leg(Word((RHO, R)))
    assert repr(leg) == (
        "Leg(word=Word(symbols=(Fraction(3, 1), Fraction(1, 2))), "
        "prefix_products=(Fraction(3, 1), Fraction(3, 2)), t_max=Fraction(1, 3))"
    )
    assert repr(classify_endpoint(leg_point(leg, Fraction(1, 3)), Fraction(1, 100))) == (
        "EndpointVerdict(kind='exact', point=PointPrefix(coords=(Fraction(1, 3), "
        "Fraction(1, 1), Fraction(1, 2))), peak_index=1, peak_value=Fraction(1, 1), "
        "delta=Fraction(0, 1))"
    )


def test_values_equal_only_their_own_type():
    symbols = (Fraction(1, 3), Fraction(1, 2))
    pairs = [
        (Word(symbols), PointPrefix(symbols)),
        (NcVerdict(True), (True, None)),
        (Word(symbols), (symbols,)),
    ]
    for a, b in pairs:
        assert not a == b and not b == a
        assert a != b and b != a
    assert NcVerdict(True) != object()


def test_render_config_defaults():
    config = RenderConfig()
    assert (config.width, config.height, config.angle_map, config.sweep, config.stroke_width) == (
        800,
        600,
        "cantor",
        60.0,
        1.0,
    )
    assert RenderConfig(800, 600) == config
    assert RenderConfig(height=300).width == 800


def test_values_convert_their_fields():
    assert RelationSpec((1, "1/2")).slopes == (Fraction(1), Fraction(1, 2))
    assert Word([1, 0.5]).symbols == (Fraction(1), Fraction(1, 2))
    assert PointPrefix(coords=[0, "1/2"]).coords == (Fraction(0), Fraction(1, 2))
    symbols = (RHO, R)
    assert Word(symbols).symbols is symbols  # exact Fractions are stored as given
    assert (len(Word(())), len(Word((R,))), len(Word((RHO, R, 1)))) == (0, 1, 3)


LEG = build_leg(Word((R,)))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: RelationSpec(()), DomainError, "a relation needs at least one slope"),
        (lambda: RelationSpec((R, 0)), DomainError, "slopes must be positive, got 0"),
        (lambda: RelationSpec((R, "-2/3")), DomainError, "slopes must be positive, got -2/3"),
        (lambda: RelationSpec((R, "2/4")), DomainError, "slopes must be pairwise distinct"),
        (lambda: PointPrefix((R, Fraction(3, 2))), DomainError, r"coordinate 3/2 outside \[0, 1\]"),
        (lambda: PointPrefix((-1,)), DomainError, r"coordinate -1 outside \[0, 1\]"),
        (lambda: FanApprox(fan_relation(R, RHO), -1, ()), DomainError, "depth must be non-negative"),
        (
            lambda: FanApprox(fan_relation(R, RHO), 2, (LEG,)),
            DomainError,
            "leg of depth 1 in a depth-2 approximation",
        ),
        (lambda: NcVerdict(True, (1, 1)), ValueError, "witness must be present exactly"),
        (lambda: NcVerdict(False), ValueError, "witness must be present exactly"),
        (lambda: RenderConfig(width=0), DomainError, "width and height must be positive"),
        (lambda: RenderConfig(height=-5), DomainError, "width and height must be positive"),
        (lambda: RenderConfig(width=math.nan), DomainError, "width and height must be positive and finite"),
        (lambda: RenderConfig(height=math.inf), DomainError, "width and height must be positive and finite"),
        (lambda: RenderConfig(sweep=180), DomainError, r"sweep must lie in \(0, 180\) degrees, got 180"),
        # The half-angle sine underflows to 0: render_fan would divide by it.
        (lambda: RenderConfig(sweep=5e-324), DomainError, "sweep 5e-324 degrees is too narrow to draw"),
        (lambda: RenderConfig(sweep=2e-322), DomainError, "sweep 2e-322 degrees is too narrow to draw"),
        (lambda: RenderConfig(angle_map="polar"), DomainError, "unknown angle map: 'polar'"),
        (
            lambda: RenderConfig(stroke_width=math.nan),
            DomainError,
            "stroke width must be positive and finite, got nan",
        ),
    ],
)
def test_value_validation_errors(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_make_and_replace_validate():
    assert PointPrefix._make([TIP]) == PointPrefix(TIP)
    assert Word((R,))._replace(symbols=[RHO]) == Word((RHO,))
    with pytest.raises(DomainError, match=r"coordinate 3/2 outside \[0, 1\]"):
        PointPrefix._make([(Fraction(3, 2),)])
    with pytest.raises(ValueError, match="witness must be present exactly"):
        check_nc(R, RHO)._replace(is_nc=False)
    with pytest.raises(DomainError, match="width and height must be positive"):
        RenderConfig()._replace(width=0)

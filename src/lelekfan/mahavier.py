"""Finite-depth legs of Mahavier products of slope-union relations.

A relation here is a finite union of lines y = s*x through the origin,
clipped to the unit square. The depth-n piece of its Mahavier product
decomposes into legs: the word (s_1, ..., s_n) over the slope alphabet
contributes the exact segment

    {(t, P_1*t, ..., P_n*t) : 0 <= t <= t_max},

with prefix products P_k = s_1*...*s_k and t_max = 1/max(1, max_k P_k),
the largest parameter keeping every coordinate inside [0, 1]. Clipping to
the unit cube therefore never needs a separate intersection computation.

The value types (`RelationSpec`, `Word`, `Leg`, `PointPrefix`,
`FanApprox`) are named tuples: immutable, built by position or keyword,
equal only to values of their own type, and safe to share between
threads. Each converts and validates its fields in `__new__`.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import namedtuple
from fractions import Fraction
from math import gcd

from ._value import Value
from .errors import DomainError, FormatError, RangeError, ResourceError, ShapeError
from .scalars import _echo, format_scalar, parse_scalar

DEFAULT_ENUM_BUDGET = 3**12

# Below this cap a word family is flagged as degenerating: its prefix
# products have grown so large that the leg is collapsing toward the top.
DEGENERACY_THRESHOLD = Fraction(1, 2**20)


class RelationSpec(Value, namedtuple("RelationSpec", "slopes")):
    """Ordered set of distinct positive slopes denoting a union of clipped lines.

    `slopes` is converted to a tuple of Fractions.
    """

    __slots__ = ()
    slopes: tuple[Fraction, ...]

    def __new__(cls, slopes):
        slopes = tuple(Fraction(s) for s in slopes)
        if not slopes:
            raise DomainError("a relation needs at least one slope")
        for s in slopes:
            if s <= 0:
                raise DomainError(f"slopes must be positive, got {format_scalar(s)}")
        if len(set(slopes)) != len(slopes):
            raise DomainError("slopes must be pairwise distinct")
        return tuple.__new__(cls, (slopes,))


def fan_relation(r, rho) -> RelationSpec:
    """Three-slope relation {r, 1, rho}: both scaling lines plus the diagonal."""
    return RelationSpec((Fraction(r), Fraction(1), Fraction(rho)))


def cantor_relation(r) -> RelationSpec:
    """Two-slope relation {r, 1}: one scaling line plus the diagonal.

    For r < 1 every leg of its product has t_max = 1; the product is a
    Cantor fan at every finite depth.
    """
    return RelationSpec((Fraction(r), Fraction(1)))


def line_pair_relation(r, rho) -> RelationSpec:
    """Two-slope relation {r, rho} without the diagonal."""
    return RelationSpec((Fraction(r), Fraction(rho)))


def _fraction_tuple(values) -> tuple[Fraction, ...]:
    """`values` itself when it is a tuple of exact Fractions, else a converted copy."""
    if type(values) is tuple and all(type(v) is Fraction for v in values):
        return values
    return tuple(Fraction(v) for v in values)


class Word(Value, namedtuple("Word", "symbols")):
    """Finite sequence of slopes indexing one leg.

    Symbols are converted to a tuple of Fractions unless they already are
    one (a tuple whose items are all exactly of type Fraction), so words
    built from a relation's slopes are stored as given.
    """

    __slots__ = ()
    symbols: tuple[Fraction, ...]

    def __new__(cls, symbols):
        return tuple.__new__(cls, (_fraction_tuple(symbols),))

    def __len__(self) -> int:
        return len(self.symbols)


class Leg(Value, namedtuple("Leg", "word prefix_products t_max")):
    """One leg: a word, its prefix products (P_1, ..., P_n) and the cap t_max.

    The empty product P_0 = 1 is implicit; the depth-n point at parameter t
    is (t, P_1*t, ..., P_n*t), inside [0,1]^(n+1) exactly when t <= t_max.
    Fields are stored as given.
    """

    __slots__ = ()
    word: Word
    prefix_products: tuple[Fraction, ...]
    t_max: Fraction

    @property
    def depth(self) -> int:
        return len(self.word.symbols)


class PointPrefix(Value, namedtuple("PointPrefix", "coords")):
    """Finite coordinate tuple (x_0, ..., x_n) with every entry in [0, 1].

    Coordinates are converted to a tuple of Fractions unless they already
    are one (a tuple whose items are all exactly of type Fraction), the same
    rule as `Word`, so points built from exact products are stored as given.
    """

    __slots__ = ()
    coords: tuple[Fraction, ...]

    def __new__(cls, coords):
        coords = _fraction_tuple(coords)
        # Denominators are positive, so 0 <= c <= 1 is 0 <= p <= q for c = p/q.
        for c in coords:
            if not 0 <= c.numerator <= c.denominator:
                raise DomainError(f"coordinate {format_scalar(c)} outside [0, 1]")
        return tuple.__new__(cls, (coords,))

    def __len__(self) -> int:
        return len(self.coords)


class FanApprox(Value, namedtuple("FanApprox", "relation depth legs")):
    """A depth-n approximation: a relation and a collection of its legs."""

    __slots__ = ()
    relation: RelationSpec
    depth: int
    legs: tuple[Leg, ...]

    def __new__(cls, relation, depth, legs):
        if depth < 0:
            raise DomainError("depth must be non-negative")
        for leg in legs:
            if leg.depth != depth:
                raise ShapeError(
                    f"leg of depth {leg.depth} in a depth-{depth} approximation"
                )
        return tuple.__new__(cls, (relation, depth, legs))


def membership(point: PointPrefix, relation: RelationSpec) -> bool:
    """True when every consecutive coordinate pair lies on one of the relation's lines.

    (0, 0) pairs lie on every line through the origin and are accepted;
    any other pair with a zero coordinate lies on none. A pair (x, y) of
    non-zero coordinates lies on the line of slope s = sn/sd when y equals
    x * s, tested without any Fraction division: x * s is reduced by
    gcd(xn, sd) and gcd(sn, xd), cheap while slopes are small, and
    reduced forms are unique, so its numerator and denominator must be
    y's.
    """
    slopes = [(s.numerator, s.denominator) for s in relation.slopes]
    coords = point.coords
    for x, y in zip(coords, coords[1:]):
        xn, xd = x.numerator, x.denominator
        yn, yd = y.numerator, y.denominator
        if xn == 0 or yn == 0:
            if xn != yn:
                return False
            continue
        for sn, sd in slopes:
            g1, g2 = gcd(xn, sd), gcd(sn, xd)
            if (xn // g1) * (sn // g2) == yn and (xd // g2) * (sd // g1) == yd:
                break
        else:
            return False
    return True


def _t_max(peak: Fraction) -> Fraction:
    # peak = max(1, P_1, ..., P_n)
    return 1 / peak if peak > 1 else Fraction(1)


def _grow_legs(words):
    """One Leg per symbol tuple of `words`, in the order given.

    A word reuses the prefix products and running peaks max(1, P_1, ...,
    P_k) of the word before it for the leading symbols the two share,
    compared by identity, so words in lexicographic order over one slope
    tuple cost about one Fraction multiply each. This is the only place
    prefix products are multiplied.
    """
    one = Fraction(1)
    previous = ()
    products: list[Fraction] = []
    peaks: list[Fraction] = []
    for symbols in words:
        shared = 0
        for s, p in zip(symbols, previous):
            if s is not p:
                break
            shared += 1
        del products[shared:], peaks[shared:]
        acc = products[-1] if shared else one
        peak = peaks[-1] if shared else one
        for s in symbols[shared:]:
            acc = acc * s
            if acc > peak:
                peak = acc
            products.append(acc)
            peaks.append(peak)
        previous = symbols
        yield Leg(Word(symbols), tuple(products), _t_max(peak))


def build_leg(word: Word) -> Leg:
    """Compute a word's prefix products and parameter cap exactly."""
    for s in word.symbols:
        if s.numerator <= 0:
            raise DomainError(f"word symbols must be positive, got {format_scalar(s)}")
    return next(_grow_legs((word.symbols,)))


def leg_point(leg: Leg, t) -> PointPrefix:
    """The leg's point at parameter t: (t, P_1*t, ..., P_n*t)."""
    t = Fraction(t)
    if not 0 <= t <= leg.t_max:
        raise RangeError(
            f"parameter {format_scalar(t)} outside [0, {format_scalar(leg.t_max)}]; "
            "the point would leave the unit cube"
        )
    return PointPrefix((t,) + tuple(p * t for p in leg.prefix_products))


def enumerate_legs(
    relation: RelationSpec, depth: int, budget: int = DEFAULT_ENUM_BUDGET
) -> FanApprox:
    """All legs of the given depth, one per word, in lexicographic slope order.

    Words come from itertools.product over the slopes and share one
    prefix-sharing walk with `fan_from_dict`: each word extends the
    prefix products of the word before it, so a leg costs about one
    Fraction multiply. Distinct words give distinct legs: slopes are
    distinct and positive, so at the first symbol where two words differ
    their prefix products differ too. Raises ResourceError when
    |slopes|^depth exceeds the budget; use sample_legs for such depths.
    """
    if depth < 0:
        raise DomainError("depth must be non-negative")
    total = len(relation.slopes) ** depth
    if total > budget:
        raise ResourceError(
            f"{len(relation.slopes)}^{depth} = {total} legs exceeds the budget "
            f"{budget}; use sampling instead (sample_legs / --sample)"
        )
    words = itertools.product(relation.slopes, repeat=depth)
    return FanApprox(relation, depth, tuple(_grow_legs(words)))


def draw_word(rng: random.Random, relation: RelationSpec, depth: int) -> Word:
    """One word drawn uniformly over slopes^depth: `depth` calls of rng.randrange."""
    slopes = relation.slopes
    return Word(tuple(slopes[rng.randrange(len(slopes))] for _ in range(depth)))


def sample_legs(relation: RelationSpec, depth: int, count: int, seed: int) -> tuple[Leg, ...]:
    """`count` words drawn uniformly i.i.d. over slopes^depth, deterministic under seed."""
    if depth < 0:
        raise DomainError("depth must be non-negative")
    if count < 0:
        raise DomainError("count must be non-negative")
    rng = random.Random(seed)
    return tuple(build_leg(draw_word(rng, relation, depth)) for _ in range(count))


def truncated_metric(p: PointPrefix, q: PointPrefix) -> tuple[Fraction, Fraction]:
    """Weighted-sum distance on equal-length prefixes plus its exact dyadic tail bound.

    Returns (value, tail) with

        value = sum_k 2^-(k+1) * |p_k - q_k|,   tail = 2^-len,

    so any infinite extensions of p and q (coordinates in [0,1]) are at a
    distance within [value, value + tail]. Equal coordinates (Fractions are
    reduced, so equal numerators and denominators) add nothing and are
    skipped; every other term is built as one Fraction from integers.
    """
    if len(p.coords) != len(q.coords):
        raise ShapeError(
            f"prefix lengths differ: {len(p.coords)} vs {len(q.coords)}"
        )
    value = Fraction(0)
    for k, (a, b) in enumerate(zip(p.coords, q.coords)):
        an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
        if an != bn or ad != bd:
            value += Fraction(abs(an * bd - bn * ad), (ad * bd) << (k + 1))
    tail = Fraction(1, 1 << len(p.coords))
    return value, tail


def is_degenerating(leg: Leg, threshold: Fraction = DEGENERACY_THRESHOLD) -> bool:
    """Flag legs whose cap has dropped below the degeneracy threshold.

    True degeneracy (prefix products unbounded along the infinite word) is
    not decidable from a finite prefix; this is a reported approximation.
    """
    return leg.t_max < threshold


def _symbol_values(relation: RelationSpec, values, missing):
    """A function mapping a word's symbols to the values paired with the relation's slopes.

    `values[i]` belongs to `relation.slopes[i]`; any other symbol `s` maps
    to `missing(s)`. Every symbol object is looked up by value once, then
    found by `id`, so Fraction's uncached hash runs at most once per
    distinct object: a word of the relation's own slope objects costs no
    hash at all. A `missing` that raises memoises nothing for its symbol.
    """
    by_value = dict(zip(relation.slopes, values))
    by_id = {id(s): v for s, v in by_value.items()}
    # A memoised object that died could hand its id to a new object, so
    # each one is kept alive as long as the lookup.
    kept = list(relation.slopes)

    def lookup(symbols) -> list:
        try:
            return list(map(by_id.__getitem__, map(id, symbols)))
        except KeyError:
            for s in symbols:
                if id(s) not in by_id:
                    v = by_value.get(s)
                    by_id[id(s)] = missing(s) if v is None else v
                    kept.append(s)
            return list(map(by_id.__getitem__, map(id, symbols)))

    return lookup


def word_formatter(relation: RelationSpec):
    """A function formatting a word's symbols, each relation slope formatted once.

    A symbol that is not a slope of the relation (a hand-built leg) is
    formatted on its own.
    """
    texts = _symbol_values(relation, [format_scalar(s) for s in relation.slopes], format_scalar)

    def format_word(word: Word) -> list[str]:
        return texts(word.symbols)

    return format_word


def fan_to_dict(fan: FanApprox) -> dict:
    """JSON-ready form of a fan: slopes, depth and per-leg word plus t_max."""
    format_word = word_formatter(fan.relation)
    return {
        "relation": {"slopes": [format_scalar(s) for s in fan.relation.slopes]},
        "depth": fan.depth,
        "legs": [
            {"word": format_word(leg.word), "t_max": format_scalar(leg.t_max)}
            for leg in fan.legs
        ],
    }


def _list_field(value, what: str) -> list:
    if type(value) is not list:
        raise FormatError(f"malformed leg file: {what} {_echo(repr(value))} is not a list")
    return value


def _parse_text(text, what: str) -> Fraction:
    if type(text) is not str:
        raise FormatError(f"malformed leg file: {what} {_echo(repr(text))} is not a string")
    return parse_scalar(text)


def fan_from_dict(data: dict) -> FanApprox:
    """Rebuild a fan from its JSON form, recomputing and verifying each leg.

    Prefix products are recomputed from the stored words; a stored t_max
    that disagrees with the recomputed value is a FormatError, and so is
    any field of the wrong JSON type. Each distinct scalar text is parsed
    and checked once per call. Every symbol is the relation's own slope
    object, so the legs are rebuilt by the prefix-sharing walk that
    `enumerate_legs` uses, and a file in `enumerate_legs` order costs
    about one Fraction multiply per leg. Legs are parsed, rebuilt and
    checked one at a time, so the first error in file order is reported.
    """
    try:
        slope_texts = data["relation"]["slopes"]
        depth = data["depth"]
        raw_legs = data["legs"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed leg file: {exc}") from exc
    if type(depth) is not int:
        raise FormatError(f"malformed leg file: depth {_echo(repr(depth))} is not an integer")
    relation = RelationSpec(
        tuple(_parse_text(s, "slope") for s in _list_field(slope_texts, "slopes"))
    )
    own_slope = {s: s for s in relation.slopes}
    symbol_of: dict[str, Fraction] = {}  # word text -> the relation's own slope
    t_max_of: dict[str, Fraction] = {}

    def symbols_of(raw) -> tuple[Fraction, ...]:
        if type(raw) is not dict:
            raise FormatError(f"malformed leg file: leg {_echo(repr(raw))} is not an object")
        for key in ("word", "t_max"):
            if key not in raw:
                raise FormatError(f"malformed leg file: leg {_echo(repr(raw))} has no {key!r}")
        word_texts = _list_field(raw["word"], "word")
        if len(word_texts) != depth:
            raise FormatError(
                f"word {_echo(str(word_texts))} has length {len(word_texts)}, "
                f"expected depth {depth}"
            )
        symbols = []
        for text in word_texts:
            symbol = symbol_of.get(text) if type(text) is str else None
            if symbol is None:
                value = _parse_text(text, "symbol")
                symbol = own_slope.get(value)
                if symbol is None:
                    raise FormatError(
                        f"symbol {_echo(format_scalar(value))} is not a slope of the relation"
                    )
                symbol_of[text] = symbol
            symbols.append(symbol)
        return tuple(symbols)

    raws = _list_field(raw_legs, "legs")
    legs = []
    # zip reads leg i from raws before the walk parses it, and the walk
    # parses leg i + 1 only after leg i's t_max has been checked.
    for raw, leg in zip(raws, _grow_legs(map(symbols_of, raws))):
        text = raw["t_max"]
        stored = t_max_of.get(text) if type(text) is str else None
        if stored is None:
            stored = t_max_of[text] = _parse_text(text, "t_max")
        if stored != leg.t_max:
            raise FormatError(
                f"stored t_max {_echo(text)} disagrees with recomputed "
                f"{_echo(format_scalar(leg.t_max))} for word {_echo(str(raw['word']))}"
            )
        legs.append(leg)
    return FanApprox(relation, depth, tuple(legs))


def save_fan(fan: FanApprox, path) -> None:
    """Write a fan's JSON form, indented by 2, with a final newline."""
    text = json.dumps(fan_to_dict(fan), indent=2) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def load_fan(path) -> FanApprox:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise FormatError(f"not valid JSON: {path}: {exc}") from exc
    return fan_from_dict(data)

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

import contextlib
import gc
import itertools
import json
import random
from collections import namedtuple
from fractions import Fraction
from math import gcd

from ._value import Value
from .errors import DomainError, FormatError, ResourceError
from .scalars import _coprime_fraction, _echo, format_scalar, parse_scalar

DEFAULT_ENUM_BUDGET = 3**12

# Below this cap a word family is flagged as degenerating: its prefix
# products have grown so large that the leg is collapsing toward the top.
DEGENERACY_THRESHOLD = Fraction(1, 2**20)


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector for the block; restore its state on exit.

    A fan is made of tuples holding Fractions, which stay tracked, so each
    full collector pass while a fan is built walks every leg made so far,
    and finds nothing: neither a prefix walk nor a leg file's parsed
    objects nor a trie of legs makes a reference cycle. On exit, normal or
    by an exception, the collector is enabled again only if it was enabled
    on entry. The collector is process-wide: while the block runs, no
    cycle anywhere in the process is collected.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


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
                raise DomainError(f"slopes must be positive, got {_echo(s)}")
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
    Fields are stored as given. Products and t_max may be shared objects:
    legs built by one walk share one Fraction per value, also across depths.
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
                raise DomainError(f"coordinate {_echo(c)} outside [0, 1]")
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
                raise DomainError(
                    f"leg of depth {_echo(leg.depth)} in a depth-{_echo(depth)} approximation"
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


def _grow_legs(words):
    """One Leg per symbol tuple of `words`, in the order given.

    Each value is built once per walk (hash-consing): one table, keyed by
    (n, d), holds the walk's Fraction n/d, whether it is a prefix product
    P_k or a cap t_max = 1/max(1, P_1, ..., P_k), so legs share their
    product and t_max objects. A step from (P_k, t_max) by a symbol is
    computed once, on integers: P_k = n/d times the slope sn/sd is
    (n//g1)*(sn//g2) / ((d//g2)*(sd//g1)) with g1 = gcd(n, sd) and g2 =
    gcd(sn, d), in lowest terms, and a new peak n/d is compared with 1/t_max
    by cross-multiplying and gives the cap d/n. Both pairs are in lowest
    terms with a positive denominator, so their Fractions are built with
    `_coprime_fraction`, which skips Fraction's gcd. Taken again, a step is
    one lookup by the three ids. A word resumes from the step the word
    before it reached after the leading symbols the two share, compared by
    identity.

    The tables die with the walk and hold only Fractions and pairs of
    them, so the walk makes no reference cycle. Each symbol whose id is a
    key is kept alive, as every product and cap is, so no id is reused.

    Every symbol tuple must be a tuple of exact Fractions. Every caller
    passes one: `_walk` and `_drawn` (tuples of a relation's slopes),
    `build_leg` (a Word's symbols) and `fan_from_dict` (the relation's
    own slope objects). So Word and Leg are built with
    `tuple.__new__`, which skips `Word`'s conversion check.
    """
    new = tuple.__new__
    one = Fraction(1)
    values = {(1, 1): one}  # (n, d) -> the walk's Fraction n/d
    steps = {}  # (id(P), id(t_max), id(symbol)) -> (P', t_max')
    kept = {}  # id(symbol) -> symbol, for every symbol id in `steps`
    previous = ()
    products: list[Fraction] = []
    path: list[tuple] = []
    for symbols in words:
        shared = 0
        for s, p in zip(symbols, previous):
            if s is not p:
                break
            shared += 1
        del products[shared:], path[shared:]
        product, t_max = path[-1] if shared else (one, one)
        for s in symbols[shared:]:
            key = (id(product), id(t_max), id(s))
            following = steps.get(key)
            if following is None:
                n, d = product.numerator, product.denominator
                sn, sd = s.numerator, s.denominator
                g1, g2 = gcd(n, sd), gcd(sn, d)
                n, d = (n // g1) * (sn // g2), (d // g2) * (sd // g1)
                product = values.get((n, d))
                if product is None:
                    product = values[n, d] = _coprime_fraction(n, d)
                if n * t_max.numerator > t_max.denominator * d:  # a new peak
                    t_max = values.get((d, n))
                    if t_max is None:
                        t_max = values[d, n] = _coprime_fraction(d, n)
                following = steps[key] = (product, t_max)
                kept[id(s)] = s
            product, t_max = following
            path.append(following)
            products.append(product)
        previous = symbols
        yield new(Leg, (new(Word, (symbols,)), tuple(products), t_max))


def build_leg(word: Word) -> Leg:
    """Compute a word's prefix products and parameter cap exactly."""
    for s in word.symbols:
        if s.numerator <= 0:
            raise DomainError(f"word symbols must be positive, got {_echo(s)}")
    return next(_grow_legs((word.symbols,)))


def leg_point(leg: Leg, t) -> PointPrefix:
    """The leg's point at parameter t: (t, P_1*t, ..., P_n*t)."""
    t = Fraction(t)
    if not 0 <= t <= leg.t_max:
        raise DomainError(
            f"parameter {_echo(t)} outside "
            f"[0, {_echo(leg.t_max)}]; "
            "the point would leave the unit cube"
        )
    return PointPrefix((t,) + tuple(p * t for p in leg.prefix_products))


def _walk(relation: RelationSpec, depth: int, budget: int):
    """A new prefix walk over every leg of the given depth, in lexicographic slope order.

    Words come from itertools.product over the slopes and go through one
    `_grow_legs` walk, as in `fan_from_dict`: each word resumes from the
    word before it, so a leg costs about one step. Distinct words give
    distinct legs: slopes are distinct and positive, so at the first
    symbol where two words differ their prefix products differ too. Raises
    ResourceError when |slopes|^depth exceeds the budget, before the walk
    starts, so a refused walk builds and writes nothing.
    """
    if depth < 0:
        raise DomainError("depth must be non-negative")
    count = len(relation.slopes)
    # With two or more slopes count^depth >= 2^depth, which exceeds the
    # budget once depth > budget.bit_length(): such a depth is refused
    # without computing the power.
    too_deep = count > 1 and depth > budget.bit_length()
    if too_deep or count**depth > budget:
        total = "" if too_deep else f" = {_echo(count**depth)}"
        raise ResourceError(
            f"{count}^{_echo(depth)}{total} legs exceeds the budget "
            f"{_echo(budget)}; use sampling instead (sample_legs / --sample)"
        )
    return _grow_legs(itertools.product(relation.slopes, repeat=depth))


def enumerate_legs(relation: RelationSpec, depth: int, budget: int = DEFAULT_ENUM_BUDGET) -> FanApprox:
    """All legs of the given depth, one per word, in lexicographic slope order.

    The legs of one `_walk`, built with the collector paused; use
    sample_legs for depths past the budget.
    """
    walk = _walk(relation, depth, budget)
    with _collector_paused():
        return FanApprox(relation, depth, tuple(walk))


def _drawn(rng: random.Random, relation: RelationSpec, depth: int, count: int):
    """A new prefix walk over `count` words drawn uniformly i.i.d. over slopes^depth.

    Each word takes `depth` calls of rng.choice and is drawn only when its
    leg is pulled, so a caller that draws more from `rng` between legs
    keeps the order word i, then its own draws for leg i. The depth and
    count are checked before the walk starts.
    """
    if depth < 0:
        raise DomainError("depth must be non-negative")
    if count < 0:
        raise DomainError("count must be non-negative")
    words = (tuple(rng.choice(relation.slopes) for _ in range(depth)) for _ in range(count))
    return _grow_legs(words)


def sample_legs(relation: RelationSpec, depth: int, count: int, seed: int) -> tuple[Leg, ...]:
    """`count` words drawn uniformly i.i.d. over slopes^depth, deterministic under seed.

    All the drawn words go through one `_drawn` walk, built with the
    collector paused, so the legs share their product and t_max objects.
    """
    walk = _drawn(random.Random(seed), relation, depth, count)
    with _collector_paused():
        return tuple(walk)


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
        raise DomainError(
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


def _list_field(value, what: str) -> list:
    if type(value) is not list:
        raise FormatError(f"malformed leg file: {what} {_echo(repr(value))} is not a list")
    return value


def _parse_text(text, what: str) -> Fraction:
    if type(text) is not str:
        raise FormatError(f"malformed leg file: {what} {_echo(repr(text))} is not a string")
    return parse_scalar(text)


class _LegText(namedtuple("_LegText", "word t_max")):
    """A leg object of a leg file as the reader holds it: a tuple of word texts and a t_max text.

    It stands for the dict {"word": list(word), "t_max": t_max}. Anywhere
    but inside "legs" it must fail as that dict fails, so subscripting it
    and its repr go through the dict, and every error message reads the same.
    """

    __slots__ = ()

    def _as_parsed(self) -> dict:
        return {"word": list(self.word), "t_max": self.t_max}

    def __getitem__(self, key):
        return self._as_parsed()[key]

    def __repr__(self) -> str:
        return repr(self._as_parsed())


def _leg_text_hook():
    """A new `json.load` object hook that turns leg objects into `_LegText`s.

    An object whose keys are "word" then "t_max", holding a list of
    strings and a string, becomes a `_LegText`, and each of its texts is
    the first equal text the hook has seen, so a file's legs share one
    string per distinct symbol and t_max. Every other object is returned
    as it is, and the hook raises nothing: an unhashable word item is
    caught, and the leg stays a dict.
    """
    texts: dict[str, str] = {}
    share = texts.setdefault
    new = tuple.__new__

    def hook(obj: dict):
        if len(obj) != 2:
            return obj
        word, t_max = obj.get("word"), obj.get("t_max")
        if type(word) is not list or type(t_max) is not str or next(iter(obj)) != "word":
            return obj
        try:
            # The keys of `texts` are strings, so any other item misses.
            word = tuple(map(texts.__getitem__, word))
        except (KeyError, TypeError):
            if not all(type(text) is str for text in word):
                return obj
            word = tuple([share(text, text) for text in word])
        return new(_LegText, (word, share(t_max, t_max)))

    return hook


def _fan_head(data) -> tuple[RelationSpec, int, list]:
    """The relation, depth and leg list of a fan's JSON form, each checked, in that order."""
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
    return relation, depth, _list_field(raw_legs, "legs")


def _leg_text(raw) -> _LegText:
    """A leg object of "legs" as a `_LegText`: itself, or a dict with a "word" list and a "t_max".

    A dict's texts are kept as they are, so one of the wrong type fails when it is parsed.
    """
    if type(raw) is _LegText:
        return raw
    if type(raw) is not dict:
        raise FormatError(f"malformed leg file: leg {_echo(repr(raw))} is not an object")
    for key in ("word", "t_max"):
        if key not in raw:
            raise FormatError(f"malformed leg file: leg {_echo(raw)} has no {key!r}")
    return _LegText(tuple(_list_field(raw["word"], "word")), raw["t_max"])


def _fan_legs(relation: RelationSpec, depth: int, raws) -> FanApprox:
    """The fan of the leg objects `raws`, any iterable read once, each rebuilt and checked.

    Each leg object is read through `_leg_text`, and each distinct scalar
    text is parsed and checked once per call: a word text is then one
    lookup, and a checked t_max text stands for the walk's own cap object,
    so a later leg with that text is checked by identity. The legs are
    rebuilt by one `_grow_legs` walk over the relation's own slope
    objects, as in `enumerate_legs`, one at a time, so the first error in
    file order is reported.
    """
    own_slope = {s: s for s in relation.slopes}
    symbol_of: dict[str, Fraction] = {}  # word text -> the relation's own slope
    t_max_of: dict[str, Fraction] = {}

    def symbols_of(raw: _LegText) -> tuple[Fraction, ...]:
        word_texts = raw.word
        if len(word_texts) != depth:
            raise FormatError(
                f"word {_echo(list(word_texts))} has length {len(word_texts)}, "
                f"expected depth {_echo(depth)}"
            )
        try:
            # The keys of `symbol_of` are strings, so any other item misses.
            return tuple(map(symbol_of.__getitem__, word_texts))
        except (KeyError, TypeError):
            pass
        symbols = []
        for text in word_texts:
            symbol = symbol_of.get(text) if type(text) is str else None
            if symbol is None:
                value = _parse_text(text, "symbol")
                symbol = own_slope.get(value)
                if symbol is None:
                    raise FormatError(
                        f"symbol {_echo(value)} is not a slope of the relation"
                    )
                symbol_of[text] = symbol
            symbols.append(symbol)
        return tuple(symbols)

    legs = []
    # zip reads leg i from raws before the walk parses it, and the walk
    # parses leg i + 1 only after leg i's t_max has been checked; tee holds
    # leg i only until both have read it.
    checked, parsed = itertools.tee(map(_leg_text, raws))
    for raw, leg in zip(checked, _grow_legs(map(symbols_of, parsed))):
        text = raw.t_max
        stored = t_max_of.get(text) if type(text) is str else None
        if stored is None:
            stored = t_max_of[text] = _parse_text(text, "t_max")
        if stored is not leg.t_max:
            if stored != leg.t_max:
                raise FormatError(
                    f"stored t_max {_echo(text)} disagrees with recomputed "
                    f"{_echo(leg.t_max)} for word {_echo(raw['word'])}"
                )
            # The walk makes one object per value.
            t_max_of[text] = leg.t_max
        legs.append(leg)
    return FanApprox(relation, depth, tuple(legs))


def fan_from_dict(data: dict) -> FanApprox:
    """Rebuild a fan from its JSON form, recomputing and verifying each leg.

    A stored t_max that disagrees with the one recomputed from its word is
    a FormatError, and so is any field of the wrong JSON type. The
    relation, depth and leg list are checked first, then each leg in file
    order, so the first error in file order is reported.
    """
    return _fan_legs(*_fan_head(data))


def _fields_text(fields: dict) -> str:
    """The text of `fields` as json.dumps(..., indent=2) lays them out after a leg's "t_max"."""
    inner = json.dumps(fields, indent=2)[1:-2]  # the fields' lines, without the braces
    return "," + inner.replace("\n", "\n    ") if inner else ""


def _fan_json(fields: dict, relation: RelationSpec, legs, more=None):
    """A fan document's text in pieces: the head, one piece per leg, the close.

    Joined, the pieces are json.dumps({**fields, "legs": legs}, indent=2)
    and a newline, where each leg is {"word": ..., "t_max": ...} formatted
    by `format_scalar`, followed by `more(leg)`, when given: the text of
    its further fields, as `_fields_text` lays them out. `legs` is any
    iterable of legs, read once, so a walk is written as it runs. Each
    slope's line is formatted once, through `_symbol_values`, and each
    t_max object once, memoised by id; the memo holds each t_max it keys,
    so no id is reused, even when each leg is dropped once it is written.
    """
    t_max_texts: dict[int, tuple] = {}  # id(t_max) -> (t_max, its text)

    def word_item(symbol) -> str:
        # A word's item line, indented as json.dumps indents it inside "legs".
        return "\n        " + json.dumps(format_scalar(symbol))

    items = _symbol_values(relation, [word_item(s) for s in relation.slopes], word_item)
    # The head: the text of the document with no legs, up to its "[]\n}".
    yield json.dumps({**fields, "legs": []}, indent=2)[: -len("[]\n}")]
    opening = first = "[\n    {"
    for leg in legs:
        t_max = leg.t_max
        known = t_max_texts.get(id(t_max))
        if known is None:
            known = t_max_texts[id(t_max)] = (t_max, json.dumps(format_scalar(t_max)))
        word = ",".join(items(leg.word.symbols))
        word = f"[{word}\n      ]" if word else "[]"
        extra = more(leg) if more else ""
        yield f'{opening}\n      "word": {word},\n      "t_max": {known[1]}{extra}\n    }}'
        opening = ",\n    {"
    yield "[]\n}\n" if opening is first else "\n  ]\n}\n"


def _save(path, relation: RelationSpec, depth: int, legs) -> int:
    """Write the leg file of `legs`, read once, to `path`; return how many legs it holds.

    The bytes are json.dumps(data, indent=2) and a newline for the dict
    that `fan_from_dict` reads, written leg by leg by `_fan_json`.
    """
    slopes = [format_scalar(s) for s in relation.slopes]
    pieces = _fan_json({"relation": {"slopes": slopes}, "depth": depth}, relation, legs)
    with open(path, "w", encoding="utf-8") as handle:
        # The head and the close enclose one piece per leg.
        return sum(1 for _ in map(handle.write, pieces)) - 2


def save_fan(fan: FanApprox, path) -> None:
    """Write a fan's JSON form, indented by 2, with a final newline, as `_save` does."""
    _save(path, fan.relation, fan.depth, fan.legs)


def _drained(items: list):
    """The items of a list the caller owns, in order, each dropped from the list as it is read."""
    for i in range(len(items)):
        item, items[i] = items[i], None
        yield item


def load_fan(path) -> FanApprox:
    """Read a leg file as `fan_from_dict` reads its JSON form.

    `json.load` turns each leg object into a `_LegText` as it parses it,
    and each is dropped from the parsed list once its leg is rebuilt, so
    the parsed legs and the rebuilt ones are not held together. The file
    is parsed and its fan built with the collector paused.
    """
    with _collector_paused():
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle, object_hook=_leg_text_hook())
            # ValueError covers undecodable bytes, malformed JSON and an integer
            # literal past Python's int/str conversion limit.
            except (ValueError, RecursionError) as exc:
                raise FormatError(f"not valid JSON: {path}: {exc}") from exc
        relation, depth, raws = _fan_head(data)
        return _fan_legs(relation, depth, _drained(raws))

"""Independent oracles used to compute and freeze expected values.

These deliberately avoid the package's own code paths: factorization is
re-derived by a plain trial-division loop, and the never-connect brute
force compares exact integer powers directly, with no exponent-vector
reasoning anywhere. Legs are rebuilt word by word with
`itertools.accumulate`, sharing nothing with the prefix-sharing walk,
and a leg file's dict is written scalar by scalar, not through the
streaming writer.
An error message's echo is composed the plain way: the value's whole text
by `format_scalar`, then the cut. An SVG is drawn from `angle_fractions`'
Fractions, each converted by `float`, as one list of lines.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction

import numpy as np

from lelekfan import (
    Leg,
    PointPrefix,
    Word,
    angle_fractions,
    classify_endpoint,
    fan_relation,
    format_scalar,
)


def trial_factor_int(n: int) -> dict[int, int]:
    exponents: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            exponents[d] = exponents.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        exponents[n] = exponents.get(n, 0) + 1
    return exponents


def trial_factor_rational(q: Fraction) -> dict[int, int]:
    exponents = dict(trial_factor_int(q.numerator))
    for p, e in trial_factor_int(q.denominator).items():
        exponents[p] = exponents.get(p, 0) - e
    return {p: e for p, e in exponents.items() if e}


def recompose(exponents: dict[int, int]) -> Fraction:
    value = Fraction(1)
    for p, e in exponents.items():
        value *= Fraction(p) ** e
    return value


def nc_brute_witness(r: Fraction, rho: Fraction, bound: int = 64) -> tuple[int, int] | None:
    """Naive exhaustive search for r^k == rho^l over 1 <= k, -l <= bound.

    With 0 < r < 1 < rho only exponent pairs of the form (k > 0, l < 0)
    can match (up to the (k, l) <-> (-k, -l) symmetry), so this grid is the
    whole search space.
    """
    r_pow = [Fraction(1)]
    rho_inv_pow = [Fraction(1)]
    for _ in range(bound):
        r_pow.append(r_pow[-1] * r)
        rho_inv_pow.append(rho_inv_pow[-1] / rho)
    for k in range(1, bound + 1):
        for l in range(1, bound + 1):
            if r_pow[k] == rho_inv_pow[l]:
                return (k, -l)
    return None


def nc_merge_witness(r: Fraction, rho: Fraction, bound: int = 64) -> tuple[int, int] | None:
    """Exhaustive-equivalent merge walk for r^k == rho^-l, exact big integers.

    r^-k and rho^l are both strictly increasing in their exponents, so a
    two-pointer merge visits every potentially equal pair; skipped cells are
    unequal by monotonicity.
    """
    p, q = r.numerator, r.denominator
    u, v = rho.numerator, rho.denominator
    k = l = 1
    # r^-k = q^k / p^k, rho^l = u^l / v^l
    qk, pk = q, p
    ul, vl = u, v
    while k <= bound and l <= bound:
        lhs = qk * vl  # r^-k numerator cross rho^l denominator
        rhs = pk * ul
        if lhs == rhs:
            return (k, -l)
        if lhs < rhs:  # r^-k < rho^l: grow k
            k += 1
            qk *= q
            pk *= p
        else:
            l += 1
            ul *= u
            vl *= v
    return None


def nc_screen_grid(r_values, rho_values, bound: int = 64, threshold: float = 1e-6):
    """Float screening of |k ln r + l ln rho| over the full exponent grid.

    For each pair returns the minimal screened distance over k = 1..bound
    with the (unique) best integer l in 1..bound. A true equality makes the
    linear form exactly zero, and the accumulated double error is below
    1e-12 for numerators and denominators up to 30 and exponents up to 64,
    so every equality lands far under the threshold; pairs flagged under the
    threshold must then be confirmed or refuted exactly (nc_merge_witness).
    """
    log_r = np.array([math.log(float(x)) for x in r_values])  # negative
    log_rho = np.array([math.log(float(x)) for x in rho_values])  # positive
    ks = np.arange(1, bound + 1)
    flagged = np.zeros((len(r_values), len(rho_values)), dtype=bool)
    for i, lr in enumerate(log_r):
        # best l per k, clipped into the grid
        ratio = -lr / log_rho  # (n_rho,)
        ls = np.rint(ks[:, None] * ratio[None, :])
        np.clip(ls, 1, bound, out=ls)
        dist = np.abs(ks[:, None] * lr + ls * log_rho[None, :])
        flagged[i] = dist.min(axis=0) < threshold
    return flagged


def greedy_reference(x: Fraction, r: Fraction, rho: Fraction, steps: int, stop_when=None):
    """The greedy climb as a plain loop: (symbols, partials, running max).

    Every comparison is a Fraction comparison, and the stop test and the
    running max are checked on every step, whichever symbol it took.
    """
    symbols, partials = [], []
    current = running = x
    for _ in range(steps):
        if stop_when is not None and running >= stop_when:
            break
        up = current * rho
        if up <= 1:
            symbols.append(rho)
            current = up
        else:
            symbols.append(r)
            current = current * r
        partials.append(current)
        if current > running:
            running = current
    return tuple(symbols), tuple(partials), running


def best_climb_max_by_enumeration(x: Fraction, r: Fraction, rho: Fraction, steps: int) -> Fraction:
    """Max running maximum over all valid {r, rho} words, by literal enumeration."""
    best = x
    frontier = [(x, x)]
    for _ in range(steps):
        nxt = []
        for current, peak in frontier:
            for s in (r, rho):
                value = current * s
                if value <= 1:
                    new_peak = peak if peak >= value else value
                    if new_peak > best:
                        best = new_peak
                    nxt.append((value, new_peak))
        frontier = nxt
    return best


def oracle_trace_by_preorder(x: Fraction, r: Fraction, rho: Fraction, steps: int):
    """The exhaustive climb as (symbols, partials, running max), by sorting every word.

    Words of length <= steps are generated by itertools.product and put in
    rho-first preorder by sorting their index tuples (rho is 0, r is 1; a
    prefix sorts before its extensions). A word counts when every partial is
    <= 1; the first word whose running max is strictly greatest wins.
    """
    words = [w for n in range(steps + 1) for w in itertools.product((0, 1), repeat=n)]
    best = ((), (), x)
    for word in sorted(words):
        symbols = tuple(rho if i == 0 else r for i in word)
        partials = tuple(itertools.accumulate(symbols, operator.mul, initial=x))[1:]
        if all(p <= 1 for p in partials):
            running = max((x, *partials))
            if running > best[2]:
                best = (symbols, partials, running)
    return best


def hausdorff_max_min_exact(a_words, b_words, grid: int) -> Fraction:
    """Exact max over a's grid samples of the min distance to b's legs, in Fractions.

    Legs are rebuilt from their words: prefix products P_k, cap 1/max(1, P_k).
    Each a-leg is sampled at t = cap * i / grid for i = 0..grid. The distance
    from a point x to the b-leg at parameter s, sum_k 2^-(k+1) |x_k - s P_k|
    (P_0 = 1), is convex and piecewise linear in s, so its minimum over
    [0, cap] is taken at a breakpoint x_k / P_k inside the interval or at one
    of the two ends; all of them are evaluated.
    """

    def leg(word):
        products = [Fraction(1)]
        for s in word:
            products.append(products[-1] * s)
        return products, 1 / max(Fraction(1), max(products))

    def distance(x, products, s):
        return sum(abs(xk - s * pk) / (1 << (k + 1)) for k, (xk, pk) in enumerate(zip(x, products)))

    b_legs = [leg(word) for word in b_words]
    worst = Fraction(0)
    for word in a_words:
        products, cap = leg(word)
        for i in range(grid + 1):
            t = cap * i / grid
            x = [t * p for p in products]
            best = None
            for b_products, b_cap in b_legs:
                candidates = {Fraction(0), b_cap}
                candidates.update(xk / pk for xk, pk in zip(x, b_products) if xk / pk <= b_cap)
                for s in candidates:
                    d = distance(x, b_products, s)
                    if best is None or d < best:
                        best = d
            worst = max(worst, best)
    return worst


def legs_missing_reference(a, b) -> list:
    """Legs of fan a that are not legs of fan b, in a's order, by Fraction values only.

    Each a leg is compared, on its products and cap, with the last b leg
    whose word equals its own symbol by symbol, by value. A symbol that is
    no slope of b's relation stands for any other such symbol, as in the
    Hausdorff shared-leg lookup: a leg that this sends to the search is
    measured there like any unshared leg.
    """
    slopes = set(b.relation.slopes)

    def word(leg):
        return tuple(s if s in slopes else None for s in leg.word.symbols)

    last = {}
    for leg in b.legs:
        last[word(leg)] = leg
    missing = []
    for leg in a.legs:
        match = last.get(word(leg))
        if match is None or match.prefix_products != leg.prefix_products or match.t_max != leg.t_max:
            missing.append(leg)
    return missing


def echo_reference(value) -> str:
    """An error message's echo of value: its whole text, cut to 200 characters.

    An int or Fraction is written by `format_scalar`, a str is kept and
    anything else is its repr. Writing a number whole is quadratic in its
    digit count, so this suits values of a few thousand digits at most.
    """
    if isinstance(value, (int, Fraction)):
        text = format_scalar(value)
    else:
        text = value if isinstance(value, str) else repr(value)
    if len(text) <= 200:
        return text
    return f"{text[:200]}... ({len(text)} characters)"


def leg_reference(symbols) -> Leg:
    """One leg from scratch: P_k by itertools.accumulate, cap 1/max(1, P_1, ..., P_n)."""
    products = tuple(itertools.accumulate(symbols, operator.mul))
    return Leg(Word(tuple(symbols)), products, 1 / max((Fraction(1), *products)))


def fan_to_dict(fan) -> dict:
    """The dict a leg file encodes: slopes, depth and per-leg word plus t_max.

    Every scalar is written by `format_scalar`, one symbol at a time, so
    json.dumps(fan_to_dict(fan), indent=2) and a newline are the bytes
    `save_fan` must write, and `fan_from_dict` reads the dict back.
    """
    return {
        "relation": {"slopes": [format_scalar(s) for s in fan.relation.slopes]},
        "depth": fan.depth,
        "legs": [
            {"word": [format_scalar(s) for s in leg.word.symbols], "t_max": format_scalar(leg.t_max)}
            for leg in fan.legs
        ],
    }


def membership_reference(point, relation) -> bool:
    """Membership by its definition: a pair with a zero is (0, 0), any other has y / x a slope."""
    coords = point.coords
    return all(
        y == 0 if x == 0 else y / x in relation.slopes for x, y in zip(coords, coords[1:])
    )


def density_witness_reference(x, epsilon: Fraction, r: Fraction, rho: Fraction, budget: int, delta):
    """(e, bound, verdict) of a density witness as its definition states, with the public constructors.

    The point is checked against `fan_relation(r, rho)` by definition, the
    witness is a checked `PointPrefix` of x's first k0 coordinates (a seed
    of epsilon * 2^-(k0+2), or 1/2, repeated from the origin) and a plain
    greedy climb, its bound is the metric summed term by term plus the tail
    2^-common, and its verdict is a full `classify_endpoint` scan.
    """
    assert membership_reference(x, fan_relation(r, rho))
    if max(x.coords) == 1:
        return x, Fraction(0), classify_endpoint(x, delta)
    k0 = next(k for k in itertools.count(1) if Fraction(1, 2**k) <= epsilon)
    prefix = x.coords[:k0]
    if prefix[-1] == 0:
        seed = epsilon / 2 ** (k0 + 2)
        prefix = (seed if seed < 1 else Fraction(1, 2),) * k0
    _, partials, _ = greedy_reference(prefix[-1], r, rho, budget, stop_when=1 - delta)
    e = PointPrefix(prefix + partials)
    common = min(len(e.coords), len(x.coords))
    bound = sum(
        (abs(a - b) / 2 ** (k + 1) for k, (a, b) in enumerate(zip(e.coords[:common], x.coords))),
        Fraction(1, 2**common),
    )
    return e, bound, classify_endpoint(e, delta)


def enumerate_legs_reference(relation, depth: int) -> tuple:
    """Every word of the given depth in lexicographic slope order, each built from scratch."""
    return tuple(
        leg_reference(symbols) for symbols in itertools.product(relation.slopes, repeat=depth)
    )


def cantor_angle_reference(word, slopes) -> Fraction:
    """Cantor angle of a word as a per-digit Fraction sum, digit by digit.

    Two slopes map to the middle-thirds digits 0 and 2 in base 3; n >= 3
    slopes map to digits 0..n-1 in base max(3, n). The empty word sits at 1/2.
    """
    if not word:
        return Fraction(1, 2)
    n = len(slopes)
    digits, base = ((0, 2), 3) if n == 2 else (tuple(range(n)), max(3, n))
    x = Fraction(0)
    for k, s in enumerate(word, start=1):
        x += Fraction(digits[slopes.index(s)], base**k)
    return x


def angles_reference(fan, angle_map: str) -> list:
    """(leg, angle) per distinct word, sorted by its slope indexes, with the word's first leg.

    A word's slopes are found by value in the relation's slope list. The
    Cantor angle is `cantor_angle_reference`; the uniform one spreads the
    sorted words evenly over [0, 1], a single word sitting at 1/2.
    """
    slopes = list(fan.relation.slopes)
    first = {}
    for leg in fan.legs:
        first.setdefault(tuple(slopes.index(s) for s in leg.word.symbols), leg)
    words = sorted(first)
    if angle_map == "cantor":
        return [(first[w], cantor_angle_reference(first[w].word.symbols, slopes)) for w in words]
    last = len(words) - 1
    return [(first[w], Fraction(rank, last) if last else Fraction(1, 2)) for rank, w in enumerate(words)]


def render_reference(fan, config) -> str:
    """`render_fan`'s document: one stroke per `angle_fractions` pair, converted by float()."""
    width, height = config.width, config.height
    apex_x, apex_y = width / 2.0, 20.0
    sweep = math.radians(config.sweep)
    horizontal = (apex_x - 10.0) / math.sin(math.radians(config.sweep) / 2.0)
    radius = max(min(height - apex_y - 10.0, horizontal), 1.0)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<g stroke="black" stroke-width="{config.stroke_width:g}" stroke-linecap="round">',
    ]
    for leg, x in angle_fractions(fan, config.angle_map):
        length = radius * float(leg.t_max)
        phi = (float(x) - 0.5) * sweep
        end_x = apex_x + length * math.sin(phi)
        end_y = apex_y + length * math.cos(phi)
        lines.append(
            f'<line x1="{apex_x:.4f}" y1="{apex_y:.4f}" x2="{end_x:.4f}" y2="{end_y:.4f}"/>'
        )
    return "\n".join(lines + ["</g>", "</svg>", ""])


def deep_points_reference(slopes, depth: int, count: int, seed: int, t_denominator: int = 1024):
    """(word, t) pairs in the documented draw order: a word's symbols, then its t."""
    rng = random.Random(seed)
    draws = []
    for _ in range(count):
        word = tuple(slopes[rng.randrange(len(slopes))] for _ in range(depth))
        draws.append((word, Fraction(rng.randint(0, t_denominator), t_denominator)))
    return draws


def points_reference(leg_count: int, count: int, seed: int, t_denominator: int = 1024):
    """(leg index, t) pairs in the documented draw order: a leg index, then its t."""
    rng = random.Random(seed)
    draws = []
    for _ in range(count):
        index = rng.randrange(leg_count)
        draws.append((index, Fraction(rng.randint(0, t_denominator), t_denominator)))
    return draws


def hausdorff_all_samples_float(a, b, grid: int) -> tuple[float, float]:
    """Float enclosure from every grid sample of every a-leg against every b-leg.

    No leg is skipped and no sample is pruned. The arithmetic is the plain
    grid kernel's: a-leg i is sampled at (t_max * j / grid) * (1, P_1, ...),
    weighted by 2^-(k+1); candidate parameters x_k / P_k are clipped to
    [0, cap] and joined by 0 and cap; the distance is accumulated
    coordinate by coordinate as |w_k x_k - s * (w_k P_k)|. The upper bound
    adds half of a's Lipschitz grid spacing, each leg's constant
    sum_k P_k w_k accumulated from 0.0 in coordinate order (a numpy dot
    product leaves its summation order unspecified).
    """

    def arrays(fan):
        dirs = np.array([[1.0] + [float(p) for p in leg.prefix_products] for leg in fan.legs])
        return dirs, np.array([float(leg.t_max) for leg in fan.legs])

    weights = np.array([2.0 ** -(k + 1) for k in range(a.depth + 1)])
    dirs_a, caps_a = arrays(a)
    dirs_b, caps_b = arrays(b)
    dirs_bw = dirs_b * weights
    steps = np.arange(grid + 1) / grid
    worst = 0.0
    for dir_a, cap_a in zip(dirs_a, caps_a):
        # This leg's samples x (samples, coords) against b: (samples, b-legs, candidates).
        x = (cap_a * steps)[:, None] * dir_a
        x_w = x * weights
        cand = np.clip(x[:, None, :] / dirs_b, 0.0, caps_b[:, None])
        ends = np.broadcast_to(caps_b[:, None], cand.shape[:2] + (1,))
        cand = np.concatenate([cand, np.zeros(ends.shape), ends], axis=2)
        dist = np.zeros(cand.shape)
        for k in range(a.depth + 1):
            dist += np.abs(x_w[:, k, None, None] - cand * dirs_bw[:, k, None])
        worst = max(worst, float(dist.min(axis=(1, 2)).max()))
    resolution = 0.0
    for dir_a, cap_a in zip(dirs_a.tolist(), caps_a.tolist()):
        lipschitz = 0.0
        for d, w in zip(dir_a, weights.tolist()):
            lipschitz += d * w
        resolution = max(resolution, lipschitz * cap_a / grid)
    return worst, worst + 0.5 * resolution

"""Independent oracles used to compute and freeze expected values.

These deliberately avoid the package's own code paths: factorization is
re-derived by a plain trial-division loop, and the never-connect brute
force compares exact integer powers directly, with no exponent-vector
reasoning anywhere. Legs are rebuilt word by word with
`itertools.accumulate`, sharing nothing with the prefix-sharing walk.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from fractions import Fraction

import numpy as np

from lelekfan import Leg, Word


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


def leg_reference(symbols) -> Leg:
    """One leg from scratch: P_k by itertools.accumulate, cap 1/max(1, P_1, ..., P_n)."""
    products = tuple(itertools.accumulate(symbols, operator.mul))
    return Leg(Word(tuple(symbols)), products, 1 / max((Fraction(1), *products)))


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
    adds half of a's Lipschitz grid spacing.
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
    resolution = float(np.max((dirs_a @ weights) * caps_a / grid))
    return worst, worst + 0.5 * resolution

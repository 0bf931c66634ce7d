"""Endpoint classification, climb sequences, density witnesses and Hausdorff enclosures.

This is the verification layer: a point of the product is an end-point
exactly when the supremum of its coordinates equals 1, so one verdict
gives one of three kinds. An exact verdict exhibits a coordinate equal to
1 (its extension by diagonal steps then stays at 1 forever); an
approximate one exhibits a coordinate within delta of 1; otherwise the
point is not certified within its prefix and tolerance. Density witnesses
combine a kept prefix with a climb whose distance contribution is
controlled by the metric tail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, ResourceError, ShapeError
from .mahavier import (
    FanApprox,
    PointPrefix,
    RelationSpec,
    build_leg,
    cantor_relation,
    draw_word,
    enumerate_legs,
    fan_relation,
    leg_point,
    membership,
    truncated_metric,
    word_formatter,
    DEFAULT_ENUM_BUDGET,
)
from .nc import require_nc
from .scalars import format_scalar

DEFAULT_GREEDY_BUDGET = 10**4
DEFAULT_ORACLE_BUDGET = 20
DEFAULT_GRID = 8
DEFAULT_DELTA = Fraction(1, 100)
DENSITY_EPSILONS = (Fraction(1, 16), Fraction(1, 64), Fraction(1, 256))

EXACT = "exact"
APPROXIMATE = "approximate"
NOT_CERTIFIED = "not_certified"


@dataclass(frozen=True)
class GreedyTrace:
    """A climb from `start`: chosen symbols, partial products and their running maximum.

    The start counts as the depth-0 partial, so running_max >= start and every
    partial lies in [0, 1].
    """

    start: Fraction
    symbols: tuple[Fraction, ...]
    partials: tuple[Fraction, ...]
    running_max: Fraction


@dataclass(frozen=True)
class EndpointVerdict:
    """Whether a point's coordinate maximum reaches 1 (EXACT), nears it (APPROXIMATE) or neither.

    NOT_CERTIFIED means no certificate within this prefix and tolerance, not
    a disproof. `delta` is 1 - peak_value (0 when exact).
    """

    kind: str
    point: PointPrefix
    peak_index: int
    peak_value: Fraction
    delta: Fraction


def _climb_start(x, steps: int) -> Fraction:
    """The start x as a Fraction: a DomainError unless 0 < x < 1, then unless steps >= 0."""
    x = Fraction(x)
    if not 0 < x < 1:
        raise DomainError(f"start must lie in (0, 1), got {format_scalar(x)}")
    if steps < 0:
        raise DomainError(f"steps must be non-negative, got {steps}")
    return x


def greedy_sequence(
    x,
    r,
    rho,
    steps: int,
    stop_when: Fraction | None = None,
) -> GreedyTrace:
    """Climb from x by the greedy rule: multiply by rho whenever that stays <= 1, else by r.

    Ties (rho * current == 1) choose rho, which lands exactly on 1. When
    `stop_when` is given the climb stops early once the running maximum
    reaches it, so traces stay short. Requires 0 < x < 1, steps >= 0 and an
    NC pair.

    Each step costs one Fraction multiply, by the chosen slope: the test
    rho * current <= 1 and the running-maximum update are integer
    cross-multiplications (denominators are positive), and only an update
    of the running maximum is compared with `stop_when`.
    """
    x = _climb_start(x, steps)
    r, rho = Fraction(r), Fraction(rho)
    require_nc(r, rho)
    rho_num, rho_den = rho.numerator, rho.denominator
    symbols: list[Fraction] = []
    partials: list[Fraction] = []
    current = x
    running = x
    run_num, run_den = x.numerator, x.denominator
    if stop_when is not None and running >= stop_when:
        steps = 0
    for _ in range(steps):
        if current.numerator * rho_num <= current.denominator * rho_den:
            current = current * rho
            symbols.append(rho)
            partials.append(current)
            # r < 1 (require_nc), so only a rho-step can raise the running max,
            # and only then can it reach stop_when.
            num, den = current.numerator, current.denominator
            if num * run_den > run_num * den:
                running, run_num, run_den = current, num, den
                if stop_when is not None and running >= stop_when:
                    break
        else:
            symbols.append(r)
            current = current * r
            partials.append(current)
    return GreedyTrace(x, tuple(symbols), tuple(partials), running)


def oracle_best_sequence(x, r, rho, steps: int) -> GreedyTrace:
    """Exhaustive search over every {r, rho}-word of length <= steps whose partials stay in [0, 1].

    Returns a trace maximizing the running maximum (deterministically the
    first maximizer in rho-first preorder). Independent of the greedy rule;
    exponential in steps, hence DEFAULT_ORACLE_BUDGET.

    The search runs on unreduced integer numerators and denominators: a
    partial n/d stays in range when n <= d (denominators are positive), and
    maxima are compared by cross-multiplying. Only the best word's partials
    become Fractions, at the end.
    """
    x = _climb_start(x, steps)
    r, rho = Fraction(r), Fraction(rho)
    if steps > DEFAULT_ORACLE_BUDGET:
        raise ResourceError(f"steps = {steps} exceeds the oracle budget {DEFAULT_ORACLE_BUDGET}")
    slopes = ((rho, rho.numerator, rho.denominator), (r, r.numerator, r.denominator))
    path: list[Fraction] = []
    best_path: tuple[Fraction, ...] = ()
    best_num, best_den = x.numerator, x.denominator

    def visit(num: int, den: int, max_num: int, max_den: int) -> None:
        nonlocal best_path, best_num, best_den
        if len(path) == steps:
            return
        for s, s_num, s_den in slopes:
            n, d = num * s_num, den * s_den
            if n <= d:
                path.append(s)
                if n * max_den > max_num * d:
                    # A new running max; only it can beat the best so far.
                    if n * best_den > best_num * d:
                        best_path, best_num, best_den = tuple(path), n, d
                    visit(n, d, n, d)
                else:
                    visit(n, d, max_num, max_den)
                path.pop()

    visit(x.numerator, x.denominator, x.numerator, x.denominator)
    partials = []
    current = x
    for s in best_path:
        current = current * s
        partials.append(current)
    return GreedyTrace(x, best_path, tuple(partials), Fraction(best_num, best_den))


def classify_endpoint(point: PointPrefix, delta) -> EndpointVerdict:
    """Classify the coordinate maximum: EXACT (== 1), APPROXIMATE (>= 1 - delta) or NOT_CERTIFIED.

    NOT_CERTIFIED only means "not certified within this prefix and
    tolerance"; a longer prefix might still certify. The peak is the first
    maximal coordinate, found by integer cross-multiplication.
    """
    delta = Fraction(delta)
    if delta < 0:
        raise DomainError("delta must be non-negative")
    coords = point.coords
    if not coords:
        raise DomainError("a point with no coordinates has no peak")
    peak_index = 0
    peak_num, peak_den = coords[0].numerator, coords[0].denominator
    for i, c in enumerate(coords):
        if c.numerator * peak_den > peak_num * c.denominator:
            peak_index, peak_num, peak_den = i, c.numerator, c.denominator
    peak = coords[peak_index]
    if peak_num == peak_den:
        return EndpointVerdict(EXACT, point, peak_index, peak, Fraction(0))
    gap = 1 - peak
    kind = APPROXIMATE if gap <= delta else NOT_CERTIFIED
    return EndpointVerdict(kind, point, peak_index, peak, gap)


def canonical_endpoint_extension(verdict: EndpointVerdict, extra: int) -> PointPrefix:
    """Extend an exact verdict's point past its peak by diagonal steps.

    Every added coordinate equals 1, so any further extension of the
    underlying infinite sequence keeps the coordinate supremum at 1.
    """
    if verdict.kind != EXACT:
        raise DomainError("only exact verdicts extend canonically")
    coords = verdict.point.coords[: verdict.peak_index + 1] + (Fraction(1),) * extra
    return PointPrefix(coords)


def _min_k0(epsilon: Fraction) -> int:
    """Smallest positive k0 with 2^-k0 <= epsilon (the metric tail from index k0)."""
    k0 = 1
    while Fraction(1, 1 << k0) > epsilon:
        k0 += 1
    return k0


def density_witness(
    x: PointPrefix,
    epsilon,
    r,
    rho,
    extension_budget: int = DEFAULT_GREEDY_BUDGET,
    delta: Fraction = DEFAULT_DELTA,
) -> tuple[PointPrefix, Fraction, EndpointVerdict]:
    """Produce a point within epsilon of x, climbed toward an end-point, and its verdict.

    Keeps x's first k0 coordinates (k0 minimal with 2^-k0 <= epsilon) and
    climbs greedily from the coordinate there; the coordinates that differ
    all sit under the metric tail, so the distance is controlled a priori
    and then certified by exact computation. From the all-zero point the
    witness instead holds a small diagonal seed (epsilon * 2^-(k0+2)) for
    k0 steps before climbing, which keeps its early coordinates under
    epsilon. Both scaling slopes and the diagonal belong to the three-slope
    relation, so every witness passes membership against it. That needs x
    itself to pass it, since the witness keeps x's prefix: a point outside
    the relation is a DomainError, checked after the NC condition on
    (r, rho), which every input must meet, an exact one included.

    Returns (e, bound, verdict): `bound` is the exactly computed metric
    value over the common prefix plus its tail, always <= epsilon, and the
    verdict is classify_endpoint(e, delta), with the delta actually
    achieved within the budget. A climb that stops short of 1 - delta is
    NOT_CERTIFIED: it is reported, never silently dropped.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    require_nc(r, rho)
    if not membership(x, fan_relation(r, rho)):
        raise DomainError("x is not a point of the three-slope relation")
    verdict = classify_endpoint(x, delta)
    if verdict.kind == EXACT:
        return x, Fraction(0), verdict

    k0 = _min_k0(epsilon)
    if k0 > len(x.coords):
        raise DomainError(
            f"a prefix of length {len(x.coords)} cannot certify epsilon = "
            f"{format_scalar(epsilon)}: its tail bound alone is "
            f"2^-{len(x.coords)}"
        )
    start = x.coords[k0 - 1]
    prefix = x.coords[:k0]
    if start == 0:
        # All-zero point (a zero coordinate forces zeros everywhere).
        seed = epsilon / (1 << (k0 + 2))
        if seed >= 1:
            seed = Fraction(1, 2)
        start, prefix = seed, (seed,) * k0
    trace = greedy_sequence(start, r, rho, extension_budget, stop_when=1 - delta)
    e = PointPrefix(prefix + trace.partials)

    common = min(len(e.coords), len(x.coords))
    value, tail = truncated_metric(
        PointPrefix(e.coords[:common]), PointPrefix(x.coords[:common])
    )
    bound = value + tail
    if bound > epsilon:
        raise DomainError(
            f"witness bound {format_scalar(bound)} exceeds epsilon = "
            f"{format_scalar(epsilon)}; the input prefix is too short"
        )
    return e, bound, classify_endpoint(e, delta)


def _point_on(leg, rng: random.Random) -> PointPrefix:
    """The point of `leg` at t = t_max * k / 1024, k drawn by one rng.randint(0, 1024)."""
    return leg_point(leg, leg.t_max * rng.randint(0, 1024) / 1024)


def sample_points(fan: FanApprox, count: int, seed: int) -> list[PointPrefix]:
    """Deterministic point sample: per draw a uniform leg index, then a uniform grid parameter."""
    if count < 0:
        raise DomainError("count must be non-negative")
    legs = fan.legs
    if not legs:
        raise DomainError("a fan with no legs has no points to sample")
    rng = random.Random(seed)
    return [_point_on(legs[rng.randrange(len(legs))], rng) for _ in range(count)]


def sample_deep_points(relation: RelationSpec, depth: int, count: int, seed: int) -> list[PointPrefix]:
    """Deterministic depth-n point sample: per draw a uniform word, then a uniform grid parameter.

    For depths where enumeration is infeasible.
    """
    if depth < 0:
        raise DomainError("depth must be non-negative")
    if count < 0:
        raise DomainError("count must be non-negative")
    rng = random.Random(seed)
    return [_point_on(build_leg(draw_word(rng, relation, depth)), rng) for _ in range(count)]


def density_sweep(
    points, epsilon, r, rho, budget: int, delta
) -> tuple[list[dict], Fraction, Fraction]:
    """A density witness for every point: (failures, max_bound, worst_delta).

    A point fails when its verdict misses delta; each failure is
    reported as formatted `point`, `bound` and `achieved_delta`, in the
    order of `points`. A witness bound over epsilon is not a failure but a
    DomainError from density_witness, which ends the sweep.
    """
    failures = []
    max_bound = Fraction(0)
    worst_delta = Fraction(0)
    for point in points:
        _, bound, verdict = density_witness(point, epsilon, r, rho, budget, delta)
        max_bound = max(max_bound, bound)
        worst_delta = max(worst_delta, verdict.delta)
        if verdict.delta > delta:
            failures.append(
                {
                    "point": [format_scalar(c) for c in point.coords],
                    "bound": format_scalar(bound),
                    "achieved_delta": format_scalar(verdict.delta),
                }
            )
    return failures, max_bound, worst_delta


def _leg_arrays(legs):
    # Direction vectors (1, P_1, ..., P_n) per leg, plus the parameter caps.
    dirs = np.array([[1.0] + [float(p) for p in leg.prefix_products] for leg in legs])
    caps = np.array([float(leg.t_max) for leg in legs])
    return dirs, caps


def _metric_weights(depth: int):
    return np.array([2.0 ** -(k + 1) for k in range(depth + 1)])


def _require_legs(fan: FanApprox) -> None:
    if not fan.legs:
        raise DomainError("a fan with no legs has no Hausdorff distance")


def sample_resolution(fan: FanApprox, grid: int) -> float:
    """Metric spacing of the leg sample grid: max over legs of (Lipschitz constant * step).

    A leg's point map t -> (t, P_1 t, ...) is Lipschitz with constant
    sum_k 2^-(k+1) P_k in the truncated metric, so every leg point is within
    half this spacing of a grid sample.
    """
    if grid < 1:
        raise DomainError("grid must be a positive integer")
    _require_legs(fan)
    dirs, caps = _leg_arrays(fan.legs)
    weights = _metric_weights(fan.depth)
    return float(np.max((dirs @ weights) * caps / grid))


# Elements per kernel work array: three of them fit in a 2 MiB L2 cache.
_TILE = 2**15


def _min_distances(pts_w, dirs_bw, caps_b):
    """Per far end: the min distance over all of b's legs.

    `pts_w` (points, coords) holds the far ends x and `dirs_bw` (legs,
    coords) the directions v of b's legs, coordinate k scaled by
    w_k = 2^-(k+1); `caps_b` (legs) holds the caps c. The distance
    f(s) = sum_k |w_k x_k - s w_k v_k| is convex and piecewise linear, with
    kinks b_k = x_k / v_k, all positive: f falls strictly near 0, and if the
    cap minimizes f then some b_k >= c (else f rises strictly on
    [max b_k, c]). So the min over [0, c] is at one candidate per
    coordinate, min(b_k, c). Power-of-two scaling is exact while the
    weighted values stay normal floats, so b_k comes from them bit for bit.

    Tiles cut both the far ends and b's legs, each at most _TILE elements
    per work array (one point by one leg when a single leg's candidates
    exceed it). Three work arrays (candidates, term and sum) are allocated
    once per call and every tile writes into views of them, so memory is
    bounded by the tile, not by the fans. The floats are those of the
    untiled evaluation: each candidate's distance is summed in the same
    coordinate order from 0.0, and min does not round.
    """
    n_pts, n_coords = pts_w.shape
    n_legs = dirs_bw.shape[0]
    legs_per_tile = min(n_legs, max(1, _TILE // n_coords))
    pts_per_tile = min(n_pts, max(1, _TILE // (legs_per_tile * n_coords)))
    size = pts_per_tile * legs_per_tile * n_coords
    cand_buf, term_buf, dist_buf = np.empty(size), np.empty(size), np.empty(size)
    mins = np.full(n_pts, np.inf)
    for p0 in range(0, n_pts, pts_per_tile):
        p1 = min(p0 + pts_per_tile, n_pts)
        for l0 in range(0, n_legs, legs_per_tile):
            l1 = min(l0 + legs_per_tile, n_legs)
            shape = (p1 - p0, l1 - l0, n_coords)
            used = shape[0] * shape[1] * n_coords
            cand = cand_buf[:used].reshape(shape)
            term = term_buf[:used].reshape(shape)
            dist = dist_buf[:used].reshape(shape)
            np.divide(pts_w[p0:p1, None, :], dirs_bw[l0:l1], out=cand)
            np.minimum(cand, caps_b[l0:l1, None], out=cand)
            dist.fill(0.0)
            for k in range(n_coords):
                np.multiply(cand, dirs_bw[l0:l1, None, k], out=term)
                np.subtract(pts_w[p0:p1, None, None, k], term, out=term)
                np.abs(term, out=term)
                dist += term
            np.minimum(mins[p0:p1], dist.min(axis=(1, 2)), out=mins[p0:p1])
    return mins


def _legs_missing_from(a: FanApprox, b: FanApprox):
    """Legs of a that are not legs of b, in a's order.

    Looked up by word (half the Fraction hashing of a whole leg) but matched
    on the whole leg, so a hand-built leg whose products or cap disagree
    with b's leg of the same word is missing from b.
    """
    b_by_word = {leg.word.symbols: leg for leg in b.legs}
    for leg in a.legs:
        if b_by_word.get(leg.word.symbols) != leg:
            yield leg


def directed_hausdorff(a: FanApprox, b: FanApprox, grid: int = DEFAULT_GRID) -> tuple[float, float]:
    """Enclosure of sup over a's points of the distance to b, in the truncated metric.

    The sup is attained at the far ends of a's legs. Fans are star-shaped
    from the origin, so d(lam*x) <= lam*d(x) for 0 <= lam <= 1, where d is
    the distance to b: the point lam*s*v of the b-leg nearest to x stays on
    that leg, and |lam*x - lam*s*v| = lam*|x - s*v|. Each leg's far end
    (t = t_max) is therefore measured against all of b, and nothing else.
    The distance from a far end to one leg of b is convex and piecewise
    linear in the leg parameter, minimized at a kink x_k / P_k clipped to
    the leg's cap (one candidate per coordinate, see _min_distances), so it
    is evaluated without grid error. A leg of a that equals a leg of b is
    at distance exactly 0 and is skipped; when every leg is shared the
    result is (0.0, padding). The kernel works in fixed-size tiles, so its
    memory is bounded by the tile, not by the size of either fan.

    `grid` sets only the padding: the upper bound adds half of a's
    grid spacing, 0.5 * sample_resolution(a, grid). In exact arithmetic the
    lower bound equals the max over grid+1 samples of every leg of a
    measured against every leg of b; in floats the two agree bit for bit on
    every fan the tests compare.
    """
    if a.depth != b.depth:
        raise ShapeError(f"depth mismatch: {a.depth} vs {b.depth}")
    # sample_resolution checks grid and a's legs first.
    padding = 0.5 * sample_resolution(a, grid)
    _require_legs(b)
    unshared = tuple(_legs_missing_from(a, b))
    if not unshared:
        return 0.0, padding
    weights = _metric_weights(a.depth)
    dirs_b, caps_b = _leg_arrays(b.legs)
    dirs_a, caps_a = _leg_arrays(unshared)
    # Weights fold into the data: sum_k w_k |a_k - s v_k| = sum_k |w_k a_k - s w_k v_k|.
    far_w = caps_a[:, None] * dirs_a * weights
    worst = float(_min_distances(far_w, dirs_b * weights, caps_b).max())
    return worst, worst + padding


def hausdorff(a: FanApprox, b: FanApprox, grid: int = DEFAULT_GRID) -> tuple[float, float]:
    """Enclosure (lower, upper) of the Hausdorff distance between two leg unions.

    lower <= true distance <= upper; the gap shrinks as the grid grows.
    """
    lo_ab, up_ab = directed_hausdorff(a, b, grid)
    lo_ba, up_ba = directed_hausdorff(b, a, grid)
    return max(lo_ab, lo_ba), max(up_ab, up_ba)


def _check(name: str, counterexample) -> dict:
    """One report entry; it passes exactly when there is no counterexample."""
    return {"name": name, "pass": counterexample is None, "counterexample": counterexample}


def verify_embedding(
    r,
    rho,
    depth: int,
    samples: int,
    seed: int,
    extension_budget: int = DEFAULT_GREEDY_BUDGET,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> dict:
    """Check, at finite depth, that the two-slope product embeds in the three-slope one.

    Checks: (a) every leg of the diagonal+r relation equals a leg of the
    full three-slope relation exactly, (b) those legs all have t_max = 1,
    (c) distinct words yield distinct prefix-product sequences (the first
    clash in enumeration order is reported), (d) sampled points admit
    density witnesses at tolerance DEFAULT_DELTA for every epsilon of the
    schedule: the part of DENSITY_EPSILONS whose kept prefix of k0
    coordinates fits in depth + 1. Returns a report dict with one
    pass/fail entry per check and a first counterexample where applicable.
    Requires samples >= 1, so the density checks never pass on no points.
    """
    if samples < 1:
        raise DomainError(f"samples must be a positive integer, got {samples}")
    r, rho = Fraction(r), Fraction(rho)
    require_nc(r, rho)
    full = fan_relation(r, rho)
    fan_full = enumerate_legs(full, depth, budget)
    fan_sub = enumerate_legs(cantor_relation(r), depth, budget)
    format_word = word_formatter(full)

    bad = next(_legs_missing_from(fan_sub, fan_full), None)
    short = next((leg for leg in fan_sub.legs if leg.t_max != 1), None)
    seen: dict = {}
    clash = None
    for leg in fan_full.legs:
        if leg.prefix_products in seen:
            clash = (seen[leg.prefix_products], leg)
            break
        seen[leg.prefix_products] = leg
    checks = [
        _check("g-legs-are-f-legs", None if bad is None else {"word": format_word(bad.word)}),
        _check(
            "g-legs-full-length",
            None
            if short is None
            else {"word": format_word(short.word), "t_max": format_scalar(short.t_max)},
        ),
        _check(
            "leg-injectivity",
            None if clash is None else {"words": [format_word(leg.word) for leg in clash]},
        ),
    ]

    points = sample_points(fan_full, samples, seed)
    schedule = [eps for eps in DENSITY_EPSILONS if _min_k0(eps) <= depth + 1]
    for eps in schedule:
        failures, _, _ = density_sweep(points, eps, r, rho, extension_budget, DEFAULT_DELTA)
        checks.append(
            _check(f"density-epsilon-{format_scalar(eps)}", failures[0] if failures else None)
        )

    return {
        "r": format_scalar(r),
        "rho": format_scalar(rho),
        "depth": depth,
        "samples": samples,
        "seed": seed,
        "epsilons": [format_scalar(eps) for eps in schedule],
        "pass": all(c["pass"] for c in checks),
        "checks": checks,
    }

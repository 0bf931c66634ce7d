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

import heapq
import math
import random
from collections import namedtuple
from fractions import Fraction

from ._value import Value
from .errors import DomainError, ResourceError, ShapeError
from .mahavier import (
    FanApprox,
    PointPrefix,
    RelationSpec,
    _symbol_values,
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


class GreedyTrace(Value, namedtuple("GreedyTrace", "start symbols partials running_max")):
    """A climb from `start`: chosen symbols, partial products and their running maximum.

    The start counts as the depth-0 partial, so running_max >= start and every
    partial lies in [0, 1].
    """

    __slots__ = ()
    start: Fraction
    symbols: tuple[Fraction, ...]
    partials: tuple[Fraction, ...]
    running_max: Fraction


class EndpointVerdict(
    Value, namedtuple("EndpointVerdict", "kind point peak_index peak_value delta")
):
    """Whether a point's coordinate maximum reaches 1 (EXACT), nears it (APPROXIMATE) or neither.

    NOT_CERTIFIED means no certificate within this prefix and tolerance, not
    a disproof. `delta` is 1 - peak_value (0 when exact).
    """

    __slots__ = ()
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
    of the running maximum is compared with `stop_when`. The trace's
    running_max is the very object `start`, or the first partial that
    reaches it; density_witness finds its index by identity.
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
    if not point.coords:
        raise DomainError("a point with no coordinates has no peak")
    return _verdict(point, _first_peak(point.coords), delta)


def _first_peak(coords) -> int:
    """Index of the first maximal coordinate, found by integer cross-multiplication."""
    peak_index = 0
    peak_num, peak_den = coords[0].numerator, coords[0].denominator
    for i, c in enumerate(coords):
        if c.numerator * peak_den > peak_num * c.denominator:
            peak_index, peak_num, peak_den = i, c.numerator, c.denominator
    return peak_index


def _verdict(point: PointPrefix, peak_index: int, delta) -> EndpointVerdict:
    """The verdict on a point whose first maximal coordinate is at peak_index."""
    peak = point.coords[peak_index]
    if peak.numerator == peak.denominator:
        return EndpointVerdict(EXACT, point, peak_index, peak, Fraction(0))
    gap = 1 - peak
    kind = APPROXIMATE if gap <= delta else NOT_CERTIFIED
    return EndpointVerdict(kind, point, peak_index, peak, gap)


def _min_k0(epsilon: Fraction) -> int:
    """Smallest positive k0 with 2^-k0 <= epsilon (the metric tail from index k0).

    For epsilon = p/q that is p * 2^k0 >= q. With k the difference of the
    bit lengths of q and p, q/p lies in (2^(k-1), 2^(k+1)), so k0 is k or
    k + 1, found by one shift and one comparison, not a division.
    """
    p, q = epsilon.numerator, epsilon.denominator
    k = q.bit_length() - p.bit_length()
    if k < 1:  # q/p < 2
        return 1
    return k if p << k >= q else k + 1


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
    NOT_CERTIFIED: it is reported, never silently dropped. The verdict is
    built without scanning e again: its peak is the kept prefix's unless
    the climb's running maximum rises above it.
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
    # The climb starts at prefix[-1], and its running max is that start or
    # the partial object where the max was first reached; e's first maximal
    # coordinate is in the prefix unless the climb rose above the prefix's.
    peak_index = _first_peak(prefix)
    running_max = trace.running_max
    if running_max > prefix[peak_index]:
        peak_index = k0 + next(j for j, p in enumerate(trace.partials) if p is running_max)
    return e, bound, _verdict(e, peak_index, delta)


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


def _require_legs(fan: FanApprox) -> None:
    if not fan.legs:
        raise DomainError("a fan with no legs has no Hausdorff distance")


def _checked_float(p: Fraction, weight: float) -> float:
    """p as a float, n / d on its integers as float() computes it.

    DomainError unless the weighted value weight * p is a positive finite
    float: a product that overflows, or one that underflows to 0 once
    weighted, would turn a kink x_k / v_k into inf or nan.
    """
    try:
        value = p.numerator / p.denominator
    except OverflowError:
        value = math.inf
    if not 0.0 < value * weight < math.inf:
        raise DomainError(
            "a prefix product overflows a float or underflows to 0 once weighted; "
            "the float Hausdorff enclosure cannot measure this fan"
        )
    return value


def _float_rows(legs, weights):
    """Per leg: its products (1.0, P_1, ..., P_n) and its cap t_max, as floats.

    Each prefix product object is converted once, keyed by id: legs from
    _grow_legs share their leading products.
    """
    floats: dict[int, float] = {}
    tail = weights[1:]
    for leg in legs:
        row = [1.0]
        for weight, p in zip(tail, leg.prefix_products):
            value = floats.get(id(p))
            if value is None:
                value = floats[id(p)] = _checked_float(p, weight)
            row.append(value)
        cap = leg.t_max
        yield row, cap.numerator / cap.denominator


def sample_resolution(fan: FanApprox, grid: int) -> float:
    """Metric spacing of the leg sample grid: max over legs of (Lipschitz constant * step).

    A leg's point map t -> (t, P_1 t, ...) is Lipschitz with constant
    sum_k 2^-(k+1) P_k in the truncated metric, so every leg point is within
    half this spacing of a grid sample. The constant is accumulated from
    0.0 in coordinate order, then times the cap, divided by grid.
    """
    if grid < 1:
        raise DomainError("grid must be a positive integer")
    _require_legs(fan)
    weights = [2.0 ** -(k + 1) for k in range(fan.depth + 1)]
    resolution = 0.0
    for row, cap in _float_rows(fan.legs, weights):
        lipschitz = 0.0
        for p, weight in zip(row, weights):
            lipschitz += p * weight
        resolution = max(resolution, lipschitz * cap / grid)
    return resolution


# Prune a trie node only when its float lower bound exceeds the best leg
# found by more than this; see directed_hausdorff.
_SLACK = 1e-12


class _Node:
    """A node of the trie of b's words, at depth m.

    `vs` is the weighted direction prefix (w_0 P_0, ..., w_m P_m) every leg
    below shares and `cap` the largest cap below. Inner nodes map each
    child's prefix product, by id, to the child; at depth n `kids` is None
    and `caps` lists the distinct caps of the legs ending there.
    """

    __slots__ = ("vs", "cap", "kids", "caps")

    def __init__(self, vs: tuple[float, ...], leaf: bool):
        self.vs = vs
        self.cap = 0.0
        self.kids = None if leaf else {}
        self.caps = [] if leaf else None


def _trie(legs, weights) -> _Node:
    """The trie of the legs' words; each prefix product is converted once per node."""
    depth = len(weights) - 1
    root = _Node((weights[0],), depth == 0)
    for leg in legs:
        cap = leg.t_max.numerator / leg.t_max.denominator
        node = root
        for k, p in enumerate(leg.prefix_products, 1):
            node.cap = max(node.cap, cap)
            child = node.kids.get(id(p))
            if child is None:
                weight = weights[k]
                v = _checked_float(p, weight) * weight
                child = node.kids[id(p)] = _Node(node.vs + (v,), k == depth)
            node = child
        node.cap = max(node.cap, cap)
        if cap not in node.caps:
            node.caps.append(cap)
    return root


def _nearest(x, vs, cap, limit: float) -> float:
    """Min distance from x to s -> s*v, 0 <= s <= cap, over the coordinates of vs.

    One candidate per coordinate k, c = min(x_k / v_k, cap), and its
    distance sum_j |x_j - c v_j| accumulated from 0.0 in coordinate order;
    the cap is evaluated once however many kinks it clips. A sum stops
    once it exceeds limit (its terms are non-negative, so it can only
    grow); the result is the min over the candidates when that is at most
    limit, else inf.
    """
    nearest = math.inf
    capped = False
    for xk, vk in zip(x, vs):
        c = xk / vk
        if c >= cap:
            if capped:
                continue
            c, capped = cap, True
        d = 0.0
        for xj, vj in zip(x, vs):
            d += abs(xj - c * vj)
            if d > limit:
                break
        else:
            nearest = limit = d
    return nearest


def _farthest(far_ends, root: _Node) -> float:
    """Max over the far ends of the min distance to the legs below root."""
    worst = 0.0
    hint = None
    for x in far_ends:
        best = math.inf
        if hint is not None:
            best = _nearest(x, *hint, math.inf)
            if best <= worst:
                continue
        heap: list = []
        kids = (root,)
        while True:
            for node in kids:
                if node.kids is None:
                    for cap in node.caps:
                        d = _nearest(x, node.vs, cap, best)
                        if d < best:
                            best, hint = d, (node.vs, cap)
                else:
                    bound = _nearest(x, node.vs, node.cap, best + _SLACK)
                    if bound < math.inf:
                        heapq.heappush(heap, (bound, id(node), node))
            if best <= worst or not heap or heap[0][0] > best + _SLACK:
                break
            kids = heapq.heappop(heap)[2].kids.values()
        worst = max(worst, best)
    return worst


def _legs_missing_from(a: FanApprox, b: FanApprox):
    """Legs of a that are not legs of b, in a's order.

    Words are keyed by their symbols' indices among b's slopes, through
    mahavier's one symbol index. A leg matches only when its products and
    cap also equal those of b's leg under the same key. Symbols are
    positive, so a leg's products determine its word (s_k = P_k / P_{k-1})
    and that check decides equality on its own: a None key, for a symbol
    outside b's slopes, can only send a leg to the search, which measures
    it like any unshared leg.
    """
    key = _symbol_values(b.relation, range(len(b.relation.slopes)), lambda s: None)
    b_by_word = {tuple(key(leg.word.symbols)): leg for leg in b.legs}
    for leg in a.legs:
        match = b_by_word.get(tuple(key(leg.word.symbols)))
        if match is None or (match.prefix_products, match.t_max) != (leg.prefix_products, leg.t_max):
            yield leg


def directed_hausdorff(a: FanApprox, b: FanApprox, grid: int = DEFAULT_GRID) -> tuple[float, float]:
    """Enclosure of sup over a's points of the distance to b, in the truncated metric.

    The sup is attained at the far ends of a's legs. Fans are star-shaped
    from the origin, so d(lam*x) <= lam*d(x) for 0 <= lam <= 1, where d is
    the distance to b: the point lam*s*v of the b-leg nearest to x stays on
    that leg, and |lam*x - lam*s*v| = lam*|x - s*v|. Each leg's far end
    (t = t_max) is therefore measured against all of b, and nothing else.
    A leg of a that equals a leg of b is at distance exactly 0 and is
    skipped; when every leg is shared the result is (0.0, padding) and
    nothing else is built.

    Weights fold into the data: the far end x has x_k = (t_max P_k) w_k
    and a leg of b the direction v_k = P_k w_k, w_k = 2^-(k+1). The
    distance f(s) = sum_k |x_k - s v_k| to the leg s -> s*v, 0 <= s <= c,
    is convex and piecewise linear with kinks x_k / v_k >= 0. f falls near
    0 unless some x_k is 0, which makes 0 a kink, and a minimizing cap c
    that is no kink has a kink at or above it (else f rises on
    [max kink, c]), so the min is at one candidate per coordinate,
    min(x_k / v_k, c), evaluated without grid error.

    The search (after Taha and Hanbury, "An efficient algorithm for
    calculating the exact Hausdorff distance", IEEE TPAMI 37(11), 2015)
    puts b's words in a trie whose nodes hold the weighted direction
    prefix their legs share and the largest cap below. Each far end first
    measures the leg nearest to the previous far end; once any leg is
    within the running max the far end cannot raise it and the search
    stops. Otherwise it descends best-first: a node's lower bound is the
    min over s in [0, node cap] of its partial sum over coordinates
    0..m, which no leg below can beat (the terms it leaves out are
    non-negative, and each leg's cap is at most the node's), and a node
    whose bound exceeds the best leg found by more than _SLACK is
    pruned. A leg's value is exactly the float the all-pairs evaluation
    gives, and min does not round, so the result does not depend on the
    order of either fan's legs or on what was pruned.

    Why _SLACK covers the float error: every x_k and every s v_k with
    s <= cap lies in [0, w_k], so each sum is at most 1, its n + 1 terms
    and additions round by at most about (2n + 3) 2^-53 in total, and a
    float candidate moves the sum by at most 2^-53. Bound and leg value
    together are off by less than (4n + 10) 2^-53, below 1e-12 for every
    depth up to 1073, and a deeper fan is refused because its weights
    underflow to 0.

    A prefix product that overflows a float or underflows to 0 once
    weighted is a DomainError, raised before any distance is computed.
    `grid` sets only the padding: the upper bound adds half of a's grid
    spacing, 0.5 * sample_resolution(a, grid). In exact arithmetic the
    lower bound equals the max over grid+1 samples of every leg of a
    measured against every leg of b; in floats the two agree bit for bit
    on every fan the tests compare.
    """
    if a.depth != b.depth:
        raise ShapeError(f"depth mismatch: {a.depth} vs {b.depth}")
    # sample_resolution checks grid and a's legs first.
    padding = 0.5 * sample_resolution(a, grid)
    _require_legs(b)
    unshared = tuple(_legs_missing_from(a, b))
    if not unshared:
        return 0.0, padding
    weights = [2.0 ** -(k + 1) for k in range(a.depth + 1)]
    root = _trie(b.legs, weights)
    far_ends = [
        [(cap * p) * weight for p, weight in zip(row, weights)]
        for row, cap in _float_rows(unshared, weights)
    ]
    worst = _farthest(far_ends, root)
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

"""Climb sequences, endpoint certificates, density witnesses, Hausdorff enclosures."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from lelekfan import (
    APPROXIMATE,
    DEFAULT_DELTA,
    DENSITY_EPSILONS,
    DomainError,
    EXACT,
    EndpointVerdict,
    FanApprox,
    GreedyTrace,
    Leg,
    NOT_CERTIFIED,
    NcViolation,
    PointPrefix,
    ResourceError,
    ShapeError,
    Word,
    angle_fractions,
    build_leg,
    cantor_relation,
    classify_endpoint,
    density_sweep,
    density_witness,
    directed_hausdorff,
    enumerate_legs,
    fan_relation,
    format_scalar,
    greedy_sequence,
    hausdorff,
    leg_point,
    line_pair_relation,
    membership,
    oracle_best_sequence,
    parse_scalar,
    sample_deep_points,
    sample_points,
    sample_resolution,
    truncated_metric,
    verify_embedding,
)
from lelekfan import analysis
from lelekfan.mahavier import word_formatter
from oracles import (
    best_climb_max_by_enumeration,
    deep_points_reference,
    greedy_reference,
    hausdorff_all_samples_float,
    hausdorff_max_min_exact,
    oracle_trace_by_preorder,
    points_reference,
)

R = Fraction(1, 2)
RHO = Fraction(3)
F = fan_relation(R, RHO)


def test_greedy_example_two_fifths():
    trace = greedy_sequence(Fraction(2, 5), R, RHO, 4)
    assert trace.symbols == (R, RHO, R, RHO)
    assert trace.partials == (Fraction(1, 5), Fraction(3, 5), Fraction(3, 10), Fraction(9, 10))
    assert trace.running_max == Fraction(9, 10)


def test_greedy_tie_chooses_rho():
    trace = greedy_sequence(Fraction(1, 3), R, RHO, 1)
    assert trace.symbols == (RHO,)
    assert trace.partials == (Fraction(1),)
    assert trace.running_max == 1


def test_greedy_zero_steps():
    trace = greedy_sequence(Fraction(2, 5), R, RHO, 0)
    assert trace.symbols == ()
    assert trace.running_max == Fraction(2, 5)


def test_greedy_preconditions():
    with pytest.raises(DomainError):
        greedy_sequence(Fraction(0), R, RHO, 4)
    with pytest.raises(DomainError):
        greedy_sequence(Fraction(1), R, RHO, 4)
    with pytest.raises(NcViolation):
        greedy_sequence(Fraction(2, 5), R, Fraction(2), 4)
    with pytest.raises(DomainError, match="steps must be non-negative"):
        greedy_sequence(Fraction(2, 5), R, RHO, -1)
    # The start is checked before the steps.
    with pytest.raises(DomainError, match=r"start must lie in \(0, 1\)"):
        greedy_sequence(Fraction(0), R, RHO, -1)


def test_greedy_partials_stay_in_unit_interval():
    rng = random.Random(13)
    for _ in range(10**4):
        den = rng.randint(2, 10**4)
        x = Fraction(rng.randint(1, den - 1), den)
        trace = greedy_sequence(x, R, RHO, 12)
        assert all(0 < p <= 1 for p in trace.partials)
        assert trace.running_max == max((x, *trace.partials))


def test_greedy_stop_when_halts_early():
    trace = greedy_sequence(Fraction(2, 5), R, RHO, 10**4, stop_when=Fraction(9, 10))
    assert trace.running_max >= Fraction(9, 10)
    assert len(trace.symbols) == 4


@pytest.mark.parametrize(
    "r, rho", [(R, RHO), (Fraction(5, 7), Fraction(11, 4))], ids=["1/2,3", "5/7,11/4"]
)
def test_greedy_matches_reference(r, rho):
    rng = random.Random(23)
    starts = []
    for _ in range(200):
        den = rng.randint(2, 10**4)
        starts.append(Fraction(rng.randint(1, den - 1), den))
    stop = Fraction(99, 100)
    cases = [(x, 80, None) for x in starts] + [(x, 400, stop) for x in starts]
    # a start already at stop_when takes no step; so does steps = 0
    cases += [(stop, 50, stop), (Fraction(995, 1000), 50, stop), (Fraction(2, 5), 0, None)]
    for x, steps, stop_when in cases:
        trace = greedy_sequence(x, r, rho, steps, stop_when=stop_when)
        assert (trace.symbols, trace.partials, trace.running_max) == greedy_reference(
            x, r, rho, steps, stop_when
        ), (x, steps, stop_when)
    assert greedy_sequence(stop, r, rho, 50, stop_when=stop).symbols == ()


def test_greedy_past_the_digit_limit_formats_exactly():
    # Within the 10^4 step budget the partials pass 4300 digits, the default
    # limit of str(int), on each side of the fraction bar.
    trace = greedy_sequence(Fraction(1, 7), Fraction(1, 10), Fraction(11), 10**4)
    assert trace.partials[-1].numerator > 10**5_000
    for q in (trace.running_max, trace.partials[-1]):
        assert parse_scalar(format_scalar(q)) == q


def test_oracle_examples():
    assert oracle_best_sequence(Fraction(1, 3), R, RHO, 2).running_max == 1
    best4 = oracle_best_sequence(Fraction(2, 5), R, RHO, 4).running_max
    assert best4 == Fraction(9, 10)
    # oracle of the oracle: literal frontier enumeration
    assert best_climb_max_by_enumeration(Fraction(2, 5), R, RHO, 4) == Fraction(9, 10)
    best12 = oracle_best_sequence(Fraction(2, 5), R, RHO, 12).running_max
    assert best12 >= Fraction(9, 10)


def test_oracle_budget():
    with pytest.raises(ResourceError):
        oracle_best_sequence(Fraction(2, 5), R, RHO, 21)


def test_oracle_negative_steps_is_domain_error():
    with pytest.raises(DomainError, match="steps must be non-negative"):
        oracle_best_sequence(Fraction(2, 5), R, RHO, -1)
    # The start is checked first, the budget last.
    for x in (Fraction(0), Fraction(1), Fraction(3, 2)):
        for steps in (4, -1, 21):
            with pytest.raises(DomainError, match=r"start must lie in \(0, 1\)"):
                oracle_best_sequence(x, R, RHO, steps)


@pytest.mark.parametrize(
    "x, r, rho",
    [
        (Fraction(1, 3), R, RHO),  # many words reach 1: the first one wins
        (Fraction(2, 5), R, RHO),
        (Fraction(3, 7), Fraction(5, 7), Fraction(11, 4)),
        (Fraction(4, 9), Fraction(2, 3), Fraction(5, 2)),
    ],
    ids=["1/3;1/2,3", "2/5;1/2,3", "3/7;5/7,11/4", "4/9;2/3,5/2"],
)
def test_oracle_matches_preorder_reference(x, r, rho):
    for steps in range(13):
        expected = GreedyTrace(x, *oracle_trace_by_preorder(x, r, rho, steps))
        assert oracle_best_sequence(x, r, rho, steps) == expected, steps


def test_oracle_partials_valid_and_deterministic():
    a = oracle_best_sequence(Fraction(3, 7), R, RHO, 10)
    b = oracle_best_sequence(Fraction(3, 7), R, RHO, 10)
    assert a == b
    assert all(0 < p <= 1 for p in a.partials)


def test_greedy_matches_oracle_small():
    rng = random.Random(17)
    for _ in range(25):
        den = rng.randint(2, 10**5)
        x = Fraction(rng.randint(1, den - 1), den)
        for steps in (3, 8, 12):
            g = greedy_sequence(x, R, RHO, steps)
            o = oracle_best_sequence(x, R, RHO, steps)
            assert g.running_max == o.running_max, (x, steps)


def test_classify_endpoint_examples():
    exact = classify_endpoint(
        PointPrefix((Fraction(2, 9), Fraction(2, 3), Fraction(1, 3), 1)), Fraction(1, 2)
    )
    assert exact.kind == EXACT
    assert exact.peak_index == 3
    assert exact.delta == 0

    top = classify_endpoint(PointPrefix((0, 0, 0)), Fraction(1, 4))
    assert top.kind == NOT_CERTIFIED
    assert top.peak_value == 0
    assert top.delta == 1

    approx = classify_endpoint(
        PointPrefix((Fraction(1, 5), Fraction(3, 5), Fraction(3, 10), Fraction(9, 10))),
        Fraction(1, 8),
    )
    assert approx.kind == APPROXIMATE
    assert approx.delta == Fraction(1, 10)
    assert approx.peak_index == 3


def test_classify_endpoint_first_of_tied_maxima():
    first, second = Fraction(2, 3), Fraction(4, 6)
    assert first == second and first is not second
    point = PointPrefix((Fraction(1, 3), first, Fraction(1, 2), second))
    verdict = classify_endpoint(point, Fraction(1, 100))
    assert verdict.kind == NOT_CERTIFIED
    assert verdict.peak_index == 1 and verdict.peak_value is first
    point = PointPrefix((Fraction(1, 2), Fraction(1), Fraction(3, 3)))
    cert = classify_endpoint(point, 0)
    assert cert.kind == EXACT and cert.peak_index == 1 and cert.peak_value is point.coords[1]


def test_classify_endpoint_long_coordinates():
    rng = random.Random(41)
    for _ in range(10):
        coords = []
        for _ in range(300):
            den = rng.getrandbits(1500) | (1 << 1499)
            coords.append(Fraction(rng.randint(0, den), den))
        peak = max(coords)
        # The same value again, later and as a distinct object.
        coords.insert(rng.randrange(coords.index(peak) + 1, len(coords) + 1), peak * 1)
        index = coords.index(peak)
        point = PointPrefix(tuple(coords))
        at = classify_endpoint(point, 1 - peak)
        assert at.kind == APPROXIMATE and at.peak_index == index and at.peak_value is coords[index]
        assert at.delta == 1 - peak
        below = classify_endpoint(point, (1 - peak) * Fraction(999, 1000))
        assert below.kind == NOT_CERTIFIED and below.peak_index == index
        assert below.delta == 1 - peak


def test_classify_endpoint_empty_point_is_domain_error():
    with pytest.raises(DomainError, match="no coordinates"):
        classify_endpoint(PointPrefix(()), Fraction(1, 100))
    with pytest.raises(DomainError, match="delta must be non-negative"):
        classify_endpoint(PointPrefix((Fraction(1, 2),)), Fraction(-1, 100))


def test_density_witness_exact_point_returns_itself():
    x = leg_point(build_leg(Word((RHO, R, RHO))), Fraction(2, 9))
    e, bound, cert = density_witness(x, Fraction(1, 16), R, RHO)
    assert e == x
    assert bound == 0
    assert cert.kind == EXACT


def test_density_witness_constant_prefix():
    x = PointPrefix((Fraction(2, 5),) * 12)
    e, bound, cert = density_witness(x, Fraction(1, 16), R, RHO)
    # k0 = 4: keep four coordinates, then climb from 2/5
    assert e.coords[:4] == (Fraction(2, 5),) * 4
    assert e.coords[4:8] == (Fraction(1, 5), Fraction(3, 5), Fraction(3, 10), Fraction(9, 10))
    assert bound <= Fraction(1, 16)
    assert membership(e, F)
    assert cert.delta <= Fraction(1, 100)
    # bound really is the metric value plus tail over the common prefix
    common = min(len(e.coords), len(x.coords))
    value, tail = truncated_metric(PointPrefix(e.coords[:common]), PointPrefix(x.coords[:common]))
    assert bound == value + tail


def test_density_witness_from_the_top():
    x = PointPrefix((0,) * 12)
    e, bound, cert = density_witness(x, Fraction(1, 4), R, RHO)
    # k0 = 2, seed = (1/4) * 2^-4 = 1/64 held on the diagonal before the climb
    assert e.coords[:2] == (Fraction(1, 64),) * 2
    assert bound < Fraction(1, 4)
    assert cert.delta <= Fraction(1, 100)
    assert membership(e, F)
    assert max(e.coords) >= Fraction(99, 100)
    # k0 = 1 and epsilon / 8 >= 1: the seed is clamped to 1/2, inside (0, 1).
    for epsilon in (Fraction(8), Fraction(100)):
        e, bound, cert = density_witness(x, epsilon, R, RHO)
        assert e.coords[:3] == (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4))
        assert bound <= epsilon
        assert cert.kind == APPROXIMATE and cert.delta <= Fraction(1, 100)
        assert membership(e, F)


def test_density_witness_non_positive_epsilon_is_domain_error():
    x = PointPrefix((Fraction(2, 5),) * 12)
    for epsilon in (0, Fraction(-1, 16)):
        with pytest.raises(DomainError, match="epsilon must be positive"):
            density_witness(x, epsilon, R, RHO)


def test_density_witness_prefix_too_short():
    with pytest.raises(DomainError, match="tail"):
        density_witness(PointPrefix((Fraction(2, 5),) * 3), Fraction(1, 256), R, RHO)


def _min_k0_by_loop(epsilon: Fraction) -> int:
    k0 = 1
    while Fraction(1, 1 << k0) > epsilon:
        k0 += 1
    return k0


def test_min_k0_matches_the_loop():
    rng = random.Random(5)
    epsilons = [Fraction(1), Fraction(2), Fraction(3, 2), Fraction(7), Fraction(10**6, 3)]
    for k in range(200):
        power = Fraction(1, 1 << k)
        epsilons += [power, power * Fraction(1001, 1000), power * Fraction(999, 1000)]
    epsilons += [Fraction(rng.randrange(1, 10**6), rng.randrange(1, 10**12)) for _ in range(1000)]
    for epsilon in epsilons:
        assert analysis._min_k0(epsilon) == _min_k0_by_loop(epsilon), epsilon


def test_min_k0_is_fast_at_a_million_bits():
    # The loop took time quadratic in epsilon's size: 0.24 s at 3 * 10^4 bits.
    for epsilon in (
        Fraction(1, 1 << 10**6),
        Fraction(1, 3**630000),
        Fraction(7**20, (1 << 10**6) + 1),
    ):
        start = time.perf_counter()
        k0 = analysis._min_k0(epsilon)
        assert time.perf_counter() - start < 0.05
        # 2^-k0 <= epsilon < 2^-(k0 - 1), compared as integers
        p, q = epsilon.numerator, epsilon.denominator
        assert p << k0 >= q > p << (k0 - 1)
    assert analysis._min_k0(Fraction(1, 1 << 10**6)) == 10**6


def test_density_witness_requires_nc():
    # The exact point (its second coordinate is 1) is checked too, not returned.
    exact = PointPrefix((Fraction(1, 3), Fraction(1)) + tuple(Fraction(1, 2**k) for k in range(1, 9)))
    for x in (PointPrefix((Fraction(2, 5),) * 8), exact):
        with pytest.raises(NcViolation):
            density_witness(x, Fraction(1, 16), R, Fraction(2))


def test_density_witness_rejects_points_outside_the_relation():
    half, third = Fraction(1, 2), Fraction(1, 3)
    points = [
        (half, half, half) + (0,) * 9,  # a non-zero coordinate followed by 0
        (half, 0, 0, third) + (0,) * 8,  # 0 followed by a non-zero coordinate
        (Fraction(1, 5), 1) + (half,) * 10,  # slope 5, and exact: no shortcut
    ]
    for coords in points:
        x = PointPrefix(coords)
        assert not membership(x, F)
        with pytest.raises(DomainError, match="not a point of the three-slope relation"):
            density_witness(x, Fraction(1, 16), R, RHO)


def test_density_witness_short_budget_reports_not_certified():
    x = PointPrefix((Fraction(2, 5),) * 12)
    e, bound, cert = density_witness(x, Fraction(1, 16), R, RHO, extension_budget=2)
    assert cert.kind == NOT_CERTIFIED
    assert cert.delta == 1 - max(e.coords)
    assert cert.delta > Fraction(1, 100)  # two steps cannot reach 0.99 from 2/5


@pytest.mark.parametrize("r, rho", [(R, RHO), (Fraction(5, 7), Fraction(11, 4))])
def test_density_verdict_is_classify_endpoint_of_the_witness(r, rho):
    # The verdict is built from the kept prefix's peak and the climb's
    # running max; it must equal a full classification of the witness.
    points = sample_deep_points(fan_relation(r, rho), 40, 40, seed=7)
    for epsilon in DENSITY_EPSILONS:
        for x in points:
            e, _, verdict = density_witness(x, epsilon, r, rho)
            assert verdict == classify_endpoint(e, DEFAULT_DELTA)


def test_density_verdict_short_budgets_and_prefix_peaks():
    rising = leg_point(build_leg(Word((RHO, RHO, RHO) + (R,) * 9)), Fraction(1, 30))
    falling = leg_point(build_leg(Word((RHO,) + (R,) * 11)), Fraction(3, 10))
    cases = [
        # (point, extension_budget, delta, kind, peak_index)
        # Constant prefix 2/5: one step falls to 1/5, a second rises to 3/5.
        (PointPrefix((Fraction(2, 5),) * 12), 1, DEFAULT_DELTA, NOT_CERTIFIED, 0),
        (PointPrefix((Fraction(2, 5),) * 12), 2, DEFAULT_DELTA, NOT_CERTIFIED, 5),
        # Prefix (1/30, 1/10, 3/10, 9/10): the climb from 9/10 only falls, so
        # its running max is its start, tied with the prefix's last coordinate.
        (rising, 1, DEFAULT_DELTA, NOT_CERTIFIED, 3),
        (rising, 2, DEFAULT_DELTA, NOT_CERTIFIED, 3),
        # Prefix (3/10, 9/10, 9/20, 9/40): the climb stops at 27/40 >= 1/2,
        # below the prefix's 9/10; toward 99/100 it rises above 9/10.
        (falling, 100, Fraction(1, 2), APPROXIMATE, 1),
        (falling, 100, DEFAULT_DELTA, NOT_CERTIFIED, None),
    ]
    for x, budget, delta, kind, peak_index in cases:
        e, _, verdict = density_witness(x, Fraction(1, 16), R, RHO, budget, delta)
        assert verdict == classify_endpoint(e, delta)
        assert verdict.kind == kind
        if peak_index is None:
            assert verdict.peak_index >= 4  # the climb rose above the prefix
        else:
            assert verdict.peak_index == peak_index


def test_sample_deep_points_draw_order():
    # Each point draws its word's symbols first, then its parameter; the
    # density and embed-check reports depend on this order.
    for relation, depth in ((F, 12), (cantor_relation(R), 30), (F, 0)):
        points = sample_deep_points(relation, depth, 30, seed=4)
        expected = []
        for word, fraction in deep_points_reference(relation.slopes, depth, 30, seed=4):
            leg = build_leg(Word(word))
            expected.append(leg_point(leg, leg.t_max * fraction))
        assert points == expected


def test_sample_deep_points_negative_depth_is_domain_error():
    with pytest.raises(DomainError, match="depth must be non-negative"):
        sample_deep_points(F, -2, 2, 1)


def test_density_sweep_reports_every_failure():
    points = sample_deep_points(F, 12, 10, seed=5)
    epsilon, delta = Fraction(1, 16), Fraction(1, 100)
    failures, max_bound, worst_delta = density_sweep(points, epsilon, R, RHO, 200, delta)
    expected, bounds, deltas = [], [], []
    for point in points:
        _, bound, cert = density_witness(point, epsilon, R, RHO, 200, delta)
        bounds.append(bound)
        deltas.append(cert.delta)
        if cert.delta > delta:
            expected.append(
                {
                    "point": [format_scalar(c) for c in point.coords],
                    "bound": format_scalar(bound),
                    "achieved_delta": format_scalar(cert.delta),
                }
            )
    assert 1 < len(failures) < len(points)
    assert failures == expected
    assert max_bound == max(bounds) <= epsilon
    assert worst_delta == max(deltas) == max(parse_scalar(f["achieved_delta"]) for f in failures)
    assert density_sweep(points, epsilon, R, RHO, 10**4, delta)[0] == []


def test_density_sweep_over_epsilon_witness_is_domain_error(monkeypatch):
    # An inflated metric value pushes every computed witness bound past
    # epsilon: density_witness refuses it, and the sweep does not report it
    # as a failure.
    points = sample_deep_points(F, 12, 3, seed=5)
    epsilon = Fraction(1, 16)

    def inflated(p, q):
        value, tail = truncated_metric(p, q)
        return value + epsilon, tail

    monkeypatch.setattr(analysis, "truncated_metric", inflated)
    with pytest.raises(DomainError, match="exceeds epsilon"):
        density_sweep(points, epsilon, R, RHO, 200, Fraction(1, 100))


def test_verify_embedding_reports_first_density_failure():
    report = verify_embedding(R, RHO, depth=5, samples=20, seed=7, extension_budget=2)
    points = sample_points(enumerate_legs(F, 5), 20, 7)
    density = [c for c in report["checks"] if c["name"].startswith("density-epsilon-")]
    assert not report["pass"]
    for check, eps in zip(density, (Fraction(1, 16), Fraction(1, 64))):
        failures, _, _ = density_sweep(points, eps, R, RHO, 2, Fraction(1, 100))
        assert not check["pass"]
        assert check["counterexample"] == failures[0]


def test_density_witness_random_points():
    points = sample_deep_points(F, 20, 40, seed=11)
    for x in points:
        for eps in (Fraction(1, 16), Fraction(1, 64)):
            e, bound, cert = density_witness(x, eps, R, RHO)
            assert bound <= eps
            assert membership(e, F)
            assert cert.kind == EXACT or cert.delta <= Fraction(1, 100)


def test_endpoint_perfectness_proxy():
    # A nearby distinct endpoint arises from keeping a prefix and climbing differently.
    fan = enumerate_legs(F, 6)
    rng = random.Random(31)
    for _ in range(20):
        leg = fan.legs[rng.randrange(len(fan.legs))]
        tip = leg_point(leg, leg.t_max)
        k = rng.randint(1, 5)
        if tip.coords[k - 1] == 0:
            continue
        eps = Fraction(1, 1 << k)
        e, bound, cert = density_witness(tip, eps, R, RHO)
        if e == tip:  # already exact: nudge by rebuilding from a shorter prefix
            prefix = tip.coords[:k]
            start = prefix[-1]
            if start in (0, 1):
                continue
            trace = greedy_sequence(start, R, RHO, 10**4, stop_when=Fraction(99, 100))
            e = PointPrefix(prefix + trace.partials)
        common = min(len(e.coords), len(tip.coords))
        value, tail = truncated_metric(
            PointPrefix(e.coords[:common]), PointPrefix(tip.coords[:common])
        )
        assert value + tail <= eps + Fraction(1, 1 << common)
        assert membership(e, F)


def test_sample_points_deterministic_and_valid():
    fan = enumerate_legs(F, 5)
    a = sample_points(fan, 50, seed=9)
    b = sample_points(fan, 50, seed=9)
    assert a == b
    for p in a:
        assert membership(p, F)


def test_sample_points_draw_order():
    # Each point draws its leg index first, then its parameter; the
    # embed-check report depends on this order.
    for relation, depth in ((F, 5), (cantor_relation(R), 7), (F, 0)):
        fan = enumerate_legs(relation, depth)
        points = sample_points(fan, 30, seed=4)
        expected = []
        for index, fraction in points_reference(len(fan.legs), 30, seed=4):
            leg = fan.legs[index]
            expected.append(leg_point(leg, leg.t_max * fraction))
        assert points == expected


def test_sample_points_negative_count_is_domain_error():
    with pytest.raises(DomainError, match="count must be non-negative"):
        sample_points(enumerate_legs(F, 3), -3, seed=0)
    with pytest.raises(DomainError, match="count must be non-negative"):
        sample_deep_points(F, 3, -2, seed=0)
    assert sample_points(enumerate_legs(F, 3), 0, seed=0) == []
    assert sample_deep_points(F, 3, 0, seed=0) == []


def test_sample_points_no_legs_is_domain_error():
    with pytest.raises(DomainError, match="no legs"):
        sample_points(FanApprox(F, 3, ()), 5, seed=1)


def test_hausdorff_identical_fans():
    fan = enumerate_legs(F, 4)
    lower, upper = hausdorff(fan, fan, grid=8)
    assert lower == 0.0
    assert upper < 2 * sample_resolution(fan, 8)


def test_hausdorff_directed_subset_is_zero():
    f_fan = enumerate_legs(F, 4)
    g_fan = enumerate_legs(cantor_relation(R), 4)
    lower, upper = directed_hausdorff(g_fan, f_fan, grid=8)
    assert lower <= 1e-12
    assert upper <= sample_resolution(g_fan, 8)


def test_hausdorff_diagonal_free_fan_is_far():
    f_fan = enumerate_legs(F, 4)
    l_fan = enumerate_legs(line_pair_relation(R, RHO), 4)
    lower, upper = hausdorff(f_fan, l_fan, grid=8)
    assert lower > 0.05
    assert upper >= lower


def test_hausdorff_enclosures_nest_across_grids():
    # every grid's interval contains the true distance, so intervals must
    # pairwise intersect and finer grids must not widen the enclosure
    f_fan = enumerate_legs(F, 3)
    g_fan = enumerate_legs(cantor_relation(R), 3)
    intervals = [hausdorff(f_fan, g_fan, grid) for grid in (3, 7, 16)]
    for lower_a, upper_a in intervals:
        for lower_b, upper_b in intervals:
            assert lower_a <= upper_b + 1e-12
    widths = [upper - lower for lower, upper in intervals]
    assert widths == sorted(widths, reverse=True)


def _partially_shared(depth: int, seed: int = 5):
    # a: a shuffled half of F plus the diagonal-free legs; b: the other half
    # of F. Every diagonal-free word is an F word, so a and b share the
    # diagonal-free legs that fell into b's half, and nothing else.
    legs = list(enumerate_legs(F, depth).legs)
    random.Random(seed).shuffle(legs)
    half, rest = legs[: len(legs) // 2], legs[len(legs) // 2 :]
    extra = [leg for leg in enumerate_legs(line_pair_relation(R, RHO), depth).legs if leg not in half]
    return FanApprox(F, depth, tuple(half + extra)), FanApprox(F, depth, tuple(rest))


def _far_ends(legs):
    # The search's weighted far ends: ((t_max * 1.0) * P_k) * 2^-(k+1), P_0 = 1.
    return [
        tuple(float(leg.t_max) * float(p) * 2.0 ** -(k + 1) for k, p in enumerate((1,) + leg.prefix_products))
        for leg in legs
    ]


def _record_search(monkeypatch):
    # Every distance the search evaluates, as (far end, direction prefix, cap).
    # A call with the whole direction, one entry per coordinate, is a leaf
    # evaluation; a shorter prefix is a trie node's lower bound.
    calls = []
    nearest = analysis._nearest

    def recording(x, vs, cap, limit):
        calls.append((tuple(x), vs, cap))
        return nearest(x, vs, cap, limit)

    monkeypatch.setattr(analysis, "_nearest", recording)
    return calls


def _leaf_far_ends(calls):
    # Far ends that reached a leaf evaluation, in order of first appearance.
    return list(dict.fromkeys(x for x, vs, _ in calls if len(vs) == len(x)))


def test_hausdorff_shared_legs_skip_kernel(monkeypatch):
    # Shared legs are never measured: a nested pair builds no trie and
    # evaluates nothing; otherwise exactly the unshared far ends, in a's
    # order, reach a leaf evaluation.
    calls = _record_search(monkeypatch)
    tries = []
    trie = analysis._trie

    def recording_trie(legs, weights):
        tries.append(legs)
        return trie(legs, weights)

    monkeypatch.setattr(analysis, "_trie", recording_trie)

    f_fan = enumerate_legs(F, 4)
    g_fan = enumerate_legs(cantor_relation(R), 4)
    assert directed_hausdorff(g_fan, f_fan, grid=8)[0] == 0.0
    assert hausdorff(f_fan, f_fan, grid=8)[0] == 0.0
    assert calls == [] and tries == []

    # Same word as an F leg, different cap: not shared.
    leg = f_fan.legs[-1]
    halved = FanApprox(F, 4, (Leg(leg.word, leg.prefix_products, leg.t_max / 2),))
    directed_hausdorff(halved, f_fan, grid=8)
    assert tries == [f_fan.legs]
    assert _leaf_far_ends(calls) == _far_ends(halved.legs)
    calls.clear()
    tries.clear()

    a, b = _partially_shared(4)
    shared = set(a.legs) & set(b.legs)
    assert 0 < len(shared) < len(a.legs)
    directed_hausdorff(a, b, grid=8)
    assert tries == [b.legs]
    assert _leaf_far_ends(calls) == _far_ends([leg for leg in a.legs if leg not in shared])


def test_hausdorff_shared_legs_match_by_value(monkeypatch):
    # Words of equal but distinct Fractions are the same words, so those
    # legs are shared; a leg whose products disagree with b's leg of its
    # word is not.
    calls = _record_search(monkeypatch)
    f_fan = enumerate_legs(F, 3)
    copies = FanApprox(
        F, 3, tuple(build_leg(Word(tuple(Fraction(s.numerator, s.denominator) for s in leg.word.symbols))) for leg in f_fan.legs)
    )
    assert copies.legs[0].word.symbols[0] is not f_fan.legs[0].word.symbols[0]
    assert directed_hausdorff(copies, f_fan, grid=8)[0] == 0.0
    assert calls == []
    leg = f_fan.legs[5]
    wrong = Leg(leg.word, leg.prefix_products[:-1] + (leg.prefix_products[-1] * 2,), leg.t_max)
    assert directed_hausdorff(FanApprox(F, 3, (wrong,)), f_fan, grid=8)[0] > 0.0
    assert _leaf_far_ends(calls) == _far_ends([wrong])


def _count_fraction_hashes(monkeypatch):
    calls = [0]
    fraction_hash = Fraction.__hash__

    def counting(self):
        calls[0] += 1
        return fraction_hash(self)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    return calls


def test_symbol_index_hashes_each_symbol_object_once(monkeypatch):
    # Under an equal but separately built relation no symbol of F's legs is
    # one of its slope objects; each distinct symbol object is still hashed
    # at most once per lookup (word_formatter, angle_fractions and the
    # shared-leg lookup), besides the relation's own slopes, and every
    # output equals the one under the fan's own relation.
    f_fan = enumerate_legs(F, 5)
    g_fan = enumerate_legs(cantor_relation(R), 5)
    twin = fan_relation(Fraction(1, 2), 3)
    assert twin == F and not any(s is t for s in twin.slopes for t in F.slopes)
    f_twin = FanApprox(twin, 5, f_fan.legs)
    g_twin = FanApprox(cantor_relation(Fraction(1, 2)), 5, g_fan.legs)

    def bound(relation, *fans):
        objects = {id(s) for fan in fans for leg in fan.legs for s in leg.word.symbols}
        return len(objects) + len(relation.slopes)

    expected_words = [word_formatter(F)(leg.word) for leg in f_fan.legs]
    expected_angles = {m: angle_fractions(f_fan, m) for m in ("cantor", "uniform")}
    expected_missing = list(analysis._legs_missing_from(f_fan, g_fan))
    assert expected_missing

    calls = _count_fraction_hashes(monkeypatch)
    format_word = word_formatter(twin)
    assert [format_word(leg.word) for leg in f_fan.legs] == expected_words
    assert calls[0] <= bound(twin, f_fan)
    for angle_map, expected in expected_angles.items():
        calls[0] = 0
        assert angle_fractions(f_twin, angle_map) == expected
        assert calls[0] <= bound(twin, f_fan)
    calls[0] = 0
    assert list(analysis._legs_missing_from(g_fan, f_twin)) == []
    assert calls[0] <= bound(twin, g_fan, f_twin)
    calls[0] = 0
    assert list(analysis._legs_missing_from(f_fan, g_twin)) == expected_missing
    assert calls[0] <= bound(g_twin.relation, f_fan, g_twin)


def test_hausdorff_symbols_outside_b_slopes(monkeypatch):
    # Symbols outside b's slopes share one key, so of two such b legs only
    # the last is found by the lookup; a copy of the other goes to the
    # search, which still puts it at distance exactly 0. An a leg with a
    # symbol absent from b is measured like any unshared leg.
    calls = _record_search(monkeypatch)
    g_fan = enumerate_legs(cantor_relation(R), 3)
    first, last = (Word((R, Fraction(5, 7), RHO)), Word((R, Fraction(7, 5), RHO)))
    b = FanApprox(g_fan.relation, 3, g_fan.legs + (build_leg(first), build_leg(last)))
    assert directed_hausdorff(FanApprox(F, 3, (build_leg(last),)), b, grid=8)[0] == 0.0
    assert calls == []
    copy = build_leg(first)
    assert directed_hausdorff(FanApprox(F, 3, (copy,)), b, grid=8)[0] == 0.0
    assert _leaf_far_ends(calls) == _far_ends([copy])
    calls.clear()

    a = FanApprox(F, 3, (build_leg(Word((R, Fraction(5, 7), Fraction(1)))), build_leg(Word((RHO, R, R)))))
    lower, _ = directed_hausdorff(a, b, grid=8)
    assert _leaf_far_ends(calls) == _far_ends(a.legs)
    exact = hausdorff_max_min_exact(
        [leg.word.symbols for leg in a.legs], [leg.word.symbols for leg in b.legs], 8
    )
    assert lower > 0.0 and abs(lower - float(exact)) <= 1e-12


def test_hausdorff_partially_shared_pair():
    a, b = _partially_shared(4)
    grid = 8
    lower, upper = directed_hausdorff(a, b, grid)
    unshared = FanApprox(F, 4, tuple(leg for leg in a.legs if leg not in set(b.legs)))
    assert lower > 0.0
    assert lower == directed_hausdorff(unshared, b, grid)[0]
    assert upper == lower + 0.5 * sample_resolution(a, grid)
    rng = random.Random(11)
    a_legs, b_legs = list(a.legs), list(b.legs)
    rng.shuffle(a_legs)
    rng.shuffle(b_legs)
    shuffled = directed_hausdorff(FanApprox(F, 4, tuple(a_legs)), FanApprox(F, 4, tuple(b_legs)), grid)
    assert shuffled == (lower, upper)


def test_hausdorff_lower_matches_exact_oracle():
    depth = 3
    f_fan = enumerate_legs(F, depth)
    g_fan = enumerate_legs(cantor_relation(R), depth)
    l_fan = enumerate_legs(line_pair_relation(R, RHO), depth)
    partial_a, partial_b = _partially_shared(depth)
    pairs = {
        "nested G in F": (g_fan, f_fan),
        "nested L in F": (l_fan, f_fan),
        "partially shared": (partial_a, partial_b),
        "F to L, L legs shared": (f_fan, l_fan),
        "crossed G to L": (g_fan, l_fan),
        "crossed L to G": (l_fan, g_fan),
    }
    for grid in (1, 4, 8):
        for name, (a, b) in pairs.items():
            lower, _ = directed_hausdorff(a, b, grid)
            exact = hausdorff_max_min_exact(
                [leg.word.symbols for leg in a.legs], [leg.word.symbols for leg in b.legs], grid
            )
            assert abs(lower - float(exact)) <= 1e-12, (name, grid)


def _crossed_pairs(depth: int):
    f_fan = enumerate_legs(F, depth)
    g_fan = enumerate_legs(cantor_relation(R), depth)
    l_fan = enumerate_legs(line_pair_relation(R, RHO), depth)
    return {
        "F to L": (f_fan, l_fan),
        "G to L": (g_fan, l_fan),
        "L to G": (l_fan, g_fan),
        "F to G": (f_fan, g_fan),
    }


def test_hausdorff_only_far_ends_reach_full_min(monkeypatch):
    # Only unshared far ends are evaluated, each of them reaches a leaf
    # evaluation, and every leaf evaluated is a leg of b: its whole weighted
    # direction and its cap.
    pairs = _crossed_pairs(4)
    calls = _record_search(monkeypatch)
    for name in ("F to L", "G to L"):
        a, b = pairs[name]
        calls.clear()
        lower, _ = directed_hausdorff(a, b, grid=8)
        b_legs = set(b.legs)
        unshared = [leg for leg in a.legs if leg not in b_legs]
        assert 0 < len(unshared) < len(a.legs), name
        assert _leaf_far_ends(calls) == _far_ends(unshared), name
        assert {x for x, _, _ in calls} == set(_far_ends(unshared)), name
        b_directions = {
            (tuple(float(p) * 2.0 ** -(k + 1) for k, p in enumerate((1,) + leg.prefix_products)), float(leg.t_max))
            for leg in b.legs
        }
        leaves = {(vs, cap) for x, vs, cap in calls if len(vs) == len(x)}
        assert leaves <= b_directions, name
        assert lower > 0.0, name


def _reference_fans(depth: int, r=R, rho=RHO):
    f_fan = enumerate_legs(fan_relation(r, rho), depth)
    legs = list(f_fan.legs)
    random.Random(depth).shuffle(legs)
    return {
        "F": f_fan,
        "G": enumerate_legs(cantor_relation(r), depth),
        "L": enumerate_legs(line_pair_relation(r, rho), depth),
        "H1": FanApprox(f_fan.relation, depth, tuple(legs[: len(legs) // 2])),
        "H2": FanApprox(f_fan.relation, depth, tuple(legs[len(legs) // 2 :])),
    }


def _assert_matches_all_samples(fans, names):
    # Far ends only, one candidate per coordinate, against every grid sample
    # of every leg with 0 and the cap as extra candidates, in float.hex.
    for grid in (1, 3, 8, 16):
        reference = {(a, b): hausdorff_all_samples_float(fans[a], fans[b], grid) for a, b in names}
        for (a, b), expected in reference.items():
            got = directed_hausdorff(fans[a], fans[b], grid)
            assert [x.hex() for x in got] == [x.hex() for x in expected], (a, b, grid)
            if (b, a) in reference:
                back = reference[(b, a)]
                both = hausdorff(fans[a], fans[b], grid)
                assert [x.hex() for x in both] == [
                    max(expected[0], back[0]).hex(),
                    max(expected[1], back[1]).hex(),
                ], (a, b, grid)


@pytest.mark.parametrize("depth", [2, 3, 4, 5])
def test_hausdorff_matches_all_samples_reference(depth):
    # Depth 5 keeps the crossed pairs and their reverses, to bound run time.
    fans = _reference_fans(depth)
    if depth < 5:
        names = [(a, b) for a in fans for b in fans]
    else:
        names = [("F", "L"), ("L", "F"), ("G", "L"), ("L", "G"), ("F", "G"), ("G", "F"), ("H1", "H2"), ("H2", "H1")]
    _assert_matches_all_samples(fans, names)


@pytest.mark.parametrize("depth", [2, 3, 4])
@pytest.mark.parametrize("r, rho", [("5/7", "11/4"), ("1/10", "11")])
def test_hausdorff_matches_all_samples_reference_other_slopes(r, rho, depth):
    # A slope near 1 and a pair far apart move the kinks relative to the caps.
    fans = _reference_fans(depth, Fraction(r), Fraction(rho))
    _assert_matches_all_samples(fans, [(a, b) for a in fans for b in fans])


def test_kink_candidates_reach_the_min():
    # Exact Fractions: for a far end x and a leg s -> s*v, 0 <= s <= c, with
    # every x_k and v_k positive, the min of f(s) = sum_k w_k |x_k - s v_k|
    # over {0, min(b_k, c), c} equals its min over the kinks min(b_k, c) alone.
    rng = random.Random(15)

    def positive():
        return Fraction(rng.randint(1, 60), rng.randint(1, 60))

    def f(x, v, s):
        return sum(abs(xk - s * vk) / (1 << (k + 1)) for k, (xk, vk) in enumerate(zip(x, v)))

    caps_seen = {"below": 0, "between": 0, "above": 0}
    for _ in range(300):
        n = rng.randint(1, 7)
        x = [positive() for _ in range(n)]
        v = [Fraction(1)] + [positive() for _ in range(n - 1)]
        kinks = [xk / vk for xk, vk in zip(x, v)]
        low, high = min(kinks), max(kinks)
        below, above = low * Fraction(rng.randint(1, 99), 100), high * Fraction(rng.randint(101, 300), 100)
        c = rng.choice([below, above, positive()])
        caps_seen["below" if c < low else "above" if c > high else "between"] += 1
        clipped = {min(b, c) for b in kinks}
        assert min(f(x, v, s) for s in clipped | {Fraction(0), c}) == min(f(x, v, s) for s in clipped), (x, v, c)
    assert min(caps_seen.values()) > 0, caps_seen


def _orders(fan, seed: int):
    # The library order, then three shuffled orders.
    yield fan
    for i in range(3):
        legs = list(fan.legs)
        random.Random(seed + i).shuffle(legs)
        yield FanApprox(fan.relation, fan.depth, tuple(legs))


@pytest.mark.parametrize("depth", [3, 4, 5])
def test_hausdorff_leg_order_does_not_change_floats(depth):
    # Which legs the search meets first decides what it prunes and where it
    # stops, never its floats: in the library order, in shuffled orders and
    # with b reversed, so the nearest-leg hint starts out bad, every
    # enclosure equals the all-samples reference in float.hex.
    fans = _reference_fans(depth)
    grid = 8
    for a, b in [("F", "L"), ("G", "L"), ("F", "G")]:
        ab = hausdorff_all_samples_float(fans[a], fans[b], grid)
        ba = hausdorff_all_samples_float(fans[b], fans[a], grid)
        expected = {
            "ab": [v.hex() for v in ab],
            "ba": [v.hex() for v in ba],
            "both": [max(ab[0], ba[0]).hex(), max(ab[1], ba[1]).hex()],
        }
        b_fan = fans[b]
        reversed_b = FanApprox(b_fan.relation, depth, b_fan.legs[::-1])
        variants = [(fans[a], reversed_b)] + list(zip(_orders(fans[a], depth), _orders(b_fan, 10 * depth)))
        for i, (x, y) in enumerate(variants):
            got = {
                "ab": [v.hex() for v in directed_hausdorff(x, y, grid)],
                "ba": [v.hex() for v in directed_hausdorff(y, x, grid)],
                "both": [v.hex() for v in hausdorff(x, y, grid)],
            }
            assert got == expected, (a, b, i)


def test_hausdorff_legs_sharing_a_word_keep_their_caps():
    # A hand-built fan may hold two legs of one word with different caps;
    # each cap is measured, as in the all-samples reference.
    depth, grid = 4, 8
    g_fan = enumerate_legs(cantor_relation(R), depth)
    l_fan = enumerate_legs(line_pair_relation(R, RHO), depth)
    doubled = FanApprox(
        l_fan.relation,
        depth,
        l_fan.legs + tuple(Leg(leg.word, leg.prefix_products, leg.t_max / 3) for leg in l_fan.legs),
    )
    for a, b in [(g_fan, doubled), (doubled, g_fan)]:
        got = directed_hausdorff(a, b, grid)
        assert [v.hex() for v in got] == [v.hex() for v in hausdorff_all_samples_float(a, b, grid)]


TINY = Fraction(1, 10**108)
HUGE = Fraction(10**108)


@pytest.mark.parametrize(
    "a, b",
    [
        (cantor_relation(TINY), line_pair_relation(TINY, RHO)),
        (line_pair_relation(TINY, RHO), cantor_relation(TINY)),
        (cantor_relation(R), line_pair_relation(R, HUGE)),
        (line_pair_relation(R, HUGE), cantor_relation(R)),
    ],
    ids=["G to L, 10^-108", "L to G, 10^-108", "b overflows", "a overflows"],
)
def test_hausdorff_outside_the_float_range_is_domain_error(a, b):
    # At depth 4 the product r^4 = 10^-432 underflows to 0.0 and rho^4 =
    # 10^432 overflows; either way there is no float enclosure. The first
    # fan's products are checked by its resolution, the second's when the
    # search converts them.
    fan_a, fan_b = enumerate_legs(a, 4), enumerate_legs(b, 4)
    for call in (directed_hausdorff, hausdorff):
        with pytest.raises(DomainError, match="overflows a float or underflows to 0"):
            call(fan_a, fan_b)
    if TINY in a.slopes or HUGE in a.slopes:
        with pytest.raises(DomainError, match="overflows a float or underflows to 0"):
            sample_resolution(fan_a, 8)


def test_hausdorff_weighted_underflow_is_domain_error():
    # P_1 = 2^-1074 is the least positive float, but its weighted value
    # P_1 / 4 underflows to 0.0, which would make its kink x_1 / v_1 inf.
    fan = enumerate_legs(cantor_relation(Fraction(1, 2**1074)), 1)
    assert float(fan.legs[0].prefix_products[0]) > 0.0
    for a, b in [(fan, enumerate_legs(F, 1)), (enumerate_legs(F, 1), fan)]:
        with pytest.raises(DomainError, match="overflows a float or underflows to 0"):
            directed_hausdorff(a, b)


def test_far_ends_attain_exact_max_min():
    # Exact Fractions, no floats: the max over all grid samples equals the max
    # over the far ends alone. With grid 1 the samples are t = 0 (distance 0,
    # since s = 0 is a candidate) and the far end, so grid 1 is the far-end max.
    depth = 3
    for name, (a, b) in _crossed_pairs(depth).items():
        a_words = [leg.word.symbols for leg in a.legs]
        b_words = [leg.word.symbols for leg in b.legs]
        far = hausdorff_max_min_exact(a_words, b_words, 1)
        assert far > 0, name
        for grid in (3, 8):
            assert hausdorff_max_min_exact(a_words, b_words, grid) == far, (name, grid)


@pytest.mark.parametrize("a_empty,b_empty", [(True, False), (False, True), (True, True)], ids=["a", "b", "both"])
def test_hausdorff_empty_fan_is_domain_error(a_empty, b_empty):
    fan = enumerate_legs(F, 3)
    empty = FanApprox(F, 3, ())
    a, b = (empty if a_empty else fan), (empty if b_empty else fan)
    with pytest.raises(DomainError, match="no legs"):
        directed_hausdorff(a, b)
    with pytest.raises(DomainError, match="no legs"):
        hausdorff(a, b)
    if a_empty:
        with pytest.raises(DomainError, match="no legs"):
            sample_resolution(a, 8)


def test_hausdorff_shape_and_grid_errors():
    with pytest.raises(ShapeError):
        hausdorff(enumerate_legs(F, 3), enumerate_legs(F, 4))
    with pytest.raises(DomainError, match="grid must be a positive integer"):
        hausdorff(enumerate_legs(F, 3), enumerate_legs(F, 3), grid=0)
    # The grid is checked before either fan's legs.
    with pytest.raises(DomainError, match="grid must be a positive integer"):
        directed_hausdorff(enumerate_legs(F, 3), FanApprox(F, 3, ()), grid=0)


def test_verify_embedding_passes():
    report = verify_embedding(R, RHO, depth=5, samples=40, seed=7)
    assert report["pass"]
    names = [c["name"] for c in report["checks"]]
    assert names[:3] == ["g-legs-are-f-legs", "g-legs-full-length", "leg-injectivity"]
    assert any(name.startswith("density-epsilon-") for name in names)
    assert all(c["counterexample"] is None for c in report["checks"])
    # 1/16 needs 4 kept coordinates and 1/64 needs 6; 1/256 needs 8, beyond depth 5
    assert report["epsilons"] == ["1/16", "1/64"]


def test_verify_embedding_depth_zero_vacuous():
    report = verify_embedding(R, RHO, depth=0, samples=5, seed=1)
    assert report["pass"]


@pytest.mark.parametrize("samples", [0, -4])
def test_verify_embedding_rejects_no_samples(samples):
    # With no sampled points the density checks would pass vacuously.
    with pytest.raises(DomainError, match="samples must be a positive integer"):
        verify_embedding(R, RHO, depth=5, samples=samples, seed=7)


def test_verify_embedding_rejects_dependent_pair():
    with pytest.raises(NcViolation):
        verify_embedding(R, Fraction(2), depth=3, samples=5, seed=1)


def _embedding_checks(monkeypatch, full_legs, sub_legs):
    # verify_embedding on hand-built depth-2 fans; depth 2 is too shallow
    # for any density epsilon, so only the three structural checks run.
    fans = {
        F: FanApprox(F, 2, tuple(full_legs)),
        cantor_relation(R): FanApprox(cantor_relation(R), 2, tuple(sub_legs)),
    }
    monkeypatch.setattr(analysis, "enumerate_legs", lambda relation, depth, budget: fans[relation])
    report = verify_embedding(R, RHO, depth=2, samples=5, seed=3)
    assert report["epsilons"] == []
    assert all(list(c) == ["name", "pass", "counterexample"] for c in report["checks"])
    return report["checks"]


def _passed(name):
    return {"name": name, "pass": True, "counterexample": None}


def test_verify_embedding_counterexamples(monkeypatch):
    full = list(enumerate_legs(F, 2).legs)
    sub = list(enumerate_legs(cantor_relation(R), 2).legs)

    # G-words (1, 1/2) and (1, 1) are missing from F; the first is reported.
    missing = [leg for leg in full if leg.word.symbols[0] != 1]
    assert _embedding_checks(monkeypatch, missing, sub) == [
        {"name": "g-legs-are-f-legs", "pass": False, "counterexample": {"word": ["1", "1/2"]}},
        _passed("g-legs-full-length"),
        _passed("leg-injectivity"),
    ]

    # Two G-legs capped below 1, in both fans; the first is reported.
    capped = dict(zip((1, 3), (Fraction(1, 2), Fraction(1, 3))))
    short_sub = [
        Leg(leg.word, leg.prefix_products, capped[i]) if i in capped else leg
        for i, leg in enumerate(sub)
    ]
    by_word = {leg.word.symbols: leg for leg in short_sub}
    short_full = [by_word.get(leg.word.symbols, leg) for leg in full]
    assert _embedding_checks(monkeypatch, short_full, short_sub) == [
        _passed("g-legs-are-f-legs"),
        {
            "name": "g-legs-full-length",
            "pass": False,
            "counterexample": {"word": ["1/2", "1"], "t_max": "1/2"},
        },
        _passed("leg-injectivity"),
    ]

    # F-legs 5 and 8 repeat the prefix products of legs 2 and 0; the
    # first clash in enumeration order is reported as [earlier, later].
    clashing = list(full)
    for later, earlier in ((5, 2), (8, 0)):
        leg = full[later]
        clashing[later] = Leg(leg.word, full[earlier].prefix_products, leg.t_max)
    assert _embedding_checks(monkeypatch, clashing, sub) == [
        _passed("g-legs-are-f-legs"),
        _passed("g-legs-full-length"),
        {
            "name": "leg-injectivity",
            "pass": False,
            "counterexample": {"words": [["1/2", "3"], ["1", "3"]]},
        },
    ]

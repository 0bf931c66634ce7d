"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own report.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from fractions import Fraction

from lelekfan import (
    PointPrefix,
    cantor_relation,
    check_nc,
    directed_hausdorff,
    density_witness,
    enumerate_legs,
    fan_relation,
    greedy_sequence,
    hausdorff,
    leg_point,
    line_pair_relation,
    membership,
    oracle_best_sequence,
    sample_deep_points,
    sample_points,
    sample_resolution,
    truncated_metric,
)
from oracles import nc_merge_witness, nc_screen_grid

R = Fraction(1, 2)
RHO = Fraction(3)


def _criterion(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"C{number} {name}: {status}{suffix}", flush=True)
    assert ok, f"criterion {number} failed: {name} {suffix}"


def test_c1_nc_oracle_equivalence():
    started = time.perf_counter()
    r_pool = sorted(
        {Fraction(p, q) for q in range(2, 31) for p in range(1, min(q, 31))}
    )
    rho_pool = sorted({1 / r for r in r_pool})
    assert all(0 < r < 1 for r in r_pool) and all(rho > 1 for rho in rho_pool)

    # Float screening of |k ln r + l ln rho| over the whole exponent grid;
    # every flagged pair is then confirmed or refuted by exact big-integer
    # search, so correctness never rests on the floats.
    flagged = nc_screen_grid(r_pool, rho_pool, bound=64, threshold=1e-6)

    mismatches = 0
    dependent = 0
    for i, r in enumerate(r_pool):
        for j, rho in enumerate(rho_pool):
            brute = nc_merge_witness(r, rho, bound=64) if flagged[i, j] else None
            verdict = check_nc(r, rho)
            if verdict.is_nc != (brute is None):
                mismatches += 1
                continue
            if brute is not None:
                dependent += 1
                bk, bl = brute
                wk, wl = verdict.witness
                if r**bk != rho**bl or r**wk != rho**wl:
                    mismatches += 1
    elapsed = time.perf_counter() - started
    total = len(r_pool) * len(rho_pool)
    _criterion(
        1,
        "nc-oracle-equivalence",
        mismatches == 0 and elapsed < 10.0,
        f"{total} pairs, {dependent} dependent, {elapsed:.1f}s",
    )


def test_c2_known_nc_verdicts():
    ok = True
    for r, rho, expected in [
        (Fraction(1, 2), Fraction(2), (1, -1)),
        (Fraction(4, 9), Fraction(27, 8), (3, -2)),
    ]:
        verdict = check_nc(r, rho)
        ok &= not verdict.is_nc and verdict.witness == expected
        k, l = verdict.witness
        ok &= r**k == rho**l
    for r, rho in [
        (Fraction(1, 2), Fraction(3)),
        (Fraction(2, 3), Fraction(5)),
        (Fraction(1, 2), Fraction(5)),
    ]:
        ok &= check_nc(r, rho).is_nc
    _criterion(2, "known-nc-verdicts", ok)


def test_c3_leg_injectivity_depth_8():
    started = time.perf_counter()
    fan = enumerate_legs(fan_relation(R, RHO), 8)
    products = {leg.prefix_products for leg in fan.legs}
    elapsed = time.perf_counter() - started
    _criterion(
        3,
        "leg-injectivity-depth-8",
        len(fan.legs) == 3**8 and len(products) == 3**8 and elapsed < 30.0,
        f"{len(products)} distinct product sequences, {elapsed:.1f}s",
    )


def test_c4_embedding_depth_6():
    f_fan = enumerate_legs(fan_relation(R, RHO), 6)
    g_fan = enumerate_legs(cantor_relation(R), 6)
    f_by_word = {leg.word.symbols: leg for leg in f_fan.legs}
    subset = all(f_by_word.get(leg.word.symbols) == leg for leg in g_fan.legs)
    full_length = all(leg.t_max == 1 for leg in g_fan.legs)
    f_relation = f_fan.relation
    points = sample_points(g_fan, 500, seed=7)
    member = all(membership(p, f_relation) for p in points)
    _criterion(
        4,
        "embedding-depth-6",
        subset and full_length and member,
        f"{len(g_fan.legs)} legs, 500 sampled points",
    )


def test_c5_greedy_climb_reflection():
    started = time.perf_counter()
    threshold = Fraction(99, 100)
    grid_ok = True
    for i in range(1, 64):
        trace = greedy_sequence(Fraction(i, 64), R, RHO, 10**4, stop_when=threshold)
        grid_ok &= trace.running_max >= threshold

    rng = random.Random(2024)
    oracle_ok = True
    for _ in range(100):
        den = rng.randint(2, 10**6)
        x = Fraction(rng.randint(1, den - 1), den)
        greedy = greedy_sequence(x, R, RHO, 14)
        oracle = oracle_best_sequence(x, R, RHO, 14)
        oracle_ok &= greedy.running_max == oracle.running_max
    elapsed = time.perf_counter() - started
    _criterion(
        5,
        "greedy-climb-reflection",
        grid_ok and oracle_ok and elapsed < 60.0,
        f"63 grid starts, 100 oracle comparisons, {elapsed:.1f}s",
    )


def test_c6_density_suite():
    started = time.perf_counter()
    relation = fan_relation(R, RHO)
    points = sample_deep_points(relation, 40, 200, seed=7)
    delta_cap = Fraction(1, 100)
    failures = 0
    for epsilon in (Fraction(1, 16), Fraction(1, 64), Fraction(1, 256)):
        for point in points:
            witness, bound, cert = density_witness(point, epsilon, R, RHO)
            if bound > epsilon or cert.delta > delta_cap or not membership(witness, relation):
                failures += 1
    elapsed = time.perf_counter() - started
    _criterion(
        6,
        "density-suite",
        failures == 0 and elapsed < 120.0,
        f"200 points x 3 epsilons, {elapsed:.1f}s",
    )


def test_c7_metric_contract():
    rng = random.Random(99)

    def point(length):
        return PointPrefix(tuple(Fraction(rng.randint(0, 128), 128) for _ in range(length)))

    ok = True
    for _ in range(1000):
        length = rng.randint(1, 12)
        p, q, s = point(length), point(length), point(length)
        vpq, tpq = truncated_metric(p, q)
        vqp, _ = truncated_metric(q, p)
        vps, _ = truncated_metric(p, s)
        vsq, _ = truncated_metric(s, q)
        ok &= vpq == vqp
        ok &= vpq <= vps + vsq
        ok &= tpq == Fraction(1, 1 << length)

    for _ in range(300):
        length = rng.randint(1, 10)
        a = tuple(Fraction(rng.randint(0, 128), 128) for _ in range(length + 1))
        b = tuple(Fraction(rng.randint(0, 128), 128) for _ in range(length + 1))
        v_short, t_short = truncated_metric(PointPrefix(a[:-1]), PointPrefix(b[:-1]))
        v_long, t_long = truncated_metric(PointPrefix(a), PointPrefix(b))
        ok &= v_long >= v_short
        ok &= v_long + t_long <= v_short + t_short
    _criterion(7, "metric-contract", ok, "1000 triples, 300 prefix extensions")


def test_c8_hausdorff_sanity():
    f_fan = enumerate_legs(fan_relation(R, RHO), 6)
    g_fan = enumerate_legs(cantor_relation(R), 6)
    l_fan = enumerate_legs(line_pair_relation(R, RHO), 6)
    grid = 8

    lower_ff, upper_ff = hausdorff(f_fan, f_fan, grid)
    resolution = max(sample_resolution(f_fan, grid), sample_resolution(g_fan, grid))
    identical_ok = lower_ff == 0.0 and upper_ff < 2 * resolution

    lower_gf, upper_gf = directed_hausdorff(g_fan, f_fan, grid)
    subset_ok = lower_gf <= 1e-12 and upper_gf <= resolution

    lower_fl, _ = hausdorff(f_fan, l_fan, grid)
    far_ok = lower_fl > 0.0

    _criterion(
        8,
        "hausdorff-sanity",
        identical_ok and subset_ok and far_ok,
        f"identical upper {upper_ff:.4f} < 2*res {2 * resolution:.4f}, "
        f"subset upper {upper_gf:.4f}, diagonal-free lower {lower_fl:.4f}",
    )


def test_c9_render_determinism(tmp_path):
    def build(relation, depth, name):
        path = tmp_path / name
        subprocess.run(
            [
                sys.executable, "-m", "lelekfan", "build",
                "--r", "1/2", "--rho", "3", "--relation", relation,
                "--depth", str(depth), "--out", str(path),
            ],
            check=True,
            capture_output=True,
        )
        return path

    def render(legs, name):
        path = tmp_path / name
        subprocess.run(
            [
                sys.executable, "-m", "lelekfan", "render",
                "--in", str(legs), "--out", str(path),
                "--angle-map", "cantor", "--sweep", "60",
            ],
            check=True,
            capture_output=True,
        )
        return path.read_bytes()

    ok = True
    for relation, depth in (("G", 5), ("F", 8)):
        legs = build(relation, depth, f"{relation}.json")
        first = render(legs, f"{relation}-1.svg")
        second = render(legs, f"{relation}-2.svg")
        ok &= first == second and len(first) > 0
    _criterion(9, "render-determinism", ok, "depth-5 G and depth-8 F, rendered twice")

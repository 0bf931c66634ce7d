"""Tests of the benchmark harness itself: checks, self-time arithmetic, seeds.

Run with `python3 -m pytest perfbench/tests -q` from the repository root.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

import lelekfan as lf
import run as bench_run
import tracing
import workloads
from workloads import Run

REFERENCES = json.loads(bench_run.REFERENCES.read_text())


def _ops(workload, seed, run, workdir):
    setup, operations = workloads.WORKLOADS[workload]
    return operations(setup(seed, str(workdir)), run)


def _execute(ops, run, only=None):
    for name, op in ops:
        if only is None or name in only:
            try:
                op()
            except Exception as exc:
                run.fail(name, repr(exc))


# --- a corrupted output counts as failed -------------------------------------


def test_digest_mismatch_and_missing_reference_fail():
    good = "<svg>good</svg>"
    refs = {"fixed": {"render": hashlib.sha256(good.encode()).hexdigest()}, "seeded": {}, "enclosures": {}}
    run = Run(0, refs)
    run.digest("render", good)
    assert run.failed == 0
    run.digest("render", good.replace("good", "g00d"))
    assert run.failed == 1
    run.digest("unrecorded", good)
    assert run.failed == 2


def test_seeded_digest_checked_only_for_recorded_seeds():
    refs = {"fixed": {}, "seeded": {"3": {"sample": "0" * 64}}, "enclosures": {}}
    Run(4, refs).digest("sample", "anything", per_seed=True)  # no reference for seed 4
    run = Run(3, refs)
    run.digest("sample", "anything", per_seed=True)
    assert run.failed == 1


def test_corrupted_t_max_fails_the_fan_check():
    relation = lf.fan_relation(workloads.R, workloads.RHO)
    fan = lf.enumerate_legs(relation, 4)
    run = Run(0, None)
    workloads.check_fan(run, "enumerate", fan, relation, 4, 81)
    assert run.failed == 0
    leg = fan.legs[40]
    bad = lf.Leg(leg.word, leg.prefix_products, leg.t_max / 2)
    corrupted = lf.FanApprox(relation, 4, fan.legs[:40] + (bad,) + fan.legs[41:])
    workloads.check_fan(run, "enumerate", corrupted, relation, 4, 81)
    assert run.failed == 1


def test_expected_t_max_matches_build_leg():
    relation = lf.fan_relation(Fraction(5, 7), Fraction(11, 4))
    for leg in lf.sample_legs(relation, 30, 50, seed=1):
        assert workloads.expected_t_max(leg.word.symbols) == leg.t_max


def test_corrupted_density_witness_is_rejected():
    r, rho = workloads.R, workloads.RHO
    relation = lf.fan_relation(r, rho)
    point = lf.sample_deep_points(relation, 40, 1, seed=5)[0]
    eps = Fraction(1, 64)
    witness, bound, cert = lf.density_witness(point, eps, r, rho)
    assert workloads.witness_problem(point, eps, witness, bound, cert, relation) is None
    assert workloads.witness_problem(point, eps, witness, bound / 2, cert, relation) is not None
    coords = list(witness.coords)
    coords[-1] = coords[-1] * Fraction(2, 3)
    moved = lf.PointPrefix(tuple(coords))
    assert workloads.witness_problem(point, eps, moved, bound, cert, relation) is not None


def test_corrupted_greedy_climb_is_rejected():
    x = Fraction(2, 5)
    trace = lf.greedy_sequence(x, workloads.R, workloads.RHO, 50)
    assert workloads.greedy_problem(x, 50, trace) is None
    flipped = lf.GreedyTrace(x, trace.symbols[:-1] + (workloads.R,), trace.partials, trace.running_max)
    if flipped.symbols != trace.symbols:
        assert workloads.greedy_problem(x, 50, flipped) is not None
    worse = lf.GreedyTrace(x, trace.symbols, trace.partials, trace.running_max / 2)
    assert workloads.greedy_problem(x, 50, worse) is not None


def test_wrong_enclosures_fail_the_hausdorff_workload(monkeypatch, tmp_path):
    monkeypatch.setattr(lf, "hausdorff", lambda a, b, grid: (0.5, 0.52))
    monkeypatch.setattr(lf, "directed_hausdorff", lambda a, b, grid: (0.0, 0.9))
    run = Run(0, REFERENCES)
    _execute(_ops("hausdorff-crossed", 0, run, tmp_path), run)
    # (0.5, 0.52) misses the recorded G8/L8 enclosure; (0.0, 0.9) is far too loose.
    assert run.failed == 2


def test_known_refusals_and_wrong_prime_verdicts(monkeypatch, tmp_path):
    run = Run(0, REFERENCES)
    _execute(_ops("certify", 0, run, tmp_path), run, only={"check_nc primes"})
    assert (run.failed, run.known_refusals) == (0, 3)

    original = lf.check_nc
    beyond = {(r, rho) for _, r, rho, _, past_bound in workloads.PRIME_PAIRS if past_bound}

    def wrong_beyond_bound(r, rho):
        if (r, rho) in beyond:
            return lf.NcVerdict(False, (2, -1))
        return original(r, rho)

    monkeypatch.setattr(lf, "check_nc", wrong_beyond_bound)
    run = Run(0, REFERENCES)
    _execute(_ops("certify", 0, run, tmp_path), run, only={"check_nc primes"})
    # 1/u^2 and 1/(u*v) get a witness that does not check; 1/u, v is independent.
    assert run.failed == 3 and run.known_refusals == 0


# --- self-time arithmetic ------------------------------------------------------


def test_self_times_on_a_synthetic_nested_trace():
    #           root       A        B        C        D        E
    starts = [0, 10, 20, 35, 50, 80]
    ends = [100, 40, 30, 60, 70, 90]
    parents = [-1, 0, 1, 0, 3, 0]
    # root's children A and C overlap on [35, 40], counted once; D runs past
    # C's end and is clipped to [50, 60].
    assert tracing.self_times(starts, ends, parents) == [40, 20, 10, 15, 20, 10]


def test_self_times_of_a_real_trace_sum_to_the_root():
    tracer = tracing.Tracer()
    traced = tracer.wrap("scalars.format_scalar", lf.format_scalar, None)
    root = tracer.begin(tracing.ROOT_SPAN)
    for _ in range(3):
        op = tracer.begin(tracing.OP_PREFIX + "format")
        for k in range(100):
            traced(Fraction(k, 7))
        tracer.end(op)
    tracer.end(root)
    assert tracer.self_time_residual_ns() == 0
    assert tracer.metrics()["scalars.format_scalar.calls"] == 300
    assert [name for name, _ in tracer.op_seconds()] == ["format"] * 3


def test_install_wraps_every_binding_of_a_function():
    import sys

    import lelekfan.nc
    import lelekfan.scalars

    modules = [m for n, m in sys.modules.items() if n == "lelekfan" or n.startswith("lelekfan.")]
    saved = [(module, dict(vars(module))) for module in modules]
    original = lelekfan.scalars.factor
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert lelekfan.nc.factor is lelekfan.scalars.factor is lf.factor
        assert lf.factor.__wrapped__ is original
        lf.check_nc(Fraction(1, 2), Fraction(3))
        metrics = tracer.metrics()
        assert metrics["nc.check_nc.calls"] == 1 and metrics["scalars.factor.calls"] == 2
    finally:
        for module, attrs in saved:
            for name, value in attrs.items():
                setattr(module, name, value)


# --- seeds ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_changes_inputs_not_operations(workload, tmp_path):
    setup, operations = workloads.WORKLOADS[workload]
    first, second = setup(1, str(tmp_path)), setup(2, str(tmp_path))
    assert first != second
    assert setup(1, str(tmp_path)) == first
    names = [[name for name, _ in operations(inputs, Run(0, None))] for inputs in (first, second)]
    assert names[0] == names[1]


# --- the catalogue agrees with BENCHMARK.json ---------------------------------------


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((bench_run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench_run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_wall_s_sums_each_operations_slowest_time():
    children = [{"op_wall_s": [1.0, 0.5, 2.0]}, {"op_wall_s": [1.5, 0.25, 1.0]}, {"op_wall_s": [1.25, 0.5, 3.0]}]
    assert bench_run.wall_s_estimate(children) == 1.5 + 0.5 + 3.0


def test_import_seconds_reads_cumulative_times():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       120 |        150 |   numpy._core",
        "import time:      9000 |     160000 | numpy",
        "import time:      1000 |     210000 | lelekfan",
        "some other line",
    ])
    assert bench_run.import_seconds(stderr) == {"init.import_s": 0.21, "init.numpy_import_s": 0.16}


def test_traced_child_sees_every_call(tmp_path):
    result, stderr = bench_run.spawn("hausdorff-crossed", 0, tmp_path, trace=True)
    layers = result["layers"]
    assert result["failed"] == 0 and result["self_time_residual_ns"] == 0
    # hausdorff(G8, L8) makes two directed calls, plus directed(F7 -> L7).
    assert layers["analysis.directed_hausdorff.calls"] == 3
    assert layers["analysis.sample_resolution.calls"] == 3
    # Shared words: the all-1/2 word both ways between G8 and L8, and the 2^7 L7 words in F7.
    assert layers["analysis.directed_hausdorff.zero_ratio"] == (1 + 1 + 128) / (256 + 256 + 2187)
    assert bench_run.import_seconds(stderr)["init.import_s"] > 0

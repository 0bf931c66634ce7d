"""CLI surface: subcommand wiring, exit codes, JSON output, reproducibility."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import lelekfan
from lelekfan import (
    cantor_relation,
    classify_endpoint,
    enumerate_legs,
    fan_relation,
    format_scalar,
    greedy_sequence,
    hausdorff,
    leg_point,
    line_pair_relation,
    load_fan,
    parse_scalar,
    sample_legs,
)
from lelekfan.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_check_nc_accepts(capsys):
    code, data = run(capsys, "check-nc", "--r", "1/2", "--rho", "3")
    assert code == 0
    assert data == {"is_nc": True, "witness": None}


def test_check_nc_rejects_with_witness(capsys):
    code, data = run(capsys, "check-nc", "--r", "1/2", "--rho", "2")
    assert code == 2
    assert data == {"is_nc": False, "witness": [1, -1]}


def test_check_nc_precondition_exit(capsys):
    code = main(["check-nc", "--r", "3/2", "--rho", "3"])
    assert code == 3
    assert "0 < r < 1" in capsys.readouterr().err


def test_bad_scalar_literal_is_precondition_exit(capsys):
    assert main(["check-nc", "--r", "abc", "--rho", "3"]) == 3
    # The echo of a huge literal is cut.
    assert main(["endpoints", "--delta", "x" * 10**6]) == 3
    err = capsys.readouterr().err
    assert len(err) < 1024 and "not a rational literal: 'xxx" in err


def test_unknown_flag_exits_64():
    with pytest.raises(SystemExit) as info:
        main(["check-nc", "--nope"])
    assert info.value.code == 64


def test_unknown_command_exits_64():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 64


def test_build_writes_loadable_file(capsys, tmp_path):
    out = tmp_path / "legs.json"
    code, data = run(capsys, "build", "--r", "1/2", "--rho", "3", "--relation", "F", "--depth", "4", "--out", str(out))
    assert code == 0
    assert data["legs"] == 81
    fan = load_fan(out)
    assert fan.depth == 4
    assert len(fan.legs) == 81


def test_build_is_byte_reproducible(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["build", "--depth", "3", "--out", str(a)])
    main(["build", "--depth", "3", "--out", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_build_gates_relation_f_on_nc(capsys):
    code = main(["build", "--r", "1/2", "--rho", "2", "--relation", "F", "--depth", "2", "--out", "/dev/null"])
    assert code == 2
    assert "dependent" in capsys.readouterr().err


def test_build_budget_exit(capsys):
    code = main(["build", "--depth", "14", "--out", "/dev/null"])
    assert code == 4
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["build", "--budget", "0"], "budgets must be positive"),
        (["build", "--depth", "-1"], "depth must be non-negative"),
        (["build", "--depth", "-1", "--budget", "0"], "budgets must be positive"),
        (["endpoints", "--depth", "-1"], "depth must be non-negative"),
        (["density", "--budget", "0"], "budgets must be positive"),
        (["endpoints", "--delta", "-1"], "delta must be non-negative"),
        (["endpoints", "--degeneracy-threshold", "-5"], "degeneracy threshold must be non-negative"),
        (["endpoints", "--in", "EMPTY", "--delta", "-1"], "delta must be non-negative"),
        (
            ["endpoints", "--in", "EMPTY", "--degeneracy-threshold", "-5"],
            "degeneracy threshold must be non-negative",
        ),
    ],
    ids=[
        "build-budget-0",
        "build-depth-negative",
        "budget-before-depth",
        "endpoints-depth-negative",
        "density-budget-0",
        "endpoints-delta-negative",
        "endpoints-threshold-negative",
        "endpoints-empty-file-delta-negative",
        "endpoints-empty-file-threshold-negative",
    ],
)
def test_non_positive_budget_or_negative_depth_exits_3(capsys, tmp_path, argv, message):
    out = tmp_path / "out.json"
    if argv[0] == "build":
        argv = argv + ["--out", str(out)]
    if "EMPTY" in argv:
        # A leg file with no legs: no leg's verdict can reject the tolerances.
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"relation": {"slopes": ["1/2", "1", "3"]}, "depth": 3, "legs": []}))
        argv = [str(empty) if a == "EMPTY" else a for a in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_build_line_pair_relation(capsys, tmp_path):
    out = tmp_path / "lrr.json"
    code, data = run(capsys, "build", "--relation", "Lrr", "--depth", "3", "--out", str(out))
    assert code == 0
    assert data["relation"] == "Lrr" and data["legs"] == 8
    fan = load_fan(out)
    assert fan.relation.slopes == (Fraction(1, 2), Fraction(3))
    assert len(fan.legs) == 8


def test_build_sampled(capsys, tmp_path):
    out = tmp_path / "sampled.json"
    code, data = run(capsys, "build", "--depth", "30", "--sample", "25", "--seed", "9", "--out", str(out))
    assert code == 0
    assert data["legs"] == 25
    assert len(load_fan(out).legs) == 25


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--depth", "3", "--sample", "0"],
        ["build", "--depth", "3", "--sample", "-2"],
        ["density", "--depth", "12", "--samples", "-5"],
        ["embed-check", "--depth", "3", "--samples", "0"],
    ],
    ids=["build-sample-0", "build-sample-negative", "density-samples-negative", "embed-check-samples-0"],
)
def test_non_positive_sample_count_exits_3(capsys, tmp_path, argv):
    out = tmp_path / "out.json"
    if argv[0] == "build":
        argv = argv + ["--out", str(out)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert "must be a positive integer" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_greedy_output(capsys):
    code, data = run(capsys, "greedy", "--x", "2/5", "--r", "1/2", "--rho", "3", "--steps", "4")
    assert code == 0
    assert data["symbols"] == ["1/2", "3", "1/2", "3"]
    assert data["partials"] == ["1/5", "3/5", "3/10", "9/10"]
    assert data["running_max"] == "9/10"


@pytest.mark.parametrize("steps", ["0", "-5"])
def test_greedy_non_positive_steps_exit_3(capsys, steps):
    assert main(["greedy", "--x", "1/3", "--steps", steps]) == 3
    captured = capsys.readouterr()
    assert "--steps must be a positive integer" in captured.err
    assert captured.out == ""


def test_greedy_steps_over_budget_exit_4(capsys):
    # Refused before climbing: 200000 steps would run for many seconds.
    assert main(["greedy", "--x", "1/3", "--steps", "200000"]) == 4
    captured = capsys.readouterr()
    assert "exceeds the greedy budget 10000" in captured.err
    assert captured.out == ""


def test_greedy_domain_exit(capsys):
    assert main(["greedy", "--x", "0", "--steps", "4"]) == 3
    assert main(["greedy", "--x", "1/2", "--rho", "2", "--steps", "4"]) == 2


def test_endpoints_report(capsys, tmp_path):
    out = tmp_path / "legs.json"
    main(["build", "--relation", "G", "--depth", "5", "--out", str(out)])
    capsys.readouterr()
    code, data = run(capsys, "endpoints", "--in", str(out))
    assert code == 0
    assert data["total"] == 32
    assert data["exact"] == 32  # every finite leg tip touches a coordinate equal to 1
    assert data["degenerating"] == 0
    assert len(data["legs"]) == 32


def test_endpoints_degeneracy_flag(capsys):
    code, data = run(
        capsys,
        "endpoints", "--relation", "F", "--depth", "6", "--degeneracy-threshold", "1/600",
    )
    assert code == 0
    assert data["degenerating"] > 0  # all-rho words have t_max = 3^-6 < 1/600


def _classified_tips(fan, delta):
    # The reference path: build every tip and classify it.
    report = {"total": len(fan.legs), "exact": 0, "approximate": 0, "not_certified": 0}
    legs = []
    for leg in fan.legs:
        verdict = classify_endpoint(leg_point(leg, leg.t_max), delta)
        report[verdict.kind] += 1
        legs.append((verdict.kind, verdict.peak_index, format_scalar(verdict.peak_value)))
    return report, legs


def _check_endpoints_against_classified_tips(capsys, fan, argv):
    for delta in ("0", "1/2"):
        code, data = run(capsys, "endpoints", *argv, "--delta", delta)
        assert code == 0
        report, legs = _classified_tips(fan, parse_scalar(delta))
        assert {key: data[key] for key in report} == report
        assert [(leg["kind"], leg["peak_index"], leg["peak_value"]) for leg in data["legs"]] == legs
        assert [leg["t_max"] for leg in data["legs"]] == [format_scalar(leg.t_max) for leg in fan.legs]


RELATION_OF = {"F": fan_relation, "G": lambda r, rho: cantor_relation(r), "Lrr": line_pair_relation}


@pytest.mark.parametrize(
    "relation, r, rho",
    [
        (relation, r, rho)
        for relation in RELATION_OF
        for r, rho in (("1/2", "3"), ("2/3", "7/2"), ("3/2", "5"))
        if relation != "F" or r != "3/2"  # F needs a never-connect pair, so r < 1
    ],
)
def test_endpoints_report_matches_classified_tips(capsys, relation, r, rho):
    # With r = 3/2 every G word starting with r peaks past index 0.
    spec = RELATION_OF[relation](parse_scalar(r), parse_scalar(rho))
    for depth in range(6):
        fan = enumerate_legs(spec, depth)
        argv = ["--relation", relation, "--r", r, "--rho", rho, "--depth", str(depth)]
        _check_endpoints_against_classified_tips(capsys, fan, argv)


def test_sampled_and_loaded_endpoints_match_classified_tips(capsys, tmp_path):
    legs = sample_legs(fan_relation(Fraction(1, 2), Fraction(3)), 40, 40, 0)
    fan = lelekfan.FanApprox(fan_relation(Fraction(1, 2), Fraction(3)), 40, legs)
    _check_endpoints_against_classified_tips(capsys, fan, ["--sample", "40", "--depth", "40"])
    path = tmp_path / "legs.json"
    for argv in (
        ["--depth", "5"],
        ["--relation", "Lrr", "--r", "3/2", "--rho", "5", "--depth", "40", "--sample", "50"],
    ):
        assert main(["build", *argv, "--out", str(path)]) == 0
        capsys.readouterr()
        _check_endpoints_against_classified_tips(capsys, load_fan(path), ["--in", str(path)])


def test_density_small_run(capsys, tmp_path):
    report_path = tmp_path / "density.json"
    code, data = run(
        capsys,
        "density", "--epsilon", "1/16", "--depth", "12", "--samples", "10", "--seed", "3",
        "--report", str(report_path),
    )
    assert code == 0
    assert data["pass"] is True
    assert data["failures"] == []
    assert json.loads(report_path.read_text()) == data


def test_embed_check_small_run(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, data = run(
        capsys,
        "embed-check", "--r", "1/2", "--rho", "3", "--depth", "3", "--samples", "20",
        "--seed", "7", "--report", str(report_path),
    )
    assert code == 0
    assert data["pass"] is True
    for check in data["checks"]:
        assert set(check) == {"name", "pass", "counterexample"}
    assert json.loads(report_path.read_text()) == data


def test_embed_check_dependent_pair_exits_2(capsys):
    assert main(["embed-check", "--r", "1/2", "--rho", "2", "--depth", "2", "--samples", "5"]) == 2


def test_hausdorff_output(capsys):
    code, data = run(
        capsys,
        "hausdorff", "--a", "F", "--b", "G", "--depth", "3", "--grid", "6",
    )
    assert code == 0
    assert 0 <= data["lower"] <= data["upper"]
    assert data["resolution"] > 0


def test_hausdorff_full_to_line_pair(capsys):
    code, data = run(
        capsys,
        "hausdorff", "--a", "F", "--b", "Lrr", "--depth", "3", "--grid", "6",
    )
    assert code == 0
    assert data["relation_b"] == "Lrr"
    # L's legs are F legs, but F's diagonal legs are not L legs.
    assert 0 < data["lower"] <= data["upper"]
    r, rho = Fraction(1, 2), Fraction(3)
    expected = hausdorff(
        enumerate_legs(fan_relation(r, rho), 3), enumerate_legs(line_pair_relation(r, rho), 3), 6
    )
    assert (data["lower"], data["upper"]) == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["--r", "1/1" + "0" * 111, "--depth", "3"],
        ["--r", "1/1" + "0" * 108, "--a", "G", "--b", "Lrr", "--depth", "4"],
        ["--r", "1/2", "--rho", "1" + "0" * 108, "--a", "G", "--b", "Lrr", "--depth", "4"],
    ],
    ids=["r=10^-111 depth 3", "r=10^-108 depth 4", "rho=10^108 depth 4"],
)
def test_hausdorff_outside_the_float_range_exits_3(capsys, argv):
    # Prefix products that underflow to 0.0 or overflow a float: a
    # precondition failure with no output, not nan, a warning or a traceback.
    assert main(["hausdorff", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "overflows a float or underflows to 0" in captured.err


def test_package_runs_without_numpy():
    # Neither the import nor a Hausdorff enclosure loads numpy or dataclasses.
    src = os.path.dirname(os.path.dirname(lelekfan.__file__))
    script = (
        "import sys, lelekfan\n"
        "from lelekfan.cli import main\n"
        "code = main(['hausdorff', '--a', 'G', '--b', 'Lrr', '--depth', '4'])\n"
        "sys.exit(10 * code + ('numpy' in sys.modules) + 2 * ('dataclasses' in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["lower"] > 0


def test_render_from_file(capsys, tmp_path):
    legs = tmp_path / "legs.json"
    svg_a = tmp_path / "a.svg"
    svg_b = tmp_path / "b.svg"
    main(["build", "--relation", "G", "--depth", "4", "--out", str(legs)])
    capsys.readouterr()
    assert main(["render", "--in", str(legs), "--out", str(svg_a), "--angle-map", "cantor", "--sweep", "60"]) == 0
    assert main(["render", "--in", str(legs), "--out", str(svg_b), "--angle-map", "cantor", "--sweep", "60"]) == 0
    assert svg_a.read_bytes() == svg_b.read_bytes()
    assert svg_a.read_text().count("<line ") == 16


@pytest.mark.parametrize("width", ["nan", "inf", "-inf", "0"])
def test_render_bad_stroke_width_exits_3(capsys, tmp_path, width):
    legs = tmp_path / "legs.json"
    svg = tmp_path / "x.svg"
    main(["build", "--relation", "G", "--depth", "2", "--out", str(legs)])
    capsys.readouterr()
    assert main(["render", "--in", str(legs), "--out", str(svg), f"--stroke-width={width}"]) == 3
    assert "stroke width" in capsys.readouterr().err
    assert not svg.exists()


def test_render_missing_file_is_precondition_exit(capsys, tmp_path):
    legs = tmp_path / "legs.json"
    legs.write_text("{}")
    assert main(["render", "--in", str(legs), "--out", str(tmp_path / "x.svg")]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["endpoints", "--in", "{tmp}/missing.json"],
        ["render", "--in", "{tmp}/missing.json", "--out", "{tmp}/x.svg"],
        ["build", "--depth", "1", "--out", "{tmp}/no_such_dir/x.json"],
        ["endpoints", "--relation", "G", "--depth", "2", "--report", "{tmp}/no_such_dir/r.json"],
    ],
    ids=["endpoints-in", "render-in", "build-out", "endpoints-report"],
)
def test_unreadable_or_unwritable_file_exits_3(capsys, tmp_path, argv):
    code = main([arg.format(tmp=tmp_path) for arg in argv])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("fan: ") and captured.err.count("\n") == 1
    assert "No such file or directory" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["endpoints", "--in", "{tmp}/deep.json"],
        ["render", "--in", "{tmp}/deep.json", "--out", "{tmp}/x.svg"],
    ],
    ids=["endpoints-in", "render-in"],
)
def test_deeply_nested_leg_file_exits_3(capsys, tmp_path, argv):
    # json.load gives up on this nesting with a RecursionError; it must
    # surface as an unreadable leg file, not as a crash (exit 1).
    (tmp_path / "deep.json").write_text("[" * 100000 + "]" * 100000)
    code = main([arg.format(tmp=tmp_path) for arg in argv])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("fan: not valid JSON: ")
    assert captured.out == ""
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize(
    "case, names",
    [
        ("legs", "malformed leg file: legs 'xxx"),
        ("depth", "malformed leg file: depth 'xxx"),
        ("slopes", "malformed leg file: slopes 'xxx"),
        ("slope", "not a rational literal: 'xxx"),
        ("leg", "malformed leg file: leg 'xxx"),
        ("word", "malformed leg file: word 'xxx"),
        ("word-length", "has length 100000, expected depth 1"),
        ("symbol", "is not a slope of the relation"),
        ("t_max", "stored t_max"),
    ],
)
def test_leg_file_errors_echo_a_bounded_value(capsys, tmp_path, case, names):
    huge = "7" * 10**5
    data = {
        "relation": {"slopes": ["1/2", "1", "3"]},
        "depth": 1,
        "legs": [{"word": ["3"], "t_max": "1/3"}],
    }
    if case == "legs":
        data["legs"] = "x" * 10**6
    elif case == "depth":
        data["depth"] = "x" * 10**6
    elif case == "slopes":
        data["relation"]["slopes"] = "x" * 10**6
    elif case == "slope":
        data["relation"]["slopes"][0] = "x" * 10**6
    elif case == "leg":
        data["legs"] = ["x" * 10**6]
    elif case == "word":
        data["legs"][0]["word"] = "x" * 10**6
    elif case == "word-length":
        data["legs"][0]["word"] = ["3"] * 10**5
    elif case == "symbol":
        data["legs"][0]["word"] = [huge]
    else:
        data["legs"][0]["t_max"] = "1/" + huge
    path = tmp_path / "legs.json"
    path.write_text(json.dumps(data))
    assert main(["endpoints", "--in", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.encode()) < 1024
    assert captured.err.startswith("fan: ") and names in captured.err


def test_density_error_order(capsys):
    # A bad sample count is reported before a dependent pair, and a
    # dependent pair before a bad epsilon.
    assert main(["density", "--r", "1/2", "--rho", "2", "--samples", "0", "--epsilon", "x"]) == 3
    assert "--samples must be a positive integer" in capsys.readouterr().err
    assert main(["density", "--r", "1/2", "--rho", "2", "--samples", "5", "--epsilon", "x"]) == 2
    capsys.readouterr()
    assert main(["density", "--samples", "5", "--epsilon", "x"]) == 3
    assert capsys.readouterr().out == ""


def test_check_nc_past_the_digit_limit(capsys):
    code, data = run(capsys, "check-nc", "--r", "1/1" + "0" * 5000)
    assert code == 0
    assert data == {"is_nc": True, "witness": None}


def test_endpoints_reads_a_t_max_past_the_digit_limit(capsys, tmp_path):
    big = "1" + "0" * 5000
    path = tmp_path / "legs.json"
    path.write_text(
        json.dumps(
            {
                "relation": {"slopes": ["1/2", "1", big]},
                "depth": 1,
                "legs": [{"word": [big], "t_max": "1/" + big}],
            }
        )
    )
    code, data = run(capsys, "endpoints", "--in", str(path))
    assert code == 0
    assert data["legs"] == [
        {
            "word": [big],
            "t_max": "1/" + big,
            "kind": "exact",
            "peak_index": 1,
            "peak_value": "1",
            "degenerating": True,
        }
    ]


def test_greedy_prints_partials_past_the_digit_limit(capsys):
    # Each step multiplies by 2^-2000 or 3^1000, so by step 20 the partials
    # have more than 4300 digits.
    r, rho = Fraction(1, 2**2000), Fraction(3**1000)
    code, data = run(
        capsys, "greedy", "--x", "1/7", "--r", f"1/{2**2000}", "--rho", str(3**1000), "--steps", "20"
    )
    assert code == 0
    trace = greedy_sequence(Fraction(1, 7), r, rho, 20)
    assert [parse_scalar(p) for p in data["partials"]] == list(trace.partials)
    assert parse_scalar(data["running_max"]) == trace.running_max
    assert max(len(p) for p in data["partials"]) > 2 * 4300

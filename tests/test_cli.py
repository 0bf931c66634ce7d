"""CLI surface: subcommand wiring, exit codes, JSON output, reproducibility."""

from __future__ import annotations

import io
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

import lelekfan
from lelekfan import cli, errors
from lelekfan import (
    FanApprox,
    RenderConfig,
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
    render_fan,
    sample_legs,
    save_fan,
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


def test_usage_error_echo_is_bounded(capsys):
    # --steps is past int()'s 4300-digit limit, so argparse refuses it and
    # its message quotes the whole literal; the echo cuts it.
    with pytest.raises(SystemExit) as info:
        main(["greedy", "--x", "1/2", "--steps", "7" * 5000])
    assert info.value.code == 64
    err = capsys.readouterr().err
    assert err.startswith("usage: fan greedy ")
    assert len(err.encode()) < 1024
    assert "fan greedy: error: argument --steps: invalid int value: '777" in err
    with pytest.raises(SystemExit):
        main(["check-nc", "--nope"])
    assert capsys.readouterr().err.endswith("\nfan: error: unrecognized arguments: --nope\n")


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


def _report_reference(fan, delta, threshold) -> str:
    """The endpoints report as a dict of classified tips, written by json.dumps(indent=2)."""
    counts, legs = _classified_tips(fan, delta)
    report = {
        "depth": fan.depth,
        "delta": format_scalar(delta),
        "degeneracy_threshold": format_scalar(threshold),
        **counts,
        "degenerating": sum(leg.t_max < threshold for leg in fan.legs),
        "legs": [
            {
                "word": [format_scalar(s) for s in leg.word.symbols],
                "t_max": format_scalar(leg.t_max),
                "kind": kind,
                "peak_index": peak_index,
                "peak_value": peak_value,
                "degenerating": leg.t_max < threshold,
            }
            for leg, (kind, peak_index, peak_value) in zip(fan.legs, legs)
        ],
    }
    return json.dumps(report, indent=2) + "\n"


F_HALF_THREE = fan_relation(Fraction(1, 2), Fraction(3))


@pytest.mark.parametrize(
    "argv, fan, threshold, flagged",
    [
        (["--depth", "5"], enumerate_legs(F_HALF_THREE, 5), Fraction(1, 2**20), 0),
        (
            ["--depth", "40", "--sample", "30", "--seed", "3"],
            lelekfan.FanApprox(F_HALF_THREE, 40, sample_legs(F_HALF_THREE, 40, 30, 3)),
            Fraction(1, 2**20),
            1,
        ),
        # Only the all-rho word has t_max = 3^-6 < 1/600.
        (
            ["--depth", "6", "--degeneracy-threshold", "1/600"],
            enumerate_legs(F_HALF_THREE, 6),
            Fraction(1, 600),
            1,
        ),
        (
            ["--relation", "G", "--depth", "0"],
            enumerate_legs(cantor_relation(Fraction(1, 2)), 0),
            Fraction(1, 2**20),
            0,
        ),
        (["--depth", "7"], enumerate_legs(F_HALF_THREE, 7), Fraction(1, 2**20), 0),
        (
            ["--relation", "Lrr", "--rho", "5", "--depth", "4", "--degeneracy-threshold", "1/30"],
            enumerate_legs(line_pair_relation(Fraction(1, 2), Fraction(5)), 4),
            Fraction(1, 30),
            5,
        ),
    ],
    ids=["F5", "sampled", "degenerating", "G0", "F7", "Lrr4"],
)
def test_endpoints_report_is_one_indented_dump(capsys, tmp_path, argv, fan, threshold, flagged):
    # The report is written leg by leg; its bytes are those of one json.dumps.
    expected = _report_reference(fan, Fraction(1, 100), threshold)
    assert expected.count('"degenerating": true') == flagged
    report = tmp_path / "report.json"
    assert main(["endpoints", *argv, "--report", str(report)]) == 0
    assert capsys.readouterr().out == expected
    assert report.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("with_report", [False, True], ids=["stdout", "report"])
def test_endpoints_streams_its_report(monkeypatch, tmp_path, with_report):
    # Each piece reaches stdout as the writer yields it; with --report it
    # reaches the file, and stdout only once the file is complete.
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    pieces, written = [], []
    original = cli.mahavier._fan_json

    def watched(*args):
        for piece in original(*args):
            pieces.append(piece)
            yield piece
            written.append(len(out.getvalue()))

    monkeypatch.setattr(cli.mahavier, "_fan_json", watched)
    report = tmp_path / "report.json"
    argv = ["endpoints", "--relation", "F", "--depth", "3"]
    assert main(argv + (["--report", str(report)] if with_report else [])) == 0
    assert len(pieces) > 27
    expected = _report_reference(enumerate_legs(F_HALF_THREE, 3), Fraction(1, 100), Fraction(1, 2**20))
    assert out.getvalue() == "".join(pieces) == expected
    if with_report:
        assert report.read_bytes() == expected.encode("utf-8")
        assert set(written) == {0}
    else:
        assert written == list(itertools.accumulate(map(len, pieces)))


def test_endpoints_report_to_a_device_still_reaches_stdout(capsys):
    # /dev/null cannot be read back, so stdout gets each piece as it is written.
    assert main(["endpoints", "--relation", "G", "--depth", "3", "--report", os.devnull]) == 0
    fan = enumerate_legs(cantor_relation(Fraction(1, 2)), 3)
    expected = _report_reference(fan, Fraction(1, 100), Fraction(1, 2**20))
    assert capsys.readouterr().out == expected


def test_endpoints_report_of_an_empty_leg_file(capsys, tmp_path):
    path = tmp_path / "empty.json"
    lelekfan.save_fan(lelekfan.FanApprox(F_HALF_THREE, 3, ()), path)
    assert '"legs": []' in path.read_text(encoding="utf-8")
    assert main(["endpoints", "--in", str(path)]) == 0
    expected = _report_reference(load_fan(path), Fraction(1, 100), Fraction(1, 2**20))
    assert capsys.readouterr().out == expected
    assert '"legs": []' in expected


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


def test_density_refuses_a_depth_below_k0_before_sampling(capsys, monkeypatch):
    # With k0 = depth + 1 only a sampled origin failed, so the exit code
    # depended on the seed. Now every seed is refused alike, unsampled.
    sampled = []
    original = cli.analysis.sample_deep_points
    monkeypatch.setattr(
        cli.analysis, "sample_deep_points", lambda *args: sampled.append(args) or original(*args)
    )
    errors_seen = set()
    for seed in range(4):
        argv = ["density", "--depth", "5", "--epsilon", "1/64", "--samples", "300", "--seed", str(seed)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        errors_seen.add(captured.err)
    assert sampled == []
    assert errors_seen == {
        "fan: a prefix of length 6 cannot certify epsilon = 1/64 at every point: "
        "a witness keeps k0 = 6 coordinates (the least k0 with 2^-k0 <= epsilon) "
        "and needs one more; use --depth 6 or more\n"
    }
    for seed in range(4):
        code, data = run(
            capsys, "density", "--depth", "6", "--epsilon", "1/64", "--samples", "300", "--seed", str(seed)
        )
        assert code == 0 and data["pass"] and data["samples"] == 300
    # A non-positive epsilon is named as such, not as a short prefix.
    assert main(["density", "--depth", "3", "--epsilon=-1/64"]) == 3
    assert capsys.readouterr().err == "fan: epsilon must be positive\n"
    assert sampled and all(args[1] == 6 for args in sampled)


def test_embed_check_small_run(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, data = run(
        capsys,
        "embed-check", "--r", "1/2", "--rho", "3", "--depth", "4", "--samples", "20",
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


def test_hausdorff_computes_two_resolutions(capsys, monkeypatch):
    calls = []
    original = cli.analysis.sample_resolution

    def counting(fan, grid):
        calls.append(fan.relation)
        return original(fan, grid)

    monkeypatch.setattr(cli.analysis, "sample_resolution", counting)
    r, rho = Fraction(1, 2), Fraction(3)
    relations = {"F": fan_relation(r, rho), "G": cantor_relation(r), "Lrr": line_pair_relation(r, rho)}
    for a, b, depth, grid in (("F", "G", 4, 5), ("G", "Lrr", 5, 8), ("F", "F", 3, 2)):
        calls.clear()
        assert main(["hausdorff", "--a", a, "--b", b, "--depth", str(depth), "--grid", str(grid)]) == 0
        out = capsys.readouterr().out
        assert calls == [relations[a], relations[b]]
        fan_a, fan_b = enumerate_legs(relations[a], depth), enumerate_legs(relations[b], depth)
        lower, upper = hausdorff(fan_a, fan_b, grid)
        expected = {
            "relation_a": a,
            "relation_b": b,
            "depth": depth,
            "grid": grid,
            "lower": lower,
            "upper": upper,
            "resolution": max(original(fan_a, grid), original(fan_b, grid)),
        }
        assert out == json.dumps(expected, indent=2) + "\n"


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


def test_hausdorff_grid_past_the_float_range_exits_3(capsys):
    # A 401-digit grid would overflow the spacing's float division: it is
    # refused before any fan is measured.
    assert main(["hausdorff", "--depth", "2", "--grid", "1" + "0" * 400]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no larger than the largest float" in captured.err and "Traceback" not in captured.err


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


@pytest.mark.parametrize(
    "option, value, message",
    [("--stroke-width", width, "stroke width") for width in ("nan", "inf", "-inf", "0")]
    # 400 nines: an int past the float range, refused before any drawing.
    + [(option, "9" * 400, "width and height") for option in ("--width", "--height")]
    # Sweeps whose half-angle sine underflows to 0, the divisor of the picture's width.
    + [("--sweep", sweep, "too narrow to draw") for sweep in ("5e-324", "2e-322")],
    ids=[
        "nan", "inf", "-inf", "0", "width-400-digits", "height-400-digits",
        "sweep-5e-324", "sweep-2e-322",
    ],
)
def test_render_bad_stroke_width_exits_3(capsys, tmp_path, option, value, message):
    legs = tmp_path / "legs.json"
    svg = tmp_path / "x.svg"
    main(["build", "--relation", "G", "--depth", "2", "--out", str(legs)])
    capsys.readouterr()
    assert main(["render", "--in", str(legs), "--out", str(svg), f"{option}={value}"]) == 3
    err = capsys.readouterr().err
    assert message in err and len(err) < 1024
    assert not svg.exists()


def test_render_writes_its_lines_as_they_are_drawn(capsys, tmp_path):
    # The file is opened only once the picture is known to be drawable, and
    # its lines are render_fan's document.
    legs = tmp_path / "legs.json"
    svg = tmp_path / "x.svg"
    save_fan(FanApprox(fan_relation(Fraction(1, 2), 3), 2, ()), legs)
    assert main(["render", "--in", str(legs), "--out", str(svg)]) == 3
    assert "cannot render an empty fan" in capsys.readouterr().err
    assert not svg.exists()
    main(["build", "--relation", "F", "--depth", "5", "--out", str(legs)])
    capsys.readouterr()
    for angle_map in ("cantor", "uniform"):
        assert main(["render", "--in", str(legs), "--out", str(svg), "--angle-map", angle_map]) == 0
        expected = render_fan(load_fan(legs), RenderConfig(angle_map=angle_map))
        assert svg.read_bytes() == expected.encode("utf-8")


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


def test_one_exception_type_per_exit_code(monkeypatch, capsys):
    defined = {name for name, value in vars(errors).items() if isinstance(value, type)}
    assert defined == {"FanError", "DomainError", "FormatError", "NcViolation", "ResourceError"}
    exit_codes = {
        errors.DomainError: 3,
        errors.FormatError: 3,
        errors.NcViolation: 2,
        errors.ResourceError: 4,
    }
    assert set(errors.FanError.__subclasses__()) == set(exit_codes)
    for error, code in exit_codes.items():

        def refuse(args, error=error):
            raise error("refused")

        monkeypatch.setattr(cli, "cmd_check_nc", refuse)
        assert main(["check-nc"]) == code
        assert capsys.readouterr().err.endswith("refused\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--depth", "100000", "--out", "OUT"],
        ["build", "--depth", "14", "--out", "OUT"],
        ["hausdorff", "--depth", "5000"],
        ["check-nc", "--r", "1/1" + "0" * 4999 + "1", "--rho", "3"],
    ],
    ids=["build-depth-100000", "build-depth-14", "hausdorff-depth-5000", "check-nc-cofactor-5001-digits"],
)
def test_budget_refusals_are_quick_and_bounded(capsys, tmp_path, argv):
    # Neither |slopes|^depth nor a cofactor past the prime bound is printed
    # whole: each would be past Python's 4300-digit int-to-str limit. A
    # refused walk refuses before the leg file is opened, so none is left.
    out = tmp_path / "legs.json"
    argv = [str(out) if a == "OUT" else a for a in argv]
    start = time.perf_counter()
    assert main(argv) == 4
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.encode()) < 1024
    assert captured.err.startswith("fan: budget exceeded: ")
    assert not out.exists()


def test_build_streams_its_legs(capsys, tmp_path):
    # `fan build` writes each leg as the walk makes it: its traced peak
    # stays far below that of the fan it writes, held as a tuple.
    def peak(run) -> int:
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    relation = fan_relation(Fraction(1, 2), Fraction(3))
    held = peak(lambda: enumerate_legs(relation, 9))
    streamed = peak(lambda: main(["build", "--depth", "9", "--out", str(tmp_path / "F9.json")]))
    assert json.loads(capsys.readouterr().out)["legs"] == 3**9
    assert streamed < held / 4, (streamed, held)


def test_build_budget_keeps_its_message(capsys, tmp_path):
    # 2^12 legs of G build at the default budget; 3^13 legs of F are
    # refused with the total printed, as before.
    code, data = run(capsys, "build", "--relation", "G", "--depth", "12", "--out", str(tmp_path / "g.json"))
    assert code == 0 and data["legs"] == 2**12
    assert main(["build", "--depth", "13", "--out", str(tmp_path / "f.json")]) == 4
    assert capsys.readouterr().err == (
        "fan: budget exceeded: 3^13 = 1594323 legs exceeds the budget 531441; "
        "use sampling instead (sample_legs / --sample)\n"
    )


def test_leg_file_with_a_huge_negative_slope_is_refused_quickly(capsys, tmp_path):
    # Writing this 4*10^5-digit slope whole took about 3 s; the refusal
    # converts only the digits its message keeps.
    path = tmp_path / "legs.json"
    path.write_text(
        json.dumps(
            {
                "relation": {"slopes": ["1/2", "1", "-" + "7" * 400_000]},
                "depth": 1,
                "legs": [{"word": ["1"], "t_max": "1"}],
            }
        )
    )
    start = time.perf_counter()
    assert main(["endpoints", "--in", str(path)]) == 3
    assert time.perf_counter() - start < 1.5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.encode()) < 1024
    assert captured.err.startswith("fan: slopes must be positive, got -777")


BIG = "7" * 5000  # a literal past Python's 4300-digit int/str conversion limit
BIG_INT = "7" * 4000  # argparse's int() still reads it
POWER = "1" + "0" * 4999  # 10^4999 = 2^4999 * 5^4999, factored within the prime bound


@pytest.mark.parametrize(
    "argv, code, names",
    [
        (["greedy", "--x", BIG], 3, "start must lie in (0, 1), got 777"),
        (["check-nc", "--r", BIG, "--rho", "3"], 3, "never-connect requires 0 < r < 1, got r = 777"),
        (["check-nc", "--r", "1/2", "--rho", "1/" + BIG], 3, "requires rho > 1, got rho = 1/777"),
        (
            ["density", "--epsilon", "1/" + BIG, "--depth", "3", "--samples", "1"],
            3,
            "a prefix of length 4 cannot certify epsilon = 1/777",
        ),
        (
            ["greedy", "--x", "1/2", "--r", "1/" + POWER, "--rho", POWER],
            2,
            "never-connect failure: slopes are multiplicatively dependent: (1/1000",
        ),
        (
            ["build", "--relation", "G", "--r", "-" + BIG, "--out", "OUT"],
            3,
            "slopes must be positive, got -777",
        ),
        (["build", "--sample", "-" + BIG_INT, "--out", "OUT"], 3, "--sample must be a positive integer, got -777"),
        (["embed-check", "--samples", "-" + BIG_INT], 3, "samples must be a positive integer, got -777"),
        (["greedy", "--x", "1/2", "--steps", BIG_INT], 4, "--steps 777"),
        (["build", "--depth", BIG_INT, "--out", "OUT"], 4, "3^777"),
        (
            ["build", "--depth", "13000", "--budget", BIG_INT, "--out", "OUT"],
            4,
            "legs exceeds the budget 777",
        ),
        (["endpoints", "--in", "DEEP"], 3, "expected depth 777"),
        (["endpoints", "--in", "WIDE"], 3, "not valid JSON"),
    ],
    ids=[
        "greedy-start",
        "check-nc-r",
        "check-nc-rho",
        "density-epsilon",
        "dependent-pair",
        "build-negative-slope",
        "build-sample-count",
        "embed-check-samples",
        "greedy-steps",
        "build-depth",
        "build-budget",
        "leg-file-depth",
        "leg-file-depth-past-the-digit-limit",
    ],
)
def test_refusals_echo_bounded_values(capsys, tmp_path, argv, code, names):
    out = tmp_path / "out.json"
    if argv[-1] in ("DEEP", "WIDE"):
        # A leg file whose depth field is a 4000- or 5000-digit integer.
        depth = BIG_INT if argv[-1] == "DEEP" else BIG
        legs = tmp_path / "legs.json"
        legs.write_text(
            f'{{"relation": {{"slopes": ["1/2", "1", "3"]}}, "depth": {depth}, '
            '"legs": [{"word": ["3"], "t_max": "1/3"}]}'
        )
        argv = argv[:-1] + [str(legs)]
    argv = [str(out) if a == "OUT" else a for a in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.encode()) < 1024
    assert captured.err.startswith("fan: ") and names in captured.err
    assert not out.exists()

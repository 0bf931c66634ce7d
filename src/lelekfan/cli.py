"""Command-line entry point: fan <subcommand>.

Exit codes: 0 success, 1 verification failure (report still emitted),
2 never-connect failure, 3 precondition/domain error (unreadable or
unwritable files included), 4 budget exceeded, 64 usage error. All
outputs are deterministic for a fixed argv (seeds included). FAN_THREADS,
when set, must be a positive integer (else exit 3); it caps nothing, since
the implementation is sequential.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import analysis, mahavier, render
from .errors import DomainError, FanError, FormatError, NcViolation, ResourceError
from .nc import check_nc, require_nc
from .scalars import format_scalar, parse_scalar

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_NC = 2
EXIT_PRECONDITION = 3
EXIT_RESOURCE = 4
EXIT_USAGE = 64

RELATIONS = ("F", "G", "Lrr")


@dataclass
class GlobalConfig:
    """Resolved run parameters: slopes, depth, seed and the search budgets."""

    r: Fraction = Fraction(1, 2)
    rho: Fraction = Fraction(3)
    depth: int = 6
    seed: int = 0
    enum_budget: int = mahavier.DEFAULT_ENUM_BUDGET
    greedy_budget: int = analysis.DEFAULT_GREEDY_BUDGET

    @classmethod
    def from_args(cls, args) -> "GlobalConfig":
        _thread_cap()
        config = cls(
            r=parse_scalar(getattr(args, "r", "1/2")),
            rho=parse_scalar(getattr(args, "rho", "3")),
            depth=getattr(args, "depth", 6),
            seed=getattr(args, "seed", 0),
        )
        # a subcommand's --budget overrides the slot it draws from
        budget = getattr(args, "budget", None)
        if budget is not None:
            if args.command == "density":
                config.greedy_budget = budget
            else:
                config.enum_budget = budget
        if min(config.enum_budget, config.greedy_budget) < 1:
            raise DomainError("budgets must be positive")
        if config.depth < 0:
            raise DomainError("depth must be non-negative")
        return config


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _thread_cap() -> None:
    """Validate FAN_THREADS; the implementation is sequential, so nothing reads it."""
    raw = os.environ.get("FAN_THREADS")
    if raw is None:
        return
    try:
        cap = int(raw)
    except ValueError as exc:
        raise FormatError(f"FAN_THREADS must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise FormatError(f"FAN_THREADS must be >= 1, got {cap}")


def _emit(data: dict, path: str | None = None) -> None:
    text = json.dumps(data, indent=2) + "\n"
    # The report file first: when it cannot be written, stdout stays empty.
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    sys.stdout.write(text)


def _relation(kind: str, config: GlobalConfig) -> mahavier.RelationSpec:
    if kind == "F":
        require_nc(config.r, config.rho)  # fans of the full relation need an NC pair
        return mahavier.fan_relation(config.r, config.rho)
    if kind == "G":
        return mahavier.cantor_relation(config.r)
    return mahavier.line_pair_relation(config.r, config.rho)


def _require_count(name: str, count: int) -> None:
    if count < 1:
        raise DomainError(f"{name} must be a positive integer, got {count}")


def _build_fan(args, config: GlobalConfig, kind: str) -> mahavier.FanApprox:
    relation = _relation(kind, config)
    if args.sample is not None:
        _require_count("--sample", args.sample)
        legs = mahavier.sample_legs(relation, config.depth, args.sample, config.seed)
        return mahavier.FanApprox(relation, config.depth, legs)
    return mahavier.enumerate_legs(relation, config.depth, config.enum_budget)


def cmd_check_nc(args, config: GlobalConfig) -> int:
    verdict = check_nc(config.r, config.rho)
    _emit(verdict.to_json_dict())
    return EXIT_OK if verdict.is_nc else EXIT_NC


def cmd_build(args, config: GlobalConfig) -> int:
    fan = _build_fan(args, config, args.relation)
    mahavier.save_fan(fan, args.out)
    _emit(
        {
            "out": args.out,
            "relation": args.relation,
            "depth": config.depth,
            "legs": len(fan.legs),
        }
    )
    return EXIT_OK


def cmd_greedy(args, config: GlobalConfig) -> int:
    _require_count("--steps", args.steps)
    if args.steps > config.greedy_budget:
        raise ResourceError(
            f"--steps {args.steps} exceeds the greedy budget {config.greedy_budget}"
        )
    trace = analysis.greedy_sequence(
        parse_scalar(args.x), config.r, config.rho, args.steps
    )
    _emit(
        {
            "start": format_scalar(trace.start),
            "r": format_scalar(config.r),
            "rho": format_scalar(config.rho),
            "steps": len(trace.symbols),
            "symbols": [format_scalar(s) for s in trace.symbols],
            "partials": [format_scalar(p) for p in trace.partials],
            "running_max": format_scalar(trace.running_max),
        }
    )
    return EXIT_OK


def cmd_endpoints(args, config: GlobalConfig) -> int:
    if args.infile:
        fan = mahavier.load_fan(args.infile)
    else:
        fan = _build_fan(args, config, args.relation)
    delta = parse_scalar(args.delta)
    threshold = parse_scalar(args.degeneracy_threshold)
    kinds = {"exact": 0, "approximate": 0, "not_certified": 0}
    legs_report = []
    degenerating = 0
    format_word = mahavier.word_formatter(fan.relation)
    for leg in fan.legs:
        tip = mahavier.leg_point(leg, leg.t_max)
        verdict = analysis.classify_endpoint(tip, delta)
        kind = (
            verdict.kind
            if isinstance(verdict, analysis.EndpointCertificate)
            else "not_certified"
        )
        kinds[kind] += 1
        flagged = mahavier.is_degenerating(leg, threshold)
        degenerating += flagged
        legs_report.append(
            {
                "word": format_word(leg.word),
                "t_max": format_scalar(leg.t_max),
                "kind": kind,
                "peak_index": verdict.peak_index,
                "peak_value": format_scalar(verdict.peak_value),
                "degenerating": flagged,
            }
        )
    _emit(
        {
            "depth": fan.depth,
            "delta": format_scalar(delta),
            "degeneracy_threshold": format_scalar(threshold),
            "total": len(fan.legs),
            "exact": kinds["exact"],
            "approximate": kinds["approximate"],
            "not_certified": kinds["not_certified"],
            "degenerating": degenerating,
            "legs": legs_report,
        },
        args.report,
    )
    return EXIT_OK


def cmd_density(args, config: GlobalConfig) -> int:
    _require_count("--samples", args.samples)
    require_nc(config.r, config.rho)
    epsilon = parse_scalar(args.epsilon)
    delta = parse_scalar(args.delta)
    relation = mahavier.fan_relation(config.r, config.rho)
    points = analysis.sample_deep_points(relation, config.depth, args.samples, config.seed)
    failures, max_bound, worst_delta = analysis.density_sweep(
        points, epsilon, config.r, config.rho, config.greedy_budget, delta
    )
    report = {
        "r": format_scalar(config.r),
        "rho": format_scalar(config.rho),
        "depth": config.depth,
        "epsilon": format_scalar(epsilon),
        "delta": format_scalar(delta),
        "samples": args.samples,
        "seed": config.seed,
        "max_bound": format_scalar(max_bound),
        "worst_delta": format_scalar(worst_delta),
        "pass": not failures,
        "failures": failures,
    }
    _emit(report, args.report)
    return EXIT_OK if not failures else EXIT_VERIFICATION


def cmd_embed_check(args, config: GlobalConfig) -> int:
    _require_count("--samples", args.samples)
    report = analysis.verify_embedding(
        config.r,
        config.rho,
        config.depth,
        args.samples,
        config.seed,
        budget=config.enum_budget,
    )
    _emit(report, args.report)
    return EXIT_OK if report["pass"] else EXIT_VERIFICATION


def cmd_hausdorff(args, config: GlobalConfig) -> int:
    fan_a = _build_fan(args, config, args.a)
    fan_b = _build_fan(args, config, args.b)
    lower, upper = analysis.hausdorff(fan_a, fan_b, args.grid)
    resolution = max(
        analysis.sample_resolution(fan_a, args.grid),
        analysis.sample_resolution(fan_b, args.grid),
    )
    _emit(
        {
            "relation_a": args.a,
            "relation_b": args.b,
            "depth": config.depth,
            "grid": args.grid,
            "lower": lower,
            "upper": upper,
            "resolution": resolution,
        }
    )
    return EXIT_OK


def cmd_render(args, config: GlobalConfig) -> int:
    fan = mahavier.load_fan(args.infile)
    render_config = render.RenderConfig(
        width=args.width,
        height=args.height,
        angle_map=args.angle_map,
        sweep=args.sweep,
        stroke_width=args.stroke_width,
    )
    svg = render.render_fan(fan, render_config)
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(svg)
    return EXIT_OK


def _add_slope_args(parser, with_depth=True, depth_default=6):
    parser.add_argument("--r", default="1/2", help="contracting slope, as p/q (default 1/2)")
    parser.add_argument("--rho", default="3", help="expanding slope, as p/q (default 3)")
    if with_depth:
        parser.add_argument(
            "--depth", type=int, default=depth_default,
            help=f"word length (default {depth_default})",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fan", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-nc", help="decide the never-connect condition exactly")
    _add_slope_args(p, with_depth=False)
    p.set_defaults(func=cmd_check_nc)

    p = sub.add_parser("build", help="enumerate or sample legs and write a leg file")
    _add_slope_args(p)
    p.add_argument("--relation", choices=RELATIONS, default="F")
    p.add_argument("--sample", type=int, default=None, metavar="M", help="sample M words instead of enumerating")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=mahavier.DEFAULT_ENUM_BUDGET)
    p.add_argument("--out", required=True, help="output leg file (JSON)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("greedy", help="run the greedy climb from a start value")
    p.add_argument("--x", required=True, help="start value in (0,1), as p/q")
    _add_slope_args(p, with_depth=False)
    p.add_argument("--steps", type=int, default=30, help="climb length (default 30)")
    p.set_defaults(func=cmd_greedy)

    p = sub.add_parser("endpoints", help="classify leg tips and flag degenerating words")
    p.add_argument("--in", dest="infile", default=None, help="leg file to read (else build)")
    _add_slope_args(p)
    p.add_argument("--relation", choices=RELATIONS, default="F")
    p.add_argument("--sample", type=int, default=None, metavar="M")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=mahavier.DEFAULT_ENUM_BUDGET)
    p.add_argument("--delta", default="1/100", help="approximate-certificate tolerance")
    p.add_argument(
        "--degeneracy-threshold",
        default=format_scalar(mahavier.DEGENERACY_THRESHOLD),
        help="flag legs with t_max below this cap",
    )
    p.add_argument("--report", default=None, help="also write the JSON report here")
    p.set_defaults(func=cmd_endpoints)

    p = sub.add_parser("density", help="sample deep points and certify endpoint density")
    _add_slope_args(p, depth_default=40)
    p.add_argument("--epsilon", default="1/64", help="target distance, as p/q")
    p.add_argument("--delta", default="1/100", help="endpoint-certificate tolerance")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=analysis.DEFAULT_GREEDY_BUDGET)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("embed-check", help="verify the two-slope product embeds in the full one")
    _add_slope_args(p)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=mahavier.DEFAULT_ENUM_BUDGET)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_embed_check)

    p = sub.add_parser("hausdorff", help="enclose the Hausdorff distance between two fans")
    _add_slope_args(p)
    p.add_argument("--a", choices=RELATIONS, default="F")
    p.add_argument("--b", choices=RELATIONS, default="G")
    p.add_argument("--grid", type=int, default=analysis.DEFAULT_GRID)
    p.add_argument("--budget", type=int, default=mahavier.DEFAULT_ENUM_BUDGET)
    p.set_defaults(func=cmd_hausdorff, sample=None)

    p = sub.add_parser("render", help="render a leg file as SVG")
    p.add_argument("--in", dest="infile", required=True, help="leg file to read")
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument("--angle-map", choices=(render.ANGLE_CANTOR, render.ANGLE_UNIFORM), default=render.ANGLE_CANTOR)
    p.add_argument("--sweep", type=float, default=60.0, help="angular range in degrees")
    p.add_argument("--width", type=int, default=800)
    p.add_argument("--height", type=int, default=600)
    p.add_argument("--stroke-width", type=float, default=1.0)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = GlobalConfig.from_args(args)
        return args.func(args, config)
    except NcViolation as exc:
        print(f"fan: never-connect failure: {exc}", file=sys.stderr)
        return EXIT_NC
    except ResourceError as exc:
        print(f"fan: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (FanError, OSError) as exc:  # OSError: a file that cannot be read or written
        print(f"fan: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())

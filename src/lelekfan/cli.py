"""Command-line entry point: fan <subcommand>.

Exit codes: 0 success, 1 verification failure (report still emitted),
2 never-connect failure, 3 precondition/domain error (unreadable or
unwritable files included), 4 budget exceeded, 64 usage error. All
outputs are deterministic for a fixed argv (seeds included).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import stat
import sys

from . import analysis, mahavier, render
from .errors import DomainError, FanError, NcViolation, ResourceError
from .nc import check_nc, require_nc
from .scalars import _echo, format_scalar, parse_scalar

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_NC = 2
EXIT_PRECONDITION = 3
EXIT_RESOURCE = 4
EXIT_USAGE = 64

RELATIONS = ("F", "G", "Lrr")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {_echo(message)}\n")


def _check_args(args) -> None:
    """Parse --r and --rho where present; reject a budget below 1, then a negative depth."""
    for name in ("r", "rho"):
        if hasattr(args, name):
            setattr(args, name, parse_scalar(getattr(args, name)))
    if getattr(args, "budget", 1) < 1:
        raise DomainError("budgets must be positive")
    if getattr(args, "depth", 0) < 0:
        raise DomainError("depth must be non-negative")


def _emit(data: dict, path: str | None = None) -> None:
    _write((json.dumps(data, indent=2), "\n"), path)


def _write(pieces, path: str | None) -> None:
    """Write the text pieces, in order, as they come, holding none of them.

    Without `path` they go straight to stdout. With it they go to that
    report file first, which is then copied to stdout: when the file cannot
    be written, stdout stays empty. A path that is no regular file (such
    as /dev/null or a pipe) cannot be read back, so each piece goes to it
    and then to stdout.
    """
    if not path:
        sys.stdout.writelines(pieces)
        return
    with open(path, "w+", encoding="utf-8") as handle:
        if not stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
            for piece in pieces:
                handle.write(piece)
                sys.stdout.write(piece)
            return
        handle.writelines(pieces)
        handle.seek(0)
        while chunk := handle.read(1 << 16):
            sys.stdout.write(chunk)


def _relation(args, kind: str) -> mahavier.RelationSpec:
    if kind == "F":
        require_nc(args.r, args.rho)  # fans of the full relation need an NC pair
        return mahavier.fan_relation(args.r, args.rho)
    if kind == "G":
        return mahavier.cantor_relation(args.r)
    return mahavier.line_pair_relation(args.r, args.rho)


def _require_count(name: str, count: int) -> None:
    if count < 1:
        raise DomainError(f"{name} must be a positive integer, got {_echo(count)}")


def _walker(args):
    """The relation `--relation` names and a function that starts a new walk over its legs.

    Each walk enumerates every leg within `--budget`, or draws `--sample`
    words under `--seed`: the same legs in the same order every time. It
    refuses its budget as it starts, before the caller writes anything.
    """
    relation = _relation(args, args.relation)
    if args.sample is None:
        return relation, lambda: mahavier._walk(relation, args.depth, args.budget)
    _require_count("--sample", args.sample)
    return relation, lambda: mahavier._drawn(random.Random(args.seed), relation, args.depth, args.sample)


def cmd_check_nc(args) -> int:
    verdict = check_nc(args.r, args.rho)
    _emit(verdict.to_json_dict())
    return EXIT_OK if verdict.is_nc else EXIT_NC


def cmd_build(args) -> int:
    relation, walk = _walker(args)
    count = mahavier._save(args.out, relation, args.depth, walk())
    _emit(
        {
            "out": args.out,
            "relation": args.relation,
            "depth": args.depth,
            "legs": count,
        }
    )
    return EXIT_OK


def cmd_greedy(args) -> int:
    _require_count("--steps", args.steps)
    if args.steps > analysis.DEFAULT_GREEDY_BUDGET:
        raise ResourceError(
            f"--steps {_echo(args.steps)} exceeds the greedy budget "
            f"{analysis.DEFAULT_GREEDY_BUDGET}"
        )
    trace = analysis.greedy_sequence(
        parse_scalar(args.x), args.r, args.rho, args.steps
    )
    _emit(
        {
            "start": format_scalar(trace.start),
            "r": format_scalar(args.r),
            "rho": format_scalar(args.rho),
            "steps": len(trace.symbols),
            "symbols": [format_scalar(s) for s in trace.symbols],
            "partials": [format_scalar(p) for p in trace.partials],
            "running_max": format_scalar(trace.running_max),
        }
    )
    return EXIT_OK


def cmd_endpoints(args) -> int:
    # Tolerances first, so an empty fan cannot echo an invalid one.
    delta = parse_scalar(args.delta)
    if delta < 0:
        raise DomainError("delta must be non-negative")
    threshold = parse_scalar(args.degeneracy_threshold)
    if threshold < 0:
        raise DomainError("degeneracy threshold must be non-negative")
    if args.infile:
        fan = mahavier.load_fan(args.infile)
        relation, depth, walk = fan.relation, fan.depth, lambda: fan.legs
    else:
        # Two walks, one to count and one to write, so no leg is held.
        (relation, walk), depth = _walker(args), args.depth

    # Every tip is an exact end-point, so it is not built or classified:
    # `_grow_legs` sets t_max = 1/max(1, P_1, ..., P_n), and `fan_from_dict`
    # rejects a stored t_max that differs from it. The tip (t_max, P_1*t_max,
    # ..., P_n*t_max) first reaches 1 at index 0 when t_max = 1, else at the
    # index k of the first P_k = 1/t_max. A walk makes one object per value,
    # so the peak product P_k and the flag are found once per t_max object,
    # memoised by id, and the peak index by identity. The memo holds every
    # t_max it keys, so no id is reused while it lives, over both walks.
    tips: dict[int, tuple] = {}  # id(t_max) -> (t_max, the peak product or None, the flag)
    texts: dict[tuple, str] = {}  # (peak index, flag) -> the leg's report fields

    def tip(leg) -> tuple:
        t_max = leg.t_max
        known = tips.get(id(t_max))
        if known is None:
            peak = None
            if t_max != 1:
                value = (t_max.denominator, t_max.numerator)
                peak = next(p for p in leg.prefix_products if (p.numerator, p.denominator) == value)
            known = tips[id(t_max)] = (t_max, peak, mahavier.is_degenerating(leg, threshold))
        return known

    def fields(leg) -> str:
        _, peak, flag = tip(leg)
        peak_index = 0
        if peak is not None:
            for peak_index, p in enumerate(leg.prefix_products, 1):
                if p is peak:
                    break
        text = texts.get((peak_index, flag))
        if text is None:
            text = texts[peak_index, flag] = mahavier._fields_text(
                dict(kind=analysis.EXACT, peak_index=peak_index, peak_value="1", degenerating=flag)
            )
        return text

    flags = [tip(leg)[2] for leg in walk()]
    head = {
        "depth": depth,
        "delta": format_scalar(delta),
        "degeneracy_threshold": format_scalar(threshold),
        "total": len(flags),
        analysis.EXACT: len(flags),
        analysis.APPROXIMATE: 0,
        analysis.NOT_CERTIFIED: 0,
        "degenerating": sum(flags),
    }
    _write(mahavier._fan_json(head, relation, walk(), fields), args.report)
    return EXIT_OK


def cmd_density(args) -> int:
    _require_count("--samples", args.samples)
    relation = _relation(args, "F")
    epsilon = parse_scalar(args.epsilon)
    delta = parse_scalar(args.delta)
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    # A witness keeps the first k0 coordinates of its point. The origin's
    # replaces them with seed coordinates, and their distance fits under
    # epsilon only when at least one more coordinate follows, so every
    # sampled point is certifiable exactly when k0 <= depth (as in
    # verify_embedding's schedule).
    k0 = analysis._min_k0(epsilon)
    if k0 > args.depth:
        raise DomainError(
            f"a prefix of length {args.depth + 1} cannot certify epsilon = "
            f"{_echo(epsilon)} at every point: a witness keeps k0 = {k0} "
            "coordinates (the least k0 with 2^-k0 <= epsilon) and needs one more; "
            f"use --depth {k0} or more"
        )
    points = analysis.sample_deep_points(relation, args.depth, args.samples, args.seed)
    failures, max_bound, worst_delta = analysis.density_sweep(
        points, epsilon, args.r, args.rho, args.budget, delta
    )
    report = {
        "r": format_scalar(args.r),
        "rho": format_scalar(args.rho),
        "depth": args.depth,
        "epsilon": format_scalar(epsilon),
        "delta": format_scalar(delta),
        "samples": args.samples,
        "seed": args.seed,
        "max_bound": format_scalar(max_bound),
        "worst_delta": format_scalar(worst_delta),
        "pass": not failures,
        "failures": failures,
    }
    _emit(report, args.report)
    return EXIT_OK if not failures else EXIT_VERIFICATION


def cmd_embed_check(args) -> int:
    report = analysis.verify_embedding(
        args.r,
        args.rho,
        args.depth,
        args.samples,
        args.seed,
        budget=args.budget,
    )
    _emit(report, args.report)
    return EXIT_OK if report["pass"] else EXIT_VERIFICATION


def cmd_hausdorff(args) -> int:
    fan_a = mahavier.enumerate_legs(_relation(args, args.a), args.depth, args.budget)
    fan_b = mahavier.enumerate_legs(_relation(args, args.b), args.depth, args.budget)
    lower, upper, resolution = analysis._enclose(fan_a, fan_b, args.grid)
    _emit(
        {
            "relation_a": args.a,
            "relation_b": args.b,
            "depth": args.depth,
            "grid": args.grid,
            "lower": lower,
            "upper": upper,
            "resolution": resolution,
        }
    )
    return EXIT_OK


def cmd_render(args) -> int:
    fan = mahavier.load_fan(args.infile)
    render_config = render.RenderConfig(
        width=args.width,
        height=args.height,
        angle_map=args.angle_map,
        sweep=args.sweep,
        stroke_width=args.stroke_width,
    )
    # Refused before the file is opened; then each line is written as it is drawn.
    lines = render._svg_lines(fan, render_config)
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(lines)
    return EXIT_OK


def _add_slope_args(parser, with_depth=True, depth_default=6):
    parser.add_argument("--r", default="1/2", help="contracting slope, as p/q (default 1/2)")
    parser.add_argument("--rho", default="3", help="expanding slope, as p/q (default 3)")
    if with_depth:
        parser.add_argument(
            "--depth", type=int, default=depth_default,
            help=f"word length (default {depth_default})",
        )


def _add_fan_args(parser):
    """The slope options and the four options `_walker` reads to walk a fan's legs."""
    _add_slope_args(parser)
    parser.add_argument("--relation", choices=RELATIONS, default="F")
    parser.add_argument("--sample", type=int, default=None, metavar="M", help="sample M words instead of enumerating")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=mahavier.DEFAULT_ENUM_BUDGET)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fan", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    delta = format_scalar(analysis.DEFAULT_DELTA)

    p = sub.add_parser("check-nc", help="decide the never-connect condition exactly")
    _add_slope_args(p, with_depth=False)
    p.set_defaults(func=cmd_check_nc)

    p = sub.add_parser("build", help="enumerate or sample legs and write a leg file")
    _add_fan_args(p)
    p.add_argument("--out", required=True, help="output leg file (JSON)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("greedy", help="run the greedy climb from a start value")
    p.add_argument("--x", required=True, help="start value in (0,1), as p/q")
    _add_slope_args(p, with_depth=False)
    p.add_argument("--steps", type=int, default=30, help="climb length (default 30)")
    p.set_defaults(func=cmd_greedy)

    p = sub.add_parser("endpoints", help="classify leg tips and flag degenerating words")
    p.add_argument("--in", dest="infile", default=None, help="leg file to read (else build)")
    _add_fan_args(p)
    p.add_argument(
        "--delta", default=delta,
        help="every leg tip is exact, so this tolerance is only validated and echoed",
    )
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
    p.add_argument("--delta", default=delta, help="endpoint-certificate tolerance")
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
    p.set_defaults(func=cmd_hausdorff)

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
        _check_args(args)
        return args.func(args)
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

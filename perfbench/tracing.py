"""In-memory span tracing of lelekfan's public functions, from outside the package.

`Tracer.install()` replaces each traced function wherever a lelekfan module
bound its name (for example both `lelekfan.scalars.factor` and
`lelekfan.nc.factor`), so calls between modules are traced without editing
any source file. Each span records its name, start, end and parent in
integer nanoseconds and stays in memory until the run ends; self times and
per-layer metrics are computed from the spans afterwards.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import defaultdict
from fractions import Fraction

ROOT_SPAN = "workload"
OP_PREFIX = "op:"


def _after_enumerate(tracer, args, kwargs, result):
    tracer.count["mahavier.enumerate_legs.legs"] += len(result.legs)


def _after_build_leg(tracer, args, kwargs, result):
    bits = max((p.denominator.bit_length() for p in result.prefix_products), default=0)
    if bits > tracer.count["mahavier.max_denominator_bits"]:
        tracer.count["mahavier.max_denominator_bits"] = bits


def _after_save_fan(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.count["mahavier.save_fan.bytes"] += os.path.getsize(path)


def _after_require_nc(tracer, args, kwargs, result):
    tracer.nc_pairs.add((Fraction(args[0]), Fraction(args[1])))


def _after_greedy(tracer, args, kwargs, result):
    tracer.count["analysis.greedy_sequence.steps"] += len(result.symbols)


def _after_density(tracer, args, kwargs, result):
    if result[2].kind == "exact":
        tracer.count["analysis.density_witness.exact"] += 1


def _after_directed(tracer, args, kwargs, result):
    a, b = args[0], args[1]
    grid = args[2] if len(args) > 2 else kwargs.get("grid", sys.modules["lelekfan.analysis"].DEFAULT_GRID)
    points = len(a.legs) * (grid + 1)
    candidates = points * len(b.legs) * (a.depth + 3)
    tracer.count["analysis.directed_hausdorff.points"] += points
    tracer.count["analysis.directed_hausdorff.candidate_evals"] += candidates
    # One float64 term per candidate per coordinate, from the array shapes.
    tracer.count["analysis.directed_hausdorff.bytes_computed"] += 8 * candidates * (a.depth + 1)
    b_words = {leg.word.symbols for leg in b.legs}
    tracer.count["analysis.directed_hausdorff.a_legs"] += len(a.legs)
    tracer.count["analysis.directed_hausdorff.shared_legs"] += sum(
        leg.word.symbols in b_words for leg in a.legs
    )


def _after_render(tracer, args, kwargs, result):
    tracer.count["render.render_fan.bytes"] += len(result.encode("utf-8"))


# (module, function, hook run after each successful call)
TRACED = (
    ("scalars", "parse_scalar", None),
    ("scalars", "format_scalar", None),
    ("scalars", "factor", None),
    ("nc", "check_nc", None),
    ("nc", "require_nc", _after_require_nc),
    ("mahavier", "enumerate_legs", _after_enumerate),
    ("mahavier", "build_leg", _after_build_leg),
    ("mahavier", "sample_legs", None),
    ("mahavier", "save_fan", _after_save_fan),
    ("mahavier", "load_fan", None),
    ("mahavier", "leg_point", None),
    ("mahavier", "truncated_metric", None),
    ("analysis", "greedy_sequence", _after_greedy),
    ("analysis", "oracle_best_sequence", None),
    ("analysis", "classify_endpoint", None),
    ("analysis", "density_witness", _after_density),
    ("analysis", "sample_deep_points", None),
    ("analysis", "verify_embedding", None),
    ("analysis", "directed_hausdorff", _after_directed),
    ("analysis", "sample_resolution", None),
    ("render", "angle_fractions", None),
    ("render", "render_fan", _after_render),
    ("cli", "main", None),
)

# Every per-layer metric, in report order, with its unit. `init.*` comes
# from the child's -X importtime output, `trace.overhead_s` from pairing
# traced with untraced children; the rest from spans and hook counts.
PER_LAYER = (
    ("init.import_s", "s"),
    ("init.numpy_import_s", "s"),
    ("mahavier.enumerate_legs.self_s", "s"),
    ("mahavier.enumerate_legs.legs", "count"),
    ("mahavier.build_leg.calls", "count"),
    ("mahavier.build_leg.self_s", "s"),
    ("mahavier.sample_legs.self_s", "s"),
    ("mahavier.save_fan.self_s", "s"),
    ("mahavier.save_fan.bytes", "bytes"),
    ("mahavier.load_fan.self_s", "s"),
    ("mahavier.leg_point.calls", "count"),
    ("mahavier.leg_point.self_s", "s"),
    ("mahavier.truncated_metric.calls", "count"),
    ("mahavier.truncated_metric.self_s", "s"),
    ("mahavier.max_denominator_bits", "bits"),
    ("scalars.parse_scalar.calls", "count"),
    ("scalars.parse_scalar.self_s", "s"),
    ("scalars.format_scalar.calls", "count"),
    ("scalars.format_scalar.self_s", "s"),
    ("scalars.factor.calls", "count"),
    ("scalars.factor.self_s", "s"),
    ("nc.check_nc.calls", "count"),
    ("nc.check_nc.self_s", "s"),
    ("nc.check_nc.failed", "count"),
    ("nc.require_nc.calls", "count"),
    ("nc.require_nc.useful_ratio", "ratio"),
    ("analysis.greedy_sequence.calls", "count"),
    ("analysis.greedy_sequence.steps", "count"),
    ("analysis.greedy_sequence.self_s", "s"),
    ("analysis.oracle_best_sequence.calls", "count"),
    ("analysis.oracle_best_sequence.self_s", "s"),
    ("analysis.classify_endpoint.calls", "count"),
    ("analysis.classify_endpoint.self_s", "s"),
    ("analysis.density_witness.calls", "count"),
    ("analysis.density_witness.self_s", "s"),
    ("analysis.density_witness.exact_ratio", "ratio"),
    ("analysis.sample_deep_points.self_s", "s"),
    ("analysis.verify_embedding.self_s", "s"),
    ("analysis.directed_hausdorff.calls", "count"),
    ("analysis.directed_hausdorff.self_s", "s"),
    ("analysis.directed_hausdorff.points", "count"),
    ("analysis.directed_hausdorff.candidate_evals", "count"),
    ("analysis.directed_hausdorff.bytes_computed", "bytes"),
    ("analysis.directed_hausdorff.zero_ratio", "ratio"),
    ("analysis.sample_resolution.calls", "count"),
    ("analysis.sample_resolution.self_s", "s"),
    ("render.angle_fractions.self_s", "s"),
    ("render.render_fan.self_s", "s"),
    ("render.render_fan.bytes", "bytes"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)
FROM_PARENT = ("init.import_s", "init.numpy_import_s", "trace.overhead_s")


class NullTracer:
    """Stands in for Tracer in untraced runs: spans cost one method call."""

    def begin(self, name: str) -> int:
        return 0

    def end(self, index: int) -> None:
        pass


class Tracer:
    """Spans in parallel arrays, indexed in begin order (which is start order)."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self._open = [-1]
        self.count: defaultdict[str, int] = defaultdict(int)
        self.raised: defaultdict[str, int] = defaultdict(int)
        self.nc_pairs: set = set()

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1])
        self.ends.append(0)
        self._open.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        self._open.pop()

    def wrap(self, name, func, after):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self.end(index)
                self.raised[name] += 1
                raise
            self.end(index)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED function under each name a lelekfan module bound it to."""
        modules = [m for n, m in sys.modules.items() if n == "lelekfan" or n.startswith("lelekfan.")]
        for module_name, func_name, after in TRACED:
            original = getattr(sys.modules[f"lelekfan.{module_name}"], func_name)
            wrapper = self.wrap(f"{module_name}.{func_name}", original, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def self_times(self) -> list[int]:
        return self_times(self.starts, self.ends, self.parents)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and hook counts."""
        calls: defaultdict[str, int] = defaultdict(int)
        self_ns: defaultdict[str, int] = defaultdict(int)
        for name, own in zip(self.names, self.self_times()):
            calls[name] += 1
            self_ns[name] += own
        values: dict[str, float] = {}
        for metric, _unit in PER_LAYER:
            if metric in FROM_PARENT:
                continue
            layer, _, stat = metric.rpartition(".")
            if stat == "calls":
                values[metric] = calls[layer]
            elif stat == "self_s":
                values[metric] = self_ns[layer] / 1e9
            else:
                values[metric] = self.count.get(metric, 0)
        c = self.count
        values["nc.check_nc.failed"] = self.raised["nc.check_nc"]
        values["nc.require_nc.useful_ratio"] = _ratio(len(self.nc_pairs), calls["nc.require_nc"])
        values["analysis.density_witness.exact_ratio"] = _ratio(
            c["analysis.density_witness.exact"], calls["analysis.density_witness"]
        )
        values["analysis.directed_hausdorff.zero_ratio"] = _ratio(
            c["analysis.directed_hausdorff.shared_legs"], c["analysis.directed_hausdorff.a_legs"]
        )
        return values

    def op_seconds(self) -> list[tuple[str, float]]:
        """Duration of each benchmark operation span, in run order."""
        return [
            (name[len(OP_PREFIX):], (end - start) / 1e9)
            for name, start, end in zip(self.names, self.starts, self.ends)
            if name.startswith(OP_PREFIX)
        ]

    def self_time_residual_ns(self) -> int:
        """Sum of all self times minus the root span's duration; 0 when the arithmetic holds."""
        root = self.names.index(ROOT_SPAN)
        return sum(self.self_times()) - (self.ends[root] - self.starts[root])


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def self_times(starts, ends, parents) -> list[int]:
    """Each span's duration minus the part of it that its children's union covers.

    Spans must be indexed in start order, as Tracer records them; children
    are clipped to their parent's interval and overlaps between siblings
    are counted once.
    """
    n = len(starts)
    covered = [0] * n
    covered_until = list(starts)
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], covered_until[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            covered_until[p] = hi
    return [ends[i] - starts[i] - covered[i] for i in range(n)]

"""One benchmark child: set up a workload's inputs, run its operations once, report JSON.

run.py starts one child per sample, one at a time, so every sample pays a
fresh interpreter start and `import lelekfan`. The child prints a single
JSON line on stdout; lelekfan's own CLI output is captured inside the
operations.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--references", help="reference digests; omit to record them")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import lelekfan
    import workloads
    from tracing import NullTracer, ROOT_SPAN, OP_PREFIX, Tracer

    if os.path.dirname(os.path.dirname(os.path.realpath(lelekfan.__file__))) != SRC:
        print(f"lelekfan was imported from {lelekfan.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    setup, operations = workloads.WORKLOADS[args.workload]
    inputs = setup(args.seed, args.workdir)
    setup_s = time.monotonic() - args.t0

    references = None
    if args.references:
        with open(args.references, encoding="utf-8") as handle:
            references = json.load(handle)
    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        tracer.install()
    run = workloads.Run(args.seed, references)
    ops = operations(inputs, run)

    op_wall_s = []
    started = time.perf_counter()
    root = tracer.begin(ROOT_SPAN)
    for name, op in ops:
        span = tracer.begin(OP_PREFIX + name)
        op_started = time.perf_counter()
        try:
            op()
        except Exception as exc:  # one operation's failure must not hide the others'
            run.fail(name, f"{type(exc).__name__}: {exc}")
        finally:
            op_wall_s.append(time.perf_counter() - op_started)
            tracer.end(span)
    tracer.end(root)
    wall_s = time.perf_counter() - started

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_wall_s": op_wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": run.attempted,
        "failed": run.failed,
        "known_refusals": run.known_refusals,
        "problems": run.problems,
        "digests": run.digests,
        "seeded_digests": run.seeded_digests,
        "enclosures": run.enclosures,
        "enclosure_gap": run.enclosure_gap(),
        "ops": [name for name, _ in ops],
    }
    if args.trace:
        result["layers"] = tracer.metrics()
        result["op_seconds"] = tracer.op_seconds()
        result["self_time_residual_ns"] = tracer.self_time_residual_ns()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

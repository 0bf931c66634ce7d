"""Benchmark for lelekfan: time to a verified result, set-up, memory and failures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: legs, hausdorff-nested, hausdorff-crossed, certify (see
perfbench/README.md for why each exists and what should move on it).

The load is a closed loop with one client: this process starts one child
per sample and waits for it before starting the next, for about --seconds.
With --trace 0 it reports the end-to-end metrics: wall_s as the sum of each
operation's slowest time over the children, the others as medians.
With --trace 1 it alternates untraced and traced children and reports the
per-layer metrics of the traced ones plus the tracing overhead.

Every output is checked (see workloads.py). The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics. The exit
code is 0 when every output is correct, 1 when some output is wrong (the
result is still printed) and 2 when the benchmark could not run at all
(nothing is printed on stdout).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import PER_LAYER

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".perfbench-work"
REFERENCES = BENCH_DIR / "references.json"
WORKLOADS = ("legs", "hausdorff-nested", "hausdorff-crossed", "certify")

RUN_LIMIT_S = 150  # start no child expected to end after this
RUN_DEADLINE_S = 175  # kill a child still running then: a run must end within 180 s

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


@contextlib.contextmanager
def workspace():
    """A fresh directory under WORK_ROOT for the children's files, removed afterwards."""
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # another run still uses it


def spawn(
    workload, seed, workdir, *, trace=False, references=True, timeout=RUN_DEADLINE_S
) -> tuple[dict, str]:
    """Run one child to completion and return its JSON result and its stderr."""
    command = [sys.executable] + (["-X", "importtime"] if trace else [])
    command += [
        str(BENCH_DIR / "child.py"), "--workload", workload, "--seed", str(seed),
        "--workdir", str(workdir), "--t0", repr(time.monotonic()),
    ]
    if references:
        command += ["--references", str(REFERENCES)]
    if trace:
        command.append("--trace")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("FAN_THREADS", None)  # the CLI validates it; a caller's value must not fail the run
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1))
    except BaseException as exc:  # timeout or interrupt: never leave the child running
        proc.kill()
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchmarkError(f"{workload} child still running at the run's deadline") from exc
        raise
    if proc.returncode != 0 or not out.strip():
        tail = "\n".join(err.strip().splitlines()[-5:])
        raise BenchmarkError(f"{workload} child exited with {proc.returncode}:\n{tail}")
    return json.loads(out.strip().splitlines()[-1]), err


def import_seconds(stderr: str) -> dict[str, float]:
    """Cumulative import time of lelekfan and of numpy from -X importtime output."""
    found = {"init.import_s": 0.0, "init.numpy_import_s": 0.0}
    names = {"lelekfan": "init.import_s", "numpy": "init.numpy_import_s"}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) == 3 and fields[2].strip() in names and fields[1].strip().isdigit():
            found[names[fields[2].strip()]] = int(fields[1]) / 1e6
    return found


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def provenance(seed) -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "missing"
    return (
        f"provenance: nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
        f"numpy={numpy_version} commit={commit()} seed={seed}"
    )


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def collect(workload, seed, seconds, trace, workdir) -> dict:
    """Start children one at a time for about `seconds`; return their results."""
    started = time.monotonic()
    untraced, traced, stderrs = [], [], []
    round_s = []
    min_rounds = 2 if trace else 3
    def remaining():
        return started + RUN_DEADLINE_S - time.monotonic()

    while True:
        round_start = time.monotonic()
        untraced.append(spawn(workload, seed, workdir, timeout=remaining())[0])
        if trace:
            result, err = spawn(workload, seed, workdir, trace=True, timeout=remaining())
            traced.append(result)
            stderrs.append(err)
        now = time.monotonic()
        round_s.append(now - round_start)
        expected_end = now + statistics.median(round_s)
        if expected_end > started + RUN_LIMIT_S:
            break
        if len(untraced) >= min_rounds and expected_end > started + seconds:
            break
    return {"untraced": untraced, "traced": traced, "stderrs": stderrs}


def wall_s_estimate(children) -> float:
    """Sum over the operation list of each operation's slowest time among `children`.

    On a shared host the speed flips many times a second between a fast
    state and a slow one (contention on the physical core), and the share
    of fast time wanders over minutes. A child's whole time averages that
    share, so a median or mean of children wanders with it. The slow state
    itself is steady, and each operation's slowest time over the run's
    children is the one that ran in it; their sum is the time to run the
    list once on the host as it mostly is.
    """
    return sum(max(times) for times in zip(*(c["op_wall_s"] for c in children)))


def summary_lines(results) -> tuple[list[str], dict]:
    """Human-readable metric lines and the JSON metrics for the run."""
    children = results["untraced"] + results["traced"]
    untraced = results["untraced"]
    lines, metrics = [], {}
    if not results["traced"]:
        samples = {
            "setup_s": [c["setup_s"] for c in untraced],
            "peak_rss_mb": [c["peak_rss_mb"] for c in untraced],
        }
        for name, unit in END_TO_END:
            if name == "wall_s":
                value = wall_s_estimate(untraced)
                q1, median, q3 = quartiles([c["wall_s"] for c in untraced])
                lines.append(
                    f"{name:<14}{value:.6g} {unit}  sum of per-operation maxima over "
                    f"{len(untraced)} children (whole child: median {median:.6g}, "
                    f"q1 {q1:.6g}, q3 {q3:.6g})"
                )
            else:
                q1, value, q3 = quartiles(samples[name])
                lines.append(
                    f"{name:<14}{value:.6g} {unit}  median of {len(samples[name])} children "
                    f"(q1 {q1:.6g}, q3 {q3:.6g})"
                )
            metrics[name] = {"value": value, "unit": unit}
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    refused = sum(c["known_refusals"] for c in children)
    lines.append(
        f"{'failed_frac':<14}{(failed + refused) / attempted:.6g} ratio  "
        f"({failed} failed + {refused} known prime-bound refusals of {attempted} operations)"
    )
    gaps = [c["enclosure_gap"] for c in children if c["enclosure_gap"] is not None]
    if gaps:
        lines.append(f"{'enclosure_gap':<14}{max(gaps):.6g} (largest upper - lower)")

    if results["traced"]:
        layers = {
            name: statistics.median(c["layers"][name] for c in results["traced"])
            for name in results["traced"][0]["layers"]
        }
        imports = [import_seconds(err) for err in results["stderrs"]]
        for name in ("init.import_s", "init.numpy_import_s"):
            layers[name] = statistics.median(i[name] for i in imports)
        traced_wall = wall_s_estimate(results["traced"])
        untraced_wall = wall_s_estimate(untraced)
        layers["trace.overhead_s"] = traced_wall - untraced_wall
        for name, unit in PER_LAYER:
            metrics[name] = {"value": layers[name], "unit": unit}
            lines.append(f"{name:<46}{layers[name]:.6g} {unit}")
        lines.append(
            f"tracing overhead: traced wall_s {traced_wall:.6g} s - untraced {untraced_wall:.6g} s "
            f"= {traced_wall - untraced_wall:.6g} s over {len(results['traced'])} pairs"
        )
        lines.append("operation seconds (traced, first child):")
        lines += [f"  {op:<32}{seconds:.4f}" for op, seconds in results["traced"][0]["op_seconds"]]
    return lines, metrics


def run(workload, seed, seconds, trace) -> int:
    if not (ROOT / "src" / "lelekfan" / "__init__.py").is_file():
        raise BenchmarkError(f"no lelekfan sources under {ROOT / 'src'}")
    if not REFERENCES.is_file():
        raise BenchmarkError(f"missing {REFERENCES}")
    with workspace() as workdir:
        results = collect(workload, seed, seconds, trace, workdir)
    children = results["untraced"] + results["traced"]
    problems = []  # harness-level checks; each counts as one failed operation
    residuals = [c["self_time_residual_ns"] for c in results["traced"]]
    resolution_ns = time.get_clock_info("perf_counter").resolution * 1e9
    if any(abs(r) > resolution_ns for r in residuals):
        problems.append(f"self times do not sum to the root span: residuals {residuals} ns")
    if len({tuple(c["ops"]) for c in children}) != 1:
        problems.append("children ran different operation lists")

    lines, metrics = summary_lines(results)
    print(f"perfbench: workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print(provenance(seed))
    print(
        f"load: closed loop, 1 client, children one at a time; "
        f"{len(results['untraced'])} untraced, {len(results['traced'])} traced"
    )
    for line in lines:
        print(line)
    for problem in (problems + [p for c in children for p in c["problems"]])[:20]:
        print(f"FAILED {problem}")
    failed = len(problems) + sum(c["failed"] for c in children)
    result = {
        "correct": failed == 0,
        "attempted": len(problems) + sum(c["attempted"] for c in children),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

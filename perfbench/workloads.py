"""The four benchmark workloads: inputs made from a seed, operations, and output checks.

A workload is `setup(seed, workdir) -> inputs` plus `operations(inputs, run)`,
which returns the ordered (name, thunk) list the child process times. The
seed only changes sampled inputs (sample seeds, start values, leg orders);
the operation list is the same for every seed. Each thunk calls lelekfan's
public API, counts every call it makes as one attempted operation, and
checks the output: invariants on every seed, and digests against the
references recorded at a known-good commit where the benchmark has one.

The checks recompute what they can without lelekfan (t_max from a word,
witness powers, metric bounds, greedy climbs), so a fast but wrong path
fails here rather than passing against itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

import lelekfan as lf
import lelekfan.cli

R, RHO = Fraction(1, 2), Fraction(3)
# The second density pair has larger terms: longer climbs, ~100-bit denominators.
DENSITY_PAIRS = ((R, RHO), (Fraction(5, 7), Fraction(11, 4)))
DENSITY_DEPTH = 40
DENSITY_POINTS = 40
# Density climbs have heavy-tailed lengths (a few points climb for hundreds
# of steps with ~1500-bit denominators), so a seed-drawn sample would make
# the workload's cost depend on the seed far more than on the code. The
# density and embedding samples are therefore fixed; the seed draws the
# climb starts.
SAMPLE_SEED = 7
DELTA = Fraction(1, 100)
GRID = 8
GAP_SLACK = 0.01  # an enclosure may widen by 1% of the recorded gap (rounding-level padding)

# The C1 pool of the acceptance suite: every r = p/q in (0, 1) with q <= 30.
R_POOL = sorted({Fraction(p, q) for q in range(2, 31) for p in range(1, q)})
RHO_POOL = sorted({1 / r for r in R_POOL})
# Long loops run as several operations, each timed on its own (see run.py).
POOL_PARTS = 4
GREEDY_PARTS = 4

# (label, r, rho, true verdict, beyond DEFAULT_PRIME_BOUND). The truth is known
# by construction from the primes. Pairs under the bound factor by slow trial
# division; pairs beyond it raise ResourceError at the reference commit, which is
# counted as a known refusal and never hidden.
_P, _Q = 999983, 999979  # the two largest primes below 10**6
_U, _V = 1000003, 1000033  # the two smallest primes above 10**6
PRIME_PAIRS = (
    ("1/(p*q), p*q", Fraction(1, _P * _Q), Fraction(_P * _Q), (1, -1), False),
    ("1/p^2, p^3", Fraction(1, _P**2), Fraction(_P**3), (3, -2), False),
    ("1/u^2, u^3", Fraction(1, _U**2), Fraction(_U**3), (3, -2), True),
    ("1/(u*v), u*v", Fraction(1, _U * _V), Fraction(_U * _V), (1, -1), True),
    ("1/u, v", Fraction(1, _U), Fraction(_V), None, True),
)


class Run:
    """Attempted and failed operation counts, output digests and enclosures of one child."""

    def __init__(self, seed: int, references: dict | None):
        self.seed = seed
        self.references = references  # None while recording references
        self.attempted = 0
        self.failed = 0
        self.known_refusals = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.seeded_digests: dict[str, str] = {}
        self.enclosures: dict[str, list[float]] = {}

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, op: str, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{op}: {message}")

    def check(self, ok: bool, op: str, message: str) -> bool:
        if not ok:
            self.fail(op, message)
        return ok

    def digest(self, op: str, data, per_seed: bool = False) -> None:
        """Record an exact output's sha256 and compare it with the reference, if one exists.

        `data` is the output as bytes or text, or a hashlib.sha256 object
        already fed with it.
        """
        if isinstance(data, str):
            data = data.encode("utf-8")
        value = data.hexdigest() if hasattr(data, "hexdigest") else hashlib.sha256(data).hexdigest()
        (self.seeded_digests if per_seed else self.digests)[op] = value
        if self.references is None:
            return
        recorded = self.references["seeded"].get(str(self.seed)) if per_seed else self.references["fixed"]
        if recorded is None:
            return  # no references for this seed: the invariant checks still ran
        expected = recorded.get(op)
        if self.check(expected is not None, op, "no recorded reference"):
            self.check(value == expected, op, f"digest {value[:12]} != recorded {expected[:12]}")

    def enclosure(self, op: str, lower: float, upper: float) -> None:
        """Check an enclosure against its invariants and the one in the references."""
        self.enclosures[op] = [lower, upper]
        self.check(0.0 <= lower <= upper, op, f"enclosure [{lower}, {upper}] is not ordered")
        if self.references is not None:
            ref = self.references["enclosures"].get(op)
            if self.check(ref is not None, op, "no recorded enclosure"):
                ref_lower, ref_upper = ref
                self.check(
                    lower <= ref_upper and ref_lower <= upper,
                    op,
                    f"[{lower}, {upper}] misses the recorded [{ref_lower}, {ref_upper}]",
                )
                allowed = (ref_upper - ref_lower) * (1 + GAP_SLACK)
                self.check(upper - lower <= allowed, op, f"gap {upper - lower} exceeds {allowed}")

    def enclosure_gap(self) -> float | None:
        """Largest upper - lower over the enclosures of this run, if it made any."""
        gaps = [upper - lower for lower, upper in self.enclosures.values()]
        return max(gaps) if gaps else None


# --- independent recomputations -------------------------------------------


def expected_t_max(symbols) -> Fraction:
    """1/max(1, P_1, ..., P_n) from a word, with unreduced integer products."""
    num = den = best_num = best_den = 1
    for s in symbols:
        num *= s.numerator
        den *= s.denominator
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    return Fraction(best_den, best_num)


def check_fan(run: Run, op: str, fan, relation, depth: int, count: int) -> None:
    """Leg count, word alphabet and every t_max recomputed from its word."""
    slopes = set(relation.slopes)
    run.check(fan.relation == relation and fan.depth == depth, op, "wrong relation or depth")
    run.check(len(fan.legs) == count, op, f"{len(fan.legs)} legs, expected {count}")
    for leg in fan.legs:
        symbols = leg.word.symbols
        if len(symbols) != depth or not slopes.issuperset(symbols):
            run.fail(op, f"word {symbols} is not a depth-{depth} word of the relation")
            return
        if leg.t_max != expected_t_max(symbols):
            run.fail(op, f"t_max {leg.t_max} of word {symbols} is wrong")
            return


def enumerate_checked(run: Run, tag: str, relation, depth: int):
    run.attempt()
    fan = lf.enumerate_legs(relation, depth)
    check_fan(run, f"enumerate {tag}", fan, relation, depth, len(relation.slopes) ** depth)
    return fan


def svg_problem(svg: str, fan) -> str | None:
    distinct = len({leg.word.symbols for leg in fan.legs})
    if not (svg.startswith("<svg ") and svg.endswith("</svg>\n")):
        return "not a complete SVG document"
    if svg.count("<line ") != distinct:
        return f"{svg.count('<line ')} strokes for {distinct} distinct words"
    return None


def witness_problem(point, eps, witness, bound, cert, relation) -> str | None:
    """Check one density witness exactly, independently of lelekfan's metric code."""
    if bound > eps:
        return f"bound {bound} > epsilon {eps}"
    if not lf.membership(witness, relation):
        return "witness is not a point of the relation"
    e, x = witness.coords, point.coords
    if e == x:
        expected = Fraction(0)
    else:
        common = min(len(e), len(x))
        expected = sum(abs(e[k] - x[k]) / (1 << (k + 1)) for k in range(common)) + Fraction(1, 1 << common)
    if bound != expected:
        return f"bound {bound} != recomputed {expected}"
    peak = max(e)
    if cert.kind == "exact":
        return None if peak == 1 else "exact certificate without a coordinate equal to 1"
    if cert.delta != 1 - peak or cert.delta > DELTA:
        return f"approximate certificate delta {cert.delta} (peak {peak})"
    return None


def greedy_problem(x, steps: int, trace) -> str | None:
    """Recompute the greedy climb with unreduced integers and compare every step."""
    num, den = x.numerator, x.denominator
    best_num, best_den = num, den
    if trace.start != x or len(trace.symbols) != steps or len(trace.partials) != steps:
        return "wrong start or length"
    for symbol, partial in zip(trace.symbols, trace.partials):
        if num * RHO.numerator <= den * RHO.denominator:
            expected, num, den = RHO, num * RHO.numerator, den * RHO.denominator
        else:
            expected, num, den = R, num * R.numerator, den * R.denominator
        if symbol != expected or partial.numerator * den != num * partial.denominator:
            return "climb differs from the greedy rule"
        if num * best_den > best_num * den:
            best_num, best_den = num, den
    if trace.running_max.numerator * best_den != best_num * trace.running_max.denominator:
        return "wrong running maximum"
    return None


def _random_start(rng: random.Random, low: float, high: float) -> Fraction:
    """A start in (low, high) with a denominator up to 10**6."""
    den = rng.randint(10**5, 10**6)
    return Fraction(rng.randint(int(low * den) + 1, int(high * den) - 1), den)


def _cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lf.cli.main(argv)
    return code, out.getvalue()


# --- legs ------------------------------------------------------------------


def legs_setup(seed: int, workdir: str) -> dict:
    rng = random.Random(seed)
    return {
        "workdir": workdir,
        "enumerated": (
            ("F7", lf.fan_relation(R, RHO), 7),
            ("G10", lf.cantor_relation(R), 10),
            ("L10", lf.line_pair_relation(R, RHO), 10),
        ),
        "sampled": ("S60", lf.fan_relation(R, RHO), 60, 300, rng.randrange(2**31)),
    }


def legs_operations(inputs: dict, run: Run) -> list:
    fans: dict = {}
    loaded: dict = {}
    seeded = {inputs["sampled"][0]}

    def path(tag):
        return os.path.join(inputs["workdir"], f"{tag}.json")

    def enumerate_op(tag, relation, depth):
        def op():
            fans[tag] = enumerate_checked(run, tag, relation, depth)
        return op

    def sample_op(tag, relation, depth, count, sample_seed):
        def op():
            run.attempt()
            fan = lf.FanApprox(relation, depth, lf.sample_legs(relation, depth, count, sample_seed))
            check_fan(run, f"sample {tag}", fan, relation, depth, count)
            fans[tag] = fan
        return op

    def save_op(tag):
        def op():
            run.attempt()
            lf.save_fan(fans[tag], path(tag))
            with open(path(tag), "rb") as handle:
                run.digest(f"save {tag}", handle.read(), per_seed=tag in seeded)
        return op

    def load_op(tag):
        def op():
            run.attempt()
            fan = lf.load_fan(path(tag))
            run.check(fan == fans[tag], f"load {tag}", "loaded fan differs from the saved one")
            loaded[tag] = fan
        return op

    def render_op(tag, angle_map):
        def op():
            run.attempt()
            svg = lf.render_fan(loaded[tag], lf.RenderConfig(angle_map=angle_map))
            name = f"render {tag} {angle_map}"
            problem = svg_problem(svg, loaded[tag])
            run.check(problem is None, name, str(problem))
            run.digest(name, svg, per_seed=tag in seeded)
        return op

    def endpoints_op():
        run.attempt()
        code, out = _cli(["endpoints", "--in", path("F7")])
        report = json.loads(out)
        total = report["total"]
        run.check(
            code == 0 and total == len(fans["F7"].legs) == len(report["legs"])
            and report["exact"] + report["approximate"] + report["not_certified"] == total,
            "endpoints F7",
            f"exit {code}, inconsistent counts",
        )
        run.digest("endpoints F7", out)

    tags = [t for t, _, _ in inputs["enumerated"]] + [inputs["sampled"][0]]
    ops = [(f"enumerate {t}", enumerate_op(t, r, d)) for t, r, d in inputs["enumerated"]]
    ops.append((f"sample {inputs['sampled'][0]}", sample_op(*inputs["sampled"])))
    ops += [(f"save {t}", save_op(t)) for t in tags]
    for t in tags:
        ops.append((f"load {t}", load_op(t)))
        ops += [(f"render {t} {m}", render_op(t, m)) for m in (lf.ANGLE_CANTOR, lf.ANGLE_UNIFORM)]
    ops.append(("endpoints F7", endpoints_op))
    return ops


# --- hausdorff-nested and hausdorff-crossed ----------------------------------


def _fans_setup(seed: int, specs) -> dict:
    # The seed picks the leg order of every fan. Enclosures are a max of
    # mins, so they must not depend on it; a shortcut that relies on the
    # library's lexicographic order would.
    rng = random.Random(seed)
    orders = {}
    for tag, relation, depth in specs:
        n = len(relation.slopes) ** depth
        orders[tag] = rng.sample(range(n), n)
    return {"specs": specs, "orders": orders}


def _fans_operations(inputs: dict, run: Run, comparisons) -> list:
    fans: dict = {}

    def enumerate_op(tag, relation, depth):
        def op():
            fan = enumerate_checked(run, tag, relation, depth)
            legs = tuple(fan.legs[i] for i in inputs["orders"][tag])
            fans[tag] = lf.FanApprox(relation, depth, legs)
        return op

    def compare_op(name, kind, a, b):
        def op():
            run.attempt()
            func = lf.hausdorff if kind == "hausdorff" else lf.directed_hausdorff
            lower, upper = func(fans[a], fans[b], GRID)
            run.enclosure(name, lower, upper)
        return op

    ops = [(f"enumerate {t}", enumerate_op(t, r, d)) for t, r, d in inputs["specs"]]
    for kind, a, b in comparisons:
        name = f"{kind} {a} {b}"
        ops.append((name, compare_op(name, kind, a, b)))
    return ops


def nested_setup(seed: int, workdir: str) -> dict:
    f = lf.fan_relation(R, RHO)
    specs = (
        ("F5", f, 5),
        ("F5'", f, 5),
        ("F7", f, 7),
        ("G7", lf.cantor_relation(R), 7),
        ("L7", lf.line_pair_relation(R, RHO), 7),
    )
    return _fans_setup(seed, specs)


# Every word of the first fan is a word of the second, so each true distance is 0.
NESTED = (("hausdorff", "F5", "F5'"), ("directed", "G7", "F7"), ("directed", "L7", "F7"))
# Almost no shared words; the true distances are about 0.27.
CROSSED = (("hausdorff", "G8", "L8"), ("directed", "F7", "L7"))


def nested_operations(inputs: dict, run: Run) -> list:
    return _fans_operations(inputs, run, NESTED)


def crossed_setup(seed: int, workdir: str) -> dict:
    specs = (
        ("G8", lf.cantor_relation(R), 8),
        ("L8", lf.line_pair_relation(R, RHO), 8),
        ("F7", lf.fan_relation(R, RHO), 7),
        ("L7", lf.line_pair_relation(R, RHO), 7),
    )
    return _fans_setup(seed, specs)


def crossed_operations(inputs: dict, run: Run) -> list:
    return _fans_operations(inputs, run, CROSSED)


# --- certify ---------------------------------------------------------------


def certify_setup(seed: int, workdir: str) -> dict:
    rng = random.Random(seed)
    return {
        "greedy_starts": [_random_start(rng, 0, 1) for _ in range(100)],
        # The oracle's search size depends on the start's magnitude, so one
        # start per tenth of (0, 1) keeps its cost steady across seeds.
        "oracle_starts": [_random_start(rng, i / 10, (i + 1) / 10) for i in range(10)],
    }


def _witness_ok(run: Run, op: str, r, rho, k, l, truth) -> None:
    run.check(
        (k, l) == truth and k > 0 and r**k == rho**l,
        op,
        f"witness ({k}, {l}) does not check exactly (expected {truth})",
    )


def certify_operations(inputs: dict, run: Run) -> list:
    bounds: dict = {}

    pool_lines: list = []

    def pool_op(part):
        # The pool runs as POOL_PARTS operations of whole rows, so each is
        # timed on its own; the last one digests the verdicts of all of them.
        def op():
            for r in R_POOL[part::POOL_PARTS]:
                for rho in RHO_POOL:
                    run.attempt()
                    try:
                        verdict = lf.check_nc(r, rho)
                    except lf.FanError as exc:
                        run.fail("check_nc pool", f"({r}, {rho}): {exc!r}")
                        continue
                    if not verdict.is_nc:
                        k, l = verdict.witness
                        run.check(k > 0 and r**k == rho**l, "check_nc pool", f"({r}, {rho}) witness fails")
                        pool_lines.append((r, rho, k, l))
            if part == POOL_PARTS - 1:
                lines = [f"{r} {rho} {k} {l}" for r, rho, k, l in sorted(pool_lines)]
                run.digest("check_nc pool", f"{len(R_POOL)}x{len(RHO_POOL)}\n" + "\n".join(lines))
        return op

    def primes_op():
        for label, r, rho, truth, past_bound in PRIME_PAIRS:
            op = f"check_nc {label}"
            run.attempt()
            try:
                verdict = lf.check_nc(r, rho)
            except lf.ResourceError as exc:
                if past_bound:
                    run.known_refusals += 1
                else:
                    run.fail(op, f"ResourceError under the prime bound: {exc}")
                continue
            if truth is None:
                run.check(verdict.is_nc, op, "independent pair reported dependent")
            elif run.check(not verdict.is_nc, op, "dependent pair reported independent"):
                _witness_ok(run, op, r, rho, *verdict.witness, truth)

    points: dict = {}

    def density_op(index, eps):
        # One operation per pair and epsilon, so each is timed on its own; the
        # pair's first operation samples the points the others reuse.
        r, rho = DENSITY_PAIRS[index]
        relation = lf.fan_relation(r, rho)
        name = f"density {r} {rho} eps {eps}"

        def op():
            if index not in points:
                run.attempt()
                points[index] = lf.sample_deep_points(relation, DENSITY_DEPTH, DENSITY_POINTS, SAMPLE_SEED)
            hasher = hashlib.sha256()
            worst = Fraction(0)
            for point in points[index]:
                run.attempt()
                try:
                    witness, bound, cert = lf.density_witness(point, eps, r, rho)
                except lf.FanError as exc:
                    run.fail(name, repr(exc))
                    continue
                problem = witness_problem(point, eps, witness, bound, cert, relation)
                run.check(problem is None, name, str(problem))
                worst = max(worst, bound)
                # Hex keeps hashing linear in the size of the ~1500-bit coordinates.
                for q in (*witness.coords, bound, cert.delta):
                    hasher.update(b"%x/%x," % (q.numerator, q.denominator))
                hasher.update(cert.kind.encode() + b"\n")
            bounds[(index, eps)] = worst
            run.digest(name, hasher)
        return name, op

    def cli_density_op():
        run.attempt()
        eps = Fraction(1, 64)
        code, out = _cli([
            "density", "--r", str(R), "--rho", str(RHO), "--depth", str(DENSITY_DEPTH),
            "--samples", str(DENSITY_POINTS), "--seed", str(SAMPLE_SEED),
            "--epsilon", str(eps),
        ])
        report = json.loads(out)
        # Same seed and sizes as the library sweep, so the worst bound must agree.
        run.check(
            code == 0 and report["pass"] and Fraction(report["max_bound"]) == bounds.get((0, eps)),
            "cli density",
            f"exit {code}, pass {report['pass']}, max_bound {report['max_bound']}",
        )
        run.digest("cli density", out)

    def cli_embed_op():
        run.attempt()
        code, out = _cli(["embed-check", "--depth", "6", "--samples", "100", "--seed", str(SAMPLE_SEED)])
        report = json.loads(out)
        run.check(code == 0 and report["pass"], "cli embed-check", f"exit {code}, pass {report['pass']}")
        run.digest("cli embed-check", out)

    def greedy_op(part):
        def op():
            for x in inputs["greedy_starts"][part::GREEDY_PARTS]:
                run.attempt()
                problem = greedy_problem(x, 400, lf.greedy_sequence(x, R, RHO, 400))
                run.check(problem is None, "greedy", f"start {x}: {problem}")
        return op

    def oracle_op():
        for x in inputs["oracle_starts"]:
            run.attempt(2)
            oracle = lf.oracle_best_sequence(x, R, RHO, 14)
            greedy = lf.greedy_sequence(x, R, RHO, 14)
            partials, current = [], x
            for s in oracle.symbols:
                current *= s
                partials.append(current)
            run.check(
                tuple(partials) == oracle.partials
                and all(0 < p <= 1 for p in partials)
                and oracle.running_max == max([x] + partials) == greedy.running_max,
                "oracle",
                f"start {x}: oracle and greedy climbs disagree",
            )

    return [
        *((f"check_nc pool {i + 1}/{POOL_PARTS}", pool_op(i)) for i in range(POOL_PARTS)),
        ("check_nc primes", primes_op),
        *(density_op(index, eps) for index in range(len(DENSITY_PAIRS)) for eps in lf.DENSITY_EPSILONS),
        ("cli density", cli_density_op),
        ("cli embed-check", cli_embed_op),
        *((f"greedy {i + 1}/{GREEDY_PARTS}", greedy_op(i)) for i in range(GREEDY_PARTS)),
        ("oracle", oracle_op),
    ]


WORKLOADS = {
    "legs": (legs_setup, legs_operations),
    "hausdorff-nested": (nested_setup, nested_operations),
    "hausdorff-crossed": (crossed_setup, crossed_operations),
    "certify": (certify_setup, certify_operations),
}

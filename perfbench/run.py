"""Closed-loop benchmark of skewpoisson: the time to a certified verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one thread, one operation at a time.  A run repeats whole
rounds of the workload's operations until ``--seconds`` have passed.  A
set-up is a fresh import of ``skewpoisson`` from ``src/`` plus the workload's
shared inputs; a timed run sets up again every ``SETUP_EVERY`` seconds,
before the next round, and reports the median as ``setup_s``.
Every output is checked against a computation made apart from the program
(see ``checks.py``).  The last line of stdout is the result as JSON.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
operation untraced and then with the program's public functions wrapped
(see ``tracing.py``), and reports the per-layer metrics per traced
operation plus the tracing overhead.  Both write their samples to
``.perfbench-out/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time

import checks
import tracing
import workloads

SETUP_EVERY = 1.0  # seconds of a timed run between two set-ups
OUT_DIR = workloads.ROOT / ".perfbench-out"
TAIL_BEYOND = 10  # samples the tail percentile must leave above it

# Every per-layer metric: its name, the traced function and the field of its
# ``tracing.Stat`` that it reports, per operation.  ``incl`` and ``self`` are
# inclusive and self seconds; ``general`` counts substitutions off the
# monomial fast path; ``images`` counts candidate multiplier monomials.
LAYER_METRICS = (
    ("groups.generate_group.self_s", "groups.generate_group", "self"),
    ("groups.tables_s", "groups.FiniteMatrixGroup.__init__", "incl"),
    ("linalg.mat_mul.calls", "linalg.mat_mul", "calls"),
    ("linalg.det_generic.s", "linalg.det_generic", "incl"),
    ("invariants.molien_coefficients.s", "invariants.molien_coefficients", "incl"),
    ("invariants.reynolds.calls", "invariants.reynolds", "calls"),
    ("invariants.reynolds.self_s", "invariants.reynolds", "self"),
    ("invariants.invariant_basis.s", "invariants.invariant_basis", "incl"),
    ("poly.substitute_linear.calls", "poly.substitute_linear", "calls"),
    ("poly.substitute_linear.general_calls", "poly.substitute_linear", "general"),
    ("poly.substitute_linear.self_s", "poly.substitute_linear", "self"),
    ("groups.act_on_poly.calls", "groups.act_on_poly", "calls"),
    ("groups.act_on_poly.self_s", "groups.act_on_poly", "self"),
    ("skew.hh0_project.calls", "skew.hh0_project", "calls"),
    ("skew.hh0_project.self_s", "skew.hh0_project", "self"),
    ("linalg.RowSpace.add.calls", "linalg.RowSpace.add", "calls"),
    ("linalg.RowSpace.add.s", "linalg.RowSpace.add", "incl"),
    ("obstruction.solve_sigma.calls", "obstruction.solve_sigma", "calls"),
    ("obstruction.solve_sigma.s", "obstruction.solve_sigma", "incl"),
    ("obstruction.sigma_image_basis.self_s", "obstruction.sigma_image_basis", "self"),
    ("obstruction.images", "obstruction.sigma_image_basis", "images"),
    ("obstruction.target_poly.calls", "obstruction.target_poly", "calls"),
    ("invariants.is_invariant.calls", "invariants.is_invariant", "calls"),
    ("obstruction.multiplier_image_generators.s", "obstruction.multiplier_image_generators", "incl"),
    ("obstruction.replay_certificate.s", "obstruction.replay_certificate", "incl"),
    ("parse.parse_poly.calls", "parse.parse_poly", "calls"),
    ("parse.parse_poly.s", "parse.parse_poly", "incl"),
    ("config.build_group.s", "config.ScenarioConfig.build_group", "incl"),
    ("invariants.verify_relations.s", "invariants.verify_relations", "incl"),
    ("report.to_machine.s", "report.Report.to_machine", "incl"),
)
UNITS = {"calls": "count/op", "general": "count/op", "images": "count/op",
         "incl": "s/op", "self": "s/op"}


def layer_metrics(tracer, ops):
    """The per-layer metrics per operation (0 for a layer the workload never
    enters), and a table of calls, inclusive and self seconds per operation
    for every traced function they read."""
    empty = tracing.Stat()

    def stat(fn):
        return tracer.stats.get(fn, empty)

    metrics = {name: metric(getattr(stat(fn), field) / ops, UNITS[field])
               for name, fn, field in LAYER_METRICS}
    functions = dict.fromkeys(fn for _, fn, _ in LAYER_METRICS)
    table = [f"{'layer':42s} {'calls/op':>10s} {'s/op':>10s} {'self s/op':>10s}"] + [
        f"{fn:42s} {stat(fn).calls / ops:10.6g} {stat(fn).incl / ops:10.6g} "
        f"{stat(fn).self / ops:10.6g}" for fn in functions
    ]
    return metrics, table


def tail(samples):
    """The highest order statistic with ``TAIL_BEYOND`` samples above it, and
    its percentile; ``None`` with fewer than 40 samples."""
    if len(samples) < 4 * TAIL_BEYOND:
        return None
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def set_up(wl, seed, setups):
    """A fresh import of the program and the workload's shared inputs; the
    time taken is appended to ``setups``."""
    t0 = time.perf_counter()
    program = workloads.load_program()
    state = wl.setup(program, seed)
    setups.append(time.perf_counter() - t0)
    return program, state


class Loop:
    """Runs the operations of one workload and checks every output."""

    def __init__(self, workload, ref):
        self.workload, self.ref = workload, ref
        self.times, self.attempted, self.failed, self.wrong = [], 0, 0, []

    def run(self, program, case):
        """Run and check one operation; returns its seconds, or ``None`` if
        it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            output = self.workload.run(program, case)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            print(f"operation failed: {exc!r}", file=sys.stderr)
            return None
        took = time.perf_counter() - t0
        self.times.append(took)
        try:
            self.workload.check(self.ref, case, output)
        except (checks.CheckError, KeyError, TypeError, ValueError) as exc:
            self.wrong.append(f"{type(exc).__name__}: {exc}")
        return took


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]

    setups = []
    try:
        program, state = set_up(wl, args.seed, setups)
    except ImportError as exc:
        print(f"cannot import the program: {exc}", file=sys.stderr)
        return 2
    loop = Loop(wl, wl.reference(args.seed))
    clock, start = time.perf_counter, time.perf_counter()

    if args.trace:
        # Each operation runs untraced, then at once traced; the overhead is
        # the median over operations of the traced minus the untraced time.
        tracer = tracing.Tracer()
        patches = tracer.plan(program)
        ops, overheads = 0, []
        while clock() - start < args.seconds:
            for case in wl.round(state):
                plain = loop.run(program, case)
                tracing.install(patches)
                traced = loop.run(program, case)
                tracing.uninstall(patches)
                if traced is not None:
                    ops += 1
                    if plain is not None:
                        overheads.append(traced - plain)
        metrics, table = layer_metrics(tracer, ops)
        metrics["trace.overhead_s"] = metric(statistics.median(overheads), "s/op")
        print("\n".join(table))
        print(f"{ops} traced operations; trace.overhead_s {statistics.median(overheads):.6f}")
        samples = {"overhead_s": overheads, "functions": {
            name: {"calls": s.calls, "incl_s": s.incl, "self_s": s.self}
            for name, s in sorted(tracer.stats.items()) if s.calls}}
    else:
        # Set-ups are spread over the run, so that their median sees the
        # same spells of a shared machine's speed as the operations do.  The
        # previous program is freed first, untimed, so that no set-up pays
        # for collecting it and the run never holds two.
        while (elapsed := clock() - start) < args.seconds:
            while len(setups) < 1 + elapsed / SETUP_EVERY:
                program = state = case = None
                gc.collect()
                program, state = set_up(wl, args.seed, setups)
            for case in wl.round(state):
                loop.run(program, case)
        metrics = {
            "op_s.p50": metric(statistics.median(loop.times), "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        samples = {"op_s": loop.times, "setup_s": setups}
        high = tail(loop.times)
        if high is not None:
            print(f"op_s.tail {high[0]:.6f} s (p{high[1]:.1f} of {len(loop.times)} operations)")
        print(f"{len(loop.times)} operations timed, {len(setups)} set-ups")

    for message in loop.wrong[:3]:
        print(f"wrong answer: {message}", file=sys.stderr)
    result = {
        "correct": not loop.wrong,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({"result": result, "samples": samples}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

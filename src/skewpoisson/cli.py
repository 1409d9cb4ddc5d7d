"""Command-line driver and report builder.

Subcommands::

    group        order, conjugacy classes, centralizers, symplecticity
    invariants   generator invariance, Molien vs generator spans, relations
    bracket      Poisson bracket of two polynomial expressions
    project      class projections of an ad-hoc skew element
    obstruction  the full counterexample pipeline on a scenario
    selftest     the deterministic property suites

Every report is built here, from the core modules, which know nothing of
configs or reports; :func:`run_counterexample` builds the ``obstruction``
report stage by stage.  Every command but ``selftest`` reads a scenario
config (``--config PATH``; default is the bundled counterexample), and every
command renders its report as plain text or as canonical JSON (``--format
machine``), which is byte-identical across runs for a fixed config and
version.

Dispatch: :func:`build_parser` builds the argument parser once per process,
at first use, and each subcommand's parser carries the function that turns
its parsed arguments into a report; :func:`main` parses, runs that function,
writes the report and maps it to an exit code.

Exit codes: 0 when the command decided what it set out to decide (an
obstruction verdict of feasible or infeasible-at-all-degrees counts as
decided), 1 when an obstruction run stays inconclusive beyond its degree
bound, 2 for configuration problems, 3 for internal invariant violations.
"""

from __future__ import annotations

import argparse
import functools
import sys
from math import comb
from typing import Optional, Sequence

from ._version import __version__
from .config import ConfigError, ScenarioConfig
from .groups import FiniteMatrixGroup, is_symplectic
from .invariants import generator_spans, is_invariant, verify_relations
from .obstruction import Certificate, ObstructionProblem, Verdict, solve_ladder
from .poly import Polynomial, SymplecticForm, format_poly, poisson_bracket, variable_name
from .report import Report, STATUS_ERROR, STATUS_FINDING, STATUS_OK
from .selftest import DEFAULT_SEED, run_selftest
from .skew import SkewElement, project_term, trace_vector

EXIT_OK = 0
EXIT_INCONCLUSIVE = 1
EXIT_CONFIG = 2
EXIT_INTERNAL = 3

# ``invariants --degree D`` row-reduces the generators' images of every
# monomial of degree 0..D, and ``obstruction --degree D`` projects every
# multiplier monomial of degree 0..D: C(D + n, n) of them in n variables;
# 5000 admits degree 16 in 4 variables
MAX_DEGREE_MONOMIALS = 5000


def _check_degree_budget(degree: int, nvars: int, source: str = "--degree") -> None:
    """Reject a degree whose monomials exceed the work budget; ``source``
    names the option or config path the degree came from."""
    if degree < 0:
        raise ConfigError(source, "must be non-negative")
    monomials = comb(degree + nvars, nvars)
    if monomials > MAX_DEGREE_MONOMIALS:
        raise ConfigError(
            source,
            f"degree {degree} in {nvars} variables means {monomials} monomials, "
            f"over the limit of {MAX_DEGREE_MONOMIALS}",
        )


# ----------------------------------------------------------------------
# subcommand implementations


def _add_symplectic_stage(report: Report, group: FiniteMatrixGroup,
                          form: SymplecticForm) -> bool:
    """Add the per-element symplecticity stage; True when every element
    preserves the form."""
    flags = [
        {"element": g.word, "symplectic": is_symplectic(g.matrix, form)}
        for g in group.elements
    ]
    all_symp = all(f["symplectic"] for f in flags)
    report.add("symplectic", STATUS_OK if all_symp else STATUS_FINDING, {
        "all_symplectic": all_symp,
        "elements": flags,
    })
    return all_symp


def cmd_group(config: ScenarioConfig) -> Report:
    report = Report(command="group")
    form = config.build_form()
    group = config.build_group()
    report.add("group", STATUS_OK, {
        "order": group.order,
        "dimension": group.dim,
        "generators": list(group.generator_names),
        "elements": [{"index": i, "word": g.word} for i, g in enumerate(group.elements)],
    })
    class_rows = [
        {
            "class": cls.index,
            "representative": group.elements[cls.representative].word,
            "size": cls.size,
            "members": ", ".join(group.elements[m].word for m in cls.members),
            "centralizer_order": len(cls.centralizer),
        }
        for cls in group.classes
    ]
    report.add("classes", STATUS_OK, {"count": len(group.classes),
                                      "classes": class_rows})
    all_symp = _add_symplectic_stage(report, group, form)
    report.verdict = (
        f"order {group.order}; {len(group.classes)} conjugacy classes; "
        + ("all elements symplectic" if all_symp else "NON-SYMPLECTIC elements present")
    )
    return report


def cmd_invariants(config: ScenarioConfig, up_to_degree: int) -> Report:
    report = Report(command="invariants")
    group = config.build_group()
    gens = config.build_generator_set()
    rows = [
        {"name": n, "degree": p.total_degree(),
         "invariant": is_invariant(group, p)}
        for n, p in gens.items()
    ]
    all_inv = all(r["invariant"] for r in rows)
    report.add("invariance", STATUS_OK if all_inv else STATUS_FINDING, {
        "all_invariant": all_inv,
        "generators": rows,
    })
    if all_inv:
        span = generator_spans(group, gens, up_to_degree)
        degree_rows = [
            {
                "degree": r.degree,
                "molien": r.molien,
                "invariant_slice": r.slice_dim,
                "generator_span": r.span_dim,
                "deficient": r.deficient,
            }
            for r in span
        ]
        deficient = [r.degree for r in span if r.deficient]
        report.add("molien", STATUS_FINDING if deficient else STATUS_OK, {
            "degrees": degree_rows,
            "deficient_degrees": deficient,
        })
        span_note = (f"deficient at degrees {deficient}" if deficient
                     else "generator spans fill every degree")
    else:
        report.add("molien", STATUS_FINDING,
                   {"skipped": "generator set is not invariant"})
        span_note = "span comparison skipped"
    if config.relation_set:
        residuals = verify_relations(gens, config.build_relation_set())
        rel_rows = [
            {"name": n, "zero": r.is_zero, "residual": format_poly(r)}
            for n, r in residuals.items()
        ]
        nonzero = sum(not r.is_zero for r in residuals.values())
        report.add("relations", STATUS_FINDING if nonzero else STATUS_OK,
                   {"relations": rel_rows, "nonzero_residuals": nonzero})
        rel_note = (f"{nonzero} relation(s) with NONZERO residual" if nonzero
                    else "all relation residuals vanish")
    else:
        report.add("relations", STATUS_OK, {"relations": [],
                                            "nonzero_residuals": 0})
        rel_note = "no relations configured"
    inv_note = ("all generators invariant" if all_inv
                else "NON-INVARIANT generators present")
    report.verdict = f"{inv_note}; {span_note}; {rel_note}"
    return report


def cmd_bracket(config: ScenarioConfig, first: str, second: str) -> Report:
    report = Report(command="bracket")
    form = config.build_form()
    p = config.polynomial_or_inline(first, "first")
    q = config.polynomial_or_inline(second, "second")
    result = poisson_bracket(p, q, form)
    report.add("bracket", STATUS_OK, {
        "first": format_poly(p),
        "second": format_poly(q),
        "bracket": format_poly(result),
    })
    report.verdict = format_poly(result)
    return report


def cmd_project(config: ScenarioConfig, parts: list,
                class_index: Optional[int] = None) -> Report:
    report = Report(command="project")
    group = config.build_group()
    assembled = {}
    for item in parts:
        word, sep, text = item.partition(":")
        if not sep:
            raise ConfigError("--part", f"expected WORD:POLY, got {item!r}")
        idx = group.element_from_word(word)
        poly = config.polynomial_or_inline(text.strip(), "--part")
        assembled.setdefault(idx, []).append(poly)
    element = SkewElement(group, {idx: Polynomial.sum(config.nvars, polys)
                                  for idx, polys in assembled.items()})
    components = trace_vector(element)
    if class_index is not None:
        if not 0 <= class_index < len(group.classes):
            raise ConfigError("--class-index",
                              f"must be in 0..{len(group.classes) - 1}")
        wanted = [class_index]
    else:
        wanted = list(range(len(group.classes)))
    rows = [
        {
            "class": i,
            "representative": group.elements[group.classes[i].representative].word,
            "projection": format_poly(components[i]),
        }
        for i in wanted
    ]
    report.add("projection", STATUS_OK, {
        "element": [
            {"element": group.elements[i].word, "poly": format_poly(p)}
            for i, p in element.parts()
        ],
        "components": rows,
        "trace_vector_valid": all(project_term(group, c, i) == c
                                  for i, c in enumerate(components)),
    })
    report.verdict = "; ".join(
        f"class {r['class']}: {r['projection']}" for r in rows
    )
    return report


def _certificate_payload(cert: Certificate) -> dict:
    payload = {
        "verdict": cert.verdict.value,
        "target": format_poly(cert.target),
    }
    if cert.sigma is not None:
        payload["sigma"] = format_poly(cert.sigma)
    if cert.rank_data is not None:
        payload["rank_data"] = {
            "rows": cert.rank_data.rows,
            "cols": cert.rank_data.cols,
            "rank": cert.rank_data.rank,
            "residual": format_poly(cert.rank_data.residual),
        }
    if cert.divisor_witness is not None:
        payload["divisor_witness"] = variable_name(cert.divisor_witness)
        payload["image_generators"] = [format_poly(p) for p in cert.divisor_images]
    return payload


def _error_payload(exc: Exception) -> dict:
    """A failed stage's payload: a ``RuntimeError`` is internal, all else config."""
    kind = "internal" if isinstance(exc, RuntimeError) else "config"
    return {"message": str(exc), "kind": kind}


def run_counterexample(
    config: ScenarioConfig,
    degree_ladder: Optional[Sequence[int]] = None,
    psi_names: Optional[Sequence[str]] = None,
) -> Report:
    """Execute the whole pipeline on a scenario and report stage by stage.

    Stages: group construction, symplecticity, generator invariance,
    relation residuals, then per ``psi`` the target, the degree ladder of
    linear solves, and the divisor certificate.  Any failure is attributed
    to its stage; nothing after a failed stage runs.  ``psi_names`` that
    repeat a name, and ``psi_names`` or a ``degree_ladder`` without an
    obstruction section to apply to, raise :class:`ConfigError` first.
    """
    sweep = tuple(psi_names or ())
    if sweep and config.obstruction is None:
        raise ConfigError("--psi", "needs the phi and class_rep of the config's "
                                   "obstruction section, and it has none")
    if degree_ladder is not None and config.obstruction is None:
        raise ConfigError("--degree", "replaces the degree_ladder of the config's "
                                      "obstruction section, and it has none")
    for k, name in enumerate(sweep):
        if name in sweep[:k]:
            raise ConfigError("--psi", f"{name!r} is given more than once")
    report = Report(command="obstruction")

    def fail(stage: str, exc: Exception) -> Report:
        report.add(stage, STATUS_ERROR, _error_payload(exc))
        report.verdict = f"error in stage {stage!r}"
        return report

    try:
        form = config.build_form()
        group = config.build_group()
    except ValueError as exc:
        return fail("group", exc)
    report.add("group", STATUS_OK, {
        "order": group.order,
        "classes": len(group.classes),
    })
    _add_symplectic_stage(report, group, form)

    try:
        gens = config.build_generator_set()
        invariance = [
            {"name": n, "invariant": is_invariant(group, p)}
            for n, p in gens.items()
        ]
    except ValueError as exc:
        return fail("generators", exc)
    all_inv = all(row["invariant"] for row in invariance)
    report.add("generators", STATUS_OK if all_inv else STATUS_FINDING, {
        "all_invariant": all_inv,
        "generators": invariance,
    })

    rel_rows = []
    status = STATUS_OK
    try:
        if config.relation_set:
            residuals = verify_relations(gens, config.build_relation_set())
            rel_rows = [
                {"name": n, "residual": format_poly(r), "zero": r.is_zero}
                for n, r in residuals.items()
            ]
            if not all(r.is_zero for r in residuals.values()):
                status = STATUS_FINDING
    except ValueError as exc:
        return fail("relations", exc)
    report.add("relations", status, {"relations": rel_rows})

    if config.obstruction is None:
        report.verdict = "no obstruction instance configured"
        return report
    spec = config.obstruction
    ladder = tuple(degree_ladder) if degree_ladder is not None else spec.degree_ladder
    sweep = sweep or (spec.psi,)

    try:
        if not ladder:
            raise ConfigError("obstruction.degree_ladder", "must not be empty")
        if group.order == 1:
            raise ConfigError("obstruction.class_rep",
                              "no non-identity class exists in the trivial group")
        phi = config.polynomial_or_inline(spec.phi)
        class_index = group.class_of(group.element_from_word(spec.class_rep))
        if class_index == 0:
            raise ConfigError("obstruction.class_rep",
                              "the word resolves to the identity class")
    except ValueError as exc:
        return fail("target", exc)

    final_verdicts = []
    for psi_name in sweep:
        stage_prefix = f"psi={psi_name}"
        try:
            psi = config.polynomial_or_inline(psi_name)
            problem = ObstructionProblem(group, phi, psi, class_index, ladder[-1], form)
        except ValueError as exc:
            return fail(f"{stage_prefix}:target", exc)
        report.add(f"{stage_prefix}:target", STATUS_OK, {
            "phi": spec.phi,
            "psi": psi_name,
            "class_rep": spec.class_rep,
            "class_index": class_index,
            "bracket": format_poly(problem.bracket),
            "target": format_poly(problem.target),
        })

        steps = []
        try:
            for bound, cert in zip(ladder, solve_ladder(problem, ladder)):
                steps.append({"degree": bound, **_certificate_payload(cert)})
        except (ValueError, RuntimeError) as exc:
            return fail(f"{stage_prefix}:ladder", exc)
        report.add(f"{stage_prefix}:ladder", STATUS_OK, {"steps": steps})

        final_verdicts.append((psi_name, cert))
        report.add(f"{stage_prefix}:certificate", STATUS_OK,
                   _certificate_payload(cert))

    report.verdict = "; ".join(
        f"{name}: {cert.verdict.value}"
        + (f" (witness {variable_name(cert.divisor_witness)})"
           if cert.divisor_witness is not None else "")
        for name, cert in final_verdicts
    )
    return report


def cmd_selftest(seed: int, corrupt: Optional[str] = None,
                 only: Optional[list] = None) -> Report:
    report = Report(command="selftest")
    try:
        results = run_selftest(seed=seed, corrupt=corrupt, only=only)
    except ValueError as exc:
        raise ConfigError("--suite", str(exc)) from None
    failures = 0
    for res in results:
        payload = {"cases": res.cases, "failures": res.failures}
        if res.detail:
            payload["first_failure"] = res.detail
        report.add(res.name, STATUS_OK if res.passed else STATUS_FINDING, payload)
        failures += res.failures
    total = sum(res.cases for res in results)
    report.verdict = (
        f"{len(results)} suites, {total} cases, {failures} failures (seed {seed})"
    )
    return report


# ----------------------------------------------------------------------
# argument parsing and dispatch


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process, at first use, and
    shared by every caller, so nothing may change it; each subcommand's
    parser carries the function that builds its report as ``run``."""
    parser = argparse.ArgumentParser(
        prog="skewpoisson",
        description="Exact computations in skew group algebras of finite "
                    "symplectic matrix groups.",
    )
    parser.add_argument("--version", action="version",
                        version=f"skewpoisson {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_command(name, help, run):
        """A subcommand whose report ``run(config, args)`` builds from a scenario."""
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--config", metavar="PATH",
                        help="scenario config JSON (default: bundled counterexample)")
        sp.add_argument("--format", choices=("text", "machine"), default="text",
                        help="report rendering (default: text)")
        sp.set_defaults(run=lambda args: run(
            ScenarioConfig.from_file(args.config) if args.config
            else ScenarioConfig.bundled(), args))
        return sp

    scenario_command("group", "group order, classes, centralizers, symplecticity",
                     lambda config, args: cmd_group(config))

    def invariants(config, args):
        _check_degree_budget(args.degree, config.nvars)
        return cmd_invariants(config, up_to_degree=args.degree)

    sp = scenario_command("invariants",
                          "generator invariance, Molien comparison, relation residuals",
                          invariants)
    sp.add_argument("--degree", type=int, default=8, metavar="D",
                    help="verify generator spans up to this degree (default 8)")

    sp = scenario_command("bracket", "Poisson bracket of two polynomials",
                          lambda config, args: cmd_bracket(config, args.first, args.second))
    sp.add_argument("first", help="polynomial expression or configured name")
    sp.add_argument("second", help="polynomial expression or configured name")

    sp = scenario_command("project", "class projections of a skew element",
                          lambda config, args: cmd_project(config, args.part,
                                                           args.class_index))
    sp.add_argument("--part", action="append", required=True, metavar="WORD:POLY",
                    help="one group-algebra term, e.g. 'b:2*x1^2' (repeatable)")
    sp.add_argument("--class-index", type=int, default=None, metavar="I",
                    help="project onto one class only (default: all)")

    def obstruction(config, args):
        ladder = None
        if args.degree is not None:
            _check_degree_budget(args.degree, config.nvars)
            ladder = range(args.degree + 1)
        elif config.obstruction is not None:
            _check_degree_budget(config.obstruction.degree_ladder[-1],
                                 config.nvars, "obstruction.degree_ladder")
        return run_counterexample(config, degree_ladder=ladder, psi_names=args.psi)

    sp = scenario_command("obstruction", "run the counterexample pipeline", obstruction)
    sp.add_argument("--degree", type=int, default=None, metavar="D",
                    help="replace the configured ladder with degrees 0..D")
    sp.add_argument("--psi", action="append", default=None, metavar="NAME",
                    help="sweep these polynomials instead of the configured one "
                         "(repeatable)")

    sp = sub.add_parser("selftest", help="run the deterministic property suites")
    sp.set_defaults(run=lambda args: cmd_selftest(args.seed, corrupt=args.corrupt,
                                                  only=args.suite))
    sp.add_argument("--format", choices=("text", "machine"), default="text")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"base seed for all suites (default {DEFAULT_SEED})")
    sp.add_argument("--corrupt", choices=("mul-table",), default=None,
                    help="diagnostic hook: sabotage a group's Cayley edge and watch "
                         "the suites catch it")
    sp.add_argument("--suite", action="append", default=None, metavar="NAME",
                    help="run only the named suites (repeatable)")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.run(args)
    except (ValueError, RuntimeError) as exc:  # ConfigError and PolyParseError included
        report = Report(command=args.command)
        report.add("config", STATUS_ERROR, _error_payload(exc))
        report.verdict = f"error: {exc}"

    sys.stdout.write(report.to_machine() if args.format == "machine" else report.to_text())

    if report.has_errors():
        return EXIT_INTERNAL if report.error_kind() == "internal" else EXIT_CONFIG
    if args.command == "selftest" and any(s.status != STATUS_OK for s in report.stages):
        return EXIT_INTERNAL
    if any(s.name.endswith(":certificate")
           and s.payload["verdict"] == Verdict.INFEASIBLE_AT_DEGREE.value
           for s in report.stages):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

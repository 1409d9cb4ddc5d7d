"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline;
every check is an exact equality and each criterion carries its runtime
budget.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from skewpoisson import (
    ObstructionProblem,
    SkewElement,
    Verdict,
    divisor_certificate,
    hh0_project,
    is_symplectic,
    parse_poly,
    poisson_bracket,
    replay_certificate,
    sigma_image_basis,
    solve_sigma,
    verify_generators,
    verify_relations,
)
from skewpoisson.linalg import RowSpace

from conftest import fixed_by_every_element


@contextmanager
def criterion(number: int, description: str, budget: float | None = None,
              spent: float = 0.0):
    """``spent`` is time the criterion's work took before the block, and
    counts against the budget."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start + spent
    if budget is not None and elapsed >= budget:
        print(f"ACCEPTANCE {number} FAIL: {description} "
              f"(took {elapsed:.3f}s, budget {budget}s)")
        raise AssertionError(
            f"criterion {number} exceeded its runtime budget: "
            f"{elapsed:.3f}s >= {budget}s"
        )
    timing = f" [{elapsed:.3f}s]" if budget is not None else ""
    print(f"ACCEPTANCE {number} PASS: {description}{timing}")


def P(text):
    return parse_poly(text, nvars=4)


def test_criterion_1_group_structure(config, form):
    with criterion(1, "group order 8, 5 classes, class/centralizer of b, "
                      "all elements symplectic", budget=0.1):
        group = config.build_group()
        assert group.order == 8
        assert len(group.classes) == 5
        b = group.element_from_word("b")
        c = group.element_from_word("c")
        cls = group.classes[group.class_of(b)]
        assert cls.members == tuple(sorted((b, c)))
        assert len(cls.centralizer) == 4
        assert all(is_symplectic(g.matrix, form) for g in group.elements)


def test_criterion_2_bracket_reproduction(form, named):
    with criterion(2, "bracket of the quadratic generators is 2*x1^2 + 2*x3^2"):
        assert poisson_bracket(named["f1"], named["h1"], form) == P("2*x1^2 + 2*x3^2")


def test_criterion_3_projection_reproduction(group):
    with criterion(3, "class projection gives 2*x3^2 inside the fixed-space "
                      "invariants", budget=0.1):
        b = group.element_from_word("b")
        i = group.class_of(b)
        projected = hh0_project(SkewElement.term(group, P("2*x1^2 + 2*x3^2"), b), i)
        assert projected == P("2*x3^2")
        span = RowSpace()
        for text in ("x3^2", "x4^2", "x3*x4"):
            span.add(P(text).to_vector())
        assert span.contains(projected.to_vector())


def test_criterion_4_invariant_generators(group, generators):
    with criterion(4, "all 8 generators invariant; spans match Molien for "
                      "every degree <= 8", budget=10.0):
        assert len(generators) == 8
        assert all(fixed_by_every_element(group, p) for p in generators.values())
        rows = verify_generators(group, generators, 8)
        assert [row.degree for row in rows] == list(range(9))
        for row in rows:
            assert row.molien == row.slice_dim == row.span_dim
            assert row.oracles_agree
            assert not row.deficient


def test_criterion_5_relations(config, generators):
    with criterion(5, "all 9 relation residuals vanish; nonzero residuals are "
                      "reported, not silenced", budget=5.0):
        residuals = verify_relations(generators, config.build_relation_set())
        assert len(residuals) == 9
        assert all(r.is_zero for r in residuals.values())

        # relation 1 confirmed by direct expansion, independent of the parser
        f1, f2, h1, h2, h3, h4 = (generators[n] for n in ("f1", "f2", "h1", "h2", "h3", "h4"))
        manual = -(f1 * f2 * h1) + f1 * h4 + f2 * h3 - h1**3 + 2 * h1 * h2
        assert manual.is_zero

        # a deliberately wrong relation is reported verbatim as a finding
        broken = {"broken": parse_poly("f1", names=list(generators))}
        assert verify_relations(generators, broken) == {"broken": generators["f1"]}


def test_criterion_6_counterexample_verdict(group, form, named):
    with criterion(6, "infeasible at every degree 0..8 and upgraded to all "
                      "degrees by the x4 witness", budget=5.0):
        i = group.class_of(group.element_from_word("b"))
        final = None
        for bound in range(9):
            problem = ObstructionProblem(group, named["f1"], named["h1"], i,
                                         bound, form)
            cert = solve_sigma(problem)
            assert cert.verdict in (
                Verdict.INFEASIBLE_AT_DEGREE, Verdict.INFEASIBLE_ALL_DEGREES
            )
            final = (problem, cert)
        problem, cert = final
        assert cert.verdict is Verdict.INFEASIBLE_ALL_DEGREES
        assert cert.divisor_witness == 3  # the fourth variable
        assert replay_certificate(problem, cert)
        # the witness also certifies the degree-bounded image list directly
        images = [img for _, img in sigma_image_basis(group, named["h1"], i, 6)]
        assert divisor_certificate(images, cert.target) == 3


def test_criterion_7_property_suites(full_selftest):
    sampled_required = {
        "poisson-axioms",
        "skew-associativity",
        "hh0-trace",
        "hh0-idempotence",
        "inner-derivation-vanishing",
        "reynolds-operator",
        "molien-brute-force",
    }
    results, seconds = full_selftest
    with criterion(7, "all property suites pass at the fixed seed with the "
                      "required case counts", budget=60.0, spent=seconds):
        by_name = {r.name: r for r in results}
        for res in results:
            assert res.failures == 0, f"{res.name}: {res.detail}"
        for name in sampled_required:
            assert by_name[name].cases >= 200, (
                f"{name} ran only {by_name[name].cases} cases"
            )
    for res in results:
        print(f"    suite {res.name}: {res.cases} cases, {res.failures} failures")


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "two machine-format obstruction runs are byte-identical"):
        cmd = [sys.executable, "-m", "skewpoisson", "obstruction",
               "--format", "machine"]
        # the package's own source comes first, whether or not pytest was
        # started with PYTHONPATH set
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        first = subprocess.run(cmd, capture_output=True, check=False, env=env)
        second = subprocess.run(cmd, capture_output=True, check=False, env=env)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        assert len(first.stdout) > 0

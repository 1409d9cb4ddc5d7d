"""Deterministic property suites over the bundled scenario.

Every suite draws its cases from a ``random.Random`` seeded from the run
seed and the suite name, so a fixed seed reproduces the exact same cases in
any process.  The suites check the algebraic laws the rest of the package
relies on: ring and bracket axioms, group structure, the trace property of
the class projections, the vanishing of inner derivations on fixed
polynomials, Reynolds and Molien facts, and the internal consistency of the
obstruction solver.  All checks are exact equalities.

A suite is named once, in ``_SUITES``; called as ``suite(rng, env, check)``
it fills the :class:`SuiteResult` it is handed.  A suite that raises is
reported as one failure with no cases.

``corrupt="mul-table"`` sabotages a copy of the bundled group: one of its
Cayley edges, the right-multiplication edges that every product walks, is
redirected, so that a failure path can be exercised end to end.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import linalg
from .config import ScenarioConfig
from .groups import FiniteMatrixGroup, act_on_poly, generate_group, is_symplectic
from .invariants import (
    invariant_basis,
    is_invariant,
    molien_coefficients,
    reynolds,
)
from .obstruction import (
    ObstructionProblem,
    Verdict,
    collapse_to_sigma,
    divisor_certificate,
    multiplier_image_generators,
    replay_certificate,
    sigma_image_basis,
    solve_ladder,
    solve_sigma,
)
from .parse import parse_poly
from .poly import (
    LinearSubstitution,
    Polynomial,
    format_poly,
    partial_derivative,
    poisson_bracket,
)
from .skew import (
    SkewElement,
    commutator,
    hh0_project,
    project_term,
)

DEFAULT_SEED = 20240809

__all__ = ["DEFAULT_SEED", "SuiteResult", "suite_names", "run_selftest"]


@dataclass
class SuiteResult:
    """One suite's case and failure counts and the description of its first
    failure.  :func:`run_selftest` hands each suite a fresh
    ``SuiteResult(name)``, and the suite passes each case to :meth:`record`."""

    name: str
    cases: int = 0
    failures: int = 0
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def record(self, ok: bool, describe: Callable[[], str]):
        self.cases += 1
        if not ok:
            self.failures += 1
            if not self.detail:
                self.detail = describe()


class _Env:
    """Shared fixtures: the bundled scenario, realized once per run."""

    def __init__(self, corrupt: Optional[str] = None):
        self.config = ScenarioConfig.bundled()
        self.form = self.config.build_form()
        self.group = self.config.build_group()
        self.gens = self.config.build_generator_set()
        if corrupt == "mul-table":
            self.group = _corrupt_mul_table(self.group)
        elif corrupt is not None:
            raise ValueError(f"unknown corruption hook {corrupt!r}")


def _corrupt_mul_table(group: FiniteMatrixGroup) -> FiniteMatrixGroup:
    clone = copy.copy(group)
    right = [list(row) for row in group._right]
    right[1][1] = 0 if right[1][1] != 0 else 1
    clone._right = right
    return clone


# ----------------------------------------------------------------------
# random data


def _fraction(rng: random.Random) -> Fraction:
    num = rng.randint(-6, 6)
    if num == 0:
        num = 1
    return Fraction(num, rng.randint(1, 4))


def _poly(rng: random.Random, nvars: int, max_degree: int, max_terms: int = 4) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        degree = rng.randint(0, max_degree)
        exps = [0] * nvars
        for _ in range(degree):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + _fraction(rng)
    return Polynomial(nvars, terms)


def _matrix(rng: random.Random, n: int):
    return tuple(
        tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)) for _ in range(n)
    )


def _skew(rng: random.Random, group: FiniteMatrixGroup, max_parts: int = 2) -> SkewElement:
    parts = {}
    for _ in range(rng.randint(1, max_parts)):
        parts[rng.randrange(group.order)] = _poly(rng, group.dim, 3)
    return SkewElement(group, parts)


def _signed_permutation(rng: random.Random, n: int):
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, j in enumerate(perm):
        rows[i][j] = Fraction(rng.choice((-1, 1)))
    return tuple(tuple(row) for row in rows)


def _small_signed_perm_group(rng: random.Random) -> FiniteMatrixGroup:
    while True:
        gens = [_signed_permutation(rng, 4) for _ in range(2)]
        try:
            return generate_group(gens, cap=48)
        except ValueError:
            continue


# ----------------------------------------------------------------------
# suites


def _suite_ring_axioms(rng: random.Random, env: _Env, check: SuiteResult):
    zero = Polynomial.zero(4)
    for _ in range(200):
        a = _poly(rng, 4, 6)
        b = _poly(rng, 4, 6)
        c = _poly(rng, 4, 6)
        ok = (
            (a + b) + c == a + (b + c)
            and a * b == b * a
            and (a * b) * c == a * (b * c)
            and a * (b + c) == a * b + a * c
            and a - a == zero
            and a + zero == a
        )
        canonical = all(v != 0 for _, v in (a * b + c - a).items())
        check.record(ok and canonical,
                     lambda: f"ring axiom failed for a={format_poly(a)}")


def _suite_poisson_axioms(rng: random.Random, env: _Env, check: SuiteResult):
    form = env.form
    zero = Polynomial.zero(4)
    for _ in range(200):
        p = _poly(rng, 4, 4)
        q = _poly(rng, 4, 4)
        r = _poly(rng, 4, 4)
        anti = poisson_bracket(p, q, form) + poisson_bracket(q, p, form) == zero
        self_zero = poisson_bracket(p, p, form) == zero
        leibniz = poisson_bracket(p, q * r, form) == (
            poisson_bracket(p, q, form) * r + q * poisson_bracket(p, r, form)
        )
        jacobi = (
            poisson_bracket(p, poisson_bracket(q, r, form), form)
            + poisson_bracket(q, poisson_bracket(r, p, form), form)
            + poisson_bracket(r, poisson_bracket(p, q, form), form)
        ) == zero
        check.record(anti and self_zero and leibniz and jacobi,
                     lambda: f"bracket axiom failed for p={format_poly(p)}")


def _suite_bracket_darboux(rng: random.Random, env: _Env, check: SuiteResult):
    """The general tensor reduces to the four-term Darboux formula on the
    bundled form."""
    form = env.form

    def darboux(p, q):
        return (
            partial_derivative(p, 0) * partial_derivative(q, 1)
            - partial_derivative(p, 1) * partial_derivative(q, 0)
            + partial_derivative(p, 2) * partial_derivative(q, 3)
            - partial_derivative(p, 3) * partial_derivative(q, 2)
        )

    for _ in range(200):
        p = _poly(rng, 4, 5)
        q = _poly(rng, 4, 5)
        check.record(poisson_bracket(p, q, form) == darboux(p, q),
                     lambda: f"tensor bracket disagrees for p={format_poly(p)}")


def _suite_substitution(rng: random.Random, env: _Env, check: SuiteResult):
    for _ in range(200):
        p = _poly(rng, 4, 4)
        m = _matrix(rng, 4)
        n = _matrix(rng, 4)
        lhs = LinearSubstitution(n)(LinearSubstitution(m)(p))
        rhs = LinearSubstitution(linalg.mat_mul(m, n))(p)
        check.record(lhs == rhs,
                     lambda: f"composition law failed for p={format_poly(p)}")


def _suite_parser_roundtrip(rng: random.Random, env: _Env, check: SuiteResult):
    for _ in range(200):
        p = _poly(rng, rng.randint(1, 6), 5, max_terms=6)
        check.record(parse_poly(format_poly(p), nvars=p.nvars) == p,
                     lambda: f"round trip failed for {format_poly(p)!r}")


def _suite_group_structure(rng: random.Random, env: _Env, check: SuiteResult):
    group = env.group
    mul = group.mul
    order = group.order
    for _ in range(200):
        i, j, k = (rng.randrange(order) for _ in range(3))
        check.record(mul(mul(i, j), k) == mul(i, mul(j, k)),
                     lambda: f"associativity broke at ({i},{j},{k})")
    for i in range(order):
        has_inverse = any(mul(i, j) == 0 and mul(j, i) == 0 for j in range(order))
        check.record(has_inverse, lambda: f"element {i} lacks an inverse")
    sizes = sum(cls.size for cls in group.classes)
    check.record(sizes == order, lambda: "class sizes do not add up")
    check.record(group.classes[0].members == (0,),
                 lambda: "first class is not the identity class")
    for cls in group.classes:
        check.record(cls.size * len(cls.centralizer) == order,
                     lambda: f"orbit-stabilizer failed for class {cls.index}")


def _suite_fixed_projections(rng: random.Random, env: _Env, check: SuiteResult):
    group = env.group
    for i, g in enumerate(group.elements):
        proj = group.fixed_projection_matrix(i)
        check.record(linalg.mat_mul(proj, proj) == proj,
                     lambda: f"projection for {g.word!r} not idempotent")
        check.record(linalg.mat_mul(g.matrix, proj) == proj,
                     lambda: f"projection image for {g.word!r} not fixed")
        for k in group.centralizer_of(i):
            u = group.elements[k]
            check.record(
                linalg.mat_mul(u.matrix, proj) == linalg.mat_mul(proj, u.matrix),
                lambda: f"projection for {g.word!r} fails to commute with {u.word!r}",
            )


def _suite_action_homomorphism(rng: random.Random, env: _Env, check: SuiteResult):
    group = env.group
    polys = [_poly(rng, 4, 4) for _ in range(4)]
    words = [g.word for g in group.elements]
    for g in range(group.order):
        for h in range(group.order):
            gh = group.mul(g, h)
            for p in polys:
                check.record(
                    act_on_poly(group, p, gh)
                    == act_on_poly(group, act_on_poly(group, p, h), g),
                    lambda: f"action failed for ({words[g]!r},{words[h]!r})",
                )


def _suite_symplectic_closure(rng: random.Random, env: _Env, check: SuiteResult):
    group = env.group
    form = env.form
    gens_ok = all(
        is_symplectic(group.elements[i].matrix, form) for i in group.generator_indices
    )
    check.record(gens_ok, lambda: "a generator is not symplectic")
    for g in group.elements:
        check.record(is_symplectic(g.matrix, form),
                     lambda: f"element {g.word!r} is not symplectic")
    scaled = [[str(2 if i == j == 0 else (1 if i == j else 0)) for j in range(4)]
              for i in range(4)]
    check.record(not is_symplectic(linalg.matrix_from_rows(scaled), form),
                 lambda: "a stretching matrix passed the symplectic test")


def _suite_skew_associativity(rng: random.Random, env: _Env, check: SuiteResult):
    group = env.group
    one = SkewElement.one(group)
    for _ in range(200):
        a = _skew(rng, group)
        b = _skew(rng, group)
        c = _skew(rng, group)
        check.record((a * b) * c == a * (b * c) and a * one == a and one * a == a,
                     lambda: "skew product associativity failed")


def _suite_hh0_trace(rng: random.Random, env: _Env, check: SuiteResult):
    group = env.group
    zero = Polynomial.zero(group.dim)
    for _ in range(200):
        a = _skew(rng, group)
        b = _skew(rng, group)
        com = commutator(a, b)
        ok = all(
            hh0_project(com, i) == zero for i in range(len(group.classes))
        )
        check.record(ok, lambda: "a commutator projected to something nonzero")


def _suite_hh0_idempotence(rng: random.Random, env: _Env, check: SuiteResult):
    group = env.group
    for _ in range(200):
        a = _skew(rng, group)
        i = rng.randrange(len(group.classes))
        once = hh0_project(a, i)
        twice = project_term(group, once, i)
        check.record(twice == once, lambda: f"projection onto class {i} not idempotent")


def _suite_hh0_conjugation(rng: random.Random, env: _Env, check: SuiteResult):
    group = env.group
    mul = group.mul
    for _ in range(200):
        psi = _poly(rng, group.dim, 4)
        cls = group.classes[rng.randrange(len(group.classes))]
        h = rng.choice(cls.members)
        k = next(
            k for k in range(group.order)
            if mul(mul(k, h), group.inverse(k)) == cls.representative
        )
        lhs = hh0_project(SkewElement.term(group, psi, h), cls.index)
        rhs = project_term(group, act_on_poly(group, psi, k), cls.index)
        check.record(lhs == rhs,
                     lambda: f"conjugation invariance failed on class {cls.index}")


def _suite_hh0_invariant_summand(rng: random.Random, env: _Env, check: SuiteResult):
    group = env.group
    for _ in range(200):
        psi = reynolds(group, _poly(rng, group.dim, 4))
        projected = project_term(group, psi, 0)
        check.record(projected == psi,
                     lambda: "identity-class projection moved an invariant")


def _suite_inner_derivation(rng: random.Random, env: _Env, check: SuiteResult):
    group = env.group
    for _ in range(200):
        a = _skew(rng, group, max_parts=3)
        for idx in range(1, group.order):
            raw = _poly(rng, group.dim, 4)
            fixed = Polynomial.sum(group.dim, (act_on_poly(group, raw, power)
                                               for power in group.powers(idx)))
            if fixed.is_zero:
                fixed = Polynomial.one(group.dim)
            check.record(
                commutator(a, SkewElement.term(group, fixed, 0)).g_part(idx).is_zero,
                lambda: f"inner derivation left a part at {group.elements[idx].word!r}",
            )


def _suite_reynolds(rng: random.Random, env: _Env, check: SuiteResult):
    group = env.group
    for _ in range(200):
        p = _poly(rng, group.dim, 5)
        image = reynolds(group, p)
        ok = (
            reynolds(group, image) == image
            and all(act_on_poly(group, image, g) == image for g in range(group.order))
            and is_invariant(group, image)
            and is_invariant(group, p) == all(act_on_poly(group, p, g) == p
                                              for g in range(group.order))
        )
        check.record(ok, lambda: f"Reynolds misbehaved on {format_poly(p)}")


def _suite_molien(rng: random.Random, env: _Env, check: SuiteResult):
    groups = [env.group] + [_small_signed_perm_group(rng) for _ in range(3)]
    for group in groups:
        molien = molien_coefficients(group, 8)
        check.record(molien[0] == 1, lambda: "Molien constant term is not 1")
        for d in range(9):
            basis = invariant_basis(group, d)
            check.record(
                molien[d] == len(basis),
                lambda: f"Molien disagrees with brute force at degree {d} "
                        f"(order {group.order})",
            )
            for p in basis:
                check.record(
                    all(act_on_poly(group, p, g) == p for g in range(group.order)),
                    lambda: f"brute-force basis element is not invariant "
                            f"(degree {d}, order {group.order})",
                )


def _suite_obstruction(rng: random.Random, env: _Env, check: SuiteResult):
    group = env.group
    form = env.form
    phi = env.gens["f1"]
    psi = env.gens["h1"]
    class_index = group.class_of(group.element_from_word("b"))
    rep = group.classes[class_index].representative

    # ladder monotonicity and divisor soundness on the bundled instance
    ranks = []
    witnessed = False
    top = ObstructionProblem(group, phi, psi, class_index, 8, form)
    for bound, cert in zip(range(9), solve_ladder(top, range(9))):
        infeasible = cert.verdict in (
            Verdict.INFEASIBLE_AT_DEGREE, Verdict.INFEASIBLE_ALL_DEGREES
        )
        check.record(infeasible,
                     lambda: f"bundled instance became feasible at degree {bound}")
        if cert.verdict is Verdict.INFEASIBLE_ALL_DEGREES:
            witnessed = True
            check.record(replay_certificate(top, cert),
                         lambda: "divisor certificate failed to replay")
        ranks.append(cert.rank_data.rank if cert.rank_data else 0)
    check.record(witnessed, lambda: "no divisor witness on the bundled instance")
    check.record(all(a <= b for a, b in zip(ranks, ranks[1:])),
                 lambda: "image rank shrank as the degree grew")

    # a feasible instance replays
    feasible = solve_sigma(ObstructionProblem(group, psi, psi, class_index, 0, form))
    check.record(
        feasible.verdict is Verdict.FEASIBLE and feasible.sigma == Polynomial.zero(4),
        lambda: "the zero-target instance was not feasible with zero multiplier",
    )

    # linearity of the image map
    images = sigma_image_basis(group, psi, class_index, 2)
    for _ in range(40):
        (m1, img1), (m2, img2) = rng.sample(images, 2)
        alpha, beta = _fraction(rng), _fraction(rng)
        combo = Polynomial(4, {m1: alpha}) + Polynomial(4, {m2: beta})
        direct = project_term(group, psi * combo, class_index)
        check.record(direct == img1 * alpha + img2 * beta,
                     lambda: "image map is not linear")

    # collapse images stay inside the span of the monomial images
    for _ in range(40):
        chi = _poly(rng, 4, 3)
        collapsed = collapse_to_sigma(SkewElement.term(group, chi, rep), rep)
        degree = max(collapsed.total_degree(), 0)
        span = linalg.RowSpace()
        for _, img in sigma_image_basis(group, psi, class_index, degree):
            if not img.is_zero:
                span.add(img.to_vector())
        image = project_term(group, psi * collapsed, class_index)
        check.record(image.is_zero or span.contains(image.to_vector()),
                     lambda: "collapsed multiplier escaped the image span")

    # the divisor certificate never contradicts the solver
    generators = multiplier_image_generators(group, psi, class_index)
    witness = divisor_certificate(generators, top.target)
    check.record(witness is not None,
                 lambda: "the bundled instance lost its divisor witness")


_SUITES = (
    ("ring-axioms", _suite_ring_axioms),
    ("poisson-axioms", _suite_poisson_axioms),
    ("bracket-darboux", _suite_bracket_darboux),
    ("substitution-composition", _suite_substitution),
    ("parser-roundtrip", _suite_parser_roundtrip),
    ("group-structure", _suite_group_structure),
    ("fixed-projections", _suite_fixed_projections),
    ("action-homomorphism", _suite_action_homomorphism),
    ("symplectic-closure", _suite_symplectic_closure),
    ("skew-associativity", _suite_skew_associativity),
    ("hh0-trace", _suite_hh0_trace),
    ("hh0-idempotence", _suite_hh0_idempotence),
    ("hh0-conjugation", _suite_hh0_conjugation),
    ("hh0-invariant-summand", _suite_hh0_invariant_summand),
    ("inner-derivation-vanishing", _suite_inner_derivation),
    ("reynolds-operator", _suite_reynolds),
    ("molien-brute-force", _suite_molien),
    ("obstruction-consistency", _suite_obstruction),
)


def suite_names() -> tuple:
    return tuple(name for name, _ in _SUITES)


def run_selftest(
    seed: int = DEFAULT_SEED,
    corrupt: Optional[str] = None,
    only: Optional[Sequence[str]] = None,
) -> list:
    """Run the property suites, all or ``only`` the named ones; returns a
    list of :class:`SuiteResult`.  A name that is no suite raises
    ``ValueError``.  A corrupted run is expected to fail; that is the point
    of the hook.
    """
    unknown = sorted(set(only or ()) - set(suite_names()))
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    env = _Env(corrupt=corrupt)
    wanted = set(only) if only is not None else None
    results = []
    for name, runner in _SUITES:
        if wanted is not None and name not in wanted:
            continue
        rng = random.Random(f"{seed}:{name}")
        check = SuiteResult(name)
        try:
            runner(rng, env, check)
        except Exception as exc:  # a crash is a failure, attributed to its suite
            check = SuiteResult(name, 0, 1, f"crashed: {exc}")
        results.append(check)
    return results

"""The obstruction decision: targets, images, solver, certificates, pipeline."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from skewpoisson import cli, linalg, obstruction
from skewpoisson import (
    Certificate,
    ObstructionProblem,
    Polynomial,
    RankData,
    ScenarioConfig,
    SkewElement,
    SymplecticForm,
    Verdict,
    collapse_to_sigma,
    divisor_certificate,
    generate_group,
    hh0_project,
    multiplier_image_generators,
    parse_poly,
    project_term,
    replay_certificate,
    run_counterexample,
    sigma_image_basis,
    solve_ladder,
    solve_sigma,
)
from skewpoisson.linalg import inverse
from skewpoisson.poly import LinearSubstitution, monomials_of_degree
from skewpoisson.skew import project_fixed

from conftest import assert_keys_match_images, class_restriction, random_poly


def P(text):
    return parse_poly(text, nvars=4)


@pytest.fixture(scope="module")
def class_of_b(group):
    return group.class_of(group.element_from_word("b"))


def target_of(group, phi, psi, class_index, form):
    """The target a problem computes on construction."""
    return ObstructionProblem(group, phi, psi, class_index, 0, form).target


class TestTarget:
    def test_bundled_target(self, group, form, named, class_of_b):
        assert target_of(group, named["f1"], named["h1"], class_of_b, form) == P(
            "2*x3^2"
        )

    def test_self_bracket_target_is_zero(self, group, form, named, class_of_b):
        assert target_of(group, named["f1"], named["f1"], class_of_b, form).is_zero

    def test_antisymmetric_in_the_arguments(self, group, form, named, class_of_b):
        assert target_of(group, named["h1"], named["f1"], class_of_b, form) == P(
            "-2*x3^2"
        )

    def test_non_invariant_phi_rejected(self, group, form, class_of_b):
        with pytest.raises(ValueError, match="invariant"):
            target_of(group, P("x1*x2"), P("x1"), class_of_b, form)

    def test_identity_class_rejected(self, group, form, named):
        with pytest.raises(ValueError, match="non-identity"):
            target_of(group, named["f1"], named["h1"], 0, form)

    @pytest.mark.parametrize("index", [-1, 5])
    def test_class_index_out_of_range(self, group, form, named, index):
        with pytest.raises(ValueError, match=f"class index {index} out of range$"):
            target_of(group, named["f1"], named["h1"], index, form)


# each guard, given (group, form, named polynomials, class of b)
GUARDS = {
    "problem nvars": (lambda group, form, named, k: ObstructionProblem(
        group, named["f1"], parse_poly("x1", nvars=2), k, 0, form), "variable count"),
    "problem form": (lambda group, form, named, k: ObstructionProblem(
        group, named["f1"], named["h1"], k, 0, SymplecticForm([["0", "1"], ["-1", "0"]])),
        "form dimension"),
    "image bound": (lambda group, form, named, k: sigma_image_basis(
        group, named["h1"], k, -1), "non-negative"),
    "ladder bound": (lambda group, form, named, k: list(solve_ladder(
        ObstructionProblem(group, named["f1"], named["h1"], k, 0, form), [-1, 0])),
        "non-negative"),
}


@pytest.mark.parametrize("name", list(GUARDS))
def test_guards(group, form, named, class_of_b, name):
    call, match = GUARDS[name]
    with pytest.raises(ValueError, match=match):
        call(group, form, named, class_of_b)


def walk_by_restricted_polynomial(group, psi, class_index, degree_bound):
    """The candidate images keyed by each candidate's restriction built as a
    polynomial in the class's coordinates, one restriction per candidate."""
    into = group.class_coordinates(class_index).into
    fixed_psi = into(psi)
    images = {}
    out = []
    for degree in range(degree_bound + 1):
        for exps in monomials_of_degree(group.dim, degree):
            fixed = into(Polynomial.monomial(group.dim, exps))
            if fixed not in images:
                images[fixed] = project_fixed(group, fixed_psi * fixed, class_index)
            out.append((exps, images[fixed]))
    return out


def assert_same_walk(group, psi, class_index, top):
    """Every ladder slice ``min_degree .. bound`` of the images, for bounds
    up to ``top``, equals that slice of the walk by restricted polynomial."""
    walked = walk_by_restricted_polynomial(group, psi, class_index, top)
    for bound in range(top + 1):
        for low in range(bound + 1):
            assert sigma_image_basis(group, psi, class_index, bound, min_degree=low) == [
                (e, image) for e, image in walked if low <= sum(e) <= bound]


@pytest.fixture(scope="module")
def plane_reflection():
    """The reflection of Q^3 through the plane x1 + x2 + x3 = 0.  Its fixed
    space projection I - J/3 has a row that is minus the sum of the other
    two, so that class's ``into`` is not a monomial map."""
    return generate_group([[[Fraction(int(i == j)) - Fraction(2, 3) for j in range(3)]
                            for i in range(3)]])


class TestImageBasis:
    def test_degree_zero_single_image(self, group, named, class_of_b):
        images = sigma_image_basis(group, named["h1"], class_of_b, 0)
        assert images == [((0, 0, 0, 0), P("x3*x4"))]

    def test_zero_multiplier_gives_zero_images(self, group, class_of_b):
        images = sigma_image_basis(group, Polynomial.zero(4), class_of_b, 2)
        assert all(img.is_zero for _, img in images)
        assert len(images) == 15  # all monomials of degree <= 2 kept as kernel witnesses

    def test_image_of_x3x4(self, group, named, class_of_b):
        images = dict(sigma_image_basis(group, named["h1"], class_of_b, 2))
        assert images[(0, 0, 1, 1)] == P("x3^2*x4^2")

    @pytest.mark.parametrize("index", [-1, 5])
    def test_class_index_out_of_range(self, group, named, index):
        with pytest.raises(ValueError, match=f"class index {index} out of range "
                                             r"\(group has 5 classes\)"):
            sigma_image_basis(group, named["h1"], index, 1)

    def test_matches_projecting_every_product(self, reference_group):
        group, dim = reference_group, reference_group.dim
        bound = 3 if dim == 4 else 2  # B3 acts on six variables
        rng = random.Random(f"images:{group.order}")
        # coefficients of random_poly never reach 5, so nothing cancels
        constant_and_square = Polynomial(dim, {(0,) * dim: 5, (2,) + (0,) * (dim - 1): 5})
        variables = [Polynomial.monomial(dim, [int(j == k) for j in range(dim)])
                     for k in range(dim)]
        for i in range(1, len(group.classes)):
            restrict = class_restriction(group, i)
            # a variable the restriction moves gives a psi it sends to zero
            moved = next(x for x in variables if restrict(x) != x)
            inhomogeneous = random_poly(rng, dim) + constant_and_square
            psis = [random_poly(rng, dim), inhomogeneous,
                    (moved - restrict(moved)) * inhomogeneous]
            assert not inhomogeneous.is_homogeneous()
            assert restrict(psis[2]).is_zero and not psis[2].is_zero
            for psi in psis:
                expected = [(e, project_term(group, psi * Polynomial.monomial(dim, e), i))
                            for d in range(bound + 1) for e in monomials_of_degree(dim, d)]
                assert sigma_image_basis(group, psi, i, bound) == expected
                assert sigma_image_basis(group, psi, i, bound, min_degree=2) == [
                    (e, image) for e, image in expected if sum(e) >= 2]

    def test_class_maps_keep_the_image_key_contract(self, group, s3_group, b3_group,
                                                    plane_reflection):
        monomial_path = set()
        for g in (group, s3_group, b3_group, plane_reflection):
            for i in range(len(g.classes)):
                coords = g.class_coordinates(i)
                for sub in (coords.into, coords.back, *coords.actions):
                    monomial_path.add(sub._images is None)
                    assert_keys_match_images(sub, 4)
        assert monomial_path == {True, False}  # both substitution paths are met
        assert plane_reflection.class_coordinates(1).into._images is not None

    def test_one_restriction_per_distinct_restricted_monomial(self, monkeypatch, group,
                                                              named, class_of_b):
        into = group.class_coordinates(class_of_b).into
        restricted = []
        original = LinearSubstitution.__call__

        def counting(sub, p):
            if sub is into:
                restricted.append(p)
            return original(sub, p)

        monkeypatch.setattr(LinearSubstitution, "__call__", counting)
        images = sigma_image_basis(group, named["h1"], class_of_b, 8)
        assert len(images) == 495
        keys = {into.image_key(exps) for exps, _ in images} - {None}
        # psi once, then each distinct nonzero restricted monomial once
        assert len(restricted) == 1 + len(keys) == 46

    def test_matches_the_walk_by_restricted_polynomial(self, group, named):
        for i in range(1, len(group.classes)):
            for name in ("f1", "f2", "f3", "f4", "h1", "h2", "h3", "h4"):
                assert_same_walk(group, named[name], i, 6)

    def test_matches_the_walk_on_a_general_restriction(self, plane_reflection):
        rng = random.Random("plane")
        for _ in range(4):
            assert_same_walk(plane_reflection, random_poly(rng, 3), 1, 6)

    def test_images_are_linear_in_the_multiplier(self, group, named, class_of_b):
        b = group.element_from_word("b")
        images = dict(sigma_image_basis(group, named["h1"], class_of_b, 2))
        m1, m2 = (1, 0, 1, 0), (0, 0, 2, 0)
        combo = Polynomial(4, {m1: Fraction(2, 3), m2: Fraction(-5)})
        direct = hh0_project(
            SkewElement.term(group, named["h1"] * combo, b), class_of_b
        )
        assert direct == images[m1] * Fraction(2, 3) + images[m2] * Fraction(-5)


class TestDivisorCertificate:
    def test_bundled_images_deliver_x4(self, group, named, class_of_b):
        images = [img for _, img in sigma_image_basis(group, named["h1"], class_of_b, 6)]
        target = P("2*x3^2")
        assert divisor_certificate(images, target) == 3  # x4

    def test_shared_variable_is_inconclusive(self):
        assert divisor_certificate([P("x1")], P("x1")) is None

    def test_vacuous_case_returns_lowest_variable(self):
        assert divisor_certificate([], P("x3^2")) == 0  # x1

    def test_zero_target_never_witnessed(self):
        assert divisor_certificate([P("x1")], Polynomial.zero(4)) is None

    def test_generator_images_for_the_bundled_multiplier(self, group, named, class_of_b):
        gens = multiplier_image_generators(group, named["h1"], class_of_b)
        assert gens == (P("x3*x4"),)

    @pytest.mark.parametrize("index", [-1, 5])
    def test_generators_reject_a_class_index_out_of_range(self, group, named, index):
        with pytest.raises(ValueError, match=f"class index {index} out of range"):
            multiplier_image_generators(group, named["h1"], index)

    @pytest.mark.parametrize("name", ["group", "s3_group", "b3_group"])
    def test_generators_are_restricted_translates(self, request, name):
        """Each generator is restrict(k . psi) for k in the centralizer, in
        centralizer order, zeros and repeats dropped, with both maps
        compiled afresh."""
        group = request.getfixturevalue(name)
        rng = random.Random(f"generators:{name}")
        psis = [Polynomial(group.dim, {tuple(rng.randint(0, 2) for _ in range(group.dim)):
                                       Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                       for _ in range(3)})
                for _ in range(4)]
        for cls in group.classes:
            proj = group.fixed_projection_matrix(cls.representative)
            for psi in psis:
                expected = []
                for k in cls.centralizer:
                    moved = LinearSubstitution(inverse(group.elements[k].matrix))(psi)
                    translate = LinearSubstitution(proj)(moved)
                    if not translate.is_zero and translate not in expected:
                        expected.append(translate)
                assert multiplier_image_generators(group, psi, cls.index) == tuple(expected)


class TestSolve:
    def test_bundled_instance_infeasible_with_witness(self, group, form, named,
                                                    class_of_b):
        problem = ObstructionProblem(group, named["f1"], named["h1"], class_of_b, 4,
                                     form)
        cert = solve_sigma(problem)
        assert cert.verdict is Verdict.INFEASIBLE_ALL_DEGREES
        assert cert.divisor_witness == 3
        assert cert.target == P("2*x3^2")
        assert replay_certificate(problem, cert)

    def test_zero_target_feasible_with_zero_multiplier(self, group, form, named,
                                                       class_of_b):
        problem = ObstructionProblem(group, named["f1"], named["f1"], class_of_b, 0,
                                     form)
        cert = solve_sigma(problem)
        assert cert.verdict is Verdict.FEASIBLE
        assert cert.sigma == Polynomial.zero(4)
        assert replay_certificate(problem, cert)

    def test_equal_invariant_arguments_feasible(self, group, form, named,
                                                class_of_b):
        cert = solve_sigma(
            ObstructionProblem(group, named["h1"], named["h1"], class_of_b, 0, form)
        )
        assert cert.verdict is Verdict.FEASIBLE
        assert cert.sigma == Polynomial.zero(4)

    def test_rank_data_recorded_at_degree_eight(self, group, form, named, class_of_b):
        problem = ObstructionProblem(group, named["f1"], named["h1"], class_of_b, 8,
                                     form)
        cert = solve_sigma(problem)
        assert cert.rank_data is not None
        assert cert.rank_data.cols == 495
        assert cert.rank_data.rank < cert.rank_data.rows
        assert not cert.rank_data.residual.is_zero

    def test_infeasibility_is_monotone_down_the_ladder(self, group, form, named,
                                                       class_of_b):
        ranks = []
        for bound in range(9):
            cert = solve_sigma(
                ObstructionProblem(group, named["f1"], named["h1"], class_of_b,
                                   bound, form)
            )
            assert cert.verdict is not Verdict.FEASIBLE
            ranks.append(cert.rank_data.rank)
        assert ranks == sorted(ranks)

    def test_feasible_with_nonzero_multiplier(self, form):
        # order-2 sign group: the multiplier x1 reaches the target -x1 with
        # the constant multiplier 1
        from skewpoisson import generate_group

        sign = generate_group(
            [[["1", "0", "0", "0"], ["0", "1", "0", "0"],
              ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]],
            names=["c"],
        )
        phi = P("x1*x2")
        psi = P("x1")
        i = sign.class_of(sign.element_from_word("c"))
        problem = ObstructionProblem(sign, phi, psi, i, 0, form)
        cert = solve_sigma(problem)
        assert cert.verdict is Verdict.FEASIBLE
        assert cert.sigma == Polynomial.one(4)
        assert cert.target == P("-x1")
        assert replay_certificate(problem, cert)

    def test_inconclusive_class_has_no_witness(self, group, form, named):
        # for the class of the swap the image generators share no variable,
        # so infeasibility cannot be upgraded and stays degree-bounded
        i = group.class_of(group.element_from_word("e"))
        cert = solve_sigma(
            ObstructionProblem(group, named["f1"], named["h1"], i, 4, form)
        )
        assert cert.verdict is Verdict.INFEASIBLE_AT_DEGREE
        assert cert.divisor_witness is None
        assert cert.target == P("x1^2 + 2*x1*x3 + x3^2")

    def test_problem_validation(self, group, form, named):
        with pytest.raises(ValueError, match="non-identity"):
            ObstructionProblem(group, named["f1"], named["h1"], 0, 2, form)
        with pytest.raises(ValueError, match="invariant"):
            ObstructionProblem(group, P("x1"), named["h1"], 1, 2, form)
        with pytest.raises(ValueError, match="degree"):
            ObstructionProblem(group, named["f1"], named["h1"], 1, -1, form)


class TestDegreeBoundedReplay:
    @pytest.fixture(scope="class")
    def swap_class(self, group, form, named):
        # the class of e stays INFEASIBLE_AT_DEGREE: no variable divides
        # every image, although each is a multiple of (x1+x3)*(x2+x4)
        i = group.class_of(group.element_from_word("e"))
        problem = ObstructionProblem(group, named["f1"], named["h1"], i, 4, form)
        return problem, solve_sigma(problem)

    def test_genuine_certificate_replays(self, swap_class):
        problem, cert = swap_class
        assert cert.verdict is Verdict.INFEASIBLE_AT_DEGREE
        assert cert.dual_witness is not None
        assert replay_certificate(problem, cert)

    def test_witness_separates_images_from_target(self, swap_class):
        problem, cert = swap_class

        def pair(p):
            return sum(c * p.coefficient(e) for e, c in cert.dual_witness.items())

        images = sigma_image_basis(problem.group, problem.psi, problem.class_index, 4)
        assert all(pair(img) == 0 for _, img in images)
        assert pair(cert.target) != 0

    def test_fabricated_certificate_fails(self, group, form, named, class_of_b):
        problem = ObstructionProblem(group, named["f1"], named["h3"], class_of_b, 4, form)
        genuine = solve_sigma(problem)
        assert genuine.verdict is Verdict.FEASIBLE
        rank_data = RankData(rows=1, cols=70, rank=0, residual=genuine.target)
        fabricated = Certificate(Verdict.INFEASIBLE_AT_DEGREE, target=genuine.target,
                                 degree=4, rank_data=rank_data)
        assert not replay_certificate(problem, fabricated)
        # no functional separates a target that lies in the span of the images
        for exps, _ in genuine.target.items():
            witness = Polynomial.monomial(4, exps)
            assert not replay_certificate(problem, replace(fabricated, dual_witness=witness))

    def test_negative_degree_fails(self, swap_class):
        problem, cert = swap_class
        assert not replay_certificate(problem, replace(cert, degree=-1))

    def test_changed_witness_entry_fails(self, swap_class):
        problem, cert = swap_class
        images = sigma_image_basis(problem.group, problem.psi, problem.class_index, 4)
        hit = next(exps for _, img in images for exps, _ in img.items())
        witness = cert.dual_witness
        onto_an_image = witness + Polynomial.monomial(4, hit, 1 - witness.coefficient(hit))
        assert not replay_certificate(problem, replace(cert, dual_witness=onto_an_image))
        exps, c = next(witness.items())
        dropped = witness - Polynomial.monomial(4, exps, c)
        assert not replay_certificate(problem, replace(cert, dual_witness=dropped))


class TestReplayRecomputes:
    """Replay derives the target and the image generators from the problem,
    never from the certificate under test."""

    SWAP_PSI = "2*x1^2 + (x1 - x3)*x3 + (x2 - x4)*x2"

    def test_feasible_certificate_with_a_wrong_target_fails(self, group, form, named,
                                                            class_of_b):
        problem = ObstructionProblem(group, named["f1"], named["h1"], class_of_b, 4, form)
        fabricated = Certificate(Verdict.FEASIBLE, target=P("0"), degree=4, sigma=P("x1"))
        assert not replay_certificate(problem, fabricated)

    def test_divisor_certificate_without_images_fails(self, group, form, named):
        i = group.class_of(group.element_from_word("e"))
        problem = ObstructionProblem(group, named["h1"], P(self.SWAP_PSI), i, 3, form)
        genuine = solve_sigma(problem)
        assert genuine.verdict is Verdict.FEASIBLE
        fabricated = Certificate(Verdict.INFEASIBLE_ALL_DEGREES, target=genuine.target,
                                 degree=3, divisor_witness=3)
        assert not replay_certificate(problem, fabricated)

    def test_out_of_range_divisor_witness_fails(self, group, form, named, class_of_b):
        problem = ObstructionProblem(group, named["f1"], named["h1"], class_of_b, 2, form)
        genuine = solve_sigma(problem)
        assert genuine.verdict is Verdict.INFEASIBLE_ALL_DEGREES
        for v in (-1, 4):
            assert not replay_certificate(problem, replace(genuine, divisor_witness=v))

    def test_every_solved_certificate_replays(self, group, form, named):
        verdicts = set()
        for phi in ("f1", "h1"):
            for psi in (named["h1"], named["h3"], named["f1"], P(self.SWAP_PSI)):
                for i in range(1, len(group.classes)):
                    for degree in (1, 3):
                        problem = ObstructionProblem(group, named[phi], psi, i, degree, form)
                        cert = solve_sigma(problem)
                        assert replay_certificate(problem, cert)
                        verdicts.add(cert.verdict)
        assert verdicts == set(Verdict)

    def ladder(self, group, form, named):
        """A ladder 0..3 on the class of ``e`` that is infeasible at degrees
        0 and 1 and feasible at 2, with the problem's bound at 3."""
        i = group.class_of(group.element_from_word("e"))
        top = ObstructionProblem(group, named["h2"], P("x1^2 + x1*x2 - x3*x2"), i, 3, form)
        return top, list(solve_ladder(top, range(4)))

    def test_ladder_certificates_replay_against_the_ladder_problem(self, group, form, named):
        top, certs = self.ladder(group, form, named)
        infeasible, feasible = Verdict.INFEASIBLE_AT_DEGREE, Verdict.FEASIBLE
        assert [c.verdict for c in certs] == [infeasible, infeasible, feasible]
        assert [c.degree for c in certs] == [0, 1, 2]
        assert all(replay_certificate(top, c) for c in certs)

    def test_feasible_multiplier_above_the_certificate_degree_fails(self, group, form, named):
        top, certs = self.ladder(group, form, named)
        feasible = certs[-1]
        assert feasible.sigma.total_degree() == feasible.degree == 2
        assert not replay_certificate(top, replace(feasible, degree=1))


class TestInvarianceCheckedOnce:
    """The problem checks phi on construction; solving and replaying it
    trust that check."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        original = obstruction.is_invariant

        def counting(group, p):
            calls.append(p)
            return original(group, p)

        monkeypatch.setattr(obstruction, "is_invariant", counting)
        return calls

    @pytest.mark.parametrize("word, degree", [("b", 0), ("b", 2), ("e", 2), ("e", 3)])
    def test_one_check_per_solve(self, counted, group, form, named, word, degree):
        i = group.class_of(group.element_from_word(word))
        problem = ObstructionProblem(group, named["f1"], named["h1"], i, degree, form)
        cert = solve_sigma(problem)
        assert counted == [named["f1"]]
        assert replay_certificate(problem, cert)
        assert len(counted) == 1

    def test_one_check_per_ladder(self, counted, group, form, named, class_of_b):
        problem = ObstructionProblem(group, named["f1"], named["h1"], class_of_b, 6, form)
        assert len(list(solve_ladder(problem, range(7)))) == 7
        assert counted == [named["f1"]]

    def test_public_target_still_checks(self, counted, group, form, named, class_of_b):
        target_of(group, named["f1"], named["h1"], class_of_b, form)
        assert len(counted) == 1


def counting(monkeypatch, name, module=obstruction):
    """Count the calls of the function ``module`` binds to ``name``."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestTargetComputedOnce:
    """A problem computes its target on construction; solving, the solver's
    own replay and a later replay all read it."""

    @pytest.mark.parametrize("psi, word, degree, verdict", [
        ("h1", "b", 2, Verdict.INFEASIBLE_ALL_DEGREES),
        ("h3", "b", 4, Verdict.FEASIBLE),  # replayed inside the solve too
        ("h1", "e", 2, Verdict.INFEASIBLE_AT_DEGREE),
    ])
    def test_one_bracket_per_problem(self, monkeypatch, group, form, named,
                                     psi, word, degree, verdict):
        brackets = counting(monkeypatch, "poisson_bracket")
        i = group.class_of(group.element_from_word(word))
        problem = ObstructionProblem(group, named["f1"], named[psi], i, degree, form)
        cert = solve_sigma(problem)
        assert cert.verdict is verdict
        assert replay_certificate(problem, cert)
        assert len(brackets) == 1
        assert cert.target == target_of(group, named["f1"], named[psi], i, form)

    def test_pipeline_projects_each_target_once(self, monkeypatch, config):
        invariance = counting(monkeypatch, "is_invariant")
        brackets = counting(monkeypatch, "poisson_bracket")
        reported = counting(monkeypatch, "poisson_bracket", module=cli)
        report = run_counterexample(config, psi_names=["h1", "f1"],
                                    degree_ladder=[0, 2])
        assert report.verdict == "h1: INFEASIBLE_ALL_DEGREES (witness x4); f1: FEASIBLE"
        assert len(invariance) == 2
        # the target stage reports the bracket its problem computed
        assert len(brackets) + len(reported) == 2


class TestLadder:
    """One ladder solve reproduces a fresh solve at every rung."""

    @pytest.mark.parametrize("bounds", [range(7), (0, 2, 4, 8)])
    def test_matches_fresh_solves(self, group, form, named, bounds):
        verdicts = set()
        for phi in ("f1", "h1", "h2"):
            for psi in ("f1", "f2", "h1", "h2", "h3", "h4"):
                for i in range(1, len(group.classes)):
                    problem = ObstructionProblem(group, named[phi], named[psi], i,
                                                 bounds[-1], form)
                    fresh = []
                    for bound in bounds:
                        cert = solve_sigma(replace(problem, degree_bound=bound))
                        fresh.append(repr(cert))
                        verdicts.add(cert.verdict)
                        if cert.verdict is Verdict.FEASIBLE:
                            break
                    assert [repr(c) for c in solve_ladder(problem, bounds)] == fresh
        assert verdicts == set(Verdict)

    def test_each_image_is_projected_once(self, monkeypatch, group, form, named,
                                          class_of_b):
        terms = counting(monkeypatch, "project_term")
        images = counting(monkeypatch, "project_fixed")
        problem = ObstructionProblem(group, named["f1"], named["h1"], class_of_b, 8, form)
        certs = list(solve_ladder(problem, range(9)))
        assert len(certs) == 9
        # the 495 monomials of the top rung restrict to 45 distinct nonzero
        # polynomials, each projected once, plus the target; nine fresh
        # solves would project 1287 images
        assert (len(images), len(terms)) == (45, 1)

    def test_each_distinct_image_enters_the_row_space_once(self, monkeypatch, group,
                                                            form, named, class_of_b):
        # the problem compiles the class coordinates and the actions it needs
        # (each inversion adds rows) before counting starts
        problem = ObstructionProblem(group, named["f1"], named["h1"], class_of_b, 8, form)
        added = counting(monkeypatch, "add", module=linalg.RowSpace)
        certs = list(solve_ladder(problem, range(9)))
        images = sigma_image_basis(group, named["h1"], class_of_b, 8)
        # the 495 images take 25 distinct nonzero values, each added once;
        # the rank data still counts every image
        assert len(added) == len({image for _, image in images if image}) == 25
        assert certs[-1].rank_data.cols == len(images) == 495

    def test_each_distinct_restriction_is_projected_once(self, monkeypatch, group,
                                                         form, named):
        terms = counting(monkeypatch, "project_term")
        images = counting(monkeypatch, "project_fixed")
        i = group.class_of(group.element_from_word("e"))
        problem = ObstructionProblem(group, named["h2"], named["f1"], i, 3, form)
        assert solve_sigma(problem).verdict is Verdict.FEASIBLE
        # the 35 monomials restrict to 10 distinct polynomials, plus the
        # target and the replay of the feasible sigma
        assert (len(images), len(terms)) == (10, 1 + 1)

    def test_each_rung_checks_its_own_images(self, monkeypatch, group, form, named):
        checked = []
        original = obstruction._separates

        def recording(witness, images, target):
            checked.append(len(images))
            return original(witness, images, target)

        monkeypatch.setattr(obstruction, "_separates", recording)
        i = group.class_of(group.element_from_word("e"))
        problem = ObstructionProblem(group, named["f1"], named["h1"], i, 4, form)
        certs = list(solve_ladder(problem, (0, 1, 3, 4)))
        assert {c.verdict for c in certs} == {Verdict.INFEASIBLE_AT_DEGREE}
        distinct = [len({image for _, image in sigma_image_basis(group, named["h1"], i, d)
                         if image}) for d in (0, 1, 3, 4)]
        assert checked == distinct == [1, 1, 4, 9]

    @pytest.mark.parametrize("bounds", [(2, 2), (3, 1)])
    def test_bounds_must_increase(self, group, form, named, class_of_b, bounds):
        problem = ObstructionProblem(group, named["f1"], named["h1"], class_of_b, 3, form)
        with pytest.raises(ValueError, match="strictly increasing"):
            list(solve_ladder(problem, bounds))

    def test_negative_bound_raises_on_the_first_rung(self, group, form, named, class_of_b):
        problem = ObstructionProblem(group, named["f1"], named["h1"], class_of_b, 3, form)
        ladder = solve_ladder(problem, [-1])
        with pytest.raises(ValueError, match="^degree bound must be non-negative$"):
            next(ladder)


PINNED_CERTIFICATES = Path(__file__).parent / "data" / "certificates.repr"
PINNED_PSIS = ("f1", "f2", "h1", "h2", "h3", "h4",
               "2*x1^2 + x1*x2 - x3*x2 + 3*x2*x4", "x1*x3 + x4 - 1/2*x2^2")
PINNED_LADDER = (0, 2, 3, 4)


def certificate_reprs(group, form, named):
    """The ``repr`` of every certificate a ladder solve yields over the
    pinned grid, one a line: phi in f1/h1/h2, the pinned psis, every
    non-identity class of the bundled group."""
    lines = []
    for phi in ("f1", "h1", "h2"):
        for psi in PINNED_PSIS:
            psi_poly = named[psi] if psi in named else P(psi)
            for i in range(1, len(group.classes)):
                problem = ObstructionProblem(group, named[phi], psi_poly, i,
                                             PINNED_LADDER[-1], form)
                lines.extend(repr(c) for c in solve_ladder(problem, PINNED_LADDER))
    return "\n".join(lines) + "\n"


def test_certificates_match_the_pinned_copy(group, form, named):
    """Every certificate of the grid is byte-identical to the pinned copy."""
    assert certificate_reprs(group, form, named) == PINNED_CERTIFICATES.read_text()


class TestCollapse:
    def test_collapse_of_centralizer_invariant(self, group):
        b = group.element_from_word("b")
        got = collapse_to_sigma(SkewElement.term(group, P("x3*x4"), b), b)
        assert got == P("4*x3*x4")

    def test_collapse_of_zero(self, group):
        b = group.element_from_word("b")
        assert collapse_to_sigma(SkewElement(group, {}), b).is_zero

    def test_support_off_the_class_contributes_nothing(self, group):
        b = group.element_from_word("b")
        e = group.element_from_word("e")
        off_class = SkewElement.term(group, P("x1 + x2^2"), e)
        assert collapse_to_sigma(off_class, b).is_zero

    def test_identity_rejected(self, group):
        with pytest.raises(ValueError, match="identity"):
            collapse_to_sigma(SkewElement.one(group), 0)


class TestPipeline:
    def test_bundled_scenario_reproduces_the_counterexample(self, config):
        report = run_counterexample(config)
        assert not report.has_errors()
        assert "INFEASIBLE_ALL_DEGREES" in report.verdict
        assert "witness x4" in report.verdict
        cert_stage = next(s for s in report.stages
                          if s.name == "psi=h1:certificate")
        assert cert_stage.payload["verdict"] == "INFEASIBLE_ALL_DEGREES"
        assert cert_stage.payload["divisor_witness"] == "x4"
        assert cert_stage.payload["target"] == "2*x3^2"
        ladder = next(s for s in report.stages if s.name == "psi=h1:ladder")
        degrees = [step["degree"] for step in ladder.payload["steps"]]
        assert degrees == list(range(9))
        assert all(step["verdict"] != "FEASIBLE" for step in ladder.payload["steps"])

    def test_trivial_group_rejected(self, config):
        data = {
            "nvars": 4,
            "symplectic_form": [list(map(str, row)) for row in
                                ((0, 1, 0, 0), (-1, 0, 0, 0),
                                 (0, 0, 0, 1), (0, 0, -1, 0))],
            "group_generators": [],
            "named_polynomials": {"f1": "x1^2 + x3^2", "h1": "x1*x2 + x3*x4"},
            "obstruction": {"phi": "f1", "psi": "h1", "class_rep": "1",
                            "degree_ladder": [0]},
        }
        report = run_counterexample(ScenarioConfig.from_mapping(data))
        assert report.has_errors()
        error = next(s for s in report.stages if s.status == "error")
        assert "non-identity" in error.payload["message"]

    def test_equal_arguments_are_feasible(self, config):
        report = run_counterexample(config, psi_names=["f1"])
        cert = next(s for s in report.stages if s.name == "psi=f1:certificate")
        assert cert.payload["verdict"] == "FEASIBLE"
        assert cert.payload["sigma"] == "0"

    def test_psi_sweep_reports_each_multiplier(self, config):
        report = run_counterexample(config, psi_names=["h1", "f1"],
                                    degree_ladder=[0, 2])
        names = [s.name for s in report.stages]
        assert "psi=h1:certificate" in names
        assert "psi=f1:certificate" in names
        assert "h1: INFEASIBLE_ALL_DEGREES" in report.verdict
        assert "f1: FEASIBLE" in report.verdict

    def test_sparse_ladder_is_monotonically_infeasible(self, config):
        report = run_counterexample(config, degree_ladder=[0, 2, 4, 8])
        ladder = next(s for s in report.stages if s.name == "psi=h1:ladder")
        steps = ladder.payload["steps"]
        assert [s["degree"] for s in steps] == [0, 2, 4, 8]
        assert all(s["verdict"] != "FEASIBLE" for s in steps)
        ranks = [s["rank_data"]["rank"] for s in steps]
        assert ranks == sorted(ranks)

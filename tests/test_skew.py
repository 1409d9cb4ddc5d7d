"""Skew-algebra arithmetic and the trace-space projections."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from skewpoisson import (
    NotFixedError,
    Polynomial,
    SkewElement,
    commutator,
    hh0_project,
    inner_derivation_g_part,
    parse_poly,
    project_term,
    substitute_linear,
    trace_vector,
)
from skewpoisson import groups, poly
from skewpoisson.linalg import RowSpace, inverse

from conftest import class_restriction, random_poly


def P(text):
    return parse_poly(text, nvars=4)


def T(group, text, word):
    return SkewElement.term(group, P(text), group.element_from_word(word))


class TestProduct:
    def test_square_of_fixed_variable_term(self, group):
        # (x3 . b)^2 = x3^2 . 1 because b fixes x3 and b^2 = 1
        a = T(group, "x3", "b")
        assert a * a == T(group, "x3^2", "1")

    def test_square_of_swapped_variable_term(self, group):
        # (x1 . e)^2 = x1*x3 . 1 because e moves x1 to x3
        a = T(group, "x1", "e")
        assert a * a == T(group, "x1*x3", "1")

    def test_multiplicative_identity(self, group):
        a = T(group, "x1*x2", "b") + T(group, "x4", "e")
        one = SkewElement.one(group)
        assert a * one == a
        assert one * a == a

    def test_associativity_on_mixed_terms(self, group):
        a = T(group, "x1", "e")
        b = T(group, "x2", "b")
        c = T(group, "x3 + 1", "c")
        assert (a * b) * c == a * (b * c)

    def test_group_mismatch_rejected(self, group):
        from skewpoisson import generate_group

        other = generate_group([], dim=4)
        with pytest.raises(ValueError, match="different groups"):
            SkewElement.one(group) * SkewElement.one(other)

    def test_polynomial_and_scalar_mixing(self, group):
        a = T(group, "x3", "e")
        # a polynomial enters only as a term at the identity; on the left it
        # multiplies the part, on the right it twists through the action of e
        assert T(group, "x1", "1") * a == T(group, "x1*x3", "e")
        assert a * T(group, "x1", "1") == T(group, "x3^2", "e")
        assert a * T(group, "2", "1") == T(group, "2*x3", "e")
        # bare polynomials and scalars are not skew elements
        for other in (P("x1"), 2, Fraction(1, 2)):
            for op in (lambda: a * other, lambda: other * a, lambda: a + other,
                       lambda: other + a, lambda: a - other, lambda: other - a):
                with pytest.raises(TypeError):
                    op()
            assert a != other


class TestCommutatorAndParts:
    def test_commutator_with_fixed_polynomial_vanishes(self, group):
        assert commutator(T(group, "x1", "b"), T(group, "x3", "1")).is_zero

    def test_commutator_with_moved_polynomial(self, group):
        got = commutator(T(group, "x3", "e"), T(group, "x3", "1"))
        assert got == T(group, "x1*x3 - x3^2", "e")

    def test_self_commutator_vanishes(self, group):
        a = T(group, "x1*x2", "b") + T(group, "x4^2", "c*e")
        assert commutator(a, a).is_zero

    def test_g_part_lookup(self, group):
        a = T(group, "x1*x2", "b") + T(group, "x3", "e")
        assert a.g_part(group.element_from_word("b")) == P("x1*x2")
        assert a.g_part(group.element_from_word("c")).is_zero

    def test_g_part_of_twisted_product(self, group):
        prod = T(group, "x1", "b") * T(group, "x2", "c")
        bc = group.element_from_word("b*c")
        assert prod.g_part(bc) == P("-x1*x2")


def restriction(group, word):
    """The cached restriction of the class that ``word`` represents."""
    g = group.element_from_word(word)
    i = group.class_of(g)
    assert group.classes[i].representative == g
    return class_restriction(group, i)


class TestRestriction:
    def test_bracket_restricts_to_fixed_block(self, group):
        assert restriction(group, "b")(P("2*x1^2 + 2*x3^2")) == P("2*x3^2")

    def test_identity_restriction(self, group):
        p = P("x1^4 - x2*x3")
        assert restriction(group, "1")(p) == p

    def test_invariant_generator_restricts_to_one_term(self, group):
        assert restriction(group, "b")(P("x1*x2 + x3*x4")) == P("x3*x4")

    def test_idempotent(self, group):
        restrict = restriction(group, "b")
        once = restrict(P("x1^2 + x2*x3 + x3*x4^3"))
        assert restrict(once) == once


class TestProjection:
    def test_bundled_projection_value(self, group):
        b = group.element_from_word("b")
        i = group.class_of(b)
        element = SkewElement.term(group, P("2*x1^2 + 2*x3^2"), b)
        assert hh0_project(element, i) == P("2*x3^2")

    def test_projection_kills_commutators_in_every_class(self, group):
        com = commutator(T(group, "x1", "e"), T(group, "x2", "b"))
        for i in range(len(group.classes)):
            assert hh0_project(com, i).is_zero

    def test_already_invariant_input_is_fixed(self, group):
        b = group.element_from_word("b")
        i = group.class_of(b)
        assert hh0_project(SkewElement.term(group, P("x3*x4"), b), i) == P("x3*x4")

    def test_invalid_class_index(self, group):
        # -1 would otherwise project onto the last class
        with pytest.raises(ValueError, match="class index"):
            hh0_project(SkewElement.one(group), 99)
        with pytest.raises(ValueError, match="class index"):
            hh0_project(SkewElement.one(group), -1)

    def test_projection_lands_in_quadratic_fixed_invariants(self, group):
        # the class-of-b component must lie in the span of x3^2, x4^2, x3*x4
        b = group.element_from_word("b")
        i = group.class_of(b)
        got = hh0_project(SkewElement.term(group, P("2*x1^2 + 2*x3^2"), b), i)
        span = RowSpace()
        for text in ("x3^2", "x4^2", "x3*x4"):
            span.add(P(text).to_vector())
        assert span.contains(got.to_vector())

    def test_conjugate_inputs_project_identically(self, group):
        b = group.element_from_word("b")
        c = group.element_from_word("c")
        e = group.element_from_word("e")
        i = group.class_of(b)
        psi = P("x1^2*x4 - x2*x3")
        # e conjugates c back to b, so psi.c projects like (e.psi).b
        lhs = hh0_project(SkewElement.term(group, psi, c), i)
        from skewpoisson import act_on_poly

        rhs = hh0_project(SkewElement.term(group, act_on_poly(group, psi, e), b), i)
        assert lhs == rhs

    def test_trace_vector_components_validate(self, group):
        a = T(group, "x1*x2 + x3", "b") + T(group, "x4^2", "e")
        components = trace_vector(a)
        assert len(components) == len(group.classes)
        assert fixed_by_projection(group, components)

    @pytest.mark.parametrize("text", [
        "x1",  # off the fixed space of b
        "x3",  # on it, but c, which commutes with b, negates x3
    ])
    def test_fabricated_trace_vector_fails_validation(self, group, text):
        i = group.class_of(group.element_from_word("b"))
        zero = Polynomial.zero(group.dim)
        comps = tuple(P(text) if j == i else zero for j in range(len(group.classes)))
        assert fixed_by_projection(group, (zero,) * len(comps))
        assert not fixed_by_projection(group, comps)


def fixed_by_projection(group, components):
    """Whether :func:`project_term` leaves each class's component unchanged,
    the check ``project`` reports as ``trace_vector_valid``."""
    return all(project_term(group, c, i) == c for i, c in enumerate(components))


def two_step_projection(a, class_index):
    """hh0_project by its definition: move each part by k (substitution by
    the inverse matrix of k), then restrict by the projection matrix of the
    representative, both compiled afresh for every part."""
    group = a.group
    cls = group.classes[class_index]
    rep = cls.representative
    proj = group.fixed_projection_matrix(rep)
    total = Polynomial.zero(group.dim)
    for k, g in enumerate(group.elements):
        part = a.g_part(group.mul(group.mul(group.inverse(k), rep), k))  # k^-1 * rep * k
        moved = substitute_linear(part, inverse(g.matrix))
        total = total + substitute_linear(moved, proj)
    return total * Fraction(1, len(cls.centralizer))


def random_skew_element(rng, group):
    parts = {idx: random_poly(rng, group.dim)
             for idx in rng.sample(range(group.order), min(4, group.order))}
    return SkewElement(group, parts)


class TestCompiledProjection:
    @pytest.mark.parametrize("name", ["group", "s3_group", "b3_group"])
    def test_matches_two_step_definition(self, request, name):
        group = request.getfixturevalue(name)
        rng = random.Random(f"hh0:{name}")
        for _ in range(4):
            a = random_skew_element(rng, group)
            for i in range(len(group.classes)):
                assert hh0_project(a, i) == two_step_projection(a, i)

    @pytest.mark.parametrize("name", ["group", "s3_group", "b3_group"])
    def test_single_term_matches_two_step_definition(self, request, name):
        group = request.getfixturevalue(name)
        rng = random.Random(f"term:{name}")
        for _ in range(4):
            p = random_poly(rng, group.dim)
            for cls in group.classes:
                term = SkewElement.term(group, p, cls.representative)
                assert project_term(group, p, cls.index) == two_step_projection(
                    term, cls.index)

    def test_maps_are_compiled_once_per_class(self, group):
        i = group.class_of(group.element_from_word("e"))
        assert group.class_coordinates(i) is group.class_coordinates(i)

    @pytest.mark.parametrize("index", [-1, 5])
    def test_class_index_out_of_range(self, group, index):
        # -1 would otherwise index the last class
        with pytest.raises(ValueError, match=f"class index {index} out of range "
                                             r"\(group has 5 classes\)"):
            group.class_coordinates(index)

    @pytest.mark.parametrize("name", ["group", "s3_group", "b3_group"])
    def test_conjugators_move_each_member_onto_the_representative(self, request, name):
        group = request.getfixturevalue(name)
        for cls in group.classes:
            conjugators = cls.conjugators
            assert [h for h, _ in conjugators] == list(cls.members)
            assert dict(conjugators)[cls.representative] == 0
            for h, k in conjugators:
                conj = group.mul(group.mul(group.inverse(k), cls.representative), k)
                assert conj == h
                assert k == min(j for j in range(group.order)
                                if group.mul(group.mul(group.inverse(j),
                                                       cls.representative), j) == h)
            p = random_poly(random.Random(f"restrict:{cls.index}"), group.dim)
            proj = group.fixed_projection_matrix(cls.representative)
            assert class_restriction(group, cls.index)(p) == substitute_linear(p, proj)

    def test_one_compiled_restriction_per_class(self, monkeypatch, config):
        """Projecting compiles, per class, the maps into and back out of its
        fixed-space coordinates and its distinct non-identity centralizer
        actions there; every other substitution it compiles is an element's
        own action.  A second round of the same projections compiles
        nothing."""
        compiled = []

        class Counting(poly.LinearSubstitution):
            __slots__ = ()

            def __init__(self, matrix):
                compiled.append(matrix)
                super().__init__(matrix)

        monkeypatch.setattr(poly, "LinearSubstitution", Counting)
        monkeypatch.setattr(groups, "LinearSubstitution", Counting)
        group = config.build_group()
        rng = random.Random("compile-count")
        elements = [random_skew_element(rng, group) for _ in range(3)]

        def project_all():
            for a in elements:
                for i in range(len(group.classes)):
                    hh0_project(a, i)
                assert fixed_by_projection(group, trace_vector(a))

        project_all()
        acted = group._actions
        assert acted
        coords = [group.class_coordinates(i) for i in range(len(group.classes))]
        assert len(compiled) == sum(2 + len(c.actions) for c in coords) + len(acted)
        compiled.clear()
        project_all()
        assert compiled == []


class TestInnerDerivation:
    def test_vanishes_on_fixed_polynomial(self, group):
        a = T(group, "x1*x2", "b") + T(group, "x4", "e")
        b = group.element_from_word("b")
        assert inner_derivation_g_part(a, P("x3*x4"), b).is_zero

    def test_vanishes_for_square_of_fixed_variable(self, group):
        a = T(group, "x2*x4", "c*e") + T(group, "x1 - x3", "b*c")
        b = group.element_from_word("b")
        assert inner_derivation_g_part(a, P("x3^2"), b).is_zero

    def test_unfixed_polynomial_rejected(self, group):
        a = SkewElement.one(group)
        b = group.element_from_word("b")
        with pytest.raises(NotFixedError, match="not fixed"):
            inner_derivation_g_part(a, P("x1"), b)

    def test_identity_rejected(self, group):
        a = SkewElement.one(group)
        with pytest.raises(ValueError, match="identity"):
            inner_derivation_g_part(a, P("x1"), 0)


class TestConstruction:
    def test_zero_parts_dropped(self, group):
        a = SkewElement(group, {0: Polynomial.zero(4), 1: P("x1")})
        assert [idx for idx, _ in a.parts()] == [1]

    @pytest.mark.parametrize("part", [1, Fraction(1, 2), "x1"])
    def test_non_polynomial_part_rejected(self, group, part):
        with pytest.raises(TypeError, match="Polynomial instances"):
            SkewElement(group, {0: part})

    def test_wrong_arity_poly_rejected(self, group):
        with pytest.raises(ValueError, match="variables"):
            SkewElement(group, {0: parse_poly("x1", nvars=2)})

    def test_addition_cancels(self, group):
        a = T(group, "x1", "b")
        assert (a - a).is_zero
        assert (a + (-a)).is_zero

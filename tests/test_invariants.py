"""Reynolds averaging, Molien series, invariant slices, generators, relations."""

from __future__ import annotations

import copy
import time
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from skewpoisson import (
    Polynomial,
    generate_group,
    generator_spans,
    invariant_basis,
    is_invariant,
    molien_coefficients,
    parse_poly,
    reynolds,
    verify_generators,
    verify_relations,
)
from skewpoisson import GroupElement, invariants, linalg
from skewpoisson.invariants import _power_trace_series
from skewpoisson.linalg import RowSpace, matrix_from_rows
from skewpoisson.parse import DEGREE_CAP, TERM_PRODUCT_BUDGET
from skewpoisson.poly import grlex_key, monomials_of_degree

from conftest import ROTATION, cofactor_det, conjugated_s3, fixed_by_every_element


def P(text, nvars=4):
    return parse_poly(text, nvars=nvars)


class TestReynolds:
    def test_average_of_x1_squared(self, group):
        assert reynolds(group, P("x1^2")) == P("1/2*x1^2 + 1/2*x3^2")

    def test_fixes_invariants(self, group, named):
        assert reynolds(group, named["f1"]) == named["f1"]

    def test_kills_odd_coordinates(self, group):
        assert reynolds(group, P("x1")).is_zero

    def test_idempotent(self, group):
        p = P("x1^3*x2 - x4^2 + 5")
        image = reynolds(group, p)
        assert reynolds(group, image) == image
        assert fixed_by_every_element(group, image)


class TestIsInvariant:
    def test_h3_is_invariant(self, group):
        assert is_invariant(group, P("x1^2*x3*x4 + x1*x2*x3^2"))

    def test_x1x2_is_not(self, group):
        assert not is_invariant(group, P("x1*x2"))
        assert not fixed_by_every_element(group, P("x1*x2"))

    def test_constants_are_invariant(self, group):
        assert is_invariant(group, Polynomial.constant(4, 7))

    def test_generator_check_matches_exhaustive(self, group, named):
        for p in named.values():
            assert is_invariant(group, p) == fixed_by_every_element(group, p)


class TestMolien:
    def test_bundled_group_low_degrees(self, group):
        assert molien_coefficients(group, 2) == [1, 0, 3]

    def test_trivial_group_counts_all_monomials(self):
        trivial = generate_group([], dim=4)
        got = molien_coefficients(trivial, 6)
        assert got == [comb(d + 3, 3) for d in range(7)]

    def test_sign_group_kills_odd_degrees(self):
        minus = generate_group([[["-1", "0"], ["0", "-1"]]])
        got = molien_coefficients(minus, 5)
        assert got[1] == 0
        assert got == [1, 0, 3, 0, 5, 0]

    def test_agrees_with_brute_force_on_bundled_group(self, group):
        molien = molien_coefficients(group, 8)
        for d in range(9):
            assert molien[d] == len(invariant_basis(group, d))

    def test_agrees_with_brute_force_on_reference_groups(self, reference_group):
        molien = molien_coefficients(reference_group, 6)
        for d in range(7):
            assert molien[d] == len(invariant_basis(reference_group, d))


def inverse_determinant_series(matrix, top):
    """The power series of 1/det(I - t*matrix) to t^top: the coefficient of
    t^k in the determinant is (-1)^k times the sum of the principal k-minors,
    each by cofactor expansion, and the series is inverted term by term over
    the rationals."""
    dets = [1] + [(-1) ** k * sum(cofactor_det([[matrix[i][j] for j in rows] for i in rows])
                                  for rows in combinations(range(len(matrix)), k))
                  for k in range(1, len(matrix) + 1)]
    inv = [Fraction(1)]
    for k in range(1, top + 1):
        inv.append(-sum(dets[j] * inv[k - j] for j in range(1, min(k, len(matrix)) + 1)))
    return inv


def power_traces(matrix, top):
    """tr(g^k) for k = 1 .. top, the powers by matrix products."""
    traces, power = [], matrix
    for _ in range(top):
        traces.append(sum(row[i] for i, row in enumerate(power)))
        power = linalg.mat_mul(power, matrix)
    return traces


FRACTIONAL_GROUPS = {
    "conjugated S3": lambda: generate_group(conjugated_s3()),
    "rotation": lambda: generate_group([ROTATION]),
}


def molien_group(request, name):
    if name in FRACTIONAL_GROUPS:
        return FRACTIONAL_GROUPS[name]()
    return request.getfixturevalue(name)


class TestMolienByPowerTraces:
    """Each class's series 1/det(I - t g) comes from the traces of the powers
    of g by Newton's identities, on integers."""

    @pytest.mark.parametrize("name", [
        "group", "s3_group", "b3_group", "b4_group", "conjugated S3", "rotation"])
    def test_every_class_inverts_its_determinant(self, request, name):
        group = molien_group(request, name)
        top = 8
        total = [0] * (top + 1)
        for cls in group.classes:
            matrix = group.elements[cls.representative].matrix
            expected = inverse_determinant_series(matrix, top)
            assert _power_trace_series(power_traces(matrix, top)) == expected
            total = [acc + cls.size * h for acc, h in zip(total, expected)]
        assert molien_coefficients(group, top) == [x / group.order for x in total]

    @pytest.mark.parametrize("name", list(FRACTIONAL_GROUPS))
    def test_fractional_entries_agree_with_the_slices(self, name):
        group = FRACTIONAL_GROUPS[name]()
        molien = molien_coefficients(group, 6)
        assert molien == [len(invariant_basis(group, d)) for d in range(7)]

    def test_multiplies_no_matrices(self, monkeypatch, b3_group):
        products = []
        original = linalg.mat_mul

        def counting_products(*args):
            products.append(args)
            return original(*args)

        monkeypatch.setattr(linalg, "mat_mul", counting_products)
        assert molien_coefficients(b3_group, 8) == [1, 0, 3, 0, 11, 0, 32, 0, 75]
        assert products == []

    def test_degree_zero_alone(self, b3_group):
        assert molien_coefficients(b3_group, 0) == [1]

    def test_a_class_short_of_the_group_is_not_an_integer(self, group):
        # the classes no longer partition the group: degree 0 sums to 6/8
        short = copy.copy(group)
        short.classes = group.classes[:-1]
        with pytest.raises(RuntimeError,
                           match="Molien coefficient at degree 0 is not an integer: 3/4"):
            molien_coefficients(short, 4)

    def test_a_fractional_trace_is_rejected(self, group):
        halved = copy.copy(group)
        stretch = matrix_from_rows([["1/2", "0", "0", "0"], ["0", "1", "0", "0"],
                                    ["0", "0", "1", "0"], ["0", "0", "0", "1"]])
        halved.elements = (GroupElement(stretch, "1"),) + group.elements[1:]
        with pytest.raises(RuntimeError, match="trace of 1 is not an integer: 7/2"):
            molien_coefficients(halved, 2)

    def test_traces_of_no_finite_order_matrix_are_rejected(self):
        # tr(g) = 1 and tr(g^2) = 0 would give h_2 = 1/2
        assert _power_trace_series([1, 1]) == [1, 1, 1]
        with pytest.raises(RuntimeError, match="coefficient 2 is not an integer"):
            _power_trace_series([1, 0])


class TestInvariantBasis:
    def test_degree_two_slice(self, group, named):
        basis = invariant_basis(group, 2)
        assert len(basis) == 3
        span = RowSpace()
        for p in basis:
            span.add(p.to_vector())
        for name in ("f1", "f2", "h1"):
            assert span.contains(named[name].to_vector())

    def test_degree_one_is_empty(self, group):
        assert invariant_basis(group, 1) == []

    def test_degree_zero_is_constants(self, group):
        assert invariant_basis(group, 0) == [Polynomial.one(4)]

    def test_every_basis_element_invariant(self, group):
        for d in range(5):
            for p in invariant_basis(group, d):
                assert fixed_by_every_element(group, p)


def reynolds_basis(group, degree):
    """The slice by definition: the Reynolds images of every monomial of the
    degree, row-reduced with the columns grlex-descending."""
    monos = sorted(monomials_of_degree(group.dim, degree), key=grlex_key, reverse=True)
    axis = {m: i for i, m in enumerate(monos)}
    back = dict(enumerate(monos))
    space = RowSpace()
    for exps in axis:
        image = reynolds(group, Polynomial.monomial(group.dim, exps))
        if not image.is_zero:
            space.add({axis[e]: c for e, c in image.items()})
    return [Polynomial(group.dim, {back[i]: c for i, c in row.items()})
            for row in space.reduced_rows()]


def counting(monkeypatch, name):
    """Count the calls of the function ``invariants`` binds to ``name``."""
    calls = []
    original = getattr(invariants, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(invariants, name, wrapper)
    return calls


class TestCommonKernel:
    """The slice is computed as the common kernel of ``v -> g.v - v`` over
    the generators; its reduced echelon basis is the one the Reynolds images
    of the monomials give."""

    @pytest.mark.parametrize("name, top", [
        ("group", 8), ("s3_group", 8), ("b3_group", 4), ("trivial", 3), ("minus", 5),
    ])
    def test_matches_the_reynolds_images(self, request, name, top):
        if name == "trivial":
            group = generate_group([], dim=4)
        elif name == "minus":
            group = generate_group([[["-1", "0"], ["0", "-1"]]])
        else:
            group = request.getfixturevalue(name)
        for d in range(top + 1):
            assert invariant_basis(group, d) == reynolds_basis(group, d)

    def test_applies_each_generator_once_per_monomial(self, monkeypatch, b3_group):
        averaged = counting(monkeypatch, "reynolds")
        acted = counting(monkeypatch, "act_on_poly")
        invariant_basis(b3_group, 4)
        assert averaged == []
        assert len(acted) == len(set(b3_group.generator_indices)) * comb(4 + 5, 5)

    def test_reads_the_basis_off_one_row_reduction(self, monkeypatch, b3_group):
        built, reduced = [], []

        class Counting(RowSpace):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

            def reduced_rows(self):
                reduced.append(self)
                return super().reduced_rows()

        expected = invariant_basis(b3_group, 4)  # builds the generators' actions
        monkeypatch.setattr(linalg, "RowSpace", Counting)
        assert invariant_basis(b3_group, 4) == expected
        assert len(built) == 1
        assert reduced == built

    def test_repeated_generator_is_applied_once(self, monkeypatch):
        minus = [["-1", "0"], ["0", "-1"]]
        swap = [["0", "1"], ["1", "0"]]
        group = generate_group([minus, swap, minus])
        acted = counting(monkeypatch, "act_on_poly")
        basis = invariant_basis(group, 4)
        assert len(acted) == 2 * 5
        assert sorted({g for _, _, g in acted}) == sorted(
            set(group.generator_indices))
        assert basis == reynolds_basis(group, 4)


class TestVerifyGenerators:
    def test_bundled_generators_complete_to_degree_eight(self, group, generators):
        rows = verify_generators(group, generators, 8)
        assert [r.degree for r in rows] == list(range(9))
        assert not any(r.deficient for r in rows)
        assert all(r.oracles_agree for r in rows)

    def test_partial_set_deficient_at_degree_two(self, group, named):
        partial = {"f1": named["f1"], "f2": named["f2"]}
        rows = verify_generators(group, partial, 2)
        assert [r.degree for r in rows if r.deficient] == [2]
        row = rows[2]
        assert row.span_dim == 2
        assert row.slice_dim == 3

    @pytest.mark.parametrize("name, top", [("group", 8), ("s3_group", 6), ("b3_group", 4)])
    def test_slice_dim_is_the_basis_length(self, request, generators, name, top):
        group = request.getfixturevalue(name)
        gens = generators if name == "group" else {}
        rows = verify_generators(group, gens, top)
        assert [r.slice_dim for r in rows] == [
            len(invariant_basis(group, d)) for d in range(top + 1)]

    def test_counts_slices_without_building_a_basis(self, monkeypatch, group, generators):
        built = counting(monkeypatch, "invariant_basis")
        assert not any(r.deficient for r in verify_generators(group, generators, 8))
        assert built == []

    def test_empty_generator_set_covers_degree_zero(self, group):
        (row,) = verify_generators(group, {}, 0)
        assert not row.deficient
        assert row.span_dim == 1

    def test_non_invariant_generator_rejected(self, group):
        with pytest.raises(ValueError, match="generator 'bad' is not invariant"):
            verify_generators(group, {"bad": P("x1*x2")}, 2)

    def test_invariance_tested_once_per_generator(self, monkeypatch, group, generators):
        tested = counting(monkeypatch, "is_invariant")
        rows = verify_generators(group, generators, 2)
        assert [p for _, p in tested] == list(generators.values())
        tested.clear()
        assert generator_spans(group, generators, 2) == rows
        assert tested == []

    def test_spans_check_the_generator_shapes(self, group, named):
        with pytest.raises(ValueError, match="'bad' must be homogeneous"):
            generator_spans(group, {"bad": named["f1"] + Polynomial.one(4)}, 2)
        with pytest.raises(ValueError, match="'bad' has the wrong variable count"):
            generator_spans(group, {"bad": P("x1^2", nvars=2)}, 2)

    def test_inhomogeneous_generator_rejected(self, group, named):
        bad = {"bad": named["f1"] + Polynomial.one(4)}
        with pytest.raises(ValueError, match="'bad' must be homogeneous"):
            verify_generators(group, bad, 2)

    def test_wrong_variable_count_rejected(self, group):
        with pytest.raises(ValueError, match="'bad' has the wrong variable count"):
            verify_generators(group, {"bad": P("x1^2", nvars=2)}, 2)

    @pytest.mark.parametrize("weights", [[1] * 5, [2, 2, 4, 4, 2, 4, 4, 4], [3, 1, 2]])
    def test_product_counts_match_the_enumeration(self, weights):
        counts = invariants._product_counts(weights, 9)
        assert counts == [sum(1 for _ in invariants._weighted_exponents(weights, d))
                          for d in range(10)]

    def test_bundled_generators_stay_within_the_product_budget(self, generators):
        weights = [p.total_degree() for p in generators.values()]
        assert [sum(invariants._product_counts(weights, d)) for d in (8, 12, 16)] == [
            100, 444, 1530]
        assert 1530 <= invariants.GENERATOR_PRODUCT_BUDGET

    @pytest.mark.parametrize("degree, products", [(6, 230230), (16, 7307872110)])
    def test_products_over_the_budget_are_refused_before_any_is_built(
            self, monkeypatch, degree, products):
        built = counting(monkeypatch, "_power_products")
        group = generate_group([], dim=2)
        gens = {f"g{i}": P(f"{i}*x1 + x2", nvars=2) for i in range(1, 21)}
        with pytest.raises(ValueError, match=(
                f"number {products}, over the generator-product budget "
                f"{invariants.GENERATOR_PRODUCT_BUDGET}")):
            generator_spans(group, gens, degree)
        assert built == []

    def test_products_of_generators_are_invariant(self, group, named):
        # soundness spot check: anything built from generators is invariant
        combo = named["f1"] * named["h4"] - named["h2"] ** 2 * Fraction(1, 3)
        assert fixed_by_every_element(group, combo)


def relation(text, generators):
    """A relation parsed in the generator names, in the order of ``generators``."""
    return parse_poly(text, names=list(generators))


class TestVerifyRelations:
    def test_first_relation_vanishes(self, generators):
        rel = relation("-f1f2h1 + f1h4 + f2h3 - h1^3 + 2h1h2", generators)
        assert verify_relations(generators, {"r1": rel}) == {"r1": Polynomial.zero(4)}

    def test_trivial_relation(self, generators):
        residuals = verify_relations(generators, {"t": relation("f1 - f1", generators)})
        assert residuals["t"].is_zero

    def test_non_relation_reported_verbatim(self, generators, named):
        residuals = verify_relations(generators, {"f1-alone": relation("f1", generators)})
        assert residuals == {"f1-alone": named["f1"]}

    def test_all_nine_bundled_relations_vanish(self, config, generators):
        residuals = verify_relations(generators, config.build_relation_set())
        assert list(residuals) == [f"r{i}" for i in range(1, 10)]
        assert all(r.is_zero for r in residuals.values())

    def test_residuals_keyed_by_relation_name_in_relation_order(self, generators, named):
        rels = {name: relation(text, generators) for name, text in [
            ("zeta", "h1^2 - f1f2"), ("alpha", "f1 - f1"), ("mid", "h2")]}
        residuals = verify_relations(generators, rels)
        assert list(residuals) == ["zeta", "alpha", "mid"]
        assert residuals["zeta"] == P("-x1^2*x4^2 + 2*x1*x2*x3*x4 - x2^2*x3^2")
        assert residuals["alpha"].is_zero
        assert residuals["mid"] == named["h2"]

    def test_variable_i_is_the_ith_generator(self, generators, named):
        rel = relation("f1 - f2", generators)
        assert verify_relations(generators, {"r": rel})["r"] == named["f1"] - named["f2"]
        # the same polynomial against the generators in another order: its
        # first variable now stands for f2 and its second for f1
        swapped = {"f2": generators["f2"], "f1": generators["f1"],
                   **{n: p for n, p in generators.items() if n not in ("f1", "f2")}}
        assert verify_relations(swapped, {"r": rel})["r"] == named["f2"] - named["f1"]

    # g has degree 4 and 35 terms in x, so g^k has degree 4k: the parser,
    # which reads g as one variable of degree 1, admits k up to 64
    @pytest.mark.parametrize("k, budget", [
        (16, f"expanding needs up to [0-9]+ term products, over the term-product "
             f"budget {TERM_PRODUCT_BUDGET}"),
        (32, f"degree 128 exceeds the degree cap {DEGREE_CAP}"),
        (64, f"degree 256 exceeds the degree cap {DEGREE_CAP}")])
    def test_dense_power_over_a_budget_is_refused(self, k, budget):
        start = time.perf_counter()
        gens = {"g": P("(x1+x2+x3+x4)^4")}
        with pytest.raises(ValueError, match=f"^relation 'r': {budget}$"):
            verify_relations(gens, {"r": relation(f"g^{k}", gens)})
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("text", ["f3^17", "f1^20*f3^7", "f3^8*h4^9"])
    def test_degree_over_the_cap_is_refused(self, generators, text):
        with pytest.raises(ValueError, match=(
                f"^relation 'r': degree [0-9]+ exceeds the degree cap {DEGREE_CAP}$")):
            verify_relations(generators, {"r": relation(text, generators)})

    def test_arity_mismatch_rejected(self, generators):
        rel = parse_poly("x1", nvars=2)
        with pytest.raises(ValueError, match="'bad' uses 2 abstract variables, expected 8"):
            verify_relations(generators, {"bad": rel})

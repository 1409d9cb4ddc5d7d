"""Polynomial arithmetic, derivatives, substitution, and the bracket."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from skewpoisson import (
    LinearSubstitution,
    Polynomial,
    SymplecticForm,
    format_poly,
    parse_poly,
    partial_derivative,
    poisson_bracket,
    substitute_linear,
)
from skewpoisson.linalg import identity_matrix, mat_mul, matrix_from_rows
from skewpoisson.poly import grlex_key, monomials_of_degree, variable_name

from conftest import assert_keys_match_images


def P(text: str, nvars: int = 4) -> Polynomial:
    return parse_poly(text, nvars=nvars)


def oracle_product(a: Polynomial, b: Polynomial) -> Polynomial:
    """Term-by-term product, written independently of Polynomial.__mul__."""
    acc: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            acc[key] = acc.get(key, Fraction(0)) + ca * cb
    return Polynomial(a.nvars, acc)


class TestMonomialsOfDegree:
    @pytest.mark.parametrize("nvars", range(1, 7))
    def test_matches_sorted_brute_force(self, nvars):
        for degree in range(9):
            # every choice of the first nvars - 1 exponents, the last one fixed
            brute = sorted(head + (degree - sum(head),)
                           for head in product(range(degree + 1), repeat=nvars - 1)
                           if sum(head) <= degree)
            assert list(monomials_of_degree(nvars, degree)) == brute

    @pytest.mark.parametrize("nvars", [1, 2, 4])
    @pytest.mark.parametrize("degree", [-1, -3])
    def test_negative_degree_yields_nothing(self, nvars, degree):
        assert list(monomials_of_degree(nvars, degree)) == []

    @pytest.mark.parametrize("nvars", [0, -1])
    def test_no_variables_rejected(self, nvars):
        with pytest.raises(ValueError, match="nvars must be a positive integer"):
            monomials_of_degree(nvars, 2)


class TestRingOps:
    def test_product_of_sums(self):
        # (x1^2 + x3^2)(x2^2 + x4^2), expanded by hand
        left = P("x1^2 + x3^2")
        right = P("x2^2 + x4^2")
        expected = P("x1^2*x2^2 + x1^2*x4^2 + x2^2*x3^2 + x3^2*x4^2")
        assert left * right == expected
        assert oracle_product(left, right) == expected

    def test_additive_identity(self):
        p = P("x1*x2 - 3*x4")
        assert p + Polynomial.zero(4) == p

    def test_cube_binomial(self):
        # (x1*x2 + x3*x4)^3 by the binomial theorem
        base = P("x1*x2 + x3*x4")
        expected = P(
            "x1^3*x2^3 + 3*x1^2*x2^2*x3*x4 + 3*x1*x2*x3^2*x4^2 + x3^3*x4^3"
        )
        assert base**3 == expected
        assert oracle_product(oracle_product(base, base), base) == expected

    def test_mismatched_nvars_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            P("x1", nvars=2) + P("x1", nvars=3)
        with pytest.raises(ValueError, match="mismatch"):
            P("x1", nvars=2) * P("x1", nvars=3)

    @pytest.mark.parametrize("bad", [-1, "1", None, 1.0])
    def test_exponents_must_be_non_negative_integers(self, bad):
        with pytest.raises(ValueError, match="non-negative integers"):
            Polynomial(2, {(1, bad): Fraction(1)})

    def test_float_coefficients_are_refused(self):
        # 0.1 is 3602879701896397/2**55 as a float; storing that would round
        with pytest.raises(ValueError, match="0.1 is a float"):
            Polynomial(2, {(1, 0): 0.1})
        with pytest.raises(ValueError, match="0.5 is a float"):
            Polynomial(2, {(1, 0): 0.5})

    def test_float_constant_is_refused(self):
        with pytest.raises(ValueError, match="0.1 is a float"):
            Polynomial.constant(4, 0.1)

    def test_float_monomial_coefficient_is_refused(self):
        with pytest.raises(ValueError, match="0.1 is a float"):
            Polynomial.monomial(2, (1, 1), 0.1)

    def test_canonical_form_drops_zeros(self):
        p = Polynomial(2, {(1, 0): Fraction(1), (0, 1): Fraction(0)})
        assert len(p) == 1
        assert (p - p).is_zero
        q = Polynomial(2, {(1, 0): Fraction(-1)})
        assert (p + q).is_zero

    @pytest.mark.parametrize("seed", range(4))
    def test_power_is_the_repeated_product(self, seed):
        rng = random.Random(f"power:{seed}")
        p = random_poly(rng, 3, terms=4, degree=3)
        expected = Polynomial.one(3)
        for e in range(7):
            assert p**e == expected
            expected = oracle_product(expected, p)

    def test_scalar_and_power_rules(self):
        p = P("x1 + x2", nvars=2)
        assert p * Fraction(1, 2) == P("1/2*x1 + 1/2*x2", nvars=2)
        assert p**0 == Polynomial.one(2)
        with pytest.raises(ValueError):
            p ** (-1)

    def test_equality_and_hash_are_structural(self):
        a = P("x1^2 - x2")
        b = P("-x2 + x1^2")
        assert a == b
        assert hash(a) == hash(b)
        assert a != P("x1^2 + x2")


def reference_sum(polys) -> dict:
    """The term dicts of ``polys`` added here and zeros dropped; ``+`` goes
    through Polynomial.sum, so it cannot be the reference."""
    acc: dict = {}
    for p in polys:
        for exps, c in p.items():
            acc[exps] = acc.get(exps, Fraction(0)) + c
    return {exps: c for exps, c in acc.items() if c}


class TestSum:
    @pytest.mark.parametrize("n", [1, 4])
    def test_empty_sum_is_the_zero_polynomial(self, n):
        total = Polynomial.sum(n, [])
        assert total.is_zero
        assert total.nvars == n
        assert total == Polynomial.zero(n)

    def test_full_cancellation_stores_no_zero(self):
        p = P("x1^2 - 1/2*x2*x3 + 7")
        for polys in ([p, -p], [P("x1"), P("x2"), P("-x1 - x2")]):
            total = Polynomial.sum(4, polys)
            assert total.is_zero
            assert len(total) == 0 and list(total.items()) == []

    def test_partial_cancellation_keeps_the_rest(self):
        # x2 cancels after two terms and comes back with the third
        total = Polynomial.sum(4, [P("x1 + x2"), P("x3 - x2"), P("2*x2 - x1")])
        assert dict(total.items()) == {(0, 1, 0, 0): 2, (0, 0, 1, 0): 1}
        assert total == P("2*x2 + x3")

    def test_mismatched_nvars_names_both_counts(self):
        with pytest.raises(ValueError, match="variable-count mismatch: 4 vs 3"):
            Polynomial.sum(4, [P("x1"), P("x1", nvars=3)])
        with pytest.raises(ValueError, match="variable-count mismatch: 2 vs 4"):
            Polynomial.sum(2, iter([P("x1")]))

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_reference(self, seed):
        rng = random.Random(f"sum:{seed}")
        n = rng.randint(1, 4)
        polys = [random_poly(rng, n, terms=rng.randint(0, 5), degree=2)
                 for _ in range(rng.randint(0, 6))]
        # negated copies make whole and partial cancellations common
        polys += [-p for p in rng.sample(polys, len(polys) // 2)]
        rng.shuffle(polys)
        total = Polynomial.sum(n, iter(polys))
        expected = reference_sum(polys)
        assert total.nvars == n
        assert dict(total.items()) == expected
        assert all(type(c) is Fraction and c for _, c in total.items())
        assert total.is_zero == (not expected)


class TestRingValue:
    """Polynomials add, subtract and compare with polynomials only; scalars
    multiply."""

    @pytest.mark.parametrize("operation", [
        lambda: Polynomial.zero(4) + 1,
        lambda: 1 + Polynomial.zero(4),
        lambda: Polynomial.one(4) - Fraction(1),
        lambda: 1 - Polynomial.one(4),
    ])
    def test_sums_with_scalars_raise(self, operation):
        with pytest.raises(TypeError):
            operation()

    def test_a_polynomial_never_equals_a_number(self):
        assert (Polynomial.one(4) == 1) is False
        assert (Polynomial.zero(4) == 0) is False
        assert Polynomial.constant(4, Fraction(1, 2)) != Fraction(1, 2)

    def test_scalars_multiply_on_either_side(self):
        p = P("x1 - 2*x3")
        assert 3 * p == p * 3 == P("3*x1 - 6*x3")
        assert (p * 0).is_zero

    def test_items_is_an_iterator_over_the_terms(self):
        p = P("x1*x2 - 3")
        terms = {(1, 1, 0, 0): 1, (0, 0, 0, 0): -3}
        assert next(p.items()) in terms.items()
        assert dict(p.items()) == terms
        assert p.coefficient((0, 1, 0, 0)) == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_from_vector_inverts_to_vector(self, seed):
        rng = random.Random(f"vector:{seed}")
        p = random_poly(rng, 3, terms=5, degree=4)
        for q in (p, Polynomial.zero(3)):
            assert Polynomial.from_vector(3, q.to_vector()) == q

    @pytest.mark.parametrize("n", [1, 4, 11])
    def test_variables_print_as_their_names(self, n):
        for i in range(n):
            assert format_poly(Polynomial.variable(n, i)) == variable_name(i)
            assert parse_poly(variable_name(i), nvars=n) == Polynomial.variable(n, i)

    def test_printing_ignores_the_insertion_order(self):
        terms = [((0, 2, 0, 0), Fraction(1)), ((1, 0, 0, 0), Fraction(-2)),
                 ((0, 0, 0, 0), Fraction(5)), ((1, 0, 1, 0), Fraction(1, 3))]
        printed = {format_poly(Polynomial(4, dict(order))) for order in permutations(terms)}
        assert printed == {"1/3*x1*x3 + x2^2 - 2*x1 + 5"}


class TestDerivative:
    def test_power_rule(self):
        assert partial_derivative(P("x1^2 + x3^2"), 0) == P("2*x1")

    def test_absent_variable(self):
        assert partial_derivative(P("x1^2 + x3^2"), 1).is_zero

    def test_two_term_derivative(self):
        got = partial_derivative(P("x1*x2*x4^2 + x2^2*x3*x4"), 3)
        assert got == P("2*x1*x2*x4 + x2^2*x3")

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            partial_derivative(P("x1"), 4)


class TestSubstitution:
    def test_kill_first_block(self):
        proj = matrix_from_rows([["0", "0", "0", "0"],
                                 ["0", "0", "0", "0"],
                                 ["0", "0", "1", "0"],
                                 ["0", "0", "0", "1"]])
        assert substitute_linear(P("x1^2 + x3^2"), proj) == P("x3^2")

    def test_identity_matrix(self):
        p = P("x1*x2^3 - 5/7*x4")
        assert substitute_linear(p, identity_matrix(4)) == p

    def test_pair_swap_fixes_h1(self):
        swap = matrix_from_rows([["0", "0", "1", "0"],
                                 ["0", "0", "0", "1"],
                                 ["1", "0", "0", "0"],
                                 ["0", "1", "0", "0"]])
        p = P("x1*x2 + x3*x4")
        assert substitute_linear(p, swap) == p

    def test_composition_law_dense_matrices(self):
        p = P("x1^2*x2 - x3*x4 + 2")
        m = matrix_from_rows([["1", "2", "0", "1"],
                              ["0", "1", "1", "0"],
                              ["1", "0", "1", "1"],
                              ["0", "1", "0", "2"]])
        n = matrix_from_rows([["2", "0", "1", "0"],
                              ["1", "1", "0", "0"],
                              ["0", "0", "1", "1"],
                              ["1", "0", "0", "1"]])
        assert substitute_linear(substitute_linear(p, m), n) == substitute_linear(
            p, mat_mul(m, n)
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="4x4"):
            substitute_linear(P("x1"), identity_matrix(3))

    def test_non_square_matrix_rejected(self):
        with pytest.raises(ValueError, match="2x2"):
            LinearSubstitution([[1, 0], [0, 1, 0]])

    @pytest.mark.parametrize("entry", [0.1, 0.0])
    def test_float_matrix_entry_is_refused(self, entry):
        with pytest.raises(ValueError, match=f"{entry} is a float"):
            LinearSubstitution([[1, 0], [entry, 1]])


def reference_substitution(p: Polynomial, matrix) -> Polynomial:
    """x_j -> sum_k M[j][k] x_k, term by term, as products of powers of the
    substituted linear forms."""
    n = p.nvars
    forms = [Polynomial(n, {tuple(int(i == k) for i in range(n)): c
                            for k, c in enumerate(row) if c})
             for row in matrix]
    total = Polynomial.zero(n)
    for exps, coeff in p.items():
        term = Polynomial.constant(n, coeff)
        for form, e in zip(forms, exps):
            term = term * form ** e
        total = total + term
    return total


def random_poly(rng: random.Random, n: int, terms: int, degree: int) -> Polynomial:
    out = {}
    for _ in range(terms):
        exps = [0] * n
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(n)] += 1
        out[tuple(exps)] = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
    return Polynomial(n, out)


def random_matrix(rng: random.Random, kind: str, n: int):
    perm = list(range(n))
    rng.shuffle(perm)
    if kind == "monomial":
        return [[Fraction(rng.choice((1, 2, -3)), rng.choice((1, 2))) if perm[j] == k else 0
                 for k in range(n)] for j in range(n)]
    if kind == "signed":
        return [[rng.choice((1, -1)) if perm[j] == k else 0 for k in range(n)]
                for j in range(n)]
    if kind == "halves":
        return [[rng.choice((0, Fraction(1, 2), Fraction(-1, 2))) for _ in range(n)]
                for _ in range(n)]
    rows = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 5))) for _ in range(n)]
            for _ in range(n)]
    if kind == "zero-row":
        rows[rng.randrange(n)] = [0] * n
    return rows


MATRIX_CASES = [("monomial", 4), ("signed", 4), ("halves", 4), ("zero-row", 4),
                ("general", 4), ("general", 6)]


class TestLinearSubstitution:
    @pytest.mark.parametrize("kind,n", MATRIX_CASES)
    def test_matches_reference(self, kind, n):
        rng = random.Random(f"{kind}:{n}")
        for _ in range(4):
            matrix = random_matrix(rng, kind, n)
            sub = LinearSubstitution(matrix)
            # monomial matrices take the per-variable path, the rest the memo
            assert (sub._images is None) == (kind in ("monomial", "signed"))
            for _ in range(3):
                p = random_poly(rng, n, terms=5, degree=4)
                assert sub(p) == reference_substitution(p, matrix)
                assert substitute_linear(p, matrix) == sub(p)

    @pytest.mark.parametrize("kind,n", MATRIX_CASES)
    def test_memo_hit_equals_fresh_compile(self, kind, n):
        rng = random.Random(f"twice:{kind}:{n}")
        matrix = random_matrix(rng, kind, n)
        sub = LinearSubstitution(matrix)
        polys = [random_poly(rng, n, terms=6, degree=5) for _ in range(3)]
        first = [sub(p) for p in polys]
        assert [sub(p) for p in polys] == first
        assert [LinearSubstitution(matrix)(p) for p in polys] == first

    def test_results_do_not_share_the_memo(self):
        matrix = random_matrix(random.Random(7), "general", 4)
        sub = LinearSubstitution(matrix)
        monomial = Polynomial.monomial(4, (1, 2, 0, 1))
        image = sub(monomial)
        assert image == reference_substitution(monomial, matrix)
        assert all(image._terms is not memo for memo in sub._images.values())

    @pytest.mark.parametrize("kind,n", MATRIX_CASES)
    def test_image_keys_match_images(self, kind, n):
        rng = random.Random(f"keys:{kind}:{n}")
        for _ in range(3):
            assert_keys_match_images(LinearSubstitution(random_matrix(rng, kind, n)), 4)

    @pytest.mark.parametrize("matrix", [
        [[1, 0], [1, 0]],  # monomial, x1 and x2 meet
        [[0, 2], [0, 0], [-1, 0]],  # monomial, x2 -> 0, onto fewer variables
        [[Fraction(1, 2)], [Fraction(1, 2)], [0], [Fraction(-1, 3)]],  # a column
        [[1, 1], [2, 2], [0, 0]],  # general, x2 is twice x1, x3 -> 0
    ])
    def test_image_keys_of_maps_that_are_not_invertible(self, matrix):
        assert_keys_match_images(LinearSubstitution(matrix), 5)

    def test_zero_polynomial(self):
        sub = LinearSubstitution(random_matrix(random.Random(3), "general", 4))
        assert sub(Polynomial.zero(4)).is_zero

    def test_signs_follow_the_parity_of_the_exponent(self):
        # x1 -> -x3, x2 -> x1, x3 -> -x2, x4 -> -x4 (a signed permutation)
        matrix = [[0, 0, -1, 0], [1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, -1]]
        sub = LinearSubstitution(matrix)
        for text, image in [
            ("x1^3*x2^2*x4^2", "-x1^2*x3^3*x4^2"),  # odd -, even -
            ("x1^2*x3^5*x4", "x2^5*x3^2*x4"),  # even -, odd -, odd -
            ("2*x1*x3*x4^4 - 1/3*x2^7*x4^3", "2*x2*x3*x4^4 + 1/3*x1^7*x4^3"),
        ]:
            assert sub(P(text)) == P(image) == reference_substitution(P(text), matrix)
            assert all(type(c) is Fraction for _, c in sub(P(text)).items())

    def test_repeated_images_add_and_cancel(self):
        # x1 -> x1, x2 -> x1: a monomial matrix that is not invertible, so
        # distinct monomials meet at one image
        matrix = [[1, 0], [1, 0]]
        sub = LinearSubstitution(matrix)
        assert sub._images is None
        assert sub(P("x1 - x2", nvars=2)).is_zero
        p = P("x1^2 + 1/2*x1*x2 - x2^2 + x2", nvars=2)
        image = sub(p)
        assert image == P("1/2*x1^2 + x1", nvars=2) == reference_substitution(p, matrix)
        assert all(type(c) is Fraction for _, c in image.items())


def reference_product(a: dict, b: dict) -> dict:
    acc: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            acc[key] = acc.get(key, Fraction(0)) + ca * cb
    return {e: c for e, c in acc.items() if c}


def reference_linear(terms: dict, matrix, width: int) -> dict:
    """x_j -> sum_k M[j][k] y_k on a {exponents: Fraction} map, expanded
    one variable at a time."""
    total: dict = {}
    for exps, coeff in terms.items():
        image = {(0,) * width: Fraction(coeff)}
        for j, e in enumerate(exps):
            form = {tuple(int(i == k) for i in range(width)): Fraction(c)
                    for k, c in enumerate(matrix[j]) if c}
            for _ in range(e):
                image = reference_product(image, form)
        for key, c in image.items():
            total[key] = total.get(key, Fraction(0)) + c
    return {e: c for e, c in total.items() if c}


def random_terms(rng: random.Random, n: int, terms: int, degree: int) -> dict:
    """A {exponents: Fraction} map whose denominators share factors, so
    numerators and denominators often have a common factor to divide out."""
    out = {}
    for _ in range(terms):
        exps = [0] * n
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(n)] += 1
        out[tuple(exps)] = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6)))
    return {e: c for e, c in out.items() if c}


def spelled(terms: dict, n: int) -> str:
    """``terms`` as text for parse_poly, written here and not by format_poly."""
    pieces = []
    for exps, c in terms.items():
        factors = [f"{abs(c)}"] + [f"x{i + 1}^{e}" for i, e in enumerate(exps) if e]
        pieces.append(("- " if c < 0 else "+ ") + "*".join(factors))
    return " ".join(pieces) or "0"


class TestIntegerKernel:
    """Every route to a value gives one canonical polynomial, equal and with
    the same hash, whose coefficients read back as the Fractions of a
    reference computed on {exponents: Fraction} maps."""

    @staticmethod
    def assert_value(p: Polynomial, terms: dict):
        expected = Polynomial(p.nvars, terms)
        assert p == expected and hash(p) == hash(expected)
        assert dict(p.items()) == terms
        assert all(type(c) is Fraction for _, c in p.items())
        assert all(type(p.coefficient(e)) is Fraction for e in terms)
        assert p.to_vector() == {grlex_key(e): p.coefficient(e) for e in terms}
        assert p.is_zero == (not terms)

    def test_common_factors_are_divided_out(self):
        half_x1 = Polynomial.monomial(2, (1, 0), Fraction(1, 2))
        x1 = Polynomial.variable(2, 0)
        self.assert_value(half_x1 * 2, {(1, 0): Fraction(1)})
        assert half_x1 * 2 == 2 * half_x1 == x1 and hash(half_x1 * 2) == hash(x1)
        third, two_thirds = (Polynomial.monomial(2, (1, 0), Fraction(k, 3)) for k in (1, 2))
        assert third + two_thirds == x1 and hash(third + two_thirds) == hash(x1)
        half_square = parse_poly("1/2*x1^2", nvars=2)
        assert partial_derivative(half_square, 0) == x1
        assert hash(partial_derivative(half_square, 0)) == hash(x1)
        assert Polynomial.monomial(2, (1, 0), Fraction(2, 4)) * Polynomial.constant(2, 4) == 2 * x1

    def test_mixed_denominators_cancel_to_zero(self):
        parts = [Polynomial.monomial(3, (1, 0, 2), Fraction(1, 2)),
                 Polynomial.monomial(3, (1, 0, 2), Fraction(1, 3)),
                 Polynomial.monomial(3, (1, 0, 2), Fraction(-5, 6))]
        total = Polynomial.sum(3, parts)
        assert total == Polynomial.zero(3) and hash(total) == hash(Polynomial.zero(3))
        self.assert_value(total, {})
        # a cancelled sixth leaves halves behind
        rest = Polynomial.sum(3, [*parts, Polynomial.constant(3, Fraction(1, 2))])
        self.assert_value(rest, {(0, 0, 0): Fraction(1, 2)})

    def test_integral_vectors_hold_ints(self):
        vec = parse_poly("2*x1 - 3*x2", nvars=2).to_vector()
        assert vec == {(1, (1, 0)): 2, (1, (0, 1)): -3}
        assert all(type(v) is int for v in vec.values())

    @pytest.mark.parametrize("seed", range(40))
    def test_every_route_matches_the_reference(self, seed):
        rng = random.Random(f"kernel:{seed}")
        n = rng.randint(1, 4)
        a = random_terms(rng, n, terms=rng.randint(0, 5), degree=3)
        b = random_terms(rng, n, terms=rng.randint(0, 4), degree=2)
        p = Polynomial(n, a)
        self.assert_value(p, a)
        # the same value built four more ways
        self.assert_value(parse_poly(spelled(a, n), nvars=n), a)
        self.assert_value(Polynomial.sum(n, [Polynomial.monomial(n, e, c) for e, c in a.items()]), a)
        self.assert_value(Polynomial.sum(n, [Polynomial.constant(n, c) * _power_product(n, e)
                                             for e, c in a.items()]), a)
        self.assert_value(Polynomial.from_vector(n, p.to_vector()), a)

        q = Polynomial(n, b)
        self.assert_value(p * q, reference_product(a, b))
        sums = {}
        for terms in (a, b):
            for e, c in terms.items():
                sums[e] = sums.get(e, Fraction(0)) + c
        self.assert_value(p + q, {e: c for e, c in sums.items() if c})
        self.assert_value(p - p, {})
        scalar = Fraction(rng.choice((-6, -2, 3, 4)), rng.choice((1, 2, 3, 4)))
        self.assert_value(p * scalar, {e: c * scalar for e, c in a.items()})
        self.assert_value(scalar * p, {e: c * scalar for e, c in a.items()})
        self.assert_value(-p, {e: -c for e, c in a.items()})
        index = rng.randrange(n)
        self.assert_value(partial_derivative(p, index), {
            e[:index] + (e[index] - 1,) + e[index + 1:]: c * e[index]
            for e, c in a.items() if e[index]})
        for kind in ("signed", "monomial", "halves", "general"):
            matrix = random_matrix(rng, kind, n)
            self.assert_value(LinearSubstitution(matrix)(p), reference_linear(a, matrix, n))
        wide = [[Fraction(rng.randint(-2, 2), rng.choice((1, 2, 4))) for _ in range(n + 1)]
                for _ in range(n)]
        self.assert_value(LinearSubstitution(wide)(p), reference_linear(a, wide, n + 1))


def _power_product(n: int, exps) -> Polynomial:
    """The monomial ``exps`` as a product of powers of variables."""
    result = Polynomial.one(n)
    for i, e in enumerate(exps):
        result = result * Polynomial.variable(n, i) ** e
    return result


class TestSymplecticForm:
    def test_rejects_odd_dimension(self):
        with pytest.raises(ValueError, match="even"):
            SymplecticForm([["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "0"]])

    def test_rejects_non_antisymmetric(self):
        with pytest.raises(ValueError, match="antisymmetric"):
            SymplecticForm(identity_matrix(2))

    def test_rejects_singular(self):
        rows = [["0", "0"], ["0", "0"]]
        with pytest.raises(ValueError):
            SymplecticForm(rows)


class TestPoissonBracket:
    def test_bundled_generator_bracket(self, form):
        # the bracket of the first two invariant generators
        assert poisson_bracket(P("x1^2 + x3^2"), P("x1*x2 + x3*x4"), form) == P(
            "2*x1^2 + 2*x3^2"
        )

    def test_self_bracket_vanishes(self, form):
        p = P("x1^3*x4 - 2*x2*x3 + 1/3")
        assert poisson_bracket(p, p, form).is_zero

    def test_darboux_pairs(self, form):
        x = [P(f"x{i}") for i in range(1, 5)]
        assert poisson_bracket(x[0], x[1], form) == Polynomial.one(4)
        assert poisson_bracket(x[0], x[3], form).is_zero
        assert poisson_bracket(x[2], x[3], form) == Polynomial.one(4)
        assert poisson_bracket(x[1], x[0], form) == Polynomial.constant(4, -1)

    def test_dimension_mismatch(self, form):
        with pytest.raises(ValueError, match="does not match"):
            poisson_bracket(P("x1", nvars=2), P("x1", nvars=2), form)

    def test_variable_count_mismatch(self, form):
        with pytest.raises(ValueError, match="variable-count mismatch"):
            poisson_bracket(P("x1"), P("x1", nvars=2), form)

    def test_nonstandard_form_tensor(self):
        # doubled form: bracket scales by 1/2 relative to the standard one
        doubled = SymplecticForm([["0", "2"], ["-2", "0"]])
        p, q = P("x1", nvars=2), P("x2", nvars=2)
        assert poisson_bracket(p, q, doubled) == Polynomial.constant(2, Fraction(1, 2))

"""Exact matrix helpers and the sparse row-reduction machinery."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest

from skewpoisson import LinearSubstitution, Polynomial, SymplecticForm, generate_group
from skewpoisson.linalg import (
    RowSpace,
    identity_matrix,
    inverse,
    mat_add,
    mat_mul,
    mat_mul_rows,
    mat_scale,
    matrix_from_rows,
    parse_scalar,
    sparse_rows,
    transpose,
)

from conftest import cofactor_det


class TestScalarsAndMatrices:
    def test_parse_scalar_forms(self):
        assert parse_scalar("-1") == -1
        assert parse_scalar("1/2") == Fraction(1, 2)
        assert parse_scalar("−3/4") == Fraction(-3, 4)
        with pytest.raises(ValueError):
            parse_scalar("a/b")
        with pytest.raises(ValueError):
            parse_scalar("1/0")

    @pytest.mark.parametrize("value", [True, None, "", "-", "1/", "- 1", "1/00", "-1.0e0", "-١"])
    def test_parse_scalar_refuses_what_is_no_literal(self, value):
        with pytest.raises(ValueError, match="invalid rational literal"):
            parse_scalar(value)

    def test_matrix_round_trip_and_ops(self):
        m = matrix_from_rows([["1", "2"], ["3", "4"]])
        n = matrix_from_rows([["0", "1"], ["1", "0"]])
        assert mat_mul(m, identity_matrix(2)) == m
        assert mat_mul(m, n) == matrix_from_rows([["2", "1"], ["4", "3"]])
        assert transpose(m) == matrix_from_rows([["1", "3"], ["2", "4"]])
        assert mat_add(m, mat_scale(Fraction(-1), m)) == matrix_from_rows(
            [["0", "0"], ["0", "0"]]
        )

    def test_one_product_for_integers_and_fractions(self):
        a = ((1, 0, -2), (0, 3, 0))
        b = ((0, 1), (2, 0), (1, -1))
        product = mat_mul_rows(a, sparse_rows(b), 2)
        assert product == ((-2, 3), (6, 0))
        assert all(type(x) is int for row in product for x in row)
        # mat_mul returns Fraction entries, untouched zeros included
        product = mat_mul(matrix_from_rows(a), matrix_from_rows(b))
        assert product == ((-2, 3), (6, 0))
        assert all(type(x) is Fraction for row in product for x in row)

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValueError, match="unequal"):
            matrix_from_rows([["1", "2"], ["3"]])

    def test_inverse(self):
        m = matrix_from_rows([["1", "2"], ["3", "4"]])
        assert mat_mul(m, inverse(m)) == identity_matrix(2)

    def test_singular_inverse_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            inverse(matrix_from_rows([["1", "2"], ["2", "4"]]))

    @staticmethod
    def assert_inverts(m):
        inv = inverse(m)
        n = len(m)
        assert mat_mul(m, inv) == mat_mul(inv, m) == identity_matrix(n)

    def test_inverse_round_trips_on_dense_rational_matrices(self):
        rng = random.Random(23)
        for n in range(1, 7):
            done = 0
            while done < 4:
                m = tuple(tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                for _ in range(n)) for _ in range(n))
                if cofactor_det(m) == 0:
                    continue
                self.assert_inverts(m)
                done += 1

    def test_inverse_round_trips_on_signed_permutations(self):
        rng = random.Random(29)
        for n in range(1, 7):
            for _ in range(4):
                perm = list(range(n))
                rng.shuffle(perm)
                m = tuple(tuple(Fraction(rng.choice((1, -1))) if perm[i] == j else Fraction(0)
                                for j in range(n)) for i in range(n))
                self.assert_inverts(m)
                assert inverse(m) == transpose(m)

    @pytest.mark.parametrize("rows", [
        [["1", "2", "3"], ["0", "0", "0"], ["4", "5", "6"]],  # a zero row
        [["0", "1", "2"], ["0", "3", "4"], ["0", "5", "7"]],  # a zero first column
        [["1", "2", "3"], ["4", "5", "6"], ["5", "7", "9"]],  # row 3 = row 1 + row 2
    ])
    def test_singular_inverse_rejected_by_shape(self, rows):
        with pytest.raises(ValueError, match="matrix is singular"):
            inverse(matrix_from_rows(rows))

    def test_inverse_of_empty_and_non_square_matrices(self):
        assert inverse(()) == ()
        with pytest.raises(ValueError, match="inverse requires a square matrix"):
            inverse(matrix_from_rows([["1", "2"]]))


# each reader of exact scalars, as a function of a scalar ``value`` and its
# exact value ``exact``, giving back the scalar it read: a matrix entry of a
# generator ([[0, v], [1/v, 0]] has order 2), of a form and of a
# substitution, and a coefficient
SCALAR_READERS = {
    "generate_group": lambda value, exact: generate_group(
        [[[0, value], [1 / exact, 0]]]).elements[1].matrix[0][1],
    "SymplecticForm": lambda value, exact: SymplecticForm(
        [[0, value], [-exact, 0]]).matrix[0][1],
    "LinearSubstitution": lambda value, exact: LinearSubstitution([[value]])(
        Polynomial.variable(1, 0)).coefficient((1,)),
    "Polynomial": lambda value, exact: Polynomial(1, {(1,): value}).coefficient((1,)),
}


@pytest.mark.parametrize("reader", SCALAR_READERS)
class TestExactScalars:
    @pytest.mark.parametrize("value", [0.5, "0.5", "1e3", "1_000", "٣"])
    def test_refused(self, reader, value):
        with pytest.raises(ValueError, match="is a float|invalid rational literal"):
            SCALAR_READERS[reader](value, Fraction(1))

    @pytest.mark.parametrize("value, exact", [
        ("−3/4", Fraction(-3, 4)), (" -1/2 ", Fraction(-1, 2)), (3, Fraction(3)),
        (Fraction(1, 2), Fraction(1, 2))])
    def test_accepted(self, reader, value, exact):
        assert SCALAR_READERS[reader](value, exact) == exact


class TestRowSpace:
    def test_rank_and_membership(self):
        space = RowSpace()
        assert space.add({0: Fraction(1), 1: Fraction(2)})
        assert not space.add({0: Fraction(2), 1: Fraction(4)})  # dependent
        assert space.add({1: Fraction(1)})
        assert space.rank == 2
        assert space.contains({0: Fraction(3), 1: Fraction(-7)})
        assert not space.contains({2: Fraction(1)})

    def test_reduced_rows_are_canonical(self):
        space = RowSpace()
        space.add({0: Fraction(2), 1: Fraction(2)})
        space.add({0: Fraction(1), 1: Fraction(2), 2: Fraction(1)})
        rows = space.reduced_rows()
        assert rows == [
            {0: Fraction(1), 2: Fraction(-1)},
            {1: Fraction(1), 2: Fraction(1)},
        ]

    @staticmethod
    def tracked(vectors):
        space = RowSpace(track=True)
        for vec in vectors:
            space.add(vec)
        return space

    def test_solve_consistent(self):
        vectors = [
            {0: Fraction(1), 1: Fraction(1)},
            {1: Fraction(1)},
            {0: Fraction(1)},  # dependent on the first two
        ]
        target = {0: Fraction(3), 1: Fraction(5)}
        space = self.tracked(vectors)
        coeffs, residual = space.solve(target)
        assert space.rank == 2
        assert coeffs is not None
        assert residual == {}
        # replay the combination exactly
        acc: dict = {}
        for c, vec in zip(coeffs, vectors):
            for col, val in vec.items():
                acc[col] = acc.get(col, Fraction(0)) + c * val
        assert {k: v for k, v in acc.items() if v} == target

    def test_solve_inconsistent(self):
        vectors = [{0: Fraction(1)}]
        target = {1: Fraction(1)}
        space = self.tracked(vectors)
        coeffs, residual = space.solve(target)
        assert coeffs is None
        assert space.rank == 1
        assert residual == {1: Fraction(1)}
        assert space.annihilator([min(residual)])[0] == {1: Fraction(1)}

    def test_separating_functional(self):
        vectors = [
            {0: Fraction(1), 2: Fraction(1), 3: Fraction(2)},
            {1: Fraction(2), 2: Fraction(-1)},
            {0: Fraction(1), 1: Fraction(2), 3: Fraction(2)},  # the sum of the first two
        ]
        target = {2: Fraction(3), 3: Fraction(1)}
        space = self.tracked(vectors)
        coeffs, residual = space.solve(target)
        assert coeffs is None
        y = space.annihilator([min(residual)])[0]
        # column 2 is the target's first non-pivot column; the reduced rows
        # reach it from pivots 0 and 1
        assert y == {2: Fraction(1), 0: Fraction(-1), 1: Fraction(1, 2)}

        def dot(v):
            return sum(c * v.get(col, 0) for col, c in y.items())

        assert all(dot(v) == 0 for v in vectors)
        assert dot(target) == 3

    def test_annihilator_is_the_null_space(self):
        vectors = [
            {0: Fraction(1), 2: Fraction(1), 3: Fraction(2)},
            {1: Fraction(2), 2: Fraction(-1)},
            {0: Fraction(1), 1: Fraction(2), 3: Fraction(2)},
        ]
        space = RowSpace()
        for v in vectors:
            space.add(v)
        # pivots 0 and 1 are skipped; columns 3 and 2 keep the order given
        ys = space.annihilator([3, 0, 2, 1])
        assert ys == [
            {3: Fraction(1), 0: Fraction(-2)},
            {2: Fraction(1), 0: Fraction(-1), 1: Fraction(1, 2)},
        ]
        assert all(sum(c * v.get(col, 0) for col, c in y.items()) == 0
                   for y in ys for v in vectors)
        # rank 2 in four columns: a two-dimensional null space
        assert space.rank + len(space.annihilator(range(4))) == 4

    @pytest.mark.parametrize("seed", range(24))
    def test_annihilator_highest_column_first_is_reduced_echelon(self, seed):
        # The rows pivot on their lowest column, so the functional of free
        # column c is 1 at c and nonzero elsewhere only at lower pivots: the
        # reduced echelon form of the null space for the reversed columns.
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        count = (0, n, rng.randint(1, n + 2))[seed % 3]  # rank 0, full, any
        dense = seed % 3 == 1
        space, rows = RowSpace(), []
        for _ in range(count):
            rows.append({c: Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
                         for c in range(n) if dense or rng.random() < 0.5})
            space.add(rows[-1])
        if count == 0:
            assert space.rank == 0
        if dense:
            assert space.rank == n
        ys = space.annihilator(range(n - 1, -1, -1))
        flipped = RowSpace()
        for y in ys:
            flipped.add({n - 1 - c: v for c, v in y.items()})
        assert ys == [{n - 1 - c: v for c, v in row.items()} for row in flipped.reduced_rows()]
        assert len(ys) == n - space.rank
        assert all(sum(v * row.get(c, 0) for c, v in y.items()) == 0 for y in ys for row in rows)

    def test_no_separating_functional_inside_the_span(self):
        vectors = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(1)}]
        coeffs, residual = self.tracked(vectors).solve({0: Fraction(2)})
        # nothing is left to separate: the target is a combination of the inputs
        assert coeffs is not None
        assert residual == {}

    def test_solve_needs_a_tracked_space(self):
        space = RowSpace()
        space.add({0: Fraction(1)})
        with pytest.raises(ValueError, match="track=True"):
            space.solve({0: Fraction(1)})

    def test_zero_vector_never_increases_rank(self):
        space = RowSpace()
        assert not space.add({})
        assert space.rank == 0
        assert space.contains({})

    def test_explicit_zero_entries_are_dropped(self):
        space = RowSpace()
        assert space.add({0: Fraction(0), 1: Fraction(1)})
        assert space.rank == 1
        assert space.reduced_rows() == [{1: Fraction(1)}]
        space = RowSpace()
        space.add({1: 1})
        assert space.contains({0: Fraction(0), 1: Fraction(2)})
        assert not space.contains({0: Fraction(1), 1: Fraction(0)})

    def test_annihilator_rejects_a_repeated_column(self):
        space = RowSpace()
        space.add({0: Fraction(1), 1: Fraction(1)})
        with pytest.raises(ValueError, match="distinct"):
            space.annihilator([1, 1, 2])


class FractionRowSpace:
    """The reference: positional elimination on ``Fraction`` rows normalised
    to lead 1, each with its combination of the inputs, and Gauss-Jordan
    back-substitution for the reduced rows."""

    def __init__(self):
        self.rows, self.combos, self.added = {}, {}, 0

    def reduce(self, vec):
        """``(rem, combo)`` with ``vec == rem + sum(combo[t] * input_t)``,
        reduced while the lowest column of ``rem`` is a pivot."""
        rem, combo = {c: Fraction(v) for c, v in vec.items() if v}, {}
        while rem and min(rem) in self.rows:
            lead = min(rem)
            f = rem[lead]
            for source, acc, sign in ((self.rows[lead], rem, -1), (self.combos[lead], combo, 1)):
                for c, v in source.items():
                    acc[c] = acc.get(c, 0) + sign * f * v
                    if not acc[c]:
                        del acc[c]
        return rem, combo

    def add(self, vec):
        tag = self.added
        self.added += 1
        rem, combo = self.reduce(vec)
        if rem:
            inv = 1 / rem[min(rem)]
            self.rows[min(rem)] = {c: v * inv for c, v in rem.items()}
            self.combos[min(rem)] = {t: -v * inv for t, v in combo.items()} | {tag: inv}

    def solve(self, target):
        rem, combo = self.reduce(target)
        if rem:
            return None, rem
        return [combo.get(t, Fraction(0)) for t in range(self.added)], {}

    def reduced_rows(self):
        reduced = {}
        for p in sorted(self.rows, reverse=True):
            row = dict(self.rows[p])
            for q in sorted(c for c in row if c in reduced):
                f = row.pop(q)
                for c, v in reduced[q].items():
                    if c != q:
                        row[c] = row.get(c, 0) - f * v
                        if not row[c]:
                            del row[c]
            reduced[p] = row
        return [reduced[p] for p in sorted(reduced)]

    def annihilator(self, columns):
        free = {c: {c: Fraction(1)} for c in columns if c not in self.rows}
        for p, row in zip(sorted(self.rows), self.reduced_rows()):
            for c, v in row.items():
                if c in free:
                    free[c][p] = -v
        return list(free.values())


def all_fractions(values):
    return all(type(v) is Fraction for v in values)


class TestAgainstFractionElimination:
    """``RowSpace`` reduces on integers; every value it returns must equal,
    and be a ``Fraction`` like, the plain ``Fraction`` elimination's."""

    @staticmethod
    def random_vector(rng, n):
        vec = {}
        for c in range(n):
            if rng.random() < 0.4:
                num = rng.randint(-10**6, 10**6) or 1
                den = rng.choice((1, 2, 3, 4, 6))
                vec[c] = num if den == 1 and rng.random() < 0.5 else Fraction(num, den)
        return vec

    @staticmethod
    def combination(rng, vectors):
        """A random rational combination of some of ``vectors``."""
        out = {}
        for vec in rng.sample(vectors, min(len(vectors), rng.randint(1, 3))):
            f = Fraction(rng.randint(-9, 9) or 1, rng.choice((1, 2, 3, 4, 6)))
            for c, v in vec.items():
                out[c] = out.get(c, 0) + f * v
        return {c: v for c, v in out.items() if v}

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_reference(self, seed):
        rng = random.Random(f"rowspace:{seed}")
        n = rng.randint(1, 9)
        track = seed % 2 == 0
        space, reference, inputs = RowSpace(track=track), FractionRowSpace(), []
        for _ in range(rng.randint(0, n + 3)):
            vec = (self.combination(rng, inputs) if inputs and rng.random() < 0.3
                   else self.random_vector(rng, n))
            inputs.append(vec)
            grew = space.add(vec)
            rank = len(reference.rows)
            reference.add(vec)
            assert grew == (len(reference.rows) > rank)
        assert space.rank == len(reference.rows)
        rows = space.reduced_rows()
        assert rows == reference.reduced_rows()
        assert all(all_fractions(row.values()) for row in rows)
        for columns in (range(n), range(n - 1, -1, -1)):
            ys = space.annihilator(columns)
            assert ys == reference.annihilator(columns)
            assert all(all_fractions(y.values()) for y in ys)
        targets = [self.random_vector(rng, n) for _ in range(3)]
        if inputs:
            targets += [self.combination(rng, inputs) for _ in range(3)]
        for target in targets:
            inside = not reference.reduce(target)[0]
            assert space.contains(target) == inside
            if track:
                coeffs, residual = space.solve(target)
                assert (coeffs, residual) == reference.solve(target)
                assert all_fractions(residual.values())
                assert coeffs is None or all_fractions(coeffs)

    def test_inverse_of_the_hilbert_matrix(self):
        # H[i][j] = 1/(i+j+1) has an integer inverse with entries in the
        # millions at n = 7, so the elimination's coefficients grow
        n = 7
        hilbert = tuple(tuple(Fraction(1, i + j + 1) for j in range(n)) for i in range(n))
        known = tuple(
            tuple((-1) ** (i + j) * (i + j + 1) * comb(n + i, n - j - 1)
                  * comb(n + j, n - i - 1) * comb(i + j, i) ** 2 for j in range(n))
            for i in range(n))
        inv = inverse(hilbert)
        assert inv == known
        assert all_fractions(x for row in inv for x in row)
        assert mat_mul(hilbert, inv) == identity_matrix(n)

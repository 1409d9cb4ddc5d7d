"""Group enumeration, classes, centralizers, projections, and the action."""

from __future__ import annotations

import copy
import dataclasses
import random
from fractions import Fraction

import pytest

from skewpoisson import (
    GroupClosureError,
    Polynomial,
    SkewElement,
    act_on_poly,
    collapse_to_sigma,
    generate_group,
    is_symplectic,
    molien_coefficients,
    parse_poly,
    project_term,
    reynolds,
    sigma_image_basis,
    substitute_linear,
)
from skewpoisson import groups, linalg
from skewpoisson.linalg import RowSpace, identity_matrix, inverse, mat_mul, matrix_from_rows
from skewpoisson.poly import LinearSubstitution, monomials_of_degree

from conftest import (
    ROTATION,
    class_restriction,
    conjugated_s3,
    coxeter_bn,
    on_h_plus_dual,
    random_poly,
)

B = [["-1", "0", "0", "0"], ["0", "-1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
C = [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]]
E = [["0", "0", "1", "0"], ["0", "0", "0", "1"], ["1", "0", "0", "0"], ["0", "1", "0", "0"]]


def P(text):
    return parse_poly(text, nvars=4)


def brute_force_classes(group):
    """Conjugation orbits computed directly from the matrices."""
    mats = [g.matrix for g in group.elements]
    remaining = set(range(group.order))
    classes = []
    while remaining:
        i = min(remaining)
        orbit = set()
        for h in mats:
            conj = mat_mul(mat_mul(h, mats[i]), inverse(h))
            orbit.add(mats.index(conj))
        classes.append(tuple(sorted(orbit)))
        remaining -= orbit
    return classes


class TestClosure:
    def test_bundled_group_has_order_eight(self, group):
        assert group.order == 8
        assert group.dim == 4
        assert group.elements[0].matrix == identity_matrix(4)

    def test_empty_generators_give_trivial_group(self):
        trivial = generate_group([], dim=4)
        assert trivial.order == 1
        assert len(trivial.classes) == 1
        assert trivial.classes[0].members == (0,)

    def test_infinite_group_hits_the_cap(self):
        for scalar in ("2", "1/2"):
            with pytest.raises(GroupClosureError, match="cap of 100"):
                generate_group([[[scalar]]], cap=100)

    def test_singular_generator_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            generate_group([[["1", "0"], ["0", "0"]]])

    @pytest.mark.parametrize("generators, options, match", [
        ([[["-1"]]], {"names": ["a", "b"]}, "name count"),
        ([[["-1"]], [["1"]]], {"names": ["a", "a"]}, "unique"),
        ([[["-1"]]], {"dim": 2}, "dim disagrees"),
        ([], {}, "needs an explicit dim"),
        ([], {"dim": 0}, "at least one variable"),
        ([[]], {}, "at least one variable"),
        ([[["0", "1"]]], {}, "is not 1x1"),
        *(([[["-1"]]], {"names": [name]}, "cannot be read back from a word")
          for name in ("", "1", "b*b", " b")),
    ])
    def test_guards(self, generators, options, match):
        with pytest.raises(ValueError, match=match):
            generate_group(generators, **options)

    def test_mul_table_closed_and_invertible(self, group):
        for i in range(group.order):
            row = [group.mul(i, j) for j in range(group.order)]
            assert sorted(row) == list(range(group.order))
            assert group.mul(i, group.inverse(i)) == 0

    def test_corrupted_powers_raise(self, group):
        # b * b redirected to b: the powers of b never reach the identity
        b = group.generator_indices[0]
        broken = copy.copy(group)
        broken._right = [list(row) for row in group._right]
        broken._right[b][0] = b
        for query in (broken.powers, broken.fixed_projection_matrix):
            with pytest.raises(RuntimeError, match="do not reach the identity"):
                query(b)

    def test_words_resolve_to_their_elements(self, group):
        for i, g in enumerate(group.elements):
            assert group.element_from_word(g.word) == i
        with pytest.raises(ValueError, match="unknown generator"):
            group.element_from_word("z")

    @pytest.mark.parametrize("word", ["", "  "])
    def test_empty_word_raises(self, group, word):
        # the identity is spelled "1"; the empty word is no second spelling of it
        with pytest.raises(ValueError, match="empty group word"):
            group.element_from_word(word)


def product_by_definition(a, b):
    """Matrix product summing every term, zero or not: the reference for
    ``mat_mul``, which skips zero products."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


class TestReferenceGroups:
    """The bundled group, B3 and S3 on h + h*, against the matrices."""

    def test_table_matches_matrix_products(self, reference_group):
        mats = [g.matrix for g in reference_group.elements]
        index = {m: i for i, m in enumerate(mats)}
        for i, a in enumerate(mats):
            for j, b in enumerate(mats):
                assert reference_group.mul(i, j) == index[mat_mul(a, b)]

    def test_powers_and_inverses_match_matrices(self, reference_group):
        ident = reference_group.elements[0].matrix
        for i, g in enumerate(reference_group.elements):
            expected, power = [], g.matrix
            while True:
                expected.append(power)
                if power == ident:
                    break
                power = mat_mul(power, g.matrix)
            got = [reference_group.elements[p].matrix for p in reference_group.powers(i)]
            assert got == expected
            assert reference_group.elements[reference_group.inverse(i)].matrix == inverse(g.matrix)

    def test_mat_mul_matches_definition(self, s3_group):
        # S3 is not monomial: its products have entries summing several terms
        mats = [g.matrix for g in s3_group.elements]
        for a in mats:
            for b in mats:
                assert mat_mul(a, b) == product_by_definition(a, b)

    def test_classes_match_brute_force(self, reference_group):
        got = [cls.members for cls in reference_group.classes]
        assert got == brute_force_classes(reference_group)

    def test_orders(self, group, b3_group, s3_group):
        assert [(g.order, len(g.classes)) for g in (group, b3_group, s3_group)] == [
            (8, 5), (48, 10), (6, 3)
        ]


def reference_enumeration(generators, names, dim):
    """The breadth-first search over ``Fraction`` matrices, multiplied by
    ``mat_mul``: the oracle for ``generate_group``.  Returns the matrices,
    words and generator indices, and per class (lowest index first) its
    members, centralizer and lowest conjugator of each member."""
    gens = [matrix_from_rows(g) for g in generators]
    mats = [identity_matrix(dim)]
    words = ["1"]
    index = {mats[0]: 0}
    for i, a in enumerate(mats):  # grows while it is walked: breadth-first
        for name, g in zip(names, gens):
            prod = mat_mul(a, g)
            if prod not in index:
                index[prod] = len(mats)
                mats.append(prod)
                words.append(name if i == 0 else f"{words[i]}*{name}")
    inverses = [inverse(m) for m in mats]
    classes, seen = [], set()
    for rep, r in enumerate(mats):
        if rep in seen:
            continue
        first = {}
        for k, (m, m_inv) in enumerate(zip(mats, inverses)):
            first.setdefault(index[mat_mul(mat_mul(m_inv, r), m)], k)
        members = tuple(sorted(first))
        seen.update(members)
        centralizer = tuple(k for k, m in enumerate(mats) if mat_mul(m, r) == mat_mul(r, m))
        classes.append((members, centralizer, tuple((h, first[h]) for h in members)))
    return mats, words, [index[g] for g in gens], classes


MINUS = [["-1", "0"], ["0", "-1"]]
SWAP = [["0", "1"], ["1", "0"]]

ENUMERATIONS = {
    "S3": ([on_h_plus_dual([["-1", "1"], ["0", "1"]]),
            on_h_plus_dual([["1", "0"], ["1", "-1"]])], 4, 6),
    "B3 seed 1": (coxeter_bn(3, seed=1), 6, 48),
    "B3 seed 2": (coxeter_bn(3, seed=2), 6, 48),
    "B3 seed 3": (coxeter_bn(3, seed=3), 6, 48),
    "repeated generator": ([MINUS, SWAP, MINUS], 2, 4),
    "trivial": ([], 3, 1),
    "conjugated S3": (conjugated_s3(), 4, 6),
    "rotation": ([ROTATION], 2, 6),
}


class TestEnumeration:
    """``generate_group`` against a search over ``Fraction`` matrices: the
    same elements in the same order, words, generator indices and classes."""

    def check(self, group, generators, names, dim):
        mats, words, generator_indices, classes = reference_enumeration(
            generators, names, dim)
        assert [g.matrix for g in group.elements] == mats
        assert [g.word for g in group.elements] == words
        assert list(group.generator_indices) == generator_indices
        assert [(c.members, c.centralizer, c.conjugators) for c in group.classes] == classes

    @pytest.mark.parametrize("case", list(ENUMERATIONS))
    def test_matches_the_fraction_search(self, case):
        generators, dim, order = ENUMERATIONS[case]
        names = [f"s{i}" for i in range(len(generators))]
        group = generate_group(generators, names=names, dim=dim)
        assert group.order == order
        self.check(group, generators, names, dim)

    def test_bundled_group(self, config, group):
        self.check(group, config.generator_matrices, config.generator_names, config.nvars)

    def test_entries_are_shared_fractions(self, b3_group, s3_group):
        for group in (b3_group, s3_group, generate_group(conjugated_s3())):
            entries = [x for g in group.elements for row in g.matrix for x in row]
            assert all(type(x) is Fraction for x in entries)
        # B3 is integral: one shared Fraction per distinct entry, 0, 1 and -1
        entries = [x for g in b3_group.elements for row in g.matrix for x in row]
        assert len({id(x) for x in entries}) == len(set(entries)) == 3

    def test_makes_no_fraction_matrix_product(self, monkeypatch):
        generators = coxeter_bn(3, seed=3)
        products = []
        original = linalg.mat_mul

        def counting(*args):
            products.append(args)
            return original(*args)

        monkeypatch.setattr(linalg, "mat_mul", counting)
        assert generate_group(generators).order == 48
        assert products == []


class TestIndexRange:
    """An element is its index, so the range check is the only guard: a
    negative index would otherwise wrap round silently."""

    @pytest.mark.parametrize("query", [
        lambda group, g: group.mul(g, 0),
        lambda group, g: group.mul(0, g),
        lambda group, g: group.inverse(g),
        lambda group, g: group.powers(g),
        lambda group, g: group.class_of(g),
        lambda group, g: group.centralizer_of(g),
        lambda group, g: group.fixed_projection_matrix(g),
        lambda group, g: SkewElement(group, {g: P("x1")}),
        lambda group, g: SkewElement.term(group, P("x1"), g),
        lambda group, g: SkewElement.one(group).g_part(g),
        lambda group, g: collapse_to_sigma(SkewElement.one(group), g),
        lambda group, g: act_on_poly(group, P("x1"), g),
    ], ids=["mul-left", "mul-right", "inverse", "powers", "class_of", "centralizer_of",
            "fixed_projection_matrix", "SkewElement", "term", "g_part", "collapse_to_sigma",
            "act_on_poly"])
    def test_out_of_range_raises(self, group, query):
        for g in (-1, group.order):
            with pytest.raises(ValueError, match="out of range"):
                query(group, g)


def bipartitions(n):
    """Number of pairs of partitions (a, b) with |a| + |b| = n."""
    partitions = [1] + [0] * n
    for part in range(1, n + 1):
        for k in range(part, n + 1):
            partitions[k] += partitions[k - part]
    return sum(partitions[k] * partitions[n - k] for k in range(n + 1))


def signed_monomial_invariants(generators, degree):
    """Dimension of the degree-``degree`` invariants of a group of monomial
    matrices, counted on monomials: an orbit contributes its signed sum
    unless some element maps its monomials to their negatives.  The orbits
    are walked along the generators, carrying the sign of each monomial."""
    nvars = len(generators[0])
    moves = []
    for g in generators:
        # column i of g has one nonzero entry: x_i -> g[r][i] * x_r
        moves.append([next((r, g[r][i]) for r in range(nvars) if g[r][i]) for i in range(nvars)])

    def act(move, exps):
        out = [0] * nvars
        sign = 1
        for i, e in enumerate(exps):
            r, s = move[i]
            out[r] = e
            sign *= s ** e
        return tuple(out), sign

    seen = set()
    count = 0
    for start in monomials_of_degree(nvars, degree):
        if start in seen:
            continue
        signs = {start: 1}
        stack = [start]
        consistent = True
        while stack:
            exps = stack.pop()
            for move in moves:
                image, sign = act(move, exps)
                if image not in signs:
                    signs[image] = sign * signs[exps]
                    stack.append(image)
                elif signs[image] != sign * signs[exps]:
                    consistent = False
        seen.update(signs)
        count += consistent
    return count


class TestB4Scale:
    """B4 on h + h*: order 384 in dimension 8."""

    def test_order_and_classes(self, b4_group):
        assert b4_group.order == 384
        assert len(b4_group.classes) == bipartitions(4) == 20
        for cls in b4_group.classes:
            assert cls.size * len(cls.centralizer) == 384

    def test_sampled_table_entries(self, b4_group):
        rng = random.Random(2024)
        mats = [g.matrix for g in b4_group.elements]
        index = {m: i for i, m in enumerate(mats)}
        for _ in range(2000):
            i, j = rng.randrange(384), rng.randrange(384)
            assert b4_group.mul(i, j) == index[mat_mul(mats[i], mats[j])]

    def test_molien_counts_signed_monomial_orbits(self, b4_group):
        generators = [b4_group.elements[i].matrix for i in b4_group.generator_indices]
        expected = [signed_monomial_invariants(generators, d) for d in range(5)]
        assert molien_coefficients(b4_group, 4) == expected == [1, 0, 3, 0, 11]


class TestB5Scale:
    """B5 on h + h*: order 3840 in dimension 10."""

    def test_order_and_classes(self, b5_group):
        assert b5_group.order == 3840
        assert len(b5_group.classes) == bipartitions(5) == 36
        for cls in b5_group.classes:
            assert cls.size * len(cls.centralizer) == 3840

    def test_sampled_products(self, b5_group):
        rng = random.Random(2025)
        mats = [g.matrix for g in b5_group.elements]
        index = {m: i for i, m in enumerate(mats)}
        for _ in range(2000):
            i, j = rng.randrange(3840), rng.randrange(3840)
            assert b5_group.mul(i, j) == index[mat_mul(mats[i], mats[j])]


class TestConjugacyClasses:
    def test_five_classes_match_brute_force(self, group):
        expected = brute_force_classes(group)
        got = [cls.members for cls in group.classes]
        assert got == expected
        assert len(got) == 5

    def test_class_of_b_is_b_and_c(self, group):
        b = group.element_from_word("b")
        c = group.element_from_word("c")
        cls = group.classes[group.class_of(b)]
        assert cls.members == tuple(sorted((b, c)))
        assert cls.representative == b

    def test_trivial_group_single_class(self):
        trivial = generate_group([], dim=2)
        assert [cls.members for cls in trivial.classes] == [(0,)]

    def test_class_equation(self, group):
        assert sum(cls.size for cls in group.classes) == group.order
        for cls in group.classes:
            assert cls.size * len(cls.centralizer) == group.order


class TestCentralizer:
    def test_centralizer_of_b(self, group):
        b = group.element_from_word("b")
        members = group.centralizer_of(b)
        # brute force: everything whose matrix commutes with b
        mb = group.elements[b].matrix
        expected = [
            i for i, g in enumerate(group.elements)
            if mat_mul(g.matrix, mb) == mat_mul(mb, g.matrix)
        ]
        assert list(members) == expected
        assert len(members) == 4

    def test_centralizer_of_identity_is_everything(self, group):
        assert len(group.centralizer_of(0)) == group.order

    def test_central_element(self, group):
        minus_one = group.element_from_word("b*c")
        assert group.elements[minus_one].matrix == tuple(
            tuple(-x for x in row) for row in identity_matrix(4)
        )
        assert len(group.centralizer_of(minus_one)) == group.order


class TestFixedProjection:
    def test_projection_of_b(self, group):
        b = group.element_from_word("b")
        expected = matrix_from_rows([["0", "0", "0", "0"],
                                     ["0", "0", "0", "0"],
                                     ["0", "0", "1", "0"],
                                     ["0", "0", "0", "1"]])
        assert group.fixed_projection_matrix(b) == expected

    def test_projection_of_identity(self, group):
        assert group.fixed_projection_matrix(0) == identity_matrix(4)

    def test_projection_of_swap(self, group):
        e = group.element_from_word("e")
        half = Fraction(1, 2)
        expected = (
            (half, 0, half, 0),
            (0, half, 0, half),
            (half, 0, half, 0),
            (0, half, 0, half),
        )
        assert group.fixed_projection_matrix(e) == expected

    def test_idempotent_and_equivariant(self, group):
        for i, g in enumerate(group.elements):
            proj = group.fixed_projection_matrix(i)
            assert mat_mul(proj, proj) == proj
            assert mat_mul(g.matrix, proj) == proj
            for u in group.centralizer_of(i):
                u = group.elements[u].matrix
                assert mat_mul(u, proj) == mat_mul(proj, u)


class TestClassRestriction:
    """Each class's restriction substitutes by a projection matrix, so it is
    idempotent and multiplicative; the image memo of ``sigma_image_basis``
    rests on both laws."""

    def test_idempotent_and_multiplicative(self, reference_group):
        group = reference_group
        rng = random.Random(f"restriction:{group.order}")
        for cls in group.classes:
            restrict = class_restriction(group, cls.index)
            for _ in range(4):
                p, q = random_poly(rng, group.dim), random_poly(rng, group.dim)
                assert restrict(restrict(p)) == restrict(p)
                assert restrict(p * q) == restrict(p) * restrict(q)


class TestClassCoordinates:
    """A class's restriction ``R``, the substitution by the fixed-space
    projection ``P`` of its representative, factors through ``k = rank P``
    coordinates ``u``, on which the centralizer acts by ``k x k`` matrices."""

    def test_back_after_into_is_the_restriction(self, reference_group):
        group = reference_group
        rng = random.Random(f"coordinates:{group.order}")
        for cls in group.classes:
            coords = group.class_coordinates(cls.index)
            proj = group.fixed_projection_matrix(cls.representative)
            for _ in range(4):
                p = random_poly(rng, group.dim)
                fixed = coords.into(p)
                assert fixed.nvars == max(coords.rank, 1)
                assert coords.back(fixed) == substitute_linear(p, proj)

    def test_rank_and_basis_of_the_projection(self, reference_group):
        group = reference_group
        for cls in group.classes:
            coords = group.class_coordinates(cls.index)
            proj = group.fixed_projection_matrix(cls.representative)
            space = RowSpace()
            for row in proj:
                space.add({j: v for j, v in enumerate(row) if v})
            assert coords.rank == space.rank == len(coords.basis)
            # u is the rows of P that come first by index, and P == A U
            chosen = [proj.index(row) for row in coords.basis]
            assert chosen == sorted(set(chosen))
            if coords.rank:
                assert mat_mul(coords.weights, coords.basis) == proj
            else:
                assert all(not any(row) for row in proj)

    def test_centralizer_acts_by_k_by_k_matrices(self, reference_group):
        group = reference_group
        rng = random.Random(f"centralizer:{group.order}")
        for cls in group.classes:
            coords = group.class_coordinates(cls.index)
            p = random_poly(rng, group.dim)
            fixed = coords.into(p)
            restricted = coords.back(fixed)
            matrices = set()
            for c in cls.centralizer:
                element = group.elements[c]
                if coords.rank:
                    b = mat_mul(mat_mul(coords.basis, inverse(element.matrix)),
                                coords.weights)
                    matrices.add(b)
                    acted = coords.back(LinearSubstitution(b)(fixed))
                else:
                    acted = restricted  # a constant
                assert acted == act_on_poly(group, restricted, c)
            # the compiled actions are the distinct ones other than the identity
            matrices.discard(identity_matrix(coords.rank))
            assert len(coords.actions) == len(matrices)
            for action in coords.actions:
                assert any(action(fixed) == LinearSubstitution(b)(fixed)
                           for b in matrices)

    def test_fixed_point_free_class_projects_onto_the_constant_term(self, group):
        i = group.class_of(group.element_from_word("b*c"))  # -I
        assert group.class_coordinates(i).rank == 0
        rng = random.Random("constant-term")
        for _ in range(4):
            p = random_poly(rng, 4)
            assert project_term(group, p, i) == Polynomial.constant(4, p.coefficient((0,) * 4))
        psi = P("3 + x1*x2 - 2*x3^2")
        images = sigma_image_basis(group, psi, i, 3)
        assert images[0] == ((0, 0, 0, 0), P("3"))
        assert len(images) == 35
        assert all(image.is_zero for _, image in images[1:])


class TestSymplectic:
    def test_generators_preserve_the_form(self, group, form):
        for word in ("b", "e"):
            assert is_symplectic(group.elements[group.element_from_word(word)].matrix, form)

    def test_every_element_preserves_the_form(self, group, form):
        assert all(is_symplectic(g.matrix, form) for g in group.elements)

    def test_stretch_fails(self, form):
        stretch = matrix_from_rows([["2", "0", "0", "0"],
                                    ["0", "1", "0", "0"],
                                    ["0", "0", "1", "0"],
                                    ["0", "0", "0", "1"]])
        assert not is_symplectic(stretch, form)

    def test_dimension_mismatch(self, group):
        from skewpoisson import SymplecticForm

        small = SymplecticForm([["0", "1"], ["-1", "0"]])
        with pytest.raises(ValueError, match="mismatch"):
            is_symplectic(group.elements[0].matrix, small)
        with pytest.raises(ValueError, match="must be 2x2"):
            is_symplectic(((1, 0), (0, 1, 0)), small)


class TestAction:
    def test_swap_moves_x1_squared(self, group):
        e = group.element_from_word("e")
        assert act_on_poly(group, P("x1^2"), e) == P("x3^2")

    def test_identity_acts_trivially(self, group):
        p = P("x1^3*x4 - x2")
        assert act_on_poly(group, p, 0) == p

    def test_b_fixes_h1(self, group):
        b = group.element_from_word("b")
        h1 = P("x1*x2 + x3*x4")
        assert act_on_poly(group, h1, b) == h1

    def test_action_is_a_left_action(self, group):
        p = P("x1^2*x2 - x3*x4 + x4^3")
        for g in range(group.order):
            for h in range(group.order):
                assert act_on_poly(group, p, group.mul(g, h)) == act_on_poly(
                    group, act_on_poly(group, p, h), g
                )

    def test_dimension_mismatch(self, group):
        with pytest.raises(ValueError, match="mismatch"):
            act_on_poly(group, parse_poly("x1", nvars=2), 0)


class TestActionCache:
    """Each element's action is compiled once, on first use, from the matrix
    of the inverse that the Cayley edges name, and kept with the group."""

    def test_element_record_is_read_only(self, group):
        e = group.element_from_word("e")
        record = group.elements[e]
        act_on_poly(group, P("x1"), e)  # the action is kept with the group
        assert [f.name for f in dataclasses.fields(record)] == ["matrix", "word"]
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.word = "b"

    def test_reynolds_row_reduces_no_inverse(self, monkeypatch):
        group = generate_group(coxeter_bn(3, seed=3))
        inverted = []
        original = linalg.inverse

        def counting(matrix):
            inverted.append(matrix)
            return original(matrix)

        monkeypatch.setattr(linalg, "inverse", counting)
        reynolds(group, random_poly(random.Random("inverse-count"), group.dim))
        assert inverted == []

    def test_a_second_reynolds_compiles_nothing(self, monkeypatch):
        compiled = []

        class Counting(LinearSubstitution):
            __slots__ = ()

            def __init__(self, matrix):
                compiled.append(matrix)
                super().__init__(matrix)

        monkeypatch.setattr(groups, "LinearSubstitution", Counting)
        group = generate_group(coxeter_bn(3, seed=3))
        p = random_poly(random.Random("compile-count"), group.dim)
        first = reynolds(group, p)
        assert compiled == [group.elements[group.inverse(g)].matrix
                            for g in range(group.order)]
        compiled.clear()
        assert reynolds(group, p) == first
        assert compiled == []

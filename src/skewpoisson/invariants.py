"""Invariant theory for finite matrix groups acting on polynomials.

Two independent routes to the dimensions of the invariant degree slices are
kept side by side on purpose: the Molien series (each class's
``1/det(I - t g)`` expanded on integers from the traces of the powers of
``g`` by Newton's identities, averaged over conjugacy classes weighted by
class size) and the common kernel of the generators' actions
(the polynomials of a degree that every generator fixes, the null space of
one row reduction of its monomials' images over the rationals).

A generator or relation table is a plain map from name to polynomial, in
table order.  Generator verification compares the span of generator
products against those slices degree by degree, counting each slice by
rank-nullity, and returns one :class:`DegreeRow` per degree.  Relation
verification substitutes the generators into candidate relations and
returns each residual verbatim under its relation's name; a nonzero
residual is a finding, never an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Mapping, Sequence

from . import linalg
from .groups import FiniteMatrixGroup, act_on_poly
from .parse import ExpansionBudget, power_work
from .poly import Polynomial, grlex_key, monomials_of_degree

__all__ = [
    "reynolds",
    "is_invariant",
    "molien_coefficients",
    "invariant_basis",
    "DegreeRow",
    "generator_spans",
    "verify_generators",
    "verify_relations",
]

# generator_spans builds one generator product per weighted exponent vector
# of degree 0..D, a count that grows with the number of generators, which
# the CLI's monomial budget does not see; the bundled generators need 1530
# at degree 16, 20 linear ones in two variables 53130 at degree 5
GENERATOR_PRODUCT_BUDGET = 20_000


def reynolds(group: FiniteMatrixGroup, p: Polynomial) -> Polynomial:
    """Average of a polynomial over the group; projects onto invariants."""
    if p.nvars != group.dim:
        raise ValueError(
            f"polynomial has {p.nvars} variables, group acts on {group.dim}"
        )
    total = Polynomial.sum(group.dim, (act_on_poly(group, p, g) for g in range(group.order)))
    return total * Fraction(1, group.order)


def is_invariant(group: FiniteMatrixGroup, p: Polynomial) -> bool:
    """Whether every group element fixes ``p``.

    Only the generators are tested, which suffices because the action is a
    homomorphism and the group is generated by them; the property suites
    compare this with a check of every element.
    """
    if p.nvars != group.dim:
        raise ValueError(
            f"polynomial has {p.nvars} variables, group acts on {group.dim}"
        )
    return all(act_on_poly(group, p, i) == p for i in group.generator_indices)


def molien_coefficients(group: FiniteMatrixGroup, up_to_degree: int) -> list:
    """Dimensions of the invariant degree slices, from the Molien series.

    Expands ``(1/|G|) sum_g 1/det(I - t g)`` exactly to the requested order.
    The determinant is a class function, so the sum runs over conjugacy
    classes, each representative weighted by its class size.  Each term is
    :func:`_power_trace_series` of the traces ``tr(g^k)``, each power read
    off :meth:`~skewpoisson.groups.FiniteMatrixGroup.powers`.  A trace is a
    class function too, so it is summed once per class.  ``g`` has finite
    order, so its eigenvalues are roots of unity: a trace is a rational sum
    of roots of unity, an algebraic integer and hence an integer, and the
    arithmetic stays on integers until the division by ``|G|``.
    Coefficient 0 is always 1.
    """
    if up_to_degree < 0:
        raise ValueError("up_to_degree must be non-negative")
    traces = {}  # class index -> the trace of its members

    def trace(i: int) -> int:
        c = group.class_of(i)
        if c not in traces:
            matrix = group.elements[i].matrix
            value = sum(row[j] for j, row in enumerate(matrix))
            if value.denominator != 1:
                raise RuntimeError(f"trace of {group.elements[i].word} is not an integer: {value}")
            traces[c] = value.numerator
        return traces[c]

    total = [0] * (up_to_degree + 1)
    for cls in group.classes:
        powers = group.powers(cls.representative)
        power_traces = [trace(powers[k % len(powers)]) for k in range(up_to_degree)]
        for k, h in enumerate(_power_trace_series(power_traces)):
            total[k] += cls.size * h
    coeffs = []
    for k, value in enumerate(total):
        quotient, remainder = divmod(value, group.order)
        if remainder:
            raise RuntimeError(f"Molien coefficient at degree {k} is not an integer: "
                               f"{Fraction(value, group.order)}")
        coeffs.append(quotient)
    return coeffs


def _power_trace_series(traces: Sequence[int]) -> list:
    """The coefficients ``h_0 .. h_D`` of ``1/det(I - t g)`` for a matrix
    ``g`` of finite order, from its power traces ``traces[k - 1] = tr(g^k)``
    for ``k = 1 .. D``.

    The series is ``exp(sum_k tr(g^k) t^k / k)``, so Newton's identity
    ``m h_m = sum_(k=1..m) tr(g^k) h_(m-k)`` with ``h_0 = 1`` gives it
    term by term.  Each ``h_m`` is a complete homogeneous symmetric
    polynomial in roots of unity, a rational algebraic integer, so every
    division is exact; a remainder raises ``RuntimeError``.
    """
    series = [1]
    for m in range(1, len(traces) + 1):
        quotient, remainder = divmod(
            sum(traces[k - 1] * series[m - k] for k in range(1, m + 1)), m)
        if remainder:
            raise RuntimeError(f"power-trace series coefficient {m} is not an integer")
        series.append(quotient)
    return series


def _slice_axis(nvars: int, degree: int) -> dict:
    """Column index per degree-``degree`` monomial, grlex-ascending.

    Within one degree grlex is lex, the order :func:`monomials_of_degree`
    yields.  Ascending, because :class:`linalg.RowSpace` pivots on the
    lowest column: each null-space functional of :func:`invariant_basis`
    then has its highest monomial at a free column.
    """
    return {m: i for i, m in enumerate(monomials_of_degree(nvars, degree))}


def _slice_constraints(group: FiniteMatrixGroup, axis: dict) -> linalg.RowSpace:
    """The row-reduced constraints whose null space is the invariant slice
    on ``axis``.

    A polynomial is invariant exactly when every generator fixes it, so the
    slice is the common kernel of the maps ``v -> g.v - v`` over the
    distinct generators ``g``.  Each generator's image of each monomial of
    the axis gives one column of those maps.
    """
    monomials = [Polynomial.monomial(group.dim, exps) for exps in axis]
    constraints = linalg.RowSpace()
    for g in dict.fromkeys(group.generator_indices):
        rows = {}  # key of m' -> {column of m: coefficient of m' in g.m - m}
        for (exps, col), mono in zip(axis.items(), monomials):
            image = act_on_poly(group, mono, g).to_vector()
            key = grlex_key(exps)
            for out, coeff in image.items():
                if out != key:
                    rows.setdefault(out, {})[col] = coeff
            kept = image.get(key, 0)
            if kept != 1:
                rows.setdefault(key, {})[col] = kept - 1 if kept else -1
        for row in rows.values():
            constraints.add(row)
    return constraints


def invariant_basis(group: FiniteMatrixGroup, degree: int) -> list:
    """A canonical basis of the degree-``degree`` invariant slice: its
    reduced echelon form for grlex-descending monomials (leading coefficient
    1, no other element with a term at a leading monomial), highest leading
    monomial first.  A subspace has one such basis, so it is deterministic
    and equals the row-reduced Reynolds images of the monomials, without
    averaging over the group.

    It is the :meth:`~linalg.RowSpace.annihilator` of
    :func:`_slice_constraints`, free columns highest first.  The constraint
    rows pivot on their lowest column, so the functional of free column
    ``c`` is 1 at ``c``, nonzero elsewhere only at lower pivots and 0 at
    every other free column: already reduced, with no second elimination.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    axis = _slice_axis(group.dim, degree)
    monos = list(axis)
    functionals = _slice_constraints(group, axis).annihilator(range(len(monos) - 1, -1, -1))
    return [Polynomial(group.dim, {monos[i]: c for i, c in y.items()}) for y in functionals]


@dataclass(frozen=True)
class DegreeRow:
    degree: int
    molien: int
    slice_dim: int
    span_dim: int

    @property
    def deficient(self) -> bool:
        return self.span_dim < self.slice_dim

    @property
    def oracles_agree(self) -> bool:
        return self.molien == self.slice_dim


def _weighted_exponents(weights: Sequence[int], degree: int):
    """Exponent vectors e with sum(e[i] * weights[i]) == degree."""
    if not weights:
        if degree == 0:
            yield ()
        return
    w = weights[0]
    rest = weights[1:]
    e = 0
    while e * w <= degree:
        for tail in _weighted_exponents(rest, degree - e * w):
            yield (e,) + tail
        e += 1


def _product_counts(weights: Sequence[int], up_to_degree: int) -> list:
    """How many exponent vectors :func:`_weighted_exponents` yields at each
    degree ``0 .. up_to_degree``, counted without building them: an
    unbounded knapsack over the weights."""
    counts = [1] + [0] * up_to_degree
    for w in weights:
        for d in range(w, up_to_degree + 1):
            counts[d] += counts[d - w]
    return counts


def _power_products(polys: Sequence[Polynomial]):
    """``times_powers(start, exps, budget=None)``: the constant ``start``
    times the product of the generator powers ``polys[i] ** exps[i]``, each
    power computed once; the first power is the generator itself.  ``polys``
    are the generator polynomials in table order.

    Given a :class:`~skewpoisson.parse.ExpansionBudget`, every higher power
    and every product is first charged to it, which raises ``ValueError``
    for one it refuses before it is expanded: the degree is read off the
    generators' degrees, a power's term products are estimated by
    :func:`~skewpoisson.parse.power_work` (also when the power is cached,
    so what one call is charged does not depend on the calls before it)
    and a product's are the product of its operands' term counts.
    """
    powers = [{1: p} for p in polys]
    degrees = [max(p.total_degree(), 0) for p in polys]

    @cache
    def work(i: int, e: int) -> int:
        return power_work(polys[i], e)

    def times_powers(start: Polynomial, exps, budget=None) -> Polynomial:
        degree = 0
        for i, e in enumerate(exps):
            if e:
                if budget is not None and e > 1:
                    budget.charge(degrees[i] * e, work(i, e))
                power = powers[i].get(e)
                if power is None:
                    power = powers[i][e] = polys[i] ** e
                if budget is not None:
                    degree += degrees[i] * e
                    budget.charge(degree, len(start) * len(power))
                start = start * power
        return start

    return times_powers


def verify_generators(
    group: FiniteMatrixGroup,
    gens: Mapping[str, Polynomial],
    up_to_degree: int,
) -> tuple:
    """Test each generator for invariance, then compare generator-product
    spans with the invariant slices per degree (:func:`generator_spans`).

    ``gens`` maps each generator name to its polynomial.  A generator that
    is not invariant raises ``ValueError``, as do the inputs that
    :func:`generator_spans` rejects.
    """
    for name, p in gens.items():
        _check_variable_count(group, name, p)
        if not is_invariant(group, p):
            raise ValueError(f"generator {name!r} is not invariant")
    return generator_spans(group, gens, up_to_degree)


def generator_spans(
    group: FiniteMatrixGroup,
    gens: Mapping[str, Polynomial],
    up_to_degree: int,
) -> tuple:
    """Compare generator-product spans with the invariant slices per degree.

    ``gens`` maps each generator name to its polynomial, and every
    generator must already be known invariant: :func:`verify_generators`
    tests that first, and the ``invariants`` command reports it in a stage
    of its own.  Returns one :class:`DegreeRow` per degree
    ``0 .. up_to_degree``.  A slice's dimension is its number of monomials
    minus the rank of its constraints, still independent of Molien.
    Requires homogeneous generators of positive degree, so the grading is
    respected and a degree-slice comparison is exact.  A deficient degree
    is reported, not raised.  More than :data:`GENERATOR_PRODUCT_BUDGET`
    generator products up to the degree raise ``ValueError`` before any is
    built.
    """
    for name, p in gens.items():
        _check_variable_count(group, name, p)
        if not p.is_homogeneous() or p.total_degree() < 1:
            raise ValueError(
                f"generator {name!r} must be homogeneous of positive degree"
            )
    polys = list(gens.values())
    weights = [p.total_degree() for p in polys]
    products = sum(_product_counts(weights, up_to_degree))
    if products > GENERATOR_PRODUCT_BUDGET:
        raise ValueError(f"the generator products up to degree {up_to_degree} number "
                         f"{products}, over the generator-product budget "
                         f"{GENERATOR_PRODUCT_BUDGET}")
    molien = molien_coefficients(group, up_to_degree)

    times_powers = _power_products(polys)
    rows = []
    for d in range(up_to_degree + 1):
        axis = _slice_axis(group.dim, d)
        slice_dim = len(axis) - _slice_constraints(group, axis).rank
        space = linalg.RowSpace()
        for exps in _weighted_exponents(weights, d):
            prod = times_powers(Polynomial.one(group.dim), exps)
            if not prod.is_zero:
                space.add(prod.to_vector())
        rows.append(DegreeRow(d, molien[d], slice_dim, space.rank))
    return tuple(rows)


def _check_variable_count(group: FiniteMatrixGroup, name: str, p: Polynomial) -> None:
    if p.nvars != group.dim:
        raise ValueError(f"generator {name!r} has the wrong variable count")


def verify_relations(gens: Mapping[str, Polynomial], rels: Mapping[str, Polynomial]) -> dict:
    """Substitute the generators into each relation; return
    ``{relation name: residual}`` in the order of ``rels``.

    A relation is a polynomial in one abstract variable per generator, and
    its variable ``i`` stands for the ``i``-th generator of ``gens``, so
    ``gens`` must list the generators in the order the relations were parsed
    in.  A nonzero residual is a finding, returned verbatim.

    Every generator power and product a relation needs is held to the
    parser's budgets in the ``x`` variables before it is expanded, with one
    :class:`~skewpoisson.parse.ExpansionBudget` per relation: the parser
    sees a generator as one abstract variable, so ``g^32`` parses even when
    ``g`` has 35 terms.  A relation over either budget raises ``ValueError``
    naming the relation and the budget.
    """
    polys = list(gens.values())
    k = len(polys)
    residuals = {}
    times_powers = _power_products(polys)
    nvars = polys[0].nvars if polys else 1
    for name, rel in rels.items():
        if rel.nvars != k:
            raise ValueError(
                f"relation {name!r} uses {rel.nvars} abstract variables, expected {k}"
            )
        budget = ExpansionBudget()
        try:
            residuals[name] = Polynomial.sum(
                nvars, (times_powers(Polynomial.constant(nvars, coeff), exps, budget)
                        for exps, coeff in rel.items()))
        except ValueError as exc:
            raise ValueError(f"relation {name!r}: {exc}") from None
    return residuals

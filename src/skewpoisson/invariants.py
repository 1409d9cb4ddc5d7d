"""Invariant theory for finite matrix groups acting on polynomials.

Two independent routes to the dimensions of the invariant degree slices are
kept side by side on purpose: the Molien series (exact power-series
expansion of characteristic determinants, averaged over conjugacy classes
weighted by class size) and the common kernel of the generators' actions
(the polynomials of a degree that every generator fixes, read off the
row-reduced images of its monomials over the rationals).  Generator
verification compares the span of generator products against those slices
degree by degree, and relation verification substitutes the generators into
candidate relations and reports the residual verbatim; a nonzero residual is
a finding, never an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import linalg
from .groups import FiniteMatrixGroup, act_on_poly
from .poly import Polynomial, grlex_key, monomials_of_degree

__all__ = [
    "reynolds",
    "is_invariant",
    "molien_coefficients",
    "invariant_basis",
    "GeneratorSet",
    "RelationSet",
    "DegreeRow",
    "GeneratorSpanReport",
    "RelationReport",
    "verify_generators",
    "verify_relations",
]


def reynolds(group: FiniteMatrixGroup, p: Polynomial) -> Polynomial:
    """Average of a polynomial over the group; projects onto invariants."""
    if p.nvars != group.dim:
        raise ValueError(
            f"polynomial has {p.nvars} variables, group acts on {group.dim}"
        )
    total = Polynomial.zero(group.dim)
    for g in group.elements:
        total = total + act_on_poly(g, p)
    return total * Fraction(1, group.order)


def is_invariant(group: FiniteMatrixGroup, p: Polynomial, exhaustive: bool = False) -> bool:
    """Whether every group element fixes ``p``.

    By default only the generators are tested, which suffices because the
    action is a homomorphism; ``exhaustive=True`` checks all elements (the
    property suite compares the two).
    """
    if p.nvars != group.dim:
        raise ValueError(
            f"polynomial has {p.nvars} variables, group acts on {group.dim}"
        )
    if exhaustive:
        candidates = group.elements
    else:
        candidates = [group.elements[i] for i in group.generator_indices]
    return all(act_on_poly(g, p) == p for g in candidates)


def molien_coefficients(group: FiniteMatrixGroup, up_to_degree: int) -> list:
    """Dimensions of the invariant degree slices, from the Molien series.

    Expands ``(1/|G|) sum_g 1/det(I - t g)`` exactly to the requested order.
    The determinant is a class function, so the sum runs over conjugacy
    classes, each representative weighted by its class size; det(I - t g)
    is the reversed characteristic polynomial of g.  Coefficient 0 is
    always 1.
    """
    if up_to_degree < 0:
        raise ValueError("up_to_degree must be non-negative")
    total = [Fraction(0)] * (up_to_degree + 1)
    for cls in group.classes:
        # det(I - t*g) = t^n * det(t^-1 * I - g): coefficient j is that of t^(n-j)
        dets = linalg.char_poly(group.elements[cls.representative].matrix)[::-1]
        # power-series inverse of the determinant; constant term is det(I) = 1
        inv = [Fraction(1)]
        for k in range(1, up_to_degree + 1):
            acc = Fraction(0)
            for j in range(1, min(k, len(dets) - 1) + 1):
                acc += dets[j] * inv[k - j]
            inv.append(-acc)
        for k in range(up_to_degree + 1):
            total[k] += cls.size * inv[k]
    coeffs = []
    for k, value in enumerate(total):
        value = value / group.order
        if value.denominator != 1:
            raise RuntimeError(
                f"Molien coefficient at degree {k} is not an integer: {value}"
            )
        coeffs.append(int(value))
    return coeffs


def _slice_axis(nvars: int, degree: int) -> dict:
    """Column index per degree-``degree`` monomial, grlex-descending."""
    monos = sorted(monomials_of_degree(nvars, degree), key=grlex_key, reverse=True)
    return {m: i for i, m in enumerate(monos)}


def _slice_vector(p: Polynomial, axis: dict) -> dict:
    vec = {}
    for exps, coeff in p._terms.items():
        vec[axis[exps]] = coeff
    return vec


def invariant_basis(group: FiniteMatrixGroup, degree: int) -> list:
    """A canonical basis of the degree-``degree`` invariant slice.

    A polynomial is invariant exactly when every generator fixes it, so the
    slice is the common kernel of the maps ``v -> g.v - v`` over the
    distinct generators ``g``.  Each generator's image of each monomial of
    the degree gives one column of those maps, and the null space of the
    row-reduced constraints (``RowSpace.annihilator``) is the slice.  The
    returned polynomials are the fully reduced echelon rows of that null
    space (leading coefficient 1).  A subspace has one reduced echelon form
    for a fixed column order, so the basis is deterministic and equals the
    row-reduced Reynolds images of the monomials, without averaging over
    the group.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    axis = _slice_axis(group.dim, degree)
    back = {i: m for m, i in axis.items()}
    monomials = [Polynomial.monomial(group.dim, exps) for exps in axis]
    constraints = linalg.RowSpace()
    for g in dict.fromkeys(group.generator_indices):
        element = group.elements[g]
        rows = {}  # monomial m' -> {column of m: coefficient of m' in g.m - m}
        for (exps, col), mono in zip(axis.items(), monomials):
            image = act_on_poly(element, mono)._terms
            for out, coeff in image.items():
                if out != exps:
                    rows.setdefault(out, {})[col] = coeff
            stays = image.get(exps, Fraction(0)) - 1
            if stays:
                rows.setdefault(exps, {})[col] = stays
        for row in rows.values():
            constraints.add(row)
    space = linalg.RowSpace()
    for vec in constraints.annihilator(range(len(axis))):
        space.add(vec)
    basis = []
    for row in space.reduced_rows():
        basis.append(Polynomial(group.dim, {back[i]: c for i, c in row.items()}))
    return basis


@dataclass(frozen=True)
class GeneratorSet:
    """Named polynomials proposed as algebra generators of the invariants."""

    names: tuple
    polys: tuple

    def __post_init__(self):
        if len(self.names) != len(self.polys):
            raise ValueError("generator names and polynomials differ in number")
        if len(set(self.names)) != len(self.names):
            raise ValueError("generator names must be unique")

    def __len__(self) -> int:
        return len(self.names)


@dataclass(frozen=True)
class RelationSet:
    """Candidate relations, as polynomials in the abstract generator names."""

    names: tuple
    polys: tuple  # Polynomial instances with nvars == len(GeneratorSet)

    def __post_init__(self):
        if len(self.names) != len(self.polys):
            raise ValueError("relation names and polynomials differ in number")


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


@dataclass(frozen=True)
class GeneratorSpanReport:
    rows: tuple  # tuple[DegreeRow, ...]

    @property
    def deficient_degrees(self) -> tuple:
        return tuple(r.degree for r in self.rows if r.deficient)

    @property
    def complete(self) -> bool:
        return not self.deficient_degrees


@dataclass(frozen=True)
class RelationReport:
    names: tuple
    residuals: tuple  # tuple[Polynomial, ...]

    @property
    def nonzero(self) -> tuple:
        return tuple(
            (n, r) for n, r in zip(self.names, self.residuals) if not r.is_zero
        )

    @property
    def all_zero(self) -> bool:
        return not self.nonzero


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


def _power_products(gens: GeneratorSet):
    """``times_powers(start, exps)``: ``start`` times the product of the
    generator powers ``gens.polys[i] ** exps[i]``, each power computed once."""
    cache = [dict() for _ in gens.polys]

    def times_powers(start: Polynomial, exps) -> Polynomial:
        for i, e in enumerate(exps):
            if e:
                power = cache[i].get(e)
                if power is None:
                    power = cache[i][e] = gens.polys[i] ** e
                start = start * power
        return start

    return times_powers


def verify_generators(
    group: FiniteMatrixGroup,
    gens: GeneratorSet,
    up_to_degree: int,
) -> GeneratorSpanReport:
    """Compare generator-product spans with the invariant slices per degree.

    Requires homogeneous generators of positive degree, so the grading is
    respected and a degree-slice comparison is exact.  A deficient degree is
    reported, not raised.
    """
    for name, p in zip(gens.names, gens.polys):
        if p.nvars != group.dim:
            raise ValueError(f"generator {name!r} has the wrong variable count")
        if not is_invariant(group, p):
            raise ValueError(f"generator {name!r} is not invariant")
        if not p.is_homogeneous() or p.total_degree() < 1:
            raise ValueError(
                f"generator {name!r} must be homogeneous of positive degree"
            )
    weights = [p.total_degree() for p in gens.polys]
    molien = molien_coefficients(group, up_to_degree)

    times_powers = _power_products(gens)
    rows = []
    for d in range(up_to_degree + 1):
        slice_dim = len(invariant_basis(group, d))
        axis = _slice_axis(group.dim, d)
        space = linalg.RowSpace()
        for exps in _weighted_exponents(weights, d):
            prod = times_powers(Polynomial.one(group.dim), exps)
            if not prod.is_zero:
                space.add(_slice_vector(prod, axis))
        rows.append(DegreeRow(d, molien[d], slice_dim, space.rank))
    return GeneratorSpanReport(tuple(rows))


def verify_relations(gens: GeneratorSet, rels: RelationSet) -> RelationReport:
    """Substitute the generators into each relation and report residuals."""
    k = len(gens)
    residuals = []
    times_powers = _power_products(gens)
    nvars = gens.polys[0].nvars if gens.polys else 1
    for name, rel in zip(rels.names, rels.polys):
        if rel.nvars != k:
            raise ValueError(
                f"relation {name!r} uses {rel.nvars} abstract variables, expected {k}"
            )
        total = Polynomial.zero(nvars)
        for exps, coeff in rel._terms.items():
            total = total + times_powers(Polynomial.constant(nvars, coeff), exps)
        residuals.append(total)
    return RelationReport(tuple(rels.names), tuple(residuals))

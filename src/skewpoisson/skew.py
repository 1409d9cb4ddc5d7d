"""The skew group algebra of a polynomial ring and a finite matrix group.

Elements are finitely supported maps from group elements, named by their
indices, to polynomials, written ``sum_g psi_g . g``.  The product twists
by the group action,

    (psi . g)(phi . h) = (psi * (g . phi)) . (g h),

extended bilinearly.  On top of the ring structure this module provides the
trace-space machinery: the per-conjugacy-class projections whose direct sum
realizes the zeroth Hochschild homology of the algebra, of a single term at
the class representative (:func:`project_term`), of such a term already
restricted to the class's fixed-space coordinates (:func:`project_fixed`,
which the former reduces to) and of a whole element (:func:`hh0_project`,
which reduces to the first).  The class-``i``
projection sends a commutator to zero and acts as the identity on
``psi . g_i`` whenever ``psi`` is a centralizer-invariant polynomial on the
fixed space of the representative ``g_i``; both facts are what the
obstruction computation leans on, and both are covered by the property
suites.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .groups import FiniteMatrixGroup, act_on_poly
from .poly import Polynomial, format_poly

__all__ = [
    "NotFixedError",
    "SkewElement",
    "commutator",
    "project_term",
    "project_fixed",
    "hh0_project",
    "trace_vector",
    "inner_derivation_g_part",
]


class NotFixedError(ValueError):
    """A polynomial violated a fixedness precondition (``g . x != x``)."""


class SkewElement:
    """An element of the skew group algebra, ``sum_g psi_g . g``.

    Immutable; zero polynomial parts are never stored.  Parts are keyed by
    element index, and arithmetic is between elements of the same group.
    """

    __slots__ = ("group", "_parts")

    def __init__(self, group: FiniteMatrixGroup, parts: Mapping[int, Polynomial]):
        clean = {}
        for idx, p in parts.items():
            idx = group.element_index(idx)
            if not isinstance(p, Polynomial):
                raise TypeError("skew element parts must be Polynomial instances")
            if p.nvars != group.dim:
                raise ValueError(
                    f"part polynomial has {p.nvars} variables, group acts on {group.dim}"
                )
            if not p.is_zero:
                clean[idx] = p
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "_parts", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("SkewElement instances are immutable")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def one(cls, group: FiniteMatrixGroup) -> "SkewElement":
        return cls(group, {0: Polynomial.one(group.dim)})

    @classmethod
    def term(cls, group: FiniteMatrixGroup, poly: Polynomial, g: int) -> "SkewElement":
        """The single-term element ``poly . g``."""
        return cls(group, {g: poly})

    # ------------------------------------------------------------------
    # inspection

    def parts(self):
        """Iterate ``(element index, polynomial)`` pairs, index ascending."""
        return iter(sorted(self._parts.items()))

    @property
    def is_zero(self) -> bool:
        return not self._parts

    def g_part(self, g: int) -> Polynomial:
        """Coefficient polynomial of a group element (zero if absent)."""
        idx = self.group.element_index(g)
        return self._parts.get(idx, Polynomial.zero(self.group.dim))

    # ------------------------------------------------------------------
    # arithmetic

    def _operand(self, other) -> bool:
        """Whether ``other`` is a skew element; one of another group raises."""
        if not isinstance(other, SkewElement):
            return False
        if other.group is not self.group:
            raise ValueError("skew elements belong to different groups")
        return True

    def _sum_by_index(self, pairs) -> "SkewElement":
        """The element ``sum psi . g`` of the ``(g, psi)`` pairs, the
        polynomials at each index added by one :meth:`Polynomial.sum`."""
        by_index: dict = {}
        for idx, p in pairs:
            by_index.setdefault(idx, []).append(p)
        dim = self.group.dim
        return SkewElement(self.group, {idx: Polynomial.sum(dim, polys)
                                        for idx, polys in by_index.items()})

    def __add__(self, other):
        if not self._operand(other):
            return NotImplemented
        return self._sum_by_index([*self._parts.items(), *other._parts.items()])

    def __neg__(self):
        return SkewElement(self.group, {i: -p for i, p in self._parts.items()})

    def __sub__(self, other):
        if not self._operand(other):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not self._operand(other):
            return NotImplemented
        group = self.group
        return self._sum_by_index(
            (group.mul(ia, ib), pa * act_on_poly(group, pb, ia))
            for ia, pa in self._parts.items() for ib, pb in other._parts.items())

    def __eq__(self, other):
        if not isinstance(other, SkewElement):
            return NotImplemented
        return self.group is other.group and self._parts == other._parts

    def __repr__(self):
        if self.is_zero:
            return "SkewElement(0)"
        bits = [
            f"({format_poly(p)}).{self.group.elements[i].word}"
            for i, p in self.parts()
        ]
        return "SkewElement(" + " + ".join(bits) + ")"


def commutator(a: SkewElement, b: SkewElement) -> SkewElement:
    """``a b - b a`` in the skew group algebra."""
    return a * b - b * a


def project_term(group: FiniteMatrixGroup, poly: Polynomial, class_index: int) -> Polynomial:
    """Trace-space projection of the single term ``poly . rep`` onto a
    conjugacy class with representative ``rep``.

    ``poly`` is restricted to the fixed space of ``rep`` by mapping it into
    the class's coordinates ``u`` there, and :func:`project_fixed` averages
    it over the centralizer of ``rep`` in ``u`` and maps it back.  The image
    is exactly the polynomials on that fixed space that the centralizer
    leaves invariant, and on them the map is the identity.  An index outside
    the classes raises ``ValueError``.
    """
    into = group.class_coordinates(class_index).into
    return project_fixed(group, into(poly), class_index)


def project_fixed(group: FiniteMatrixGroup, fixed: Polynomial,
                  class_index: int) -> Polynomial:
    """Projection of a term already restricted to the fixed space of the
    class representative, given as a polynomial in the class's coordinates
    ``u`` (see :meth:`~skewpoisson.groups.FiniteMatrixGroup.class_coordinates`).

    The centralizer acts on ``u`` by the ``k x k`` substitutions ``B_c``; the
    average over the distinct ones equals the average over the centralizer,
    and the result is mapped back to ``x`` once.
    """
    coords = group.class_coordinates(class_index)
    images = [action(fixed) for action in coords.actions] if not fixed.is_zero else []
    total = Polynomial.sum(fixed.nvars, [fixed, *images])
    return coords.back(total * Fraction(1, len(coords.actions) + 1))


def hh0_project(a: SkewElement, class_index: int) -> Polynomial:
    """Trace-space projection of ``a`` onto a conjugacy class.

    Returns the coefficient polynomial of the class representative ``rep``:
    the sum over all ``k`` in the group of ``restrict(k . a_(k^-1 rep k))``,
    normalized by the centralizer order so the projection is idempotent.
    Vanishes on every commutator.  The ``k`` with ``k^-1 rep k == h`` form
    one coset ``C k_h`` of the centralizer ``C``, and the restriction, a
    substitution by the average of the powers of ``rep``, commutes with each
    ``c`` in ``C``; so the sum is

        (1/|C|) sum_(c in C) c . restrict(sum_h k_h . a_h),

    the projection of the single term ``(sum_h k_h . a_h) . rep`` by
    :func:`project_term`, for the class's conjugators ``k_h``
    (:class:`~skewpoisson.groups.ConjugacyClass`).
    """
    group = a.group
    group.class_coordinates(class_index)  # raises for an index outside the classes
    moved = Polynomial.sum(group.dim, (act_on_poly(group, a._parts[h], k)
                                       for h, k in group.classes[class_index].conjugators
                                       if h in a._parts))
    return project_term(group, moved, class_index)


def trace_vector(a: SkewElement) -> tuple:
    """Project a skew element onto every conjugacy class at once: one
    polynomial per class, in class order.  Each lives on its
    representative's fixed space and is invariant under its centralizer,
    exactly the polynomials :func:`project_term` leaves unchanged."""
    return tuple(hh0_project(a, i) for i in range(len(a.group.classes)))


def inner_derivation_g_part(a: SkewElement, x: Polynomial, g: int) -> Polynomial:
    """Part at ``g`` of the inner derivation ``[a, x]`` for a ``g``-fixed ``x``.

    Preconditions: ``g`` is not the identity and ``g . x == x`` (violations
    raise :class:`NotFixedError`).  Under them the result is identically the
    zero polynomial; the return value exists so the contract can be checked
    rather than assumed.
    """
    group = a.group
    idx = group.element_index(g)
    if idx == 0:
        raise ValueError("the identity element is excluded here")
    if act_on_poly(group, x, idx) != x:
        raise NotFixedError(
            f"polynomial is not fixed by {group.elements[idx].word!r}"
        )
    lifted = SkewElement.term(group, x, 0)
    return commutator(a, lifted).g_part(idx)

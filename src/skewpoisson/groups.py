"""Finite groups of exact rational matrices.

A group is enumerated once, breadth-first from its generators, and is
immutable afterwards: elements (with stable indices and generator words),
the Cayley edges, inverses and conjugacy classes.  All structure is
computed with exact arithmetic, so two runs always agree element for
element.  An element is its index, ``0`` the identity: every method takes
and returns indices, and ``elements[i]`` is the read-only record of element
``i``'s matrix and word.

The search multiplies each element by each generator, |G| * #generators
matrix products, and keeps the result as the right-multiplication edges of
the Cayley graph.  It runs on integers alone.  Each matrix is the key
``(d, rows)`` of its least common denominator ``d`` and the integer matrix
``d * M``, and the search's index maps keys to element indices.  A product
is the integer product :func:`~skewpoisson.linalg.mat_mul_rows` of the
two integer matrices, reduced by a gcd only when the product's
denominator is not 1.  Each element's ``Fraction`` matrix is built once,
after the search.  The edges are the only product structure: ``a * b``
walks them from ``a`` along the generator path of ``b``, and an inverse
is the last power before the identity.  One pass of ``k^-1 * rep * k``
over all ``k`` gives a class's members, centralizer and conjugators
(:class:`ConjugacyClass`).

Actions on polynomials are compiled lazily and kept as long as the group,
with the monomial memos of their non-monomial maps: per element the
:class:`~skewpoisson.poly.LinearSubstitution` of its inverse's matrix, which
:func:`act_on_poly` applies, and per class its :class:`ClassCoordinates`
(:meth:`FiniteMatrixGroup.class_coordinates`).  A class representative
``g`` restricts polynomials to its fixed space ``V^g`` by substituting its
fixed-space projection ``P``, the average of the matrices of the powers of
``g`` (:meth:`FiniteMatrixGroup.fixed_projection_matrix`), so every
restricted polynomial is a polynomial in ``k = dim V^g`` coordinates ``u``
rather than in all ``n`` variables ``x``.  A class's coordinates hold the
rank ``k``, the basis ``U`` (the first ``k`` independent rows of ``P``), the
weights ``A`` with ``P == A U``, and the compiled substitutions ``into``
``u``, ``back`` to ``x`` and the ``k x k`` actions of the centralizer of
``g`` on ``u``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from . import linalg
from .poly import LinearSubstitution, Polynomial, SymplecticForm

__all__ = [
    "GroupClosureError",
    "GroupElement",
    "ConjugacyClass",
    "ClassCoordinates",
    "FiniteMatrixGroup",
    "generate_group",
    "is_symplectic",
    "act_on_poly",
]


class GroupClosureError(ValueError):
    """Raised when the closure of the generators exceeds the element cap."""


@dataclass(frozen=True, eq=False, slots=True)
class GroupElement:
    """The read-only record of one element of a finite group: its matrix and
    word.  The element itself is named by its index ``i`` in ``group.elements``."""

    matrix: tuple
    word: str

    def __repr__(self):
        return f"GroupElement({self.word!r})"


@dataclass(frozen=True)
class ConjugacyClass:
    """``conjugators`` pairs each member ``h`` (ascending) with the
    lowest-index ``k`` such that ``k^-1 * rep * k == h``, so ``k`` moves a
    part at ``h`` onto ``rep``; the representative is paired with the
    identity."""

    index: int
    representative: int  # element index, always the lowest in the class
    members: tuple  # sorted element indices
    centralizer: tuple  # sorted element indices commuting with the representative
    conjugators: tuple  # (member h, lowest k with k^-1 * rep * k == h)

    @property
    def size(self) -> int:
        return len(self.members)


class FiniteMatrixGroup:
    """An enumerated finite matrix group; construct via :func:`generate_group`."""

    def __init__(self, elements: Sequence[GroupElement], generator_names: Sequence[str],
                 right: Sequence[Sequence[int]], paths: Sequence[tuple]):
        """``right[i][k]`` is the index of ``elements[i] * generator k``, the
        group's only product structure, so the edges out of the identity
        name the generators' own indices; ``paths[j]`` is the tuple of
        generator positions whose product is element ``j`` (``()`` for the
        identity)."""
        self.elements = tuple(elements)
        self.generator_indices = tuple(right[0])
        self.generator_names = tuple(generator_names)
        self.dim = len(self.elements[0].matrix)
        self.order = len(self.elements)
        self._right = right
        self._paths = paths
        # len(p) - 2 is -1 for the identity, whose only power is itself
        self._inverses = inv = tuple(p[len(p) - 2] for p in map(self.powers, range(self.order)))

        # one pass of k^-1 * rep * k over all k per class (see ConjugacyClass)
        times = self._times
        self._class_of = [None] * self.order
        classes = []
        for rep in range(self.order):
            if self._class_of[rep] is not None:
                continue
            first, centr = {}, []
            for k in range(self.order):
                h = times(times(inv[k], rep), k)
                first.setdefault(h, k)
                if h == rep:
                    centr.append(k)
            members = tuple(sorted(first))
            for m in members:
                self._class_of[m] = len(classes)
            classes.append(ConjugacyClass(len(classes), rep, members, tuple(centr),
                                          tuple((h, first[h]) for h in members)))
        self.classes = tuple(classes)
        self._coordinates = {}
        self._actions = {}  # element index -> its LinearSubstitution, see act_on_poly

    # ------------------------------------------------------------------
    # element access; an element is its index, 0 the identity

    def element_index(self, g: int) -> int:
        """``g`` itself; raises ``ValueError`` outside ``0..order - 1``."""
        if not 0 <= g < self.order:
            raise ValueError(f"element index {g} out of range")
        return g

    def _times(self, a: int, b: int) -> int:
        """Index of ``elements[a] * elements[b]``, walking from ``a`` along ``b``'s path."""
        right = self._right
        for k in self._paths[b]:
            a = right[a][k]
        return a

    def mul(self, a: int, b: int) -> int:
        return self._times(self.element_index(a), self.element_index(b))

    def inverse(self, g: int) -> int:
        return self._inverses[self.element_index(g)]

    def powers(self, g: int) -> tuple:
        """Indices of ``g, g^2, ...`` up to the identity: the order of ``g``
        is their number and its inverse the power before the identity.
        Raises ``RuntimeError`` if ``|G|`` powers pass without the identity,
        which only corrupted Cayley edges can cause."""
        idx = self.element_index(g)
        out = [idx]
        while out[-1] != 0:
            if len(out) == self.order:
                raise RuntimeError(f"the powers of {self.elements[idx].word!r} do not reach "
                                   f"the identity within the group order {self.order}")
            out.append(self._times(out[-1], idx))
        return tuple(out)

    def element_from_word(self, word: str) -> int:
        """Resolve a generator word like ``"e*b"`` (or ``"1"``) to an element.
        The empty word raises ``ValueError``: the identity is spelled ``"1"``."""
        word = word.strip()
        if word == "1":
            return 0
        if not word:
            raise ValueError(f"empty group word {word!r}; the identity is written '1'")
        by_name = {name: k for k, name in enumerate(self.generator_names)}
        idx = 0
        for piece in word.split("*"):
            piece = piece.strip()
            if piece not in by_name:
                raise ValueError(f"unknown generator name {piece!r} in word {word!r}")
            idx = self._right[idx][by_name[piece]]
        return idx

    # ------------------------------------------------------------------
    # structure queries

    def class_of(self, g: int) -> int:
        return self._class_of[self.element_index(g)]

    def centralizer_of(self, g: int) -> tuple:
        """Indices of the elements commuting with ``g``, ascending."""
        idx = self.element_index(g)
        return tuple(h for h in range(self.order) if self._times(h, idx) == self._times(idx, h))

    def fixed_projection_matrix(self, g: int):
        """Projection onto the fixed space of an element, computed afresh on
        each call: the average of the matrices of its :meth:`powers`.

        The result is idempotent, has image ``ker(g - 1)``, and commutes with
        everything commuting with ``g``, and all of this stays inside the
        rationals, unlike an eigen-decomposition.
        """
        matrices = [self.elements[p].matrix for p in self.powers(g)]
        return linalg.mat_scale(Fraction(1, len(matrices)), reduce(linalg.mat_add, matrices))

    def class_coordinates(self, class_index: int) -> "ClassCoordinates":
        """Cached :class:`ClassCoordinates` of a conjugacy class, compiled on
        first request.

        Let ``P`` be the fixed-space projection of the representative
        ``rep``.  Its rows span the dual of the fixed space ``V^rep``, so the
        ``k = rank P`` independent rows ``U`` that come first by index give
        coordinates ``u = U x`` on it, and ``P = A U`` for one ``n x k``
        matrix ``A``.  The restriction, the substitution ``x -> P x``,
        therefore factors as ``into``, the substitution ``x -> A u`` into a
        polynomial in ``u``, followed by ``back``, the substitution
        ``u -> U x``.  Each ``c`` in the centralizer commutes with ``P``, and
        ``U P == U`` since ``P`` is idempotent, so ``B_c = U c^-1 A``
        satisfies ``B_c U == U c^-1``: ``c`` acts on the restricted
        polynomials as the ``k x k`` substitution ``u -> B_c u``.  ``c -> B_c``
        reverses products, so the distinct ``B_c`` form a group, and an
        average over the centralizer equals the average over them.  An index
        outside the classes, negative ones included, raises ``ValueError``.
        """
        cached = self._coordinates.get(class_index)
        if cached is None:
            if not 0 <= class_index < len(self.classes):
                raise ValueError(f"class index {class_index} out of range "
                                 f"(group has {len(self.classes)} classes)")
            cls = self.classes[class_index]
            cached = ClassCoordinates.compile(
                self.fixed_projection_matrix(cls.representative),
                [self.elements[self._inverses[c]].matrix for c in cls.centralizer])
            self._coordinates[class_index] = cached
        return cached


@dataclass(frozen=True)
class ClassCoordinates:
    """Coordinates ``u`` on the fixed space of a class representative and the
    maps a class projection needs; see
    :meth:`FiniteMatrixGroup.class_coordinates`.

    A representative that fixes only the origin (``rank == 0``) restricts
    every polynomial to its constant term.  Its maps pass through a single
    coordinate that every variable sends to zero, so no polynomial in zero
    variables is ever built.
    """

    rank: int  # k, the dimension of the fixed space
    basis: tuple  # U: the k rows of the projection P that come first by index
    weights: tuple  # A: the n x k matrix with P == A U
    into: LinearSubstitution  # x -> A u
    back: LinearSubstitution  # u -> U x
    actions: tuple  # the distinct B_c other than the identity, compiled

    @classmethod
    def compile(cls, projection, inverses) -> "ClassCoordinates":
        """The coordinates of the projection ``P``, acted on by the
        centralizer elements whose inverse matrices are ``inverses``."""
        n = len(projection)
        space = linalg.RowSpace(track=True)
        basis, vectors = [], []
        for row in projection:
            vec = {j: v for j, v in enumerate(row) if v}
            vectors.append(vec)
            if vec and not space.contains(vec):
                space.add(vec)
                basis.append(row)
        weights = tuple(tuple(space.solve(vec)[0]) for vec in vectors)
        if not basis:
            zero = Fraction(0)
            return cls(0, (), weights, LinearSubstitution(((zero,),) * n),
                       LinearSubstitution(((zero,) * n,)), ())
        basis = tuple(basis)
        identity = linalg.identity_matrix(len(basis))
        actions = {}
        for c_inv in inverses:
            b = linalg.mat_mul(linalg.mat_mul(basis, c_inv), weights)
            if b != identity and b not in actions:
                actions[b] = LinearSubstitution(b)
        return cls(len(basis), basis, weights, LinearSubstitution(weights),
                   LinearSubstitution(basis), tuple(actions.values()))


def generate_group(
    generators: Iterable,
    *,
    names: Optional[Sequence[str]] = None,
    cap: int = 10_000,
    dim: Optional[int] = None,
) -> FiniteMatrixGroup:
    """Enumerate the group generated by square rational matrices.

    Elements are discovered breadth-first (identity first, then products in
    generator order), giving a stable indexing.  Raises
    :class:`GroupClosureError` once more than ``cap`` elements appear, which
    signals an infinite or unexpectedly large group.  An empty generator
    list yields the trivial group and requires ``dim``.
    Every name must read back from a word, so it is non-empty, not ``"1"``,
    free of ``*`` and without surrounding whitespace.
    """
    gens = [linalg.matrix_from_rows(g) for g in generators]
    if names is None:
        names = [f"g{i + 1}" for i in range(len(gens))]
    names = list(names)
    if len(names) != len(gens):
        raise ValueError("generator name count does not match generator count")
    if len(set(names)) != len(names):
        raise ValueError("generator names must be unique")
    for name in names:
        if not name or name == "1" or "*" in name or name != name.strip():
            raise ValueError(f"generator name {name!r} cannot be read back from a word: "
                             "it is empty, '1', has a '*' or surrounding whitespace")
    if gens:
        n = len(gens[0])
        if dim is not None and dim != n:
            raise ValueError("dim disagrees with generator size")
    else:
        if dim is None:
            raise ValueError("an empty generator list needs an explicit dim")
        n = dim
    if n < 1:
        raise ValueError("a group must act on at least one variable")
    for name, g in zip(names, gens):
        if len(g) != n or any(len(row) != n for row in g):
            raise ValueError(f"generator {name!r} is not {n}x{n}")
        try:
            linalg.inverse(g)
        except ValueError:
            raise ValueError(f"generator {name!r} is singular") from None

    # each generator as its denominator and the sparse rows of its integer matrix
    sparse = []
    for g in gens:
        d, rows = _key(g)
        sparse.append((d, linalg.sparse_rows(rows)))
    ident = (1, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
    keys, paths = [ident], [()]  # paths[j]: the generator positions whose product is keys[j]
    index = {ident: 0}
    right = []  # right[i][k]: index of elements[i] * gens[k]
    # elements are appended in the order they are found, so visiting them by
    # index is the breadth-first order
    while len(right) < len(keys):
        i = len(right)
        d, rows = keys[i]
        row = []
        for k, (gd, grows) in enumerate(sparse):
            prod = linalg.mat_mul_rows(rows, grows, n)
            pd = d * gd
            if pd != 1:
                common = gcd(pd, *chain.from_iterable(prod))
                if common != 1:
                    pd //= common
                    prod = tuple(tuple([x // common for x in a]) for a in prod)
            key = (pd, prod)
            j = index.get(key)
            if j is None:
                if len(keys) >= cap:
                    raise GroupClosureError(
                        f"group closure exceeded the cap of {cap} elements"
                    )
                j = len(keys)
                keys.append(key)
                paths.append(paths[i] + (k,))
                index[key] = j
            row.append(j)
        right.append(row)

    elements = [GroupElement(matrix, "*".join(names[k] for k in path) or "1")
                for matrix, path in zip(_matrices(keys), paths)]
    return FiniteMatrixGroup(elements, names, right, paths)


def _key(matrix) -> tuple:
    """The integer key ``(d, rows)`` of a rational matrix: ``d`` is the least
    common denominator of its entries and ``rows`` the integer matrix
    ``d * matrix``.  It is the one such pair with ``gcd(d, rows) == 1``, so
    equal matrices have equal keys."""
    d = lcm(*(x.denominator for row in matrix for x in row))
    return d, tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in matrix)


def _matrices(keys) -> list:
    """The ``Fraction`` matrix of each key; each distinct entry ``x / d``
    becomes one shared ``Fraction``."""
    shared = {}  # d -> {x: Fraction(x, d)}
    out = []
    for d, rows in keys:
        entries = shared.setdefault(d, {})
        for row in rows:
            for x in row:
                if x not in entries:
                    entries[x] = Fraction(x, d)
        out.append(tuple(tuple([entries[x] for x in row]) for row in rows))
    return out


def is_symplectic(matrix, form: SymplecticForm) -> bool:
    """True if the matrix ``g`` preserves the form: g^T J g == J."""
    n = form.nvars
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError(f"dimension mismatch: the form is {n}-dimensional, so the "
                         f"matrix must be {n}x{n}")
    gt = linalg.transpose(matrix)
    return linalg.mat_mul(linalg.mat_mul(gt, form.matrix), matrix) == form.matrix


def act_on_poly(group: FiniteMatrixGroup, p: Polynomial, g: int) -> Polynomial:
    """Left action of the group element ``g`` on a polynomial.

    Defined as precomposition with the inverse matrix, which makes the map
    ``g -> (p -> g . p)`` a genuine left action: ``(gh) . p == g . (h . p)``.
    The substitution is compiled on first use for ``g``, from the matrix of
    the inverse the Cayley edges name, and kept with the group.
    """
    if p.nvars != group.dim:
        raise ValueError(f"dimension mismatch: polynomial has {p.nvars} variables, "
                         f"element is {group.dim}x{group.dim}")
    action = group._actions.get(g)
    if action is None:
        inverse = group._inverses[group.element_index(g)]
        action = group._actions[g] = LinearSubstitution(group.elements[inverse].matrix)
    return action(p)

"""Exact linear algebra over the rationals.

Matrices are immutable tuples of tuples of ``Fraction``; the one product
routine, :func:`mat_mul_rows`, also multiplies the integer matrices of the
group search.  Vectors given to the row-reduction machinery are sparse
dicts mapping a column index to an ``int`` or ``Fraction`` value, and the
vectors it hands back map to nonzero ``Fraction`` values.  Everything here
is exact: no rounding, no tolerances.  Every elimination, inversion
included, is :class:`RowSpace`'s, and :meth:`RowSpace.annihilator` is the
one null-space routine.  :class:`RowSpace` stores and reduces integer
rows, fraction-free, and normalises to ``Fraction`` rows with lead 1 only
where a row is read.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional

Matrix = tuple  # tuple[tuple[Fraction, ...], ...]
SparseVec = dict  # dict[int, Fraction]; RowSpace also takes int values and zeros


# the expression grammar's number: an optional sign, ASCII digits and an
# optional denominator that is not all zeros; [0-9], not \d, which also
# takes "٣"
_LITERAL = re.compile(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?")


def parse_scalar(value) -> Fraction:
    """The exact scalar ``value`` as a ``Fraction``: the one reader of
    coefficients and matrix entries.

    A ``Fraction`` or an ``int`` (not a ``bool``) is taken as it is.  A
    string must be a rational literal such as ``-1``, ``3`` or ``1/2``
    after stripping surrounding whitespace and reading ``−`` (U+2212) as
    ``-``: ``0.5``, ``1e3``, ``1_000`` and non-ASCII digits are refused.  A
    ``float`` has rounded already, so it is refused, as is any other type.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, float):
        raise ValueError(f"{value!r} is a float, which has rounded already; give an "
                         "int, a Fraction or a string such as '1/10'")
    if isinstance(value, str):
        literal = _LITERAL.fullmatch(value.replace("−", "-").strip())
        if literal:
            num, den = literal.groups()
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
    raise ValueError(f"invalid rational literal {value!r}")


def matrix_from_rows(rows: Iterable[Iterable]) -> Matrix:
    """Build a rectangular matrix, reading entries through ``parse_scalar``."""
    mat = tuple(tuple(map(parse_scalar, row)) for row in rows)
    if mat and any(len(r) != len(mat[0]) for r in mat):
        raise ValueError("matrix rows have unequal lengths")
    return mat


def identity_matrix(n: int) -> Matrix:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b or len(a[0]) != len(b):
        raise ValueError("matrix dimension mismatch in multiplication")
    return mat_mul_rows(a, sparse_rows(b), len(b[0]), Fraction(0))


def sparse_rows(b: Matrix) -> tuple:
    """The nonzero ``(column, value)`` entries of each row of ``b``: the form
    in which :func:`mat_mul_rows` takes its right factor."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in b)


def mat_mul_rows(a: Matrix, b_rows: tuple, ncols: int, zero=0) -> Matrix:
    """The product ``a * b`` of ``b_rows = sparse_rows(b)`` with ``ncols``
    columns.  Row ``i`` is the sum of ``a[i][r]`` times row ``r`` of ``b``
    over the nonzero entries of both, so zeros cost nothing: group elements
    are mostly zeros.  Any scalar type works, and every entry starts from
    ``zero``; :func:`mat_mul` passes ``Fraction(0)``, the group search
    multiplies integer matrices with the default ``0``."""
    out_rows = []
    for row in a:
        out = [zero] * ncols
        for r, x in enumerate(row):
            if x:
                for j, v in b_rows[r]:
                    out[j] += x * v
        out_rows.append(tuple(out))
    return tuple(out_rows)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    if len(a) != len(b) or (a and len(a[0]) != len(b[0])):
        raise ValueError("matrix dimension mismatch in addition")
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c: Fraction, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def transpose(a: Matrix) -> Matrix:
    return tuple(tuple(col) for col in zip(*a))


def inverse(a: Matrix) -> Matrix:
    """Exact inverse, read off the ``n`` reduced rows of ``[A | I]`` in a
    :class:`RowSpace`: ``A`` is singular exactly when some reduced row ``i``
    has no entry at column ``i``; otherwise row ``i``'s right half is row
    ``i`` of ``A^-1``."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse requires a square matrix")
    space = RowSpace()
    for i, row in enumerate(a):
        vec = {j: x for j, x in enumerate(row) if x}
        vec[n + i] = Fraction(1)
        space.add(vec)
    rows = space.reduced_rows()
    if any(i not in row for i, row in enumerate(rows)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row.get(n + j, Fraction(0)) for j in range(n)) for row in rows)


def _integral(vec: SparseVec) -> tuple:
    """``(d * vec, d)`` for ``d`` the lcm of the denominators of ``vec``'s
    values (``int`` or ``Fraction``): an integer vector with the zero
    entries dropped, in ``vec``'s order."""
    ints, d = {}, 1
    for c, v in vec.items():
        p, q = v.as_integer_ratio()
        if p:
            ints[c] = p
            if q != 1:
                d = lcm(d, q)
    if d != 1:
        ints = {c: v.numerator * (d // v.denominator) for c, v in vec.items() if v}
    return ints, d


def _axpy(a: int, acc: dict, b: int, row: dict) -> dict:
    """``a * acc - b * row`` with its zero entries dropped; ``acc`` itself
    is updated when ``a`` is 1."""
    if a != 1:
        acc = {c: v * a for c, v in acc.items()}
    for c, v in row.items():
        new = acc.get(c, 0) - b * v
        if new:
            acc[c] = new
        else:
            del acc[c]
    return acc


class RowSpace:
    """Incremental sparse row reduction over the rationals, fraction-free.

    Maintains a row-echelon basis keyed by pivot column (lowest column index
    with a nonzero entry).  Pivot choice is purely positional, so results are
    deterministic for a fixed insertion order.  An input vector is scaled to
    integers by the lcm of its denominators, and each stored row is a
    primitive integer vector with a positive pivot entry.  Reduction
    cross-multiplies (Bareiss, Math. Comp. 1968) and divides out the content
    gcd, so every stored row and every remainder is a nonzero multiple of the
    one that elimination with lead-1 ``Fraction`` rows would give.  Rows are
    normalised to lead 1, and values converted back to ``Fraction``, only
    where they are read: :meth:`solve`, :meth:`reduced_rows` and
    :meth:`annihilator`.

    With ``track=True`` every stored row carries the integer weights over the
    inputs that produce it, under the row's own scale: the row equals
    ``sum(weights[t] * input_t)``.  That lets :meth:`solve` express a target
    vector in terms of the inputs.
    """

    def __init__(self, track: bool = False):
        self._rows: dict[int, dict] = {}  # pivot column -> primitive integer row
        self._combos: dict[int, dict] = {}  # pivot column -> input tag -> integer weight
        self._track = track
        self._added = 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce_vec(self, rem: dict, weights: Optional[dict]) -> tuple:
        """Reduce the integer vector ``rem`` while its lowest column is a
        pivot.  Each step replaces ``rem`` by ``a * rem - b * row`` for the
        row at its lowest column, with ``a`` and ``b`` the pivot and the
        entry there divided by their gcd, and divides out the content when
        ``a`` is not 1.  Returns ``(rem', weights', s)``.  In a tracked
        space ``weights`` starts empty, takes the same steps on the rows'
        weights and ends with ``rem' == s * rem + sum(weights'[t] *
        input_t)`` for a positive integer ``s``; the content then covers
        ``s`` and ``weights'`` too.  Untracked, ``weights`` is ``None`` and
        ``s`` is meaningless."""
        rows, combos = self._rows, self._combos
        scale = 1
        while rem:
            lead = min(rem)
            row = rows.get(lead)
            if row is None:
                break
            g = gcd(row[lead], rem[lead])
            a, b = row[lead] // g, rem[lead] // g
            rem = _axpy(a, rem, b, row)
            if weights is not None:
                weights = _axpy(a, weights, b, combos[lead])
                scale *= a
            if a != 1:
                if weights is None:
                    content = gcd(*rem.values())
                else:
                    content = gcd(scale, *rem.values(), *weights.values())
                if content > 1:
                    rem = {c: v // content for c, v in rem.items()}
                    if weights is not None:
                        weights = {t: v // content for t, v in weights.items()}
                        scale //= content
        return rem, weights, scale

    def add(self, vec: SparseVec) -> bool:
        """Insert a vector; returns True if it enlarged the row space."""
        tag = self._added
        self._added += 1
        rem, d = _integral(vec)
        rem, weights, scale = self._reduce_vec(rem, {} if self._track else None)
        if not rem:
            return False
        lead = min(rem)
        if weights is None:
            content = gcd(*rem.values())
        else:
            # rem == scale * d * vec + sum(weights[t] * input_t)
            weights[tag] = scale * d
            content = gcd(*rem.values(), *weights.values())
        if rem[lead] < 0:
            content = -content
        self._rows[lead] = {c: v // content for c, v in rem.items()}
        if weights is not None:
            self._combos[lead] = {t: v // content for t, v in weights.items()}
        return True

    def contains(self, vec: SparseVec) -> bool:
        return not self._reduce_vec(_integral(vec)[0], None)[0]

    def solve(self, target: SparseVec):
        """Express ``target`` through the inputs of a tracked space.

        Reducing ``target`` against the basis leaves a remainder and the
        coefficients ``combo`` over input tags with
        ``target == remainder + sum(combo[t] * input_t)``.  Returns
        ``(coeffs, residual)``.  When the remainder is empty, ``target`` lies
        in the span: ``coeffs`` spreads ``combo`` over one Fraction per
        input added so far, in insertion order, and ``residual`` is empty.
        Otherwise ``coeffs`` is ``None`` and ``residual`` is the remainder,
        the part of ``target`` outside the span.  The space is not changed,
        so it can take more inputs and be solved again.
        """
        if not self._track:
            raise ValueError("solve needs a RowSpace built with track=True")
        rem, d = _integral(target)
        rem, weights, scale = self._reduce_vec(rem, {})
        # rem == scale * d * target + sum(weights[t] * input_t)
        denom = scale * d
        if rem:
            return None, {c: Fraction(v, denom) for c, v in rem.items()}
        coeffs = [Fraction(0)] * self._added
        for tag, val in weights.items():
            coeffs[tag] = Fraction(-val, denom)
        return coeffs, {}

    def annihilator(self, columns) -> list[SparseVec]:
        """The functionals that vanish on the span, one for each
        of ``columns`` that is not a pivot, in the order given.

        Over the reduced rows ``R_i`` with pivots ``p_i``, column ``c`` gives
        ``y_c = e_c - sum_i R_i[c] e_(p_i)``.  Every vector of the span is
        ``sum_i v[p_i] R_i``, so ``y_c`` vanishes on it.  Given every column,
        these are the null space of the rows added so far.  A column given
        twice raises ``ValueError``.
        """
        columns = list(columns)
        if len(set(columns)) != len(columns):
            raise ValueError("annihilator columns must be distinct")
        free = {c: {c: Fraction(1)} for c in columns if c not in self._rows}
        for pivot, row in zip(sorted(self._rows), self.reduced_rows()):
            for c, coeff in row.items():
                if c in free:
                    free[c][pivot] = -coeff
        return list(free.values())

    def reduced_rows(self) -> list[SparseVec]:
        """Fully back-substituted (reduced row echelon) basis, by pivot
        column, each row with lead 1 and ``Fraction`` values.

        The back-substitution runs on the integer rows: a reduced row has no
        entry at any other pivot, so each row clears its later pivots one by
        one, lowest first, and is normalised at the end."""
        pivots = sorted(self._rows)
        reduced: dict[int, dict] = {}
        for p in reversed(pivots):
            row = dict(self._rows[p])
            for q in sorted(c for c in row if c in reduced):
                red = reduced[q]
                g = gcd(red[q], row[q])
                a = red[q] // g
                row = _axpy(a, row, row[q] // g, red)
                if a != 1:
                    content = gcd(*row.values())
                    if content > 1:
                        row = {c: v // content for c, v in row.items()}
            reduced[p] = row
        return [{c: Fraction(v, reduced[p][p]) for c, v in reduced[p].items()} for p in pivots]

"""Exact linear algebra over the rationals.

Matrices are immutable tuples of tuples of ``Fraction``; the one product
routine, :func:`mat_mul_rows`, also multiplies the integer matrices of the
group search.  Vectors used by the row-reduction machinery are sparse dicts
mapping a column index to a nonzero ``Fraction``.  Everything here is
exact: no rounding, no tolerances.  Every elimination, inversion included,
is :class:`RowSpace`'s, and :meth:`RowSpace.annihilator` is the one
null-space routine.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

Matrix = tuple  # tuple[tuple[Fraction, ...], ...]
SparseVec = dict  # dict[int, Fraction], zero entries never stored


def parse_scalar(text: str) -> Fraction:
    """Parse a rational literal such as ``-1``, ``3`` or ``1/2``."""
    cleaned = str(text).replace("−", "-").strip()
    try:
        return Fraction(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational literal {text!r}") from exc


def matrix_from_rows(rows: Iterable[Iterable]) -> Matrix:
    """Build a rectangular matrix, coercing entries through ``parse_scalar``."""
    out = []
    for row in rows:
        out.append(tuple(x if isinstance(x, Fraction) else parse_scalar(x) for x in row))
    mat = tuple(out)
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


class RowSpace:
    """Incremental sparse row reduction over the rationals.

    Maintains a row-echelon basis keyed by pivot column (lowest column index
    with a nonzero entry).  Pivot choice is purely positional, so results are
    deterministic for a fixed insertion order.  With ``track=True`` every
    stored row carries the combination of original inputs that produced it,
    which lets :meth:`solve` express a target vector in terms of the inputs.
    """

    def __init__(self, track: bool = False):
        self._rows: dict[int, SparseVec] = {}  # pivot column -> normalized row
        self._combos: dict[int, SparseVec] = {}
        self._track = track
        self._added = 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce_vec(self, vec: SparseVec, combo: Optional[SparseVec]):
        rem = dict(vec)
        while rem:
            lead = min(rem)
            row = self._rows.get(lead)
            if row is None:
                break
            f = rem[lead]  # rows are normalized to leading coefficient 1
            for col, val in row.items():
                new = rem.get(col, Fraction(0)) - f * val
                if new:
                    rem[col] = new
                else:
                    rem.pop(col, None)
            if combo is not None:
                for tag, val in self._combos[lead].items():
                    new = combo.get(tag, Fraction(0)) + f * val
                    if new:
                        combo[tag] = new
                    else:
                        combo.pop(tag, None)
        return rem

    def add(self, vec: SparseVec) -> bool:
        """Insert a vector; returns True if it enlarged the row space."""
        tag = self._added
        self._added += 1
        combo: Optional[SparseVec] = {tag: Fraction(1)} if self._track else None
        rem = self._reduce_vec(vec, combo)
        if not rem:
            return False
        lead = min(rem)
        inv_lead = Fraction(1) / rem[lead]
        row = {c: v * inv_lead for c, v in rem.items()}
        self._rows[lead] = row
        if self._track:
            # combo currently expresses vec - rem; rearrange to rem = vec - combo
            assert combo is not None
            stored = {tag: Fraction(1)}
            for t, v in combo.items():
                if t != tag:
                    stored[t] = -v
            self._combos[lead] = {t: v * inv_lead for t, v in stored.items()}
        return True

    def contains(self, vec: SparseVec) -> bool:
        return not self._reduce_vec(vec, None)

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
        combo: SparseVec = {}
        rem = self._reduce_vec(target, combo)
        if rem:
            return None, rem
        coeffs = [Fraction(0)] * self._added
        for tag, val in combo.items():
            coeffs[tag] = val
        return coeffs, rem

    def annihilator(self, columns) -> list[SparseVec]:
        """The functionals that vanish on the span, one for each
        of ``columns`` that is not a pivot, in the order given.

        Over the reduced rows ``R_i`` with pivots ``p_i``, column ``c`` gives
        ``y_c = e_c - sum_i R_i[c] e_(p_i)``.  Every vector of the span is
        ``sum_i v[p_i] R_i``, so ``y_c`` vanishes on it.  Given every column,
        these are the null space of the rows added so far.
        """
        free = {c: {c: Fraction(1)} for c in columns if c not in self._rows}
        for pivot, row in zip(sorted(self._rows), self.reduced_rows()):
            for c, coeff in row.items():
                if c in free:
                    free[c][pivot] = -coeff
        return list(free.values())

    def reduced_rows(self) -> list[SparseVec]:
        """Fully back-substituted (reduced row echelon) basis, by pivot column."""
        pivots = sorted(self._rows)
        reduced: dict[int, SparseVec] = {}
        for p in reversed(pivots):
            row = dict(self._rows[p])
            for q in pivots:
                if q > p and q in row:
                    f = row.pop(q)
                    for col, val in reduced[q].items():
                        if col == q:
                            continue
                        new = row.get(col, Fraction(0)) - f * val
                        if new:
                            row[col] = new
                        else:
                            row.pop(col, None)
            reduced[p] = row
        return [reduced[p] for p in pivots]


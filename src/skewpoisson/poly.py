"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial in ``nvars`` variables is a finite map from exponent tuples to
nonzero ``int`` numerators over one positive ``int`` denominator.  Instances
are immutable values: all operations return new polynomials, equality is
structural, and the storage is always canonical (no zero numerator, every
exponent tuple of length ``nvars``, no factor common to the denominator and
all numerators, denominator 1 for zero).  Arithmetic runs on integers;
:meth:`Polynomial.items` and :meth:`Polynomial.coefficient` give
``Fraction`` values.  Nothing in this module ever rounds, and a ``float``
coefficient is refused.  :meth:`Polynomial.sum` is the one summation: ``+``
and every sum of many polynomials (an average over a group, a bracket's
terms, a parsed expression) add all their terms into one term map.

Terms are stored in no particular order.  Where one is needed, for printing
and for pivoting in linear solves, it is graded-lexicographic (total degree
first, then the exponent tuple, ``x1`` most significant).

Linear changes of variables, square or between polynomial rings of
different sizes, are compiled once into a :class:`LinearSubstitution`: a
monomial matrix becomes one target variable and coefficient per variable,
and any other matrix keeps its linear forms and memoizes the image of each
monomial it expands, so a map applied again and again (a group element's
action, a class's maps into and out of its fixed-space coordinates) never
expands a monomial twice.  :meth:`LinearSubstitution.image_key` names the
image of one monomial, given as an exponent tuple, without building a
polynomial, so a walk over many monomials can build each distinct image
once.  :func:`monomials_of_degree` enumerates the exponent tuples of one
degree by stars and bars.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import add
from typing import Iterable, Iterator, Mapping, Optional, Union

from . import linalg

Exponents = tuple  # tuple[int, ...], one entry per variable
Scalar = Union[Fraction, int]
_ZERO = Fraction(0)  # the coefficient of every absent monomial


def _ratio(value) -> tuple:
    """``(numerator, denominator)`` of an exact scalar in lowest terms, read
    by :func:`~skewpoisson.linalg.parse_scalar`."""
    if type(value) is int:
        return value, 1
    value = linalg.parse_scalar(value)
    return value.numerator, value.denominator


def variable_name(index: int) -> str:
    """The printed name ``x<index+1>`` of the variable with 0-based ``index``,
    the one spelling :func:`format_poly` writes and ``parse_poly`` reads."""
    return f"x{index + 1}"


def grlex_key(exps: Exponents):
    """Sort key for graded-lexicographic monomial order (ascending)."""
    return (sum(exps), exps)


def monomials_of_degree(nvars: int, degree: int) -> Iterator[Exponents]:
    """All exponent tuples in ``nvars`` variables of total degree
    ``degree``, lex ascending; none when the degree is negative.

    Stars and bars: ``nvars - 1`` bars among ``degree + nvars - 1`` slots,
    and each exponent is the number of stars between two bars.  Bar
    positions come in lex order, and so do the exponent tuples they give.
    """
    if nvars < 1:
        raise ValueError("nvars must be a positive integer")
    return _stars_and_bars(nvars, degree) if degree >= 0 else iter(())


def _stars_and_bars(nvars: int, degree: int) -> Iterator[Exponents]:
    slots = degree + nvars - 1
    for bars in combinations(range(slots), nvars - 1):
        prev = -1
        exps = []
        for bar in bars:
            exps.append(bar - prev - 1)
            prev = bar
        exps.append(slots - prev - 1)
        yield tuple(exps)


class Polynomial:
    """Immutable sparse polynomial over the rationals, a value of the ring:
    it adds to and equals polynomials only, a scalar only multiplies it, and
    :attr:`is_zero` is the zero test."""

    __slots__ = ("nvars", "_terms", "_den", "_hash")

    def __init__(self, nvars: int, terms: Optional[Mapping[Exponents, Scalar]] = None):
        if nvars < 1:
            raise ValueError("nvars must be a positive integer")
        p = Polynomial.sum(nvars, [Polynomial.monomial(nvars, exps, coeff)
                                   for exps, coeff in (terms or {}).items()])
        _set_nvars(self, nvars)
        _set_terms(self, p._terms)
        _set_den(self, p._den)
        _set_hash(self, None)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Polynomial instances are immutable")

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def _wrap(nvars: int, terms: dict, den: int = 1) -> "Polynomial":
        """``terms / den``, from numerators that are nonzero and keyed by
        ``nvars`` exponents; the factor they share with ``den`` is divided
        out."""
        if den != 1:
            # a loop, not gcd(den, *values): it stops at the first 1 and
            # builds no tuple of every numerator
            g = den
            for c in terms.values():
                g = gcd(g, c)
                if g == 1:
                    break
            if g != 1:
                den //= g
                terms = {e: c // g for e, c in terms.items()}
        p = _new(Polynomial)
        _set_nvars(p, nvars)
        _set_terms(p, terms)
        _set_den(p, den)
        _set_hash(p, None)
        return p

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        if nvars < 1:
            raise ValueError("nvars must be a positive integer")
        return cls._wrap(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls.monomial(nvars, (0,) * nvars)

    @classmethod
    def constant(cls, nvars: int, value: Scalar) -> "Polynomial":
        return cls.monomial(nvars, (0,) * nvars, value)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        """The variable with 0-based index ``index`` (printed as ``x<index+1>``)."""
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for nvars={nvars}")
        exps = [0] * nvars
        exps[index] = 1
        return cls._wrap(nvars, {tuple(exps): 1})

    @classmethod
    def monomial(cls, nvars: int, exps: Iterable[int], coeff: Scalar = 1) -> "Polynomial":
        if nvars < 1:
            raise ValueError("nvars must be a positive integer")
        exps = tuple(exps)
        if len(exps) != nvars:
            raise ValueError(f"exponent tuple {exps} does not match nvars={nvars}")
        for e in exps:
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"exponents must be non-negative integers: {exps}")
        num, den = _ratio(coeff)
        return cls._wrap(nvars, {exps: num} if num else {}, den)

    @classmethod
    def from_vector(cls, nvars: int, vec: Mapping) -> "Polynomial":
        """The inverse of :meth:`to_vector`: the polynomial whose coefficient
        vector, keyed by grlex key, is ``vec``."""
        return cls(nvars, {exps: c for (_, exps), c in vec.items()})

    # ------------------------------------------------------------------
    # inspection

    def items(self) -> Iterator:
        """Iterate the ``(exponents, Fraction coefficient)`` pairs in
        storage order, which is no particular order; :func:`format_poly`
        sorts."""
        den = self._den
        if den == 1:
            return ((e, Fraction(c)) for e, c in self._terms.items())
        return ((e, Fraction(c, den)) for e, c in self._terms.items())

    def coefficient(self, exps: Iterable[int]) -> Fraction:
        """The coefficient of the monomial ``exps``; 0 when it is absent."""
        c = self._terms.get(tuple(exps))
        return _ZERO if c is None else Fraction(c, self._den)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self._terms}
        return len(degrees) <= 1

    def to_vector(self) -> dict:
        """Sparse coefficient vector keyed by grlex key, for linear algebra;
        ``int`` values when the denominator is 1, else ``Fraction``."""
        den = self._den
        if den == 1:
            return {grlex_key(e): c for e, c in self._terms.items()}
        return {grlex_key(e): Fraction(c, den) for e, c in self._terms.items()}

    # ------------------------------------------------------------------
    # arithmetic

    def _check_compatible(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable-count mismatch: {self.nvars} vs {other.nvars}"
            )

    @staticmethod
    def sum(nvars: int, polys: Iterable["Polynomial"]) -> "Polynomial":
        """The sum of ``polys``, each in ``nvars`` variables; the zero
        polynomial when there are none.

        Every numerator, brought to the lcm of the denominators so far, is
        added into one term map: a new monomial stores its numerator as it
        is, a repeated one adds, and a sum that cancels to zero is deleted.
        Storing a new term as it is, with no addition to zero, once saved
        about 6% on the ``Fraction`` kernel before this one.  On this
        integer kernel, adding ``terms.get(k, 0) + c`` for every term and
        dropping the zeros in a second pass ran within noise of it on
        ``counterexample-ladder`` (in-process medians 8.64 vs 8.33 ms,
        slower in 3 of 6 alternating runs of 150 operations; Python 3.11.7,
        shared 2-core machine).
        """
        terms: dict = {}
        den = 1
        for p in polys:
            if p.nvars != nvars:
                raise ValueError(f"variable-count mismatch: {nvars} vs {p.nvars}")
            items = p._terms.items()
            if p._den != den:
                if den % p._den:
                    common = lcm(den, p._den)
                    up = common // den
                    terms = {e: c * up for e, c in terms.items()}
                    den = common
                if den != p._den:
                    scale = den // p._den
                    items = [(e, c * scale) for e, c in items]
            for exps, num in items:
                if exps not in terms:
                    terms[exps] = num
                elif (acc := terms[exps] + num):
                    terms[exps] = acc
                else:
                    del terms[exps]
        return Polynomial._wrap(nvars, terms, den)

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial.sum(self.nvars, (self, other))

    def __neg__(self):
        return Polynomial._wrap(self.nvars, {e: -c for e, c in self._terms.items()}, self._den)

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            num, den = other.numerator, other.denominator
            if not num:
                return Polynomial.zero(self.nvars)
            return Polynomial._wrap(self.nvars, {e: v * num for e, v in self._terms.items()},
                                      self._den * den)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        terms: dict = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                exps = tuple(map(add, ea, eb))
                acc = terms.get(exps, 0) + ca * cb
                if acc:
                    terms[exps] = acc
                else:
                    terms.pop(exps, None)
        return Polynomial._wrap(self.nvars, terms, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        """``self`` multiplied into 1 ``exponent`` times, one factor at a
        time: the sequential loop whose term products ``parse.power_work``
        bounds."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Polynomial.one(self.nvars)
        for _ in range(exponent):
            result = result * self
        return result

    # ------------------------------------------------------------------
    # comparison

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.nvars == other.nvars and self._den == other._den
                and self._terms == other._terms)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.nvars, self._den, frozenset(self._terms.items())))
            _set_hash(self, h)
        return h

    def __repr__(self):
        return f"Polynomial({format_poly(self)!r}, nvars={self.nvars})"


# the slots are written through their descriptors, past the immutability guard
_new = object.__new__
_set_nvars = Polynomial.nvars.__set__
_set_terms = Polynomial._terms.__set__
_set_den = Polynomial._den.__set__
_set_hash = Polynomial._hash.__set__


def format_poly(p: Polynomial) -> str:
    """Canonical text form in the variables ``x1 .. x<n>``, terms in
    grlex-descending order.  The output round-trips through
    :func:`skewpoisson.parse.parse_poly`.
    """
    names = [variable_name(i) for i in range(p.nvars)]
    if p.is_zero:
        return "0"
    pieces = []
    for exps, coeff in sorted(p.items(), key=lambda t: grlex_key(t[0]), reverse=True):
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


def partial_derivative(p: Polynomial, index: int) -> Polynomial:
    """Formal partial derivative with respect to the 0-based variable index."""
    if not 0 <= index < p.nvars:
        raise ValueError(f"variable index {index} out of range for nvars={p.nvars}")
    # lowering one exponent is injective, so no two terms meet
    return Polynomial._wrap(p.nvars, {
        exps[:index] + (exps[index] - 1,) + exps[index + 1:]: coeff * exps[index]
        for exps, coeff in p._terms.items() if exps[index]}, p._den)


class LinearSubstitution:
    """The linear change of variables x_j -> sum_k M[j][k] y_k, compiled once.

    ``M`` has one row per variable x_j of the input and one column per
    variable y_k of the output; it need not be square, so a map between
    polynomial rings of different sizes (into and out of a class's
    fixed-space coordinates) compiles the same way as a change of variables.
    ``M`` is kept as an integer matrix ``A`` over one denominator ``D``, so a
    monomial of degree ``d`` has an integer image over ``D**d``.  A monomial
    matrix (at most one nonzero per row, as for signed permutations and
    diagonal actions) keeps one ``(target, numerator)`` pair per variable.
    Any other matrix keeps its integer forms and memoizes the image of every
    monomial it has met: the image of ``m`` is the image of ``m / x_j``
    times form ``j``, with ``x_j`` the last variable in ``m``.  The memo
    lives as long as the object, so a map kept for repeated use trades
    memory for never expanding a monomial twice.  Calling the object
    composes a polynomial with the change of variables.

    The monomial path gives the same polynomials as the general one; it
    stays for speed.  With every substitution forced onto the general path,
    the order-48 group invariants benchmark (``b3-group-invariants``) took
    5.8-7.5 ms per operation (median 6.2) against 4.7-5.3 ms (median 5.0),
    slower in all of ten alternating pairs of 8-second runs (Python 3.11.7,
    shared 2-core machine).
    """

    __slots__ = ("nvars", "target_nvars", "_den", "_simple", "_forms", "_images")

    def __init__(self, matrix):
        n = len(matrix)
        width = len(matrix[0]) if n else 0
        if width == 0 or any(len(row) != width for row in matrix):
            raise ValueError(f"substitution matrix must be a nonempty {n}x{width} matrix")
        rows = [[(k, r) for k, r in enumerate(map(_ratio, row)) if r[0]] for row in matrix]
        den = lcm(*{d for row in rows for _, (_, d) in row})
        rows = [[(k, num * (den // d)) for k, (num, d) in row] for row in rows]
        self.nvars = n
        self.target_nvars = width
        self._den = den
        if all(len(row) <= 1 for row in rows):
            self._simple = [row[0] if row else None for row in rows]
            self._forms = self._images = None
        else:
            self._simple = None
            self._forms = rows
            self._images = {(0,) * n: {(0,) * width: 1}}

    def __call__(self, p: Polynomial) -> Polynomial:
        if p.nvars != self.nvars:
            raise ValueError(f"substitution matrix must have {p.nvars} rows, one per "
                             f"variable (as a {p.nvars}x{p.nvars} change of variables "
                             f"has), not {self.nvars}")
        width = self.target_nvars
        terms: dict = {}
        # a term of degree d maps to an image over D**d; with D != 1 every
        # image is lifted to the common denominator D**top
        den = self._den
        top = max(p.total_degree(), 0) if den != 1 else 0
        if self._simple is not None:
            image_key = self.image_key
            for exps, coeff in p._terms.items():
                image = image_key(exps)
                if image is None:
                    continue
                key, scale = image
                scale *= coeff
                if den != 1:
                    scale *= den ** (top - sum(exps))
                if key not in terms:  # keys repeat only if the map is not invertible
                    terms[key] = scale
                elif (acc := terms[key] + scale):
                    terms[key] = acc
                else:
                    del terms[key]
        else:
            for exps, coeff in p._terms.items():
                if den != 1:
                    coeff *= den ** (top - sum(exps))
                for key, c in self._image(exps).items():
                    acc = terms.get(key, 0) + coeff * c
                    if acc:
                        terms[key] = acc
                    else:
                        terms.pop(key, None)
        return Polynomial._wrap(width, terms, p._den * den**top)

    def image_key(self, exps: Exponents):
        """A key of the image of the monomial ``exps``, found without
        building a polynomial: ``None`` when the image is zero, and
        otherwise a hashable value that two monomials share exactly when
        their images are equal.  On the monomial path it is the pair of the
        target exponents and the integer scale, from which calling the
        object builds each term; on the general path it is the terms of the
        memoized integer image that calling the object reads too."""
        simple = self._simple
        if simple is None:
            image = self._image(exps)
            return frozenset(image.items()) if image else None
        out = [0] * self.target_nvars
        scale = 1
        for j, e in enumerate(exps):
            if e == 0:
                continue
            target = simple[j]
            if target is None:
                return None
            k, c = target
            out[k] += e
            if c == -1:
                if e & 1:
                    scale = -scale
            elif c != 1:
                scale *= c**e
        return tuple(out), scale

    def _image(self, exps: Exponents) -> dict:
        """Integer terms of the image of the monomial ``exps`` under the
        forms ``A`` (``D**deg`` times its image under ``M``), memoized."""
        images = self._images
        image = images.get(exps)
        if image is not None:
            return image
        # divide by the last variable until a memoized monomial is reached,
        # then multiply the forms back in, memoizing every step
        chain = []
        while image is None:
            j = max(i for i, e in enumerate(exps) if e)
            chain.append((exps, j))
            exps = exps[:j] + (exps[j] - 1,) + exps[j + 1:]
            image = images.get(exps)
        for exps, j in reversed(chain):
            product: dict = {}
            for key, c in image.items():
                for k, f in self._forms[j]:
                    up = key[:k] + (key[k] + 1,) + key[k + 1:]
                    acc = product.get(up, 0) + c * f
                    if acc:
                        product[up] = acc
                    else:
                        product.pop(up, None)
            images[exps] = image = product
        return image


def substitute_linear(p: Polynomial, matrix) -> Polynomial:
    """Compose with a linear change of variables: x_j -> sum_k M[j][k] x_k.

    Satisfies the composition law ``substitute_linear(substitute_linear(p, M), N)
    == substitute_linear(p, mat_mul(M, N))``.  Compiles the matrix for this
    one call; keep a :class:`LinearSubstitution` to apply it repeatedly.
    """
    return LinearSubstitution(matrix)(p)


class SymplecticForm:
    """A constant symplectic form, stored as its Gram matrix.

    The matrix must be antisymmetric and invertible (hence of even size).
    The associated Poisson tensor is the inverse transpose of the Gram
    matrix; for the standard block form ``dx1^dx2 + dx3^dx4 + ...`` this
    reproduces the familiar Darboux-coordinate bracket.
    """

    __slots__ = ("matrix", "poisson_tensor")

    def __init__(self, matrix):
        mat = linalg.matrix_from_rows(matrix)
        n = len(mat)
        if n == 0 or n % 2 != 0:
            raise ValueError("symplectic form needs a positive even dimension")
        if any(len(row) != n for row in mat):
            raise ValueError("symplectic form matrix must be square")
        if linalg.transpose(mat) != linalg.mat_scale(Fraction(-1), mat):
            raise ValueError("symplectic form matrix must be antisymmetric")
        try:
            inv = linalg.inverse(mat)
        except ValueError as exc:
            raise ValueError("symplectic form matrix must be invertible") from exc
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "poisson_tensor", linalg.transpose(inv))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("SymplecticForm instances are immutable")

    @property
    def nvars(self) -> int:
        return len(self.matrix)

    def __repr__(self):
        return f"SymplecticForm({[list(map(str, r)) for r in self.matrix]})"


def poisson_bracket(p: Polynomial, q: Polynomial, form: SymplecticForm) -> Polynomial:
    """Poisson bracket of two polynomials for a constant symplectic form.

    Computed as ``sum_ij T[i][j] dp/dx_i dq/dx_j`` with ``T`` the form's
    Poisson tensor.  Bilinear, antisymmetric, a derivation in each slot,
    and satisfies the Jacobi identity, all exactly.
    """
    if p.nvars != q.nvars:
        raise ValueError(f"variable-count mismatch: {p.nvars} vs {q.nvars}")
    if form.nvars != p.nvars:
        raise ValueError(
            f"form dimension {form.nvars} does not match nvars={p.nvars}"
        )
    n = p.nvars
    # the tensor is invertible, so every row and column has a nonzero entry
    # and every partial derivative is needed
    dp = [partial_derivative(p, i) for i in range(n)]
    dq = [partial_derivative(q, j) for j in range(n)]
    return Polynomial.sum(n, ((dp[i] * dq[j]) * c
                              for i, row in enumerate(form.poisson_tensor)
                              for j, c in enumerate(row) if c))

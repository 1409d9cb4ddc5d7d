"""Deciding the trace-space obstruction to extending the Poisson bracket.

For an invariant ``phi``, a polynomial ``psi`` and a non-identity conjugacy
class, a necessary condition for extending the Poisson bracket of the
invariant ring to the skew group algebra is the existence of a multiplier
``sigma`` with

    project(bracket(phi, psi) . g) + project(psi * sigma . g) == 0,

where ``project`` is the class projection of :mod:`skewpoisson.skew`.  This
module decides that condition exactly: a degree-bounded rational linear
solve produces either a feasible ``sigma`` or an infeasibility record with
its rank data and a dual witness (a functional on monomials that kills
every candidate image but not the target), and a divisor argument (some
variable divides every monomial every candidate image can ever contain,
but not the target) upgrades infeasibility to all degrees.  Every verdict
ships as a certificate that :func:`replay_certificate` checks against the
target its :class:`ObstructionProblem` computed on construction.

:func:`solve_ladder` decides a ladder of degree bounds in one pass: it
computes each candidate multiplier image once and grows one row reduction
across the rungs, adding each distinct nonzero image once, so the ladder
0..D costs about its top rung alone, and every rung's certificate (hence
every report and exit code) equals that of a fresh solve at the rung's
bound.  :func:`solve_sigma` is its one-rung case.  An image depends only
on the restriction of its multiplier to the fixed space of the class
representative, a polynomial in the class's ``k = dim V^g`` coordinates
``u`` (see :meth:`~skewpoisson.groups.FiniteMatrixGroup.class_coordinates`).
So the candidates are walked as exponent tuples, and the image memo is keyed
by the image of each tuple under the class's ``into`` map
(:meth:`~skewpoisson.poly.LinearSubstitution.image_key`): each distinct
restricted monomial is built and projected once, in ``u``, and only its
image is mapped back to the ``n`` variables ``x`` (see
:func:`sigma_image_basis`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from . import linalg
from .groups import FiniteMatrixGroup, act_on_poly
from .invariants import is_invariant
from .poly import Polynomial, SymplecticForm, monomials_of_degree, poisson_bracket
from .skew import SkewElement, project_fixed, project_term

__all__ = [
    "Verdict",
    "RankData",
    "Certificate",
    "ObstructionProblem",
    "sigma_image_basis",
    "multiplier_image_generators",
    "divisor_certificate",
    "solve_sigma",
    "solve_ladder",
    "collapse_to_sigma",
    "replay_certificate",
]


class Verdict(enum.Enum):
    FEASIBLE = "FEASIBLE"
    INFEASIBLE_AT_DEGREE = "INFEASIBLE_AT_DEGREE"
    INFEASIBLE_ALL_DEGREES = "INFEASIBLE_ALL_DEGREES"


@dataclass(frozen=True)
class RankData:
    """Dimensions and rank of the image system, plus the unreachable part."""

    rows: int  # distinct monomials spanned by images and target
    cols: int  # candidate multiplier monomials up to the degree bound
    rank: int
    residual: Polynomial  # component of the target outside the image span


@dataclass(frozen=True)
class Certificate:
    """Outcome of one obstruction decision; replayable via
    :func:`replay_certificate`."""

    verdict: Verdict
    target: Polynomial
    degree: int  # the degree bound the verdict was decided at
    sigma: Optional[Polynomial] = None
    rank_data: Optional[RankData] = None
    divisor_witness: Optional[int] = None  # 0-based variable index
    divisor_images: tuple = ()  # degree-independent image generators
    # degree-bounded infeasibility: the functional on monomials whose value
    # at a monomial is this polynomial's coefficient there
    dual_witness: Optional[Polynomial] = None


@dataclass(frozen=True)
class ObstructionProblem:
    """One obstruction instance.  Construction validates it, rejecting the
    identity class and a non-invariant ``phi``, and computes the ``bracket``
    {phi, psi} and its class projection ``target``, the inhomogeneous side of
    the obstruction equation, which every solve and replay reads."""

    group: FiniteMatrixGroup
    phi: Polynomial
    psi: Polynomial
    class_index: int
    degree_bound: int
    form: SymplecticForm
    bracket: Polynomial = field(init=False)
    target: Polynomial = field(init=False)

    def __post_init__(self):
        if not 0 <= self.class_index < len(self.group.classes):
            raise ValueError(f"class index {self.class_index} out of range")
        if self.degree_bound < 0:
            raise ValueError("degree bound must be non-negative")
        if self.phi.nvars != self.group.dim or self.psi.nvars != self.group.dim:
            raise ValueError("polynomial variable count does not match the group")
        if self.form.nvars != self.group.dim:
            raise ValueError("form dimension does not match the group")
        if self.class_index == 0:
            raise ValueError("the obstruction concerns non-identity classes only")
        if not is_invariant(self.group, self.phi):
            raise ValueError("phi must be invariant under the whole group")
        bracket = poisson_bracket(self.phi, self.psi, self.form)
        object.__setattr__(self, "bracket", bracket)
        object.__setattr__(self, "target", project_term(self.group, bracket, self.class_index))


def sigma_image_basis(
    group: FiniteMatrixGroup,
    psi: Polynomial,
    class_index: int,
    degree_bound: int,
    min_degree: int = 0,
) -> list:
    """Images of every candidate multiplier monomial of degree
    ``min_degree`` up to the bound.

    Returns ``(exponents, image)`` pairs in ascending graded-lex order; zero
    images are kept, since they witness kernel directions of the map.

    The class's restriction ``R`` substitutes by a projection matrix, so it
    is multiplicative and idempotent, and the image of a monomial ``m`` is

        project_term(psi * m) == project_term(R(psi) * R(m)):

    it depends only on ``R(m) == back(into(m))``, hence on ``into(m)``, the
    restriction of ``m`` in the class's fixed-space coordinates ``u``.  That
    is one monomial in ``u`` (times a scalar) whenever ``into`` is a
    monomial map, as on the class of ``e``.  The candidates are walked as
    exponent tuples, and the memo is keyed by
    :meth:`~skewpoisson.poly.LinearSubstitution.image_key`, the key of the
    tuple's image under ``into``, which equal restrictions share and no
    polynomial is built for.  Only a new key builds ``into(m)``, multiplies
    it by ``psi`` in ``u``, averages the product over the centralizer there
    by :func:`~skewpoisson.skew.project_fixed` and maps it back to ``x``:
    once per distinct restricted monomial and call.  A monomial whose
    restriction is zero (key ``None``) gets the zero image without a
    projection.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be non-negative")
    into = group.class_coordinates(class_index).into
    fixed_psi = into(psi)
    images = {None: Polynomial.zero(group.dim)}  # image key of into(m) -> image
    out = []
    for degree in range(min_degree, degree_bound + 1):
        for exps in monomials_of_degree(group.dim, degree):
            key = into.image_key(exps)
            image = images.get(key)
            if image is None:
                fixed = into(Polynomial.monomial(group.dim, exps))
                image = images[key] = project_fixed(group, fixed_psi * fixed, class_index)
            out.append((exps, image))
    return out


def multiplier_image_generators(
    group: FiniteMatrixGroup, psi: Polynomial, class_index: int
) -> tuple:
    """Degree-independent generators of everything the images can contain.

    The image of any multiplier is a centralizer average of products
    ``c . R(psi) * c . R(multiplier)``, where ``R`` is the class's
    restriction, so every image monomial is divisible by a monomial of one
    of the translates ``c . R(psi)`` for ``c`` in the representative's
    centralizer.  These translates therefore certify divisor properties for
    multipliers of arbitrary degree, not just up to some bound.  They are
    computed in the class's coordinates ``u``: ``c`` acts on ``into(psi)``
    by ``B_c`` (see
    :meth:`~skewpoisson.groups.FiniteMatrixGroup.class_coordinates`), so the
    generators are ``R(psi)`` and its distinct translates under the distinct
    ``B_c``, mapped ``back``, in the order of the first centralizer element
    giving each.
    """
    coords = group.class_coordinates(class_index)
    fixed = coords.into(psi)
    if fixed.is_zero:
        return ()
    translates = (fixed, *(action(fixed) for action in coords.actions))
    return tuple(dict.fromkeys(coords.back(t) for t in translates))


def divisor_certificate(images: Sequence[Polynomial], target: Polynomial) -> Optional[int]:
    """Find a variable dividing every image monomial but not the target.

    Returns the lowest qualifying 0-based variable index, or ``None`` when
    no variable qualifies (which is inconclusive, never a feasibility
    claim).  With an empty or all-zero image list any variable missing from
    some target monomial qualifies vacuously.  Soundness for *all* degrees
    requires the image list to generate every candidate image
    degree-independently, see :func:`multiplier_image_generators`; the
    divisibility property survives linear combinations because addition
    never creates new monomials.
    """
    return next((v for v in range(target.nvars) if _divides(v, images, target)), None)


def _divides(v: int, images: Sequence[Polynomial], target: Polynomial) -> bool:
    """Whether variable ``v`` divides every image monomial but not every
    target monomial (so never when the target is zero)."""
    return (any(exps[v] == 0 for exps, _ in target.items())
            and all(exps[v] > 0 for p in images for exps, _ in p.items()))


def solve_sigma(problem: ObstructionProblem) -> Certificate:
    """Decide the obstruction condition at the problem's degree bound: the
    one-rung case of :func:`solve_ladder`."""
    return next(solve_ladder(problem, (problem.degree_bound,)))


def solve_ladder(problem: ObstructionProblem,
                 bounds: Sequence[int]) -> Iterator[Certificate]:
    """Decide the obstruction condition at each bound of a strictly
    increasing ladder, in order, stopping after the first feasible rung.

    The certificate yielded at bound ``d`` is the one a solve of the problem
    at degree bound ``d`` gives, and records ``d`` as its ``degree``; the
    problem's own ``degree_bound`` is not read.  Feasible outcomes carry a
    multiplier (deterministic support, from graded-lex pivoting) that
    replays to exact zero.  Infeasible outcomes
    record the rank data of the linear system; when the divisor argument
    applies, the verdict is upgraded to all degrees, and otherwise it stays
    at the rung's bound with a dual witness checked against the rung's
    distinct nonzero images.

    The candidate monomials are ascending in graded-lex order, so the images
    at one bound are a prefix of those at any larger bound: each image is
    computed once, and each distinct nonzero one is added once, tagged with
    the first monomial that has it, to one tracked
    :class:`~skewpoisson.linalg.RowSpace` that grows across the rungs.  A
    zero or repeated image reduces to zero, so it would never become a pivot
    nor enter a combination; skipping it leaves every row unchanged.  That
    space's state depends only on the sequence of vectors inserted, so every
    rung reproduces the rank, residual, multiplier and dual witness of a
    fresh solve exactly; the rank data still counts every candidate.  Those
    distinct nonzero images are all the ladder keeps: a zero image pairs to
    zero with the dual witness, and a repeated one like its first copy.  The
    target is the problem's, and the divisor test runs once per ladder.
    """
    bounds = tuple(bounds)
    if any(a >= b for a, b in zip(bounds, bounds[1:])):
        raise ValueError(f"degree bounds must be strictly increasing, got {list(bounds)}")
    if bounds and bounds[0] < 0:
        raise ValueError("degree bound must be non-negative")
    group, psi, class_index = problem.group, problem.psi, problem.class_index
    target = problem.target
    goal = (-target).to_vector()
    space = linalg.RowSpace(track=True)
    cols = 0  # candidate monomials up to the last rung
    tags = {}  # each distinct nonzero image -> the first monomial with it
    support = set(goal)
    divisor = None  # (witness, generators), from the first infeasible rung
    low = 0  # the lowest degree no rung has covered yet
    for bound in bounds:
        new = sigma_image_basis(group, psi, class_index, bound, min_degree=low)
        low = bound + 1
        for exps, image in new:
            if image and image not in tags:
                tags[image] = exps
                vec = image.to_vector()
                space.add(vec)
                support.update(vec)
        cols += len(new)
        coeffs, residual = space.solve(goal)

        if coeffs is not None:
            sigma = Polynomial(
                group.dim,
                {exps: c for exps, c in zip(tags.values(), coeffs) if c},
            )
            cert = Certificate(Verdict.FEASIBLE, target=target, degree=bound, sigma=sigma)
            if not replay_certificate(problem, cert):
                raise RuntimeError("feasible certificate failed to replay")
            yield cert
            return

        residual_poly = Polynomial.from_vector(group.dim, residual)
        rank_data = RankData(rows=len(support), cols=cols, rank=space.rank,
                             residual=residual_poly)
        if divisor is None:
            generators = multiplier_image_generators(group, psi, class_index)
            divisor = (divisor_certificate(generators, target), generators)
        witness, generators = divisor
        if witness is not None:
            yield Certificate(
                Verdict.INFEASIBLE_ALL_DEGREES,
                target=target,
                degree=bound,
                rank_data=rank_data,
                divisor_witness=witness,
                divisor_images=generators,
            )
            continue
        # Fredholm alternative: the annihilator functional of the residual's
        # lead column, never a pivot, vanishes on every image, while on the
        # target it is the residual's entry there, which is nonzero.
        separating = space.annihilator([min(residual)])[0]
        dual = Polynomial.from_vector(group.dim, separating)
        if not _separates(dual, tags, target):
            raise RuntimeError("degree-bounded infeasibility certificate failed to replay")
        yield Certificate(Verdict.INFEASIBLE_AT_DEGREE, target=target, degree=bound,
                          rank_data=rank_data, dual_witness=dual)


def _separates(witness: Polynomial, images: Iterable[Polynomial],
               target: Polynomial) -> bool:
    """Whether the witness, read as a functional on monomials, vanishes on
    every image but not on the target.  Pairing is linear, so a repeated or
    zero image may be left out."""
    def pair(p: Polynomial):
        return sum(c * p.coefficient(exps) for exps, c in witness.items())

    return all(pair(img) == 0 for img in images) and pair(target) != 0


def collapse_to_sigma(d_of_g: SkewElement, g: int) -> Polynomial:
    """Collapse a candidate derivation value at ``g`` to a single multiplier.

    Sums, over the whole group, the translates of the parts of the input
    supported on the conjugacy class of ``g``; parts off the class
    contribute nothing.  This is the general form of the multiplier entering
    the obstruction condition, and its images are property-tested to land in
    the span produced by :func:`sigma_image_basis`.
    """
    group = d_of_g.group
    idx = group.element_index(g)
    if idx == 0:
        raise ValueError("the identity element is excluded here")
    parts = ((h, d_of_g.g_part(group.mul(group.mul(h, idx), group.inverse(h))))
             for h in range(group.order))  # the part at h g h^-1
    return Polynomial.sum(group.dim, (act_on_poly(group, part, h)
                                      for h, part in parts if not part.is_zero))


def replay_certificate(problem: ObstructionProblem, cert: Certificate) -> bool:
    """Re-verify a certificate against its problem from first principles.

    The certificate's target must equal the one the problem computed on
    construction; the problem's own ``degree_bound`` is not read, so every
    rung of a :func:`solve_ladder` replays against the ladder's problem.
    Feasible: the multiplier's degree must not exceed ``cert.degree``, and
    substituting it back must give exact zero.  All-degrees: recompute the
    degree-independent image generators and rescan them and the target for
    the divisor property.  Degree-bounded: recompute the candidate images up
    to ``cert.degree`` and demand that the dual witness vanishes on each of
    them but not on the target, which takes dot products only, no row
    reduction.
    """
    target = problem.target
    if cert.target != target:
        return False
    group = problem.group
    if cert.verdict is Verdict.FEASIBLE:
        if cert.sigma is None or cert.sigma.total_degree() > cert.degree:
            return False
        image = project_term(group, problem.psi * cert.sigma, problem.class_index)
        return (target + image).is_zero
    if cert.verdict is Verdict.INFEASIBLE_ALL_DEGREES:
        v = cert.divisor_witness
        if v is None or not 0 <= v < group.dim:
            return False
        generators = multiplier_image_generators(group, problem.psi,
                                                 problem.class_index)
        return _divides(v, generators, target)
    if cert.rank_data is None or cert.dual_witness is None or cert.degree < 0:
        return False
    images = sigma_image_basis(group, problem.psi, problem.class_index, cert.degree)
    return _separates(cert.dual_witness, {img for _, img in images}, target)

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
ships as a replayable certificate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from . import linalg
from ._version import __version__
from .config import ConfigError, ScenarioConfig
from .groups import ElementLike, FiniteMatrixGroup, act_on_poly, is_symplectic
from .invariants import is_invariant, verify_relations
from .poly import (
    Polynomial,
    SymplecticForm,
    format_poly,
    monomials_up_to,
    poisson_bracket,
)
from .report import Report, STATUS_ERROR, STATUS_FINDING, STATUS_OK
from .skew import SkewElement, hh0_project

__all__ = [
    "Verdict",
    "RankData",
    "Certificate",
    "ObstructionProblem",
    "target_poly",
    "sigma_image_basis",
    "multiplier_image_generators",
    "divisor_certificate",
    "solve_sigma",
    "collapse_to_sigma",
    "replay_certificate",
    "run_counterexample",
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
    sigma: Optional[Polynomial] = None
    rank_data: Optional[RankData] = None
    divisor_witness: Optional[int] = None  # 0-based variable index
    divisor_images: tuple = ()  # degree-independent image generators
    # degree-bounded infeasibility: the functional on monomials whose value
    # at a monomial is this polynomial's coefficient there
    dual_witness: Optional[Polynomial] = None


@dataclass(frozen=True)
class ObstructionProblem:
    group: FiniteMatrixGroup
    phi: Polynomial
    psi: Polynomial
    class_index: int
    degree_bound: int
    form: SymplecticForm

    def __post_init__(self):
        if not 0 <= self.class_index < len(self.group.classes):
            raise ValueError(f"class index {self.class_index} out of range")
        if self.class_index == 0:
            raise ValueError("the obstruction concerns non-identity classes only")
        if self.degree_bound < 0:
            raise ValueError("degree bound must be non-negative")
        if self.phi.nvars != self.group.dim or self.psi.nvars != self.group.dim:
            raise ValueError("polynomial variable count does not match the group")
        if self.form.nvars != self.group.dim:
            raise ValueError("form dimension does not match the group")
        if not is_invariant(self.group, self.phi):
            raise ValueError("phi must be invariant under the whole group")


def target_poly(
    group: FiniteMatrixGroup,
    phi: Polynomial,
    psi: Polynomial,
    class_index: int,
    form: SymplecticForm,
) -> Polynomial:
    """Class projection of the bracket term: the inhomogeneous side of the
    obstruction equation.  Rejects a non-invariant ``phi``."""
    if not is_invariant(group, phi):
        raise ValueError("phi must be invariant under the whole group")
    if class_index == 0:
        raise ValueError("the obstruction concerns non-identity classes only")
    rep = group.classes[class_index].representative
    bracket = poisson_bracket(phi, psi, form)
    return hh0_project(SkewElement.term(group, bracket, rep), class_index)


def sigma_image_basis(
    group: FiniteMatrixGroup,
    psi: Polynomial,
    class_index: int,
    degree_bound: int,
) -> list:
    """Images of every candidate multiplier monomial up to the bound.

    Returns ``(exponents, image)`` pairs in ascending graded-lex order; zero
    images are kept, since they witness kernel directions of the map.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be non-negative")
    rep = group.classes[class_index].representative
    out = []
    for exps in monomials_up_to(group.dim, degree_bound):
        mono = Polynomial.monomial(group.dim, exps)
        image = hh0_project(SkewElement.term(group, psi * mono, rep), class_index)
        out.append((exps, image))
    return out


def multiplier_image_generators(
    group: FiniteMatrixGroup, psi: Polynomial, class_index: int
) -> tuple:
    """Degree-independent generators of everything the images can contain.

    The image of any multiplier is a centralizer average of products
    ``restrict(k . psi) * restrict(k . multiplier)``, so every image monomial
    is divisible by a monomial of one of the restricted translates
    ``restrict(k . psi)`` for ``k`` in the representative's centralizer.
    These translates therefore certify divisor properties for multipliers of
    arbitrary degree, not just up to some bound.
    """
    maps = group.class_projection_maps(class_index)
    seen = []
    for k in group.classes[class_index].centralizer:
        translated = maps[k][1](psi)
        if not translated.is_zero and translated not in seen:
            seen.append(translated)
    return tuple(seen)


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
    if target.is_zero:
        return None
    nonzero = [p for p in images if not p.is_zero]
    for v in range(target.nvars):
        if not any(exps[v] == 0 for exps, _ in target.items()):
            continue
        if all(all(exps[v] > 0 for exps, _ in p.items()) for p in nonzero):
            return v
    return None


def solve_sigma(problem: ObstructionProblem) -> Certificate:
    """Decide the obstruction condition at the problem's degree bound.

    Feasible outcomes return a multiplier (deterministic support, from
    graded-lex pivoting) that replays to exact zero.  Infeasible outcomes
    record the rank data of the linear system; when the divisor argument
    applies, the verdict is upgraded to all degrees, and otherwise it stays
    at the degree bound with a dual witness checked against the images.
    """
    group = problem.group
    target = target_poly(group, problem.phi, problem.psi, problem.class_index,
                         problem.form)
    images = sigma_image_basis(group, problem.psi, problem.class_index,
                               problem.degree_bound)
    vectors = [img.to_vector() for _, img in images]
    goal = (-target).to_vector()
    coeffs, rank, residual = linalg.solve_combination(vectors, goal)

    if coeffs is not None:
        sigma = Polynomial(
            group.dim,
            {exps: c for (exps, _), c in zip(images, coeffs) if c},
        )
        cert = Certificate(Verdict.FEASIBLE, target=target, sigma=sigma)
        if not replay_certificate(problem, cert):
            raise RuntimeError("feasible certificate failed to replay")
        return cert

    support = set(goal)
    for vec in vectors:
        support.update(vec)
    residual_poly = Polynomial(group.dim, {key[1]: c for key, c in residual.items()})
    rank_data = RankData(rows=len(support), cols=len(images), rank=rank,
                         residual=residual_poly)
    generators = multiplier_image_generators(group, problem.psi, problem.class_index)
    witness = divisor_certificate(generators, target)
    if witness is not None:
        return Certificate(
            Verdict.INFEASIBLE_ALL_DEGREES,
            target=target,
            rank_data=rank_data,
            divisor_witness=witness,
            divisor_images=generators,
        )
    separating = linalg.separating_functional(vectors, goal)
    dual = Polynomial(group.dim, {key[1]: c for key, c in separating.items()})
    if not _separates(dual, [img for _, img in images], target):
        raise RuntimeError("degree-bounded infeasibility certificate failed to replay")
    return Certificate(Verdict.INFEASIBLE_AT_DEGREE, target=target,
                       rank_data=rank_data, dual_witness=dual)


def _separates(witness: Polynomial, images: Sequence[Polynomial],
               target: Polynomial) -> bool:
    """Whether the witness, read as a functional on monomials, vanishes on
    every image but not on the target."""
    def pair(p: Polynomial):
        return sum(c * p.coefficient(exps) for exps, c in witness.items())

    return all(pair(img) == 0 for img in images) and pair(target) != 0


def collapse_to_sigma(d_of_g: SkewElement, g: ElementLike) -> Polynomial:
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
    table = group.mul_table
    inv = group.inverse_table
    total = Polynomial.zero(group.dim)
    for h in range(group.order):
        conj = table[table[h][idx]][inv[h]]  # h g h^-1
        part = d_of_g.g_part(conj)
        if part.is_zero:
            continue
        total = total + act_on_poly(group.elements[h], part)
    return total


def replay_certificate(problem: ObstructionProblem, cert: Certificate) -> bool:
    """Re-verify a certificate from first principles.

    Feasible: substitute the multiplier back and demand exact zero.
    All-degrees: rescan the stored image generators and the target for the
    divisor property.  Degree-bounded: recompute the candidate images and
    demand that the dual witness vanishes on each of them but not on the
    target, which takes dot products only, no row reduction.
    """
    group = problem.group
    if cert.verdict is Verdict.FEASIBLE:
        if cert.sigma is None:
            return False
        rep = group.classes[problem.class_index].representative
        image = hh0_project(
            SkewElement.term(group, problem.psi * cert.sigma, rep),
            problem.class_index,
        )
        return (cert.target + image).is_zero
    if cert.verdict is Verdict.INFEASIBLE_ALL_DEGREES:
        if cert.divisor_witness is None:
            return False
        v = cert.divisor_witness
        if not any(exps[v] == 0 for exps, _ in cert.target.items()):
            return False
        return all(
            all(exps[v] > 0 for exps, _ in p.items())
            for p in cert.divisor_images
            if not p.is_zero
        )
    if cert.rank_data is None or cert.dual_witness is None:
        return False
    images = sigma_image_basis(group, problem.psi, problem.class_index,
                               problem.degree_bound)
    return _separates(cert.dual_witness, [img for _, img in images], cert.target)


# ----------------------------------------------------------------------
# full pipeline


def _variable_name(index: int) -> str:
    return f"x{index + 1}"


def _certificate_payload(cert: Certificate) -> dict:
    payload = {
        "verdict": cert.verdict.value,
        "target": format_poly(cert.target),
    }
    if cert.sigma is not None:
        payload["sigma"] = format_poly(cert.sigma)
    if cert.rank_data is not None:
        payload["rank_data"] = {
            "rows": cert.rank_data.rows,
            "cols": cert.rank_data.cols,
            "rank": cert.rank_data.rank,
            "residual": format_poly(cert.rank_data.residual),
        }
    if cert.divisor_witness is not None:
        payload["divisor_witness"] = _variable_name(cert.divisor_witness)
        payload["image_generators"] = [format_poly(p) for p in cert.divisor_images]
    return payload


def run_counterexample(
    config: ScenarioConfig,
    degree_ladder: Optional[Sequence[int]] = None,
    psi_names: Optional[Sequence[str]] = None,
    group_cap: int = 10_000,
) -> Report:
    """Execute the whole pipeline on a scenario and report stage by stage.

    Stages: group construction, symplecticity, generator invariance,
    relation residuals, then per ``psi`` the target, the degree ladder of
    linear solves, and the divisor certificate.  Any failure is attributed
    to its stage; nothing after a failed stage runs.
    """
    report = Report(command="obstruction", version=__version__)

    def fail(stage: str, exc: Exception) -> Report:
        kind = "internal" if isinstance(exc, RuntimeError) else "config"
        report.add(stage, STATUS_ERROR, {"message": str(exc), "kind": kind})
        report.verdict = f"error in stage {stage!r}"
        return report

    try:
        form = config.build_form()
        group = config.build_group(cap=group_cap)
    except (ConfigError, ValueError) as exc:
        return fail("group", exc)
    report.add("group", STATUS_OK, {
        "order": group.order,
        "classes": len(group.classes),
    })

    try:
        flags = [
            {"element": g.word, "symplectic": is_symplectic(g, form)}
            for g in group.elements
        ]
    except ValueError as exc:
        return fail("symplectic", exc)
    all_symp = all(f["symplectic"] for f in flags)
    report.add("symplectic", STATUS_OK if all_symp else STATUS_FINDING, {
        "all_symplectic": all_symp,
        "elements": flags,
    })

    try:
        gens = config.build_generator_set()
        invariance = [
            {"name": n, "invariant": is_invariant(group, p, exhaustive=True)}
            for n, p in zip(gens.names, gens.polys)
        ]
    except (ConfigError, ValueError) as exc:
        return fail("generators", exc)
    all_inv = all(row["invariant"] for row in invariance)
    report.add("generators", STATUS_OK if all_inv else STATUS_FINDING, {
        "all_invariant": all_inv,
        "generators": invariance,
    })

    try:
        rels = config.build_relation_set() if config.relation_set else None
        if rels is not None:
            rel_report = verify_relations(gens, rels)
            rel_rows = [
                {"name": n, "residual": format_poly(r), "zero": r.is_zero}
                for n, r in zip(rel_report.names, rel_report.residuals)
            ]
            status = STATUS_OK if rel_report.all_zero else STATUS_FINDING
        else:
            rel_rows = []
            status = STATUS_OK
    except (ConfigError, ValueError) as exc:
        return fail("relations", exc)
    report.add("relations", status, {"relations": rel_rows})

    if config.obstruction is None:
        report.verdict = "no obstruction instance configured"
        return report
    spec = config.obstruction
    ladder = tuple(degree_ladder) if degree_ladder is not None else spec.degree_ladder
    sweep = tuple(psi_names) if psi_names else (spec.psi,)

    try:
        if not ladder:
            raise ConfigError("obstruction.degree_ladder", "must not be empty")
        if group.order == 1:
            raise ConfigError("obstruction.class_rep",
                              "no non-identity class exists in the trivial group")
        phi = config.polynomial_or_inline(spec.phi)
        rep_element = group.element_from_word(spec.class_rep)
        class_index = group.class_of(rep_element)
        if class_index == 0:
            raise ConfigError("obstruction.class_rep",
                              "the word resolves to the identity class")
    except (ConfigError, ValueError) as exc:
        return fail("target", exc)

    final_verdicts = []
    for psi_name in sweep:
        stage_prefix = f"psi={psi_name}"
        try:
            psi = config.polynomial_or_inline(psi_name)
            target = target_poly(group, phi, psi, class_index, form)
        except (ConfigError, ValueError) as exc:
            return fail(f"{stage_prefix}:target", exc)
        report.add(f"{stage_prefix}:target", STATUS_OK, {
            "phi": spec.phi,
            "psi": psi_name,
            "class_rep": spec.class_rep,
            "class_index": class_index,
            "bracket": format_poly(poisson_bracket(phi, psi, form)),
            "target": format_poly(target),
        })

        steps = []
        last_cert = None
        try:
            for bound in ladder:
                problem = ObstructionProblem(group, phi, psi, class_index, bound, form)
                cert = solve_sigma(problem)
                steps.append({"degree": bound, **_certificate_payload(cert)})
                last_cert = cert
                if cert.verdict is Verdict.FEASIBLE:
                    break
        except (ValueError, ConfigError) as exc:
            return fail(f"{stage_prefix}:ladder", exc)
        except RuntimeError as exc:
            return fail(f"{stage_prefix}:ladder", exc)
        report.add(f"{stage_prefix}:ladder", STATUS_OK, {"steps": steps})

        assert last_cert is not None
        final_verdicts.append((psi_name, last_cert))
        report.add(f"{stage_prefix}:certificate", STATUS_OK,
                   _certificate_payload(last_cert))

    summary = "; ".join(
        f"{name}: {cert.verdict.value}"
        + (f" (witness {_variable_name(cert.divisor_witness)})"
           if cert.divisor_witness is not None else "")
        for name, cert in final_verdicts
    )
    report.verdict = summary
    return report

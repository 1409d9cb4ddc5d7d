"""Exact symbolic computation in skew group algebras of finite symplectic
matrix groups: polynomial and bracket arithmetic over the rationals, group
enumeration, trace-space projections, invariant theory, and a certified
decision procedure for the bracket-extension obstruction."""

from ._version import __version__
from .cli import run_counterexample
from .config import ConfigError, ScenarioConfig
from .groups import (
    ClassCoordinates,
    ConjugacyClass,
    FiniteMatrixGroup,
    GroupClosureError,
    GroupElement,
    act_on_poly,
    generate_group,
    is_symplectic,
)
from .invariants import (
    generator_spans,
    invariant_basis,
    is_invariant,
    molien_coefficients,
    reynolds,
    verify_generators,
    verify_relations,
)
from .obstruction import (
    Certificate,
    ObstructionProblem,
    RankData,
    Verdict,
    collapse_to_sigma,
    divisor_certificate,
    multiplier_image_generators,
    replay_certificate,
    sigma_image_basis,
    solve_ladder,
    solve_sigma,
)
from .parse import PolyParseError, parse_poly
from .poly import (
    LinearSubstitution,
    Polynomial,
    SymplecticForm,
    format_poly,
    partial_derivative,
    poisson_bracket,
)
from .skew import (
    SkewElement,
    commutator,
    hh0_project,
    project_fixed,
    project_term,
    trace_vector,
)

__all__ = [
    "__version__",
    "ConfigError",
    "ScenarioConfig",
    "ClassCoordinates",
    "ConjugacyClass",
    "FiniteMatrixGroup",
    "GroupClosureError",
    "GroupElement",
    "act_on_poly",
    "generate_group",
    "is_symplectic",
    "generator_spans",
    "invariant_basis",
    "is_invariant",
    "molien_coefficients",
    "reynolds",
    "verify_generators",
    "verify_relations",
    "Certificate",
    "ObstructionProblem",
    "RankData",
    "Verdict",
    "collapse_to_sigma",
    "divisor_certificate",
    "multiplier_image_generators",
    "replay_certificate",
    "run_counterexample",
    "sigma_image_basis",
    "solve_ladder",
    "solve_sigma",
    "PolyParseError",
    "format_poly",
    "parse_poly",
    "LinearSubstitution",
    "Polynomial",
    "SymplecticForm",
    "partial_derivative",
    "poisson_bracket",
    "SkewElement",
    "commutator",
    "hh0_project",
    "project_fixed",
    "project_term",
    "trace_vector",
]

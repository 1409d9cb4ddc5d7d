"""Scenario configuration: structural validation and realization helpers.

A scenario is a JSON document naming the ambient dimension, the symplectic
form, the group generators, a dictionary of named polynomial strings, which
of those names are invariant-generator candidates and which are relation
candidates, and the obstruction instance to decide.  Structure (keys and
value shapes) is validated completely before anything is computed; unknown
keys are rejected.  Semantic realization (matrix inversion, polynomial
parsing, group closure) happens through the helper methods so callers can
attribute failures to a pipeline stage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .groups import FiniteMatrixGroup, generate_group
from .parse import parse_poly
from .poly import Polynomial, SymplecticForm

__all__ = ["ConfigError", "ScenarioConfig", "BUNDLED_SCENARIO"]

BUNDLED_SCENARIO = "counterexample"

_TOP_KEYS = {
    "nvars",
    "symplectic_form",
    "group_generators",
    "named_polynomials",
    "generator_set",
    "relation_set",
    "obstruction",
}
_GENERATOR_KEYS = {"name", "matrix"}
_OBSTRUCTION_KEYS = {"phi", "psi", "class_rep", "degree_ladder"}


class ConfigError(ValueError):
    """A configuration problem, attributed to a config path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require(condition: bool, path: str, message: str):
    if not condition:
        raise ConfigError(path, message)


def _rational_matrix(value, path: str, n: int) -> tuple:
    """Check that ``value`` is an n x n list of strings; return its rows as tuples."""
    _require(isinstance(value, list) and len(value) == n, path,
             f"must be a list of {n} rows")
    for i, row in enumerate(value):
        _require(isinstance(row, list) and len(row) == n,
                 f"{path}[{i}]", f"must be a list of {n} entries")
        for j, entry in enumerate(row):
            _require(isinstance(entry, str), f"{path}[{i}][{j}]",
                     "entries must be rational strings")
    return tuple(tuple(row) for row in value)


@dataclass(frozen=True)
class ObstructionSpec:
    phi: str
    psi: str
    class_rep: str
    degree_ladder: tuple


@dataclass(frozen=True)
class ScenarioConfig:
    source: str
    nvars: int
    form_rows: tuple
    generator_names: tuple
    generator_matrices: tuple
    named_polynomials: dict
    generator_set: tuple
    relation_set: tuple
    obstruction: Optional[ObstructionSpec]

    # ------------------------------------------------------------------
    # construction

    @classmethod
    def from_mapping(cls, data: dict, source: str = "<config>") -> "ScenarioConfig":
        _require(isinstance(data, dict), source, "config must be a JSON object")
        unknown = set(data) - _TOP_KEYS
        _require(not unknown, source, f"unknown keys: {sorted(unknown)}")
        for key in ("nvars", "symplectic_form", "group_generators", "named_polynomials"):
            _require(key in data, source, f"missing required key {key!r}")

        nvars = data["nvars"]
        # type(), not isinstance(): bool is a subclass of int, and JSON true is no integer
        _require(type(nvars) is int and nvars >= 1, "nvars",
                 "must be a positive integer")

        form_rows = _rational_matrix(data["symplectic_form"], "symplectic_form", nvars)

        gens = data["group_generators"]
        _require(isinstance(gens, list), "group_generators", "must be a list")
        names = []
        matrices = []
        for i, item in enumerate(gens):
            path = f"group_generators[{i}]"
            _require(isinstance(item, dict), path, "must be an object")
            unknown = set(item) - _GENERATOR_KEYS
            _require(not unknown, path, f"unknown keys: {sorted(unknown)}")
            _require("name" in item and "matrix" in item, path,
                     "needs 'name' and 'matrix'")
            _require(isinstance(item["name"], str) and item["name"], f"{path}.name",
                     "must be a non-empty string")
            names.append(item["name"])
            matrices.append(_rational_matrix(item["matrix"], f"{path}.matrix", nvars))
        _require(len(set(names)) == len(names), "group_generators",
                 "generator names must be unique")

        polys = data["named_polynomials"]
        _require(isinstance(polys, dict), "named_polynomials", "must be an object")
        for name, text in polys.items():
            _require(isinstance(name, str) and name, "named_polynomials",
                     "polynomial names must be non-empty strings")
            _require(isinstance(text, str), f"named_polynomials.{name}",
                     "must be a polynomial string")

        def name_list(key: str) -> tuple:
            value = data.get(key, [])
            _require(isinstance(value, list), key, "must be a list of names")
            for k, name in enumerate(value):
                _require(isinstance(name, str), f"{key}[{k}]", "must be a string")
                _require(name in polys, f"{key}[{k}]",
                         f"{name!r} is not in named_polynomials")
            _require(len(set(value)) == len(value), key, "names must be unique")
            return tuple(value)

        generator_set = name_list("generator_set")
        relation_set = name_list("relation_set")

        obstruction = None
        if "obstruction" in data:
            obs = data["obstruction"]
            path = "obstruction"
            _require(isinstance(obs, dict), path, "must be an object")
            unknown = set(obs) - _OBSTRUCTION_KEYS
            _require(not unknown, path, f"unknown keys: {sorted(unknown)}")
            for key in _OBSTRUCTION_KEYS:
                _require(key in obs, path, f"missing required key {key!r}")
            for key in ("phi", "psi", "class_rep"):
                _require(isinstance(obs[key], str) and obs[key],
                         f"{path}.{key}", "must be a non-empty string")
            ladder = obs["degree_ladder"]
            _require(isinstance(ladder, list) and ladder,
                     f"{path}.degree_ladder", "must be a non-empty list of integers")
            for k, d in enumerate(ladder):
                _require(type(d) is int and d >= 0,
                         f"{path}.degree_ladder[{k}]", "must be a non-negative integer")
            _require(all(a < b for a, b in zip(ladder, ladder[1:])),
                     f"{path}.degree_ladder", "must be strictly increasing")
            obstruction = ObstructionSpec(
                obs["phi"], obs["psi"], obs["class_rep"], tuple(ladder)
            )

        return cls(
            source=source,
            nvars=nvars,
            form_rows=form_rows,
            generator_names=tuple(names),
            generator_matrices=tuple(matrices),
            named_polynomials=dict(polys),
            generator_set=generator_set,
            relation_set=relation_set,
            obstruction=obstruction,
        )

    @classmethod
    def from_file(cls, path: str) -> "ScenarioConfig":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise ConfigError(str(path), f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
        return cls.from_mapping(data, source=str(path))

    @classmethod
    def bundled(cls) -> "ScenarioConfig":
        """The scenario shipped with the package (the counterexample instance)."""
        ref = resources.files("skewpoisson").joinpath(f"data/{BUNDLED_SCENARIO}.json")
        data = json.loads(ref.read_text(encoding="utf-8"))
        return cls.from_mapping(data, source=f"bundled:{BUNDLED_SCENARIO}")

    # ------------------------------------------------------------------
    # realization

    def build_form(self) -> SymplecticForm:
        try:
            return SymplecticForm(self.form_rows)
        except ValueError as exc:
            raise ConfigError("symplectic_form", str(exc)) from exc

    def build_group(self) -> FiniteMatrixGroup:
        try:
            return generate_group(
                self.generator_matrices, names=self.generator_names, dim=self.nvars,
            )
        except ValueError as exc:
            raise ConfigError("group_generators", str(exc)) from exc

    def polynomial(self, name: str) -> Polynomial:
        """A named polynomial, parsed in the ambient ``x`` variables."""
        if name not in self.named_polynomials:
            raise ConfigError(f"named_polynomials.{name}", "no such polynomial")
        try:
            return parse_poly(self.named_polynomials[name], nvars=self.nvars)
        except ValueError as exc:
            raise ConfigError(f"named_polynomials.{name}", str(exc)) from exc

    def polynomial_or_inline(self, text: str, source: str = "obstruction") -> Polynomial:
        """Resolve a name from ``named_polynomials``, else parse inline; a
        parse error is attributed to ``source``, the config path or command
        argument the text came from."""
        if text in self.named_polynomials:
            return self.polynomial(text)
        try:
            return parse_poly(text, nvars=self.nvars)
        except ValueError as exc:
            raise ConfigError(source, f"cannot resolve polynomial {text!r}: {exc}") from exc

    def build_generator_set(self) -> dict:
        """The generator table, name -> polynomial in the ``x`` variables,
        in ``generator_set`` order."""
        return {n: self.polynomial(n) for n in self.generator_set}

    def build_relation_set(self) -> dict:
        """The relation table, name -> polynomial, in ``relation_set`` order.

        Relations are parsed in the abstract generator-name variables:
        variable ``i`` is the ``i``-th name of ``generator_set``.
        """
        if not self.generator_set:
            raise ConfigError("relation_set",
                              "relations need a non-empty generator_set")
        rels = {}
        for name in self.relation_set:
            try:
                rels[name] = parse_poly(self.named_polynomials[name],
                                        names=self.generator_set)
            except ValueError as exc:
                raise ConfigError(f"named_polynomials.{name}", str(exc)) from exc
        return rels

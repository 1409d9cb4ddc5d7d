"""Config validation with path-attributed errors, and report rendering."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from skewpoisson import ConfigError, ScenarioConfig
from skewpoisson._version import __version__
from skewpoisson.cli import main
from skewpoisson.report import Report, STATUS_OK


def bundled_dict() -> dict:
    from importlib import resources

    ref = resources.files("skewpoisson").joinpath("data/counterexample.json")
    return json.loads(ref.read_text(encoding="utf-8"))


class TestStructuralValidation:
    def test_bundled_config_loads(self, config):
        assert config.nvars == 4
        assert config.generator_names == ("b", "c", "e")
        assert len(config.generator_set) == 8
        assert len(config.relation_set) == 9
        assert config.obstruction.degree_ladder == tuple(range(9))

    def test_unknown_top_level_key_rejected(self):
        data = bundled_dict()
        data["surprise"] = 1
        with pytest.raises(ConfigError, match="unknown keys.*surprise"):
            ScenarioConfig.from_mapping(data)

    def test_unknown_obstruction_key_rejected(self):
        data = bundled_dict()
        data["obstruction"]["extra"] = True
        with pytest.raises(ConfigError, match="obstruction.*unknown"):
            ScenarioConfig.from_mapping(data)

    def test_missing_required_key(self):
        data = bundled_dict()
        del data["symplectic_form"]
        with pytest.raises(ConfigError, match="symplectic_form"):
            ScenarioConfig.from_mapping(data)

    @pytest.mark.parametrize("key", ["generator_set", "relation_set"])
    def test_repeated_table_name_rejected(self, key):
        # the tables are name -> polynomial dicts, so a repeat must fail here
        data = bundled_dict()
        data[key].append(data[key][0])
        with pytest.raises(ConfigError, match=f"{key}: names must be unique"):
            ScenarioConfig.from_mapping(data)

    def test_wrong_matrix_shape_with_path(self):
        data = bundled_dict()
        data["group_generators"][0]["matrix"][2] = ["1", "0"]
        with pytest.raises(ConfigError, match=r"group_generators\[0\].matrix\[2\]"):
            ScenarioConfig.from_mapping(data)

    @pytest.mark.parametrize("key, path", [
        ("symplectic_form", "symplectic_form"),
        ("group_generators", "group_generators[0].matrix"),
    ])
    @pytest.mark.parametrize("edit, where, message", [
        (lambda m: m.pop(), "", "must be a list of 4 rows"),
        (lambda m: m.__setitem__(1, ["0", "1"]), "[1]", "must be a list of 4 entries"),
        (lambda m: m[1].__setitem__(2, 0), "[1][2]", "entries must be rational strings"),
    ], ids=["row-count", "row-length", "entry-type"])
    def test_rational_matrix_errors(self, key, path, edit, where, message):
        data = bundled_dict()
        matrix = data[key] if key == "symplectic_form" else data[key][0]["matrix"]
        edit(matrix)
        with pytest.raises(ConfigError) as info:
            ScenarioConfig.from_mapping(data)
        assert str(info.value) == f"{path}{where}: {message}"

    def test_ladder_must_increase(self):
        data = bundled_dict()
        data["obstruction"]["degree_ladder"] = [2, 2]
        with pytest.raises(ConfigError, match="strictly increasing"):
            ScenarioConfig.from_mapping(data)

    @pytest.mark.parametrize("edit, path", [
        (lambda data: data.update(nvars=True), "nvars"),
        (lambda data: data["obstruction"].update(degree_ladder=[0, True]),
         "obstruction.degree_ladder[1]"),
    ], ids=["nvars", "degree_ladder"])
    def test_json_booleans_are_not_integers(self, tmp_path, capsys, edit, path):
        # bool subclasses int, so JSON true would otherwise pass as the integer 1
        data = bundled_dict()
        edit(data)
        config = tmp_path / "booleans.json"
        config.write_text(json.dumps(data), encoding="utf-8")
        assert main(["obstruction", "--config", str(config), "--format", "machine"]) == 2
        message = json.loads(capsys.readouterr().out)["stages"][0]["payload"]["message"]
        assert message.startswith(f"{path}: must be a ")
        assert message.endswith(" integer")

    def test_generator_set_names_must_exist(self):
        data = bundled_dict()
        data["generator_set"] = ["f1", "nope"]
        with pytest.raises(ConfigError, match="nope"):
            ScenarioConfig.from_mapping(data)

    def test_non_string_matrix_entry(self):
        data = bundled_dict()
        data["symplectic_form"][0][1] = 1
        with pytest.raises(ConfigError, match=r"symplectic_form\[0\]\[1\]"):
            ScenarioConfig.from_mapping(data)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(bundled_dict()), encoding="utf-8")
        cfg = ScenarioConfig.from_file(str(path))
        assert cfg.nvars == 4
        assert cfg.source == str(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            ScenarioConfig.from_file("/nonexistent/skewpoisson.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            ScenarioConfig.from_file(str(path))


class TestSemanticRealization:
    def test_singular_form_attributed(self):
        data = bundled_dict()
        data["symplectic_form"] = [["0"] * 4 for _ in range(4)]
        cfg = ScenarioConfig.from_mapping(data)
        with pytest.raises(ConfigError, match="symplectic_form"):
            cfg.build_form()

    def test_bad_polynomial_attributed(self):
        data = bundled_dict()
        data["named_polynomials"]["f1"] = "x1 + ("
        cfg = ScenarioConfig.from_mapping(data)
        with pytest.raises(ConfigError, match="named_polynomials.f1"):
            cfg.polynomial("f1")

    def test_unknown_polynomial_name(self, config):
        with pytest.raises(ConfigError, match="no such polynomial"):
            config.polynomial("zz")

    def test_inline_polynomial_fallback(self, config):
        assert config.polynomial_or_inline("x1^2") == config.polynomial_or_inline(
            "x1*x1"
        )

    def test_generator_table_in_config_order(self, config):
        gens = config.build_generator_set()
        assert list(gens) == list(config.generator_set)
        assert all(p == config.polynomial(n) for n, p in gens.items())

    def test_relations_parse_in_generator_names(self, config):
        rels = config.build_relation_set()
        assert list(rels) == list(config.relation_set)
        assert all(p.nvars == len(config.generator_set) == 8 for p in rels.values())
        # variable i of a relation is the i-th name of generator_set
        f1f2h1 = tuple(int(n in ("f1", "f2", "h1")) for n in config.generator_set)
        assert rels["r1"].coefficient(f1f2h1) == -1


def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    with pyproject.open("rb") as handle:
        assert tomllib.load(handle)["project"]["version"] == __version__


class TestReportRendering:
    def make_report(self) -> Report:
        report = Report(command="demo")
        report.add("alpha", STATUS_OK, {"value": 3, "items": [
            {"name": "one", "flag": True},
            {"name": "two", "flag": False},
        ]})
        report.verdict = "fine"
        return report

    def test_machine_format_is_canonical_json(self):
        text = self.make_report().to_machine()
        parsed = json.loads(text)
        assert parsed["command"] == "demo"
        assert parsed["version"] == __version__
        assert parsed["stages"][0]["name"] == "alpha"
        # canonical: re-serializing with sorted keys reproduces the bytes
        assert json.dumps(parsed, sort_keys=True, indent=2) + "\n" == text

    def test_machine_format_is_reproducible(self):
        assert self.make_report().to_machine() == self.make_report().to_machine()

    def test_text_format_contains_tables_and_verdict(self):
        text = self.make_report().to_text()
        assert text.startswith(f"== demo (skewpoisson {__version__}) ==\n")
        assert "verdict: fine" in text
        assert "name" in text and "flag" in text
        assert "one" in text and "yes" in text

"""CLI subcommands, report formats, and exit codes."""

from __future__ import annotations

import argparse
import json
import time
from importlib import resources
from pathlib import Path

import pytest

from skewpoisson import ConfigError, ScenarioConfig, cli, invariants, run_counterexample
from skewpoisson.cli import MAX_DEGREE_MONOMIALS, _check_degree_budget, build_parser, main
from skewpoisson.parse import DEGREE_CAP, TERM_PRODUCT_BUDGET

GOLDEN = Path(__file__).parent / "data"


def bundled_data() -> dict:
    """The bundled scenario as a JSON object, to be changed and written out."""
    return json.loads(resources.files("skewpoisson")
                      .joinpath("data/counterexample.json").read_text(encoding="utf-8"))


def write_config(tmp_path, data) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestGroupCommand:
    def test_bundled_group_table(self, capsys):
        code, out = run(capsys, "group")
        assert code == 0
        assert "order 8; 5 conjugacy classes; all elements symplectic" in out

    def test_machine_format(self, capsys):
        code, out = run(capsys, "group", "--format", "machine")
        assert code == 0
        doc = json.loads(out)
        group_stage = next(s for s in doc["stages"] if s["name"] == "group")
        assert group_stage["payload"]["order"] == 8
        classes = next(s for s in doc["stages"] if s["name"] == "classes")
        assert classes["payload"]["count"] == 5

    def test_non_symplectic_generator_flagged(self, capsys, tmp_path):
        config = {
            "nvars": 2,
            "symplectic_form": [["0", "1"], ["-1", "0"]],
            "group_generators": [
                {"name": "s", "matrix": [["0", "1"], ["1", "0"]]}
            ],
            "named_polynomials": {},
        }
        path = tmp_path / "swap2.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code, out = run(capsys, "group", "--config", str(path))
        assert code == 0
        assert "NON-SYMPLECTIC" in out

    @pytest.mark.parametrize("entry", ["0.5", "-1.0e0", "-١"])
    def test_inexact_matrix_entry_is_a_config_error(self, capsys, tmp_path, entry):
        data = bundled_data()
        data["group_generators"][0]["matrix"][0][0] = entry
        start = time.perf_counter()
        code, out = run(capsys, "group", "--config", write_config(tmp_path, data))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert f"group_generators: invalid rational literal {entry!r}" in out

    def test_missing_config_is_a_config_error(self, capsys):
        code, out = run(capsys, "group", "--config", "/no/such/file.json")
        assert code == 2
        assert "error" in out

    def test_trivial_group(self, capsys, tmp_path):
        config = {
            "nvars": 2,
            "symplectic_form": [["0", "1"], ["-1", "0"]],
            "group_generators": [],
            "named_polynomials": {},
        }
        path = tmp_path / "trivial.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code, out = run(capsys, "group", "--config", str(path),
                        "--format", "machine")
        assert code == 0
        doc = json.loads(out)
        assert doc["stages"][0]["payload"]["order"] == 1
        assert doc["stages"][1]["payload"]["count"] == 1


class TestInvariantsCommand:
    def test_bundled_invariants(self, capsys):
        code, out = run(capsys, "invariants", "--format", "machine")
        assert code == 0
        doc = json.loads(out)
        inv = next(s for s in doc["stages"] if s["name"] == "invariance")
        assert inv["payload"]["all_invariant"] is True
        assert len(inv["payload"]["generators"]) == 8
        rel = next(s for s in doc["stages"] if s["name"] == "relations")
        assert rel["payload"]["nonzero_residuals"] == 0
        assert len(rel["payload"]["relations"]) == 9
        molien = next(s for s in doc["stages"] if s["name"] == "molien")
        assert molien["payload"]["deficient_degrees"] == []

    def test_each_generator_tested_once(self, capsys, monkeypatch):
        tested = []
        original = invariants.is_invariant

        def counting(group, p):
            tested.append(p)
            return original(group, p)

        monkeypatch.setattr(cli, "is_invariant", counting)
        monkeypatch.setattr(invariants, "is_invariant", counting)
        code, _ = run(capsys, "invariants", "--degree", "8", "--format", "machine")
        assert code == 0
        gens = ScenarioConfig.bundled().build_generator_set()
        assert tested == list(gens.values())
        assert len(tested) == 8

    def test_corrupted_generator_named(self, capsys, tmp_path):
        data = json.loads(
            __import__("importlib.resources", fromlist=["files"])
            .files("skewpoisson").joinpath("data/counterexample.json")
            .read_text(encoding="utf-8")
        )
        data["named_polynomials"]["f1"] = "x1^2 + x3^2 + x1"  # no longer invariant
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out = run(capsys, "invariants", "--config", str(path),
                        "--format", "machine")
        assert code == 0
        doc = json.loads(out)
        inv = next(s for s in doc["stages"] if s["name"] == "invariance")
        rows = {r["name"]: r["invariant"] for r in inv["payload"]["generators"]}
        assert rows["f1"] is False
        assert inv["status"] == "finding"

    def test_degree_flag_controls_the_table(self, capsys):
        code, out = run(capsys, "invariants", "--degree", "4",
                        "--format", "machine")
        assert code == 0
        doc = json.loads(out)
        molien = next(s for s in doc["stages"] if s["name"] == "molien")
        assert [row["degree"] for row in molien["payload"]["degrees"]] == [0, 1, 2, 3, 4]

    def test_empty_relation_set_gives_empty_section(self, capsys, tmp_path):
        config = {
            "nvars": 4,
            "symplectic_form": [
                ["0", "1", "0", "0"], ["-1", "0", "0", "0"],
                ["0", "0", "0", "1"], ["0", "0", "-1", "0"],
            ],
            "group_generators": [
                {"name": "b", "matrix": [
                    ["-1", "0", "0", "0"], ["0", "-1", "0", "0"],
                    ["0", "0", "1", "0"], ["0", "0", "0", "1"]]}
            ],
            "named_polynomials": {"q": "x3^2"},
            "generator_set": ["q"],
        }
        path = tmp_path / "norel.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code, out = run(capsys, "invariants", "--config", str(path),
                        "--degree", "2", "--format", "machine")
        assert code == 0
        doc = json.loads(out)
        rel = next(s for s in doc["stages"] if s["name"] == "relations")
        assert rel["payload"]["relations"] == []
        assert rel["payload"]["nonzero_residuals"] == 0

    def test_degree_over_the_work_budget_fails_fast(self, capsys):
        start = time.perf_counter()
        code, out = run(capsys, "invariants", "--degree", "100000")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert "--degree" in out and f"limit of {MAX_DEGREE_MONOMIALS}" in out


    # g has degree 4 and 35 terms in x, while the relation parser reads it as
    # one variable of degree 1
    @pytest.mark.parametrize("k, budget", [
        (16, f"term-product budget {TERM_PRODUCT_BUDGET}"),
        (32, f"degree cap {DEGREE_CAP}"),
        (64, f"degree cap {DEGREE_CAP}")])
    def test_relation_over_a_budget_fails_fast(self, capsys, tmp_path, k, budget):
        data = bundled_data()
        data["named_polynomials"].update(g="(x1+x2+x3+x4)^4", r=f"g^{k}")
        data.update(generator_set=["g"], relation_set=["r"])
        start = time.perf_counter()
        code, out = run(capsys, "invariants", "--config", write_config(tmp_path, data),
                        "--degree", "2")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert "relation 'r': " in out and budget in out

    @pytest.mark.parametrize("degree", [6, 16])
    def test_generator_products_over_the_budget_fail_fast(self, capsys, tmp_path, degree):
        names = [f"g{i}" for i in range(1, 21)]
        data = {
            "nvars": 2,
            "symplectic_form": [["0", "1"], ["-1", "0"]],
            "group_generators": [],
            "named_polynomials": {name: f"{i}*x1 + x2" for i, name in enumerate(names, 1)},
            "generator_set": names,
        }
        start = time.perf_counter()
        code, out = run(capsys, "invariants", "--config", write_config(tmp_path, data),
                        "--degree", str(degree))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert f"generator-product budget {invariants.GENERATOR_PRODUCT_BUDGET}" in out


class TestBracketCommand:
    def test_named_polynomials(self, capsys):
        code, out = run(capsys, "bracket", "f1", "h1")
        assert code == 0
        assert "2*x1^2 + 2*x3^2" in out

    def test_inline_expressions(self, capsys):
        code, out = run(capsys, "bracket", "x1", "x2")
        assert code == 0
        assert "verdict: 1" in out

    def test_parse_error_exit_code(self, capsys):
        code, out = run(capsys, "bracket", "x1 +", "x2")
        assert code == 2

    def test_nested_power_over_the_degree_cap_exits_2(self, capsys):
        start = time.perf_counter()
        code, out = run(capsys, "bracket", "(x1^64)^64", "x2")
        assert code == 2
        assert "degree cap 64" in out
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("text", [
        "(x1+x2+x3+x4)^48", "(x1+x2+x3+x4)^30*(x1+x2+x3+x4)^30",
        # each power fits the budget; the budget holds the whole expression
        pytest.param(" + ".join(["(x1+x2+x3+x4)^16"] * 200), id="sum-of-200-powers")])
    def test_dense_power_over_the_term_product_budget_exits_2(self, capsys, text):
        start = time.perf_counter()
        code, out = run(capsys, "bracket", text, "x1")
        assert code == 2
        assert f"term-product budget {TERM_PRODUCT_BUDGET}" in out
        assert time.perf_counter() - start < 1.0

    def test_parse_error_names_the_argument(self, capsys):
        code, out = run(capsys, "bracket", "x1", "(x1^64)^64")
        assert code == 2
        assert "second: cannot resolve polynomial '(x1^64)^64'" in out
        assert "obstruction" not in out


class TestProjectCommand:
    def test_bundled_projection(self, capsys):
        code, out = run(capsys, "project", "--part", "b:2*x1^2 + 2*x3^2",
                        "--format", "machine")
        assert code == 0
        doc = json.loads(out)
        stage = doc["stages"][0]
        components = {row["class"]: row["projection"]
                      for row in stage["payload"]["components"]}
        assert components[1] == "2*x3^2"
        assert stage["payload"]["trace_vector_valid"] is True

    def test_single_class_selection(self, capsys):
        code, out = run(capsys, "project", "--part", "b:x3*x4",
                        "--class-index", "1", "--format", "machine")
        assert code == 0
        doc = json.loads(out)
        rows = doc["stages"][0]["payload"]["components"]
        assert rows == [{"class": 1, "representative": "b",
                         "projection": "x3*x4"}]

    def test_part_parse_error_names_the_option(self, capsys):
        code, out = run(capsys, "project", "--part", "b:x1 +")
        assert code == 2
        assert "--part: cannot resolve polynomial 'x1 +'" in out
        assert "obstruction" not in out

    def test_bad_part_syntax(self, capsys):
        code, out = run(capsys, "project", "--part", "b=x1")
        assert code == 2

    def test_part_takes_a_word_not_an_element_index(self, capsys):
        code, out = run(capsys, "project", "--part", "2:x1")
        assert code == 2
        assert "unknown generator name '2'" in out

    @pytest.mark.parametrize("word", ["", " "])
    def test_empty_word_is_rejected(self, capsys, word):
        # the identity is spelled "1"; an empty word is a mistake, not a second spelling
        code, out = run(capsys, "project", "--part", f"{word}:x1")
        assert code == 2
        assert "empty group word" in out

    def test_bad_class_index(self, capsys):
        code, out = run(capsys, "project", "--part", "b:x1",
                        "--class-index", "9")
        assert code == 2


class TestObstructionCommand:
    def test_bundled_run_decides(self, capsys):
        code, out = run(capsys, "obstruction")
        assert code == 0
        assert "INFEASIBLE_ALL_DEGREES" in out
        assert "witness x4" in out

    def test_degree_flag_rebuilds_ladder(self, capsys):
        code, out = run(capsys, "obstruction", "--degree", "2",
                        "--format", "machine")
        assert code == 0
        doc = json.loads(out)
        ladder = next(s for s in doc["stages"] if s["name"] == "psi=h1:ladder")
        assert [s["degree"] for s in ladder["payload"]["steps"]] == [0, 1, 2]

    def test_psi_sweep(self, capsys):
        code, out = run(capsys, "obstruction", "--psi", "f1", "--degree", "0")
        assert code == 0
        assert "f1: FEASIBLE" in out

    def test_inconclusive_class_exits_one(self, capsys, tmp_path):
        data = json.loads(
            __import__("importlib.resources", fromlist=["files"])
            .files("skewpoisson").joinpath("data/counterexample.json")
            .read_text(encoding="utf-8")
        )
        data["obstruction"]["class_rep"] = "e"
        path = tmp_path / "swapclass.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out = run(capsys, "obstruction", "--config", str(path),
                        "--degree", "3")
        assert code == 1
        assert "INFEASIBLE_AT_DEGREE" in out

    def test_degree_over_the_work_budget_fails_fast(self, capsys):
        start = time.perf_counter()
        code, out = run(capsys, "obstruction", "--degree", "200")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert "--degree" in out and f"limit of {MAX_DEGREE_MONOMIALS}" in out

    def test_configured_ladder_over_the_work_budget_fails_fast(self, capsys, tmp_path):
        data = json.loads((GOLDEN / "class_e.config.json").read_text(encoding="utf-8"))
        data["obstruction"]["degree_ladder"] = [0, 60]
        path = tmp_path / "ladder60.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        start = time.perf_counter()
        code, out = run(capsys, "obstruction", "--config", str(path))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert "obstruction.degree_ladder" in out
        assert f"limit of {MAX_DEGREE_MONOMIALS}" in out

    def test_degree_sixteen_is_within_the_budget(self):
        # C(16 + 4, 4) = 4845 monomials in the bundled 4-variable scenario
        _check_degree_budget(16, 4)
        with pytest.raises(ConfigError, match="limit of"):
            _check_degree_budget(17, 4)

    def test_trivial_group_is_config_error(self, capsys, tmp_path):
        config = {
            "nvars": 4,
            "symplectic_form": [
                ["0", "1", "0", "0"], ["-1", "0", "0", "0"],
                ["0", "0", "0", "1"], ["0", "0", "-1", "0"],
            ],
            "group_generators": [],
            "named_polynomials": {"f1": "x1^2 + x3^2", "h1": "x1*x2 + x3*x4"},
            "obstruction": {"phi": "f1", "psi": "h1", "class_rep": "1",
                            "degree_ladder": [0]},
        }
        path = tmp_path / "trivial.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code, out = run(capsys, "obstruction", "--config", str(path))
        assert code == 2
        assert "non-identity" in out


    def test_repeated_psi_is_a_config_error(self, capsys):
        code, out = run(capsys, "obstruction", "--degree", "1", "--psi", "h1",
                        "--psi", "h1", "--format", "machine")
        assert code == 2
        doc = json.loads(out)
        assert [s["name"] for s in doc["stages"]] == ["config"]
        assert doc["stages"][0]["payload"]["message"] == "--psi: 'h1' is given more than once"

    def test_repeated_psi_is_refused_in_library_calls(self, config):
        with pytest.raises(ConfigError, match="--psi: 'f1' is given more than once"):
            run_counterexample(config, degree_ladder=[0], psi_names=["f1", "h1", "f1"])

    def test_psi_without_an_obstruction_section_is_a_config_error(self, capsys, tmp_path):
        data = bundled_data()
        del data["obstruction"]
        path = tmp_path / "no_instance.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out = run(capsys, "obstruction", "--config", str(path), "--psi", "h1",
                        "--degree", "3", "--format", "machine")
        assert code == 2
        doc = json.loads(out)
        assert [s["name"] for s in doc["stages"]] == ["config"]
        message = doc["stages"][0]["payload"]["message"]
        assert message.startswith("--psi: ") and "phi" in message and "class_rep" in message

    def test_degree_without_an_obstruction_section_is_a_config_error(self, capsys, tmp_path):
        # without the section there is no ladder for --degree to replace
        data = bundled_data()
        del data["obstruction"]
        path = tmp_path / "no_instance.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out = run(capsys, "obstruction", "--config", str(path), "--degree", "3",
                        "--format", "machine")
        assert code == 2
        doc = json.loads(out)
        assert [s["name"] for s in doc["stages"]] == ["config"]
        message = doc["stages"][0]["payload"]["message"]
        assert message.startswith("--degree: ") and "degree_ladder" in message
        with pytest.raises(ConfigError, match="^--degree: "):
            run_counterexample(ScenarioConfig.from_mapping(data), degree_ladder=[0])

    # a change to the bundled config, the stage that fails (None: no stage
    # fails), the exit code and a piece of the verdict or the error message
    @pytest.mark.parametrize("change, stage, code, message", [
        (lambda d: d.pop("obstruction"), None, 0, "no obstruction instance configured"),
        (lambda d: d["obstruction"].update(class_rep="1"), "target", 2,
         "resolves to the identity class"),
        (lambda d: d["group_generators"][0].update(matrix=[["0"] * 4] * 4), "group", 2,
         "generator 'b' is singular"),
        (lambda d: d["named_polynomials"].update(f1="x1^2 +"), "generators", 2,
         "named_polynomials.f1"),
        (lambda d: d["named_polynomials"].update(r1="f1 +"), "relations", 2,
         "named_polynomials.r1"),
        # f3 has degree 4 in x, so f3^17 has degree 68
        (lambda d: d["named_polynomials"].update(r1="f3^17"), "relations", 2,
         f"relation 'r1': degree 68 exceeds the degree cap {DEGREE_CAP}"),
        # no word can name a generator called 'b*b', so the group is refused
        (lambda d: (d["group_generators"][0].update(name="b*b"),
                    d["obstruction"].update(class_rep="b*b")), "group", 2,
         "generator name 'b*b' cannot be read back from a word"),
    ], ids=["no-instance", "identity-class", "singular-generator",
            "unparseable-generator", "unparseable-relation", "relation-over-the-degree-cap",
            "unreadable-generator-name"])
    def test_stage_outcomes(self, capsys, tmp_path, change, stage, code, message):
        data = bundled_data()
        change(data)
        path = tmp_path / "changed.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        got, out = run(capsys, "obstruction", "--config", str(path), "--format", "machine")
        assert got == code
        doc = json.loads(out)
        failed = [s for s in doc["stages"] if s["status"] == "error"]
        if stage is None:
            assert failed == [] and doc["verdict"] == message
        else:
            assert [s["name"] for s in failed] == [stage]
            assert doc["verdict"] == f"error in stage {stage!r}"
            assert message in failed[0]["payload"]["message"]


class TestSelftestCommand:
    def test_single_suite_passes(self, capsys):
        code, out = run(capsys, "selftest", "--suite", "group-structure")
        assert code == 0
        assert "0 failures" in out

    def test_corrupted_table_yields_named_failure(self, capsys):
        code, out = run(capsys, "selftest", "--suite", "group-structure",
                        "--corrupt", "mul-table")
        assert code == 3
        assert "associativity broke" in out

    def test_unknown_suite_rejected(self, capsys):
        code, out = run(capsys, "selftest", "--suite", "no-such-suite")
        assert code == 2
        assert "--suite: unknown suites: ['no-such-suite']" in out

    def test_seed_override_passes(self, capsys):
        code, out = run(capsys, "selftest", "--suite", "parser-roundtrip",
                        "--seed", "12345")
        assert code == 0
        assert "seed 12345" in out


SUBCOMMANDS = ("group", "invariants", "bracket", "project", "obstruction", "selftest")

# the command lines that argparse answers on its own, without a report
ARGPARSE_SURFACE = [
    ["--help"], ["--version"],
    *([name, "--help"] for name in SUBCOMMANDS),
    ["obstruction", "--degree", "x"],
]


def test_help_version_and_usage_errors_match_golden_file(capsys, monkeypatch):
    """Help, version and usage-error output at 80 columns stays byte for
    byte what tests/data/argparse_surface.txt records, with argparse's exit
    codes (argparse's layout can differ between Python versions; the file
    was recorded under Python 3.11)."""
    monkeypatch.setenv("COLUMNS", "80")
    blocks = []
    for argv in ARGPARSE_SURFACE:
        with pytest.raises(SystemExit) as exited:
            main(argv)
        captured = capsys.readouterr()
        blocks.append(f"$ skewpoisson {' '.join(argv)}\nexit {exited.value.code}\n"
                      f"--- stdout\n{captured.out}--- stderr\n{captured.err}")
    assert "\n".join(blocks) == (GOLDEN / "argparse_surface.txt").read_text(encoding="utf-8")


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    """The first call builds the top parser and one per subcommand; later
    calls reuse them."""
    built = []
    construct = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        construct(self, *args, **kwargs)

    build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    counts = []
    for _ in range(2):
        before = len(built)
        assert run(capsys, "bracket", "f1", "h1")[0] == 0
        counts.append(len(built) - before)
    assert counts == [1 + len(SUBCOMMANDS), 0]


def _golden_config(name):
    return ["--config", str(GOLDEN / name)]


# the exit code each golden report was recorded with
GOLDEN_EXIT_CODES = {
    "group.machine.json": 0,
    "invariants_degree8.machine.json": 0,
    "obstruction.machine.json": 0,
    "obstruction.text": 0,
    "obstruction_degree16.machine.json": 0,
    "obstruction_class_e_degree3.machine.json": 1,
    "obstruction_trivial_group.machine.json": 2,
    "obstruction_non_invariant_f1.machine.json": 2,
    "group_missing_config.machine.json": 2,
    "project_multi_part.machine.json": 0,
    "project_multi_part.text": 0,
    "obstruction_psi_sweep_degree3.machine.json": 0,
    "obstruction_psi_parse_error.machine.json": 2,
    "selftest_corrupt_mul_table.machine.json": 3,
    "invariants_partial_generators.machine.json": 0,
    "invariants_partial_generators.text": 0,
    "obstruction_partial_generators.machine.json": 0,
}

# the suites whose reports a corrupted Cayley edge changes, about 0.6 s in all
CORRUPTED_SUITES = [arg for name in ("group-structure", "fixed-projections",
                                     "action-homomorphism", "hh0-conjugation",
                                     "inner-derivation-vanishing", "obstruction-consistency")
                    for arg in ("--suite", name)]

# parts on b and c (one class, so c is moved onto b by a non-identity
# conjugator), on e and on b*c*e (the class whose restriction has 1/2 entries)
PROJECT_PARTS = ["--part", "b:x1^2*x2 + x3*x4 - 2*x1",
                 "--part", "c:x1*x3 - 2*x2^2 + x4^3",
                 "--part", "e:x1*x2 + x3^2 + 1/2*x4",
                 "--part", "b*c*e:3*x1^2 - x2*x4"]


@pytest.mark.parametrize("argv, golden", [
    (["group", "--format", "machine"], "group.machine.json"),
    (["invariants", "--degree", "8", "--format", "machine"],
     "invariants_degree8.machine.json"),
    (["obstruction", "--format", "machine"], "obstruction.machine.json"),
    (["obstruction", "--format", "text"], "obstruction.text"),
    (["obstruction", *_golden_config("class_e.config.json"), "--degree", "3",
      "--format", "machine"], "obstruction_class_e_degree3.machine.json"),
    (["obstruction", *_golden_config("trivial_group.config.json"),
      "--format", "machine"], "obstruction_trivial_group.machine.json"),
    (["obstruction", *_golden_config("non_invariant_f1.config.json"),
      "--format", "machine"], "obstruction_non_invariant_f1.machine.json"),
    (["group", "--config", "/no/such/file.json", "--format", "machine"],
     "group_missing_config.machine.json"),
    (["project", *PROJECT_PARTS, "--format", "machine"],
     "project_multi_part.machine.json"),
    (["project", *PROJECT_PARTS, "--format", "text"], "project_multi_part.text"),
    (["obstruction", "--degree", "16", "--format", "machine"],
     "obstruction_degree16.machine.json"),
    (["obstruction", "--degree", "3", "--psi", "h1", "--psi", "f1", "--psi", "x1",
      "--format", "machine"], "obstruction_psi_sweep_degree3.machine.json"),
    (["obstruction", "--degree", "2", "--psi", "f1", "--psi", "(x1",
      "--format", "machine"], "obstruction_psi_parse_error.machine.json"),
    (["selftest", "--corrupt", "mul-table", *CORRUPTED_SUITES, "--format", "machine"],
     "selftest_corrupt_mul_table.machine.json"),
    # generator_set without h4 (spans deficient at degrees 4, 6, 8) and
    # relation_set [r2, s1], where s1 = h1^2 - f1f2 leaves a nonzero residual
    (["invariants", *_golden_config("partial_generators.config.json"),
      "--format", "machine"], "invariants_partial_generators.machine.json"),
    (["invariants", *_golden_config("partial_generators.config.json"),
      "--format", "text"], "invariants_partial_generators.text"),
    (["obstruction", *_golden_config("partial_generators.config.json"),
      "--format", "machine"], "obstruction_partial_generators.machine.json"),
])
def test_machine_reports_match_golden_files(capsys, argv, golden):
    """Reports stay byte for byte what the files under tests/data record,
    and exit with the code they were recorded with."""
    code, out = run(capsys, *argv)
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")
    assert code == GOLDEN_EXIT_CODES[golden]

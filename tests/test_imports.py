"""What each entry point loads, and the names the benchmark's tracer wraps.

``import fuzzbound`` loads the package's ``__init__`` alone; a public name
loads its submodule when first read. The CLI loads ``dbsim`` and ``logic``
only for the commands that call them. Each check that depends on what a
fresh interpreter has loaded runs in its own subprocess.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fuzzbound
from fuzzbound import FuzzyRelation, automaton_to_json, relation_to_json
from fuzzbound import cli, dbsim, structure

from conftest import chain_automaton, chain_automaton_variant

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PERFBENCH = ROOT / "perfbench"

# The public names of the package, as its eager imports exported them.
EXPORTS = sorted("""
    AlphabetMismatch And DbSimResult DegreeRangeError Dia DialectError
    DimensionMismatch Equiv Formula FormulaSyntaxError FuzzboundError
    FuzzyAutomaton FuzzyRelation FuzzySet Imp InputFormatError
    RandomAutomatonSpec RelationCapExceeded Structure Tau TraceCapExceeded
    UnknownSymbol VerificationReport Violation WordCapExceeded automata
    automaton_from_json automaton_to_json bisim_norm build_index check_bisim
    check_dbbisim_prefix check_dbsim_prefix check_sim compose_rel_rel
    compose_rel_set compute_dbbisim compute_dbsim constant_pool_for
    custom_structure dbsim errors eval_formula format_formula
    formula_bound_relation formula_depth fuzzy generate_automaton
    greatest_fixpoint hm_check_bisim hm_check_sim in_dialect inverse
    language_bounded language_eval lattice logic naive_dbsim oracle
    parse_formula prefix_norm random_formula rel_leq relation_from_json
    relation_to_json set_leq sim_norm structure subset_degree validate_degree
    verify_language_invariance verify_language_preservation
    word_from_names""".split())

# What every command loads; each command adds at most the module it calls.
CLI_BASE = ["fuzzbound", "fuzzbound.automata", "fuzzbound.cli", "fuzzbound.errors",
            "fuzzbound.fuzzy", "fuzzbound.lattice"]


def run_python(code: str, *args: str) -> str:
    """Run ``code`` (or a script path) in a fresh interpreter; its stdout."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    argv = [code, *args] if code.endswith(".py") else ["-c", code, *args]
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_by(code: str) -> list:
    return json.loads(run_python(
        "import sys\n" + code +
        "\nprint(__import__('json').dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'fuzzbound')))").splitlines()[-1])


@pytest.fixture
def files(tmp_path):
    left, right = chain_automaton(), chain_automaton_variant()
    paths = {"left": tmp_path / "left.json", "right": tmp_path / "right.json",
             "relation": tmp_path / "relation.json", "out": tmp_path / "out.json"}
    paths["left"].write_text(json.dumps(automaton_to_json(left)))
    paths["right"].write_text(json.dumps(automaton_to_json(right)))
    # A chain of two empty relations: it passes, and its check composes.
    empty = relation_to_json(FuzzyRelation(left.num_states, right.num_states))
    paths["relation"].write_text(json.dumps([empty, empty]))
    return {name: str(path) for name, path in paths.items()}


def argv_of(command: str, files: dict) -> list:
    both = ["--left", files["left"], "--right", files["right"],
            "--output", files["out"]]
    return {
        "dbsim": ["dbsim", *both, "--depth", "2", "--trace"],
        "dbbisim": ["dbbisim", *both, "--depth", "2"],
        "greatest": ["greatest", *both, "--mode", "bisim"],
        "check": ["check", *both, "--relation", files["relation"],
                  "--mode", "dbsim"],
        "lang": ["lang", "--left", files["left"], "--max-len", "2",
                 "--output", files["out"]],
        "formula": ["formula", "--left", files["left"], "--expr", "(s . T)",
                    "--output", files["out"]],
    }[command]


class TestPackageNamespace:
    def test_import_loads_only_the_package(self):
        assert loaded_by("import fuzzbound") == ["fuzzbound"]

    def test_a_name_loads_only_its_submodule_and_those_it_imports(self):
        assert loaded_by("from fuzzbound import structure") == [
            "fuzzbound", "fuzzbound.errors", "fuzzbound.lattice"]

    def test_the_oracle_loads_no_dbsim(self):
        # The referee does not import the code it referees.
        assert "fuzzbound.dbsim" not in loaded_by("from fuzzbound import naive_dbsim")

    def test_dir_and_star_import_give_the_old_export_list(self):
        out = run_python(
            "import json, fuzzbound\n"
            "print(json.dumps(dir(fuzzbound)))\n"
            "from fuzzbound import *\n"
            "print(json.dumps(sorted(n for n in globals() if n[:1] != '_'"
            " and n not in ('json', 'fuzzbound'))))\n"
            "print(json.dumps(sorted(fuzzbound.__all__)))\n")
        listed, starred, declared = map(json.loads, out.splitlines())
        assert [n for n in listed if not n.startswith("_")] == EXPORTS
        assert "__version__" in listed and "__path__" in listed
        assert starred == declared == EXPORTS

    def test_each_name_is_its_submodule_object(self):
        for name in EXPORTS:
            value = getattr(fuzzbound, name)
            if isinstance(value, type(fuzzbound)):
                assert value is importlib.import_module(f"fuzzbound.{name}")
            else:
                module = importlib.import_module(value.__module__)
                assert module.__name__.startswith("fuzzbound.")
                assert getattr(module, name) is value
            assert fuzzbound.__dict__[name] is value  # kept after the first read

    @pytest.mark.parametrize("module", [fuzzbound, cli], ids=["fuzzbound", "cli"])
    @pytest.mark.parametrize("name", ["nope", "_EXPORTS_", "cli_", "Dbsim"])
    def test_unknown_attribute_is_an_attribute_error(self, module, name):
        with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
            getattr(module, name)
        assert not hasattr(module, name)


class TestCommandImports:
    @pytest.mark.parametrize("command, extra", [
        ("dbsim", ["fuzzbound.dbsim"]), ("dbbisim", ["fuzzbound.dbsim"]),
        ("greatest", ["fuzzbound.dbsim"]), ("check", ["fuzzbound.dbsim"]),
        ("lang", []), ("formula", ["fuzzbound.logic"])])
    def test_a_command_loads_only_what_it_calls(self, files, command, extra):
        # lang loads no dbsim, logic or oracle; formula no dbsim or oracle;
        # the others no logic or oracle.
        argv = argv_of(command, files)
        assert loaded_by(f"import fuzzbound.cli\n"
                         f"assert fuzzbound.cli.run({argv!r}) == 0") \
            == sorted(CLI_BASE + extra)

    def test_usage_error_and_help_load_no_command_module(self):
        assert loaded_by("import contextlib, io, fuzzbound.cli\n"
                         "with contextlib.redirect_stdout(io.StringIO()):\n"
                         "    assert fuzzbound.cli.run(['-h']) == 0\n"
                         "with contextlib.redirect_stderr(io.StringIO()):\n"
                         "    assert fuzzbound.cli.run(['dbsim']) == 1") == CLI_BASE


def _traced_calls(name: str) -> tuple:
    """``spans.<name>``: the (module, attribute, span) triples perfbench wraps."""
    spec = importlib.util.spec_from_file_location("_perfbench_spans",
                                                  PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return getattr(spans, name)


def _resolves_on_a_fresh_module(traced: tuple) -> int:
    # Each attribute, read on a freshly imported module, is the function of
    # that name in the module its span names; returns how many there are.
    calls = [(module, attr) for module, attr, _ in traced]
    out = run_python(
        "import importlib, json\n"
        f"calls = {calls!r}\n"
        "print(json.dumps([(f.__module__, f.__name__) for f in"
        " (getattr(importlib.import_module(m), a) for m, a in calls)]))\n")
    resolved = json.loads(out)
    assert len(resolved) == len(calls)
    for (_, attr, span), (module, name) in zip(traced, resolved):
        assert name == attr
        assert module == "fuzzbound." + span.split(".")[0]
    return len(resolved)


class TestBenchmarkContract:
    """perfbench swaps module attributes of ``fuzzbound.cli``
    (``spans.CALLS_FROM_CLI``) and of ``fuzzbound.dbsim``
    (``spans.CALLS_FROM_DBSIM``) for recording wrappers, and takes the
    median of each span; a wrapper must be what runs."""

    def test_every_traced_name_resolves_on_a_fresh_cli(self):
        assert _resolves_on_a_fresh_module(_traced_calls("CALLS_FROM_CLI")) >= 12

    def test_every_traced_name_resolves_on_a_fresh_dbsim(self):
        assert _resolves_on_a_fresh_module(_traced_calls("CALLS_FROM_DBSIM")) == 3

    @pytest.mark.parametrize("attr, call", [
        ("build_index", lambda st, a, b: dbsim.compute_dbsim(st, a, b, 2)),
        ("relation_to_json",
         lambda st, a, b: dbsim.compute_dbsim(st, a, b, 2, trace=True).to_json()),
        ("compose_rel_rel", lambda st, a, b: dbsim.check_dbsim_prefix(
            st, a, b, [FuzzyRelation(a.num_states, b.num_states)] * 2))])
    def test_a_wrapper_set_on_dbsim_is_what_runs(self, monkeypatch, attr, call):
        assert attr in {name for _, name, _ in _traced_calls("CALLS_FROM_DBSIM")}
        calls = []
        original = getattr(dbsim, attr)

        def wrapper(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(dbsim, attr, wrapper)
        call(structure("godel"), chain_automaton(), chain_automaton_variant())
        assert calls

    @pytest.mark.parametrize("command, attr", [
        ("dbsim", "compute_dbsim"), ("dbbisim", "compute_dbbisim"),
        ("greatest", "greatest_fixpoint"), ("check", "check_dbsim_prefix"),
        ("formula", "parse_formula"), ("formula", "format_formula")])
    @pytest.mark.parametrize("read_first", [False, True], ids=["set", "read-set"])
    def test_a_patched_name_is_what_run_calls(self, files, command, attr,
                                              read_first):
        # Set on a fresh module, with and without reading the name first
        # (perfbench's tracer reads it; a plain assignment does not).
        source = "fuzzbound.logic" if command == "formula" else "fuzzbound.dbsim"
        argv = argv_of(command, files)
        out = run_python(
            "import importlib, fuzzbound.cli as cli\n"
            "calls = []\n"
            f"original = {'cli' if read_first else 'importlib.import_module(%r)' % source}"
            f".{attr}\n"
            "def wrapper(*args, **kwargs):\n"
            "    calls.append(1)\n"
            "    return original(*args, **kwargs)\n"
            f"cli.{attr} = wrapper\n"
            f"assert cli.run({argv!r}) == 0\n"
            f"assert cli.{attr} is wrapper\n"
            "print(len(calls))\n")
        assert out == "1\n"

    def test_the_traced_child_records_the_lazy_layers(self, files, tmp_path):
        names = set()
        for command in ("dbsim", "check", "formula"):
            spans_file = tmp_path / f"{command}.spans.json"
            run_python(str(PERFBENCH / "cli_child.py"), str(spans_file),
                       *argv_of(command, files))
            names |= {span[3] for span in json.loads(spans_file.read_text())}
        assert {"cli.run", "dbsim.compute_dbsim", "dbsim.check_dbsim_prefix",
                "fuzzy.relation_from_json", "logic.parse_formula",
                "logic.eval_formula", "logic.format_formula",
                "automata.build_index", "fuzzy.relation_to_json",
                "fuzzy.compose_rel_rel"} - names == set()

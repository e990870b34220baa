import io
import json
import tempfile
import tracemalloc
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from fuzzbound import (
    FuzzyAutomaton,
    FuzzyRelation,
    automaton_to_json,
    compute_dbbisim,
    compute_dbsim,
    custom_structure,
    greatest_fixpoint,
    relation_from_json,
    relation_to_json,
    structure,
)
from fuzzbound import dbsim, fuzzy
from fuzzbound.cli import _emit, build_parser, run
from fuzzbound.dbsim import DbSimResult
from fuzzbound.fuzzy import MAX_CELLS
from fuzzbound.oracle import RandomAutomatonSpec, generate_automaton

from conftest import STRUCTURE_NAMES, chain_automaton, chain_automaton_variant


@pytest.fixture
def files(tmp_path):
    left = tmp_path / "left.json"
    right = tmp_path / "right.json"
    left.write_text(json.dumps(automaton_to_json(chain_automaton())))
    right.write_text(json.dumps(automaton_to_json(chain_automaton_variant())))
    return str(left), str(right)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def degree(relation: dict, row: int, col: int) -> float:
    """Cell (row, col) of a sparse relation document; omitted cells are 0.

    Rows and columns are positions in the left and right files' "states"
    arrays: here u, v on the left and u', v' on the right.
    """
    return next((v for r, c, v in relation["entries"] if (r, c) == (row, col)),
                0.0)


class TestDepthBounded:
    def test_lukasiewicz_depth_one(self, files, capsys):
        left, right = files
        code, doc = run_json(capsys, [
            "dbsim", "--left", left, "--right", right,
            "--depth", "1", "--tnorm", "lukasiewicz"])
        assert code == 0
        phi = doc["phi_k"]
        assert degree(phi, 0, 0) == pytest.approx(0.9, abs=1e-9)
        assert degree(phi, 0, 1) == pytest.approx(0.8, abs=1e-9)
        assert degree(phi, 1, 1) == pytest.approx(0.7, abs=1e-9)
        assert doc["k"] == 1 and doc["mode"] == "simulation"

    def test_depth_zero_is_terminal_residuum(self, files, capsys):
        left, right = files
        code, doc = run_json(capsys, [
            "dbsim", "--left", left, "--right", right,
            "--depth", "0", "--tnorm", "lukasiewicz"])
        assert code == 0
        assert degree(doc["phi_k"], 1, 1) == pytest.approx(0.8, abs=1e-9)

    def test_dbbisim(self, files, capsys):
        left, right = files
        code, doc = run_json(capsys, [
            "dbbisim", "--left", left, "--right", right,
            "--depth", "1", "--tnorm", "lukasiewicz"])
        assert code == 0
        phi = doc["phi_k"]
        assert degree(phi, 0, 0) == pytest.approx(0.7, abs=1e-9)
        assert degree(phi, 0, 1) == pytest.approx(0.2, abs=1e-9)

    def test_trace_flag(self, files, capsys):
        left, right = files
        code, doc = run_json(capsys, [
            "dbsim", "--left", left, "--right", right, "--depth", "2",
            "--tnorm", "godel", "--trace"])
        assert code == 0
        assert "trace" in doc and len(doc["trace"]) >= 2

    def test_missing_file(self, files, capsys):
        _, right = files
        code = run(["dbsim", "--left", "/nonexistent/a.json",
                    "--right", right, "--depth", "1"])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, files, capsys):
        _, right = files
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["dbsim", "--left", str(bad), "--right", right,
                    "--depth", "1"]) == 1

    def test_alphabet_mismatch(self, tmp_path, files, capsys):
        left, _ = files
        doc = automaton_to_json(chain_automaton_variant())
        doc["alphabet"] = ["t"]
        doc["transitions"] = [dict(t, symbol="t") for t in doc["transitions"]]
        other = tmp_path / "other.json"
        other.write_text(json.dumps(doc))
        assert run(["dbsim", "--left", left, "--right", str(other),
                    "--depth", "1"]) == 2

    def test_negative_depth(self, files):
        left, right = files
        assert run(["dbsim", "--left", left, "--right", right,
                    "--depth", "-2"]) == 1

    @pytest.mark.parametrize("argv, message", [
        (["dbsim", "--depth", "-1"], "iteration bound must be >= 0"),
        (["dbbisim", "--depth", "-1"], "iteration bound must be >= 0"),
        (["greatest", "--max-iters", "0"], "max_iters must be >= 1"),
    ], ids=["dbsim", "dbbisim", "greatest"])
    def test_bad_bound_is_input_error_before_the_alphabets(
            self, files, tmp_path, capsys, argv, message):
        # The API checks the bound before it compares the alphabets, so a
        # bad bound exits 1 even on automata that exit 2 with a good one.
        left, right = files
        doc = automaton_to_json(chain_automaton_variant())
        doc["alphabet"] = ["t"]
        doc["transitions"] = [dict(t, symbol="t") for t in doc["transitions"]]
        other = tmp_path / "other.json"
        other.write_text(json.dumps(doc))
        for path in (right, str(other)):
            assert run(argv + ["--left", left, "--right", path]) == 1
            out, err = capsys.readouterr()
            assert out == "" and message in err

    def test_unknown_tnorm(self, files):
        left, right = files
        assert run(["dbsim", "--left", left, "--right", right,
                    "--depth", "1", "--tnorm", "hamacher"]) == 1

    @pytest.mark.parametrize("target", ["missing/out.json", "."])
    def test_unwritable_output(self, files, tmp_path, capsys, target):
        left, right = files
        path = str(tmp_path / target)
        assert run(["dbsim", "--left", left, "--right", right, "--depth", "1",
                    "--output", path]) == 1
        assert capsys.readouterr().err.startswith(f"fuzzbound: cannot write {path}: ")

    def test_output_file_and_determinism(self, files, tmp_path, capsys):
        left, right = files
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            assert run(["dbsim", "--left", left, "--right", right,
                        "--depth", "3", "--tnorm", "product",
                        "--output", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_degrees_are_the_api_floats_exactly(self, files, capsys):
        left, right = files
        assert run(["dbsim", "--left", left, "--right", right,
                    "--depth", "1", "--tnorm", "lukasiewicz"]) == 0
        text = capsys.readouterr().out
        result = compute_dbsim(structure("lukasiewicz"), chain_automaton(),
                               chain_automaton_variant(), 1)
        value = result.relation[1, 1]
        doc = json.loads(text)
        assert degree(doc["phi_k"], 1, 1) == value
        assert repr(value) in text
        assert doc["phi_k"] == relation_to_json(result.relation)
        assert doc["norms"] == list(result.norms)
        # One line, no indentation, and phi_k is printed once.
        assert text.count("\n") == 1 and text.endswith("}\n")
        assert sorted(doc) == ["fixpoint_at", "k", "mode", "norms", "phi_k",
                               "status"]


class TestGreatest:
    def test_godel_fixpoint(self, files, capsys):
        left, right = files
        code, doc = run_json(capsys, [
            "greatest", "--left", left, "--right", right, "--tnorm", "godel"])
        assert code == 0
        assert doc["status"] == "fixpoint"
        assert degree(doc["phi_k"], 1, 1) == pytest.approx(0.4, abs=1e-9)
        assert doc["norms"][-1] == pytest.approx(1.0, abs=1e-9)

    def test_product_approximate(self, files, capsys):
        left, right = files
        code, doc = run_json(capsys, [
            "greatest", "--left", left, "--right", right, "--tnorm", "product",
            "--mode", "sim", "--max-iters", "200", "--tol", "1e-6"])
        assert code == 0
        assert doc["status"] == "tol"
        assert all(entry[2] <= 1e-4 for entry in doc["phi_k"]["entries"])

    def test_bisim_mode(self, files, capsys):
        left, right = files
        code, doc = run_json(capsys, [
            "greatest", "--left", left, "--right", right,
            "--tnorm", "lukasiewicz", "--mode", "bisim"])
        assert code == 0
        assert degree(doc["phi_k"], 0, 0) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_bad_tol_is_input_error(self, files, capsys, tol):
        left, right = files
        code = run(["greatest", "--left", left, "--right", right,
                    "--tol", tol])
        assert code == 1
        assert "tol must be a finite number >= 0" in capsys.readouterr().err


class TestTraceCap:
    # A traced run holds up to (steps + 1) * n_a * n_b degrees. One that could
    # hold more than the cap is refused before its first round with exit 3,
    # even on a pair that would reach a fixpoint early.
    @pytest.mark.parametrize("argv", [
        ["dbsim", "--trace", "--depth", "{steps}"],
        ["dbbisim", "--trace", "--depth", "{steps}"],
        ["greatest", "--trace", "--max-iters", "{steps}", "--tol", "0"],
    ])
    def test_over_the_cap_is_a_resource_error(self, files, capsys, argv):
        left, right = files
        steps = MAX_CELLS // 4   # (steps + 1) * 2 * 2 > the cap
        argv = [arg.format(steps=steps) for arg in argv]
        assert run(argv + ["--left", left, "--right", right]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cap" in captured.err
        # One step fewer is at the cap and runs; without --trace nothing is
        # held per step, so the same step count runs too.
        fewer = [str(steps - 1) if arg == str(steps) else arg for arg in argv]
        assert run(fewer + ["--left", left, "--right", right]) == 0
        untraced = [arg for arg in argv if arg != "--trace"]
        assert run(untraced + ["--left", left, "--right", right]) == 0

    @pytest.mark.parametrize("argv", [
        ["dbsim", "--right", "{big}", "--depth", "0"],
        ["dbbisim", "--right", "{big}", "--depth", "0"],
        ["greatest", "--right", "{big}", "--max-iters", "1"],
        ["check", "--right", "{one}", "--relation", "{thin}", "--mode", "sim"],
        ["check", "--right", "{one}", "--relation", "{thin}", "--mode", "dbbisim"],
    ], ids=["dbsim", "dbbisim", "greatest", "check-sim", "check-dbbisim"])
    def test_untraced_grid_over_the_cap_is_a_resource_error(
            self, tmp_path, capsys, argv):
        # 4097 x 4097 state pairs are just over the cap, so even one working
        # grid is refused. check builds each symbol's dense 4097 x 4097
        # relation, so a thin 4097 x 1 relation, under its own cap, is
        # refused there too.
        paths = {}
        for name, states in (("big", 4097), ("one", 1)):
            names = [f"q{i}" for i in range(states)]
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(automaton_to_json(
                FuzzyAutomaton.build(["s"], names, {"q0": 1.0}, {"q0": 1.0}, []))))
        paths["thin"] = tmp_path / "thin.json"
        paths["thin"].write_text(json.dumps(relation_to_json(FuzzyRelation(4097, 1))))
        argv = [arg.format(**paths) for arg in argv]
        assert run(argv + ["--left", str(paths["big"])]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "over the cap" in err

    def test_benchmark_sized_runs_are_far_under_the_cap(self):
        # cli-session traces depth 4 on 80-state pairs; greatest runs at most
        # 60 iterations on 100-state pairs.
        assert 100 * (4 + 1) * 80 * 80 <= MAX_CELLS
        assert 10 * (60 + 1) * 100 * 100 <= MAX_CELLS


class TestCheck:
    def test_simulation_relation(self, files, tmp_path, capsys):
        left, right = files
        rel = tmp_path / "rel.json"
        rel.write_text(json.dumps({
            "rows": 2, "cols": 2,
            "entries": [[0, 0, 1.0], [0, 1, 1.0], [1, 1, 0.4]]}))
        code, doc = run_json(capsys, [
            "check", "--left", left, "--right", right,
            "--relation", str(rel), "--mode", "sim", "--tnorm", "godel"])
        assert code == 0 and doc["ok"] is True

    def test_raised_relation_fails_check(self, files, tmp_path, capsys):
        left, right = files
        rel = tmp_path / "rel.json"
        rel.write_text(json.dumps({
            "rows": 2, "cols": 2,
            "entries": [[0, 0, 1.0], [0, 1, 1.0], [1, 1, 0.5]]}))
        code, doc = run_json(capsys, [
            "check", "--left", left, "--right", right,
            "--relation", str(rel), "--mode", "sim", "--tnorm", "godel"])
        assert code == 0 and doc["ok"] is False

    def test_prefix_check_accepts_trace_document(self, files, tmp_path, capsys):
        left, right = files
        trace_file = tmp_path / "trace.json"
        assert run(["dbsim", "--left", left, "--right", right, "--depth", "4",
                    "--tnorm", "lukasiewicz", "--trace",
                    "--output", str(trace_file)]) == 0
        code, doc = run_json(capsys, [
            "check", "--left", left, "--right", right,
            "--relation", str(trace_file), "--mode", "dbsim",
            "--tnorm", "lukasiewicz"])
        assert code == 0 and doc["ok"] is True

    def test_prefix_check_accepts_array(self, files, tmp_path, capsys):
        left, right = files
        prefix = tmp_path / "prefix.json"
        rel = {"rows": 2, "cols": 2, "entries": []}
        prefix.write_text(json.dumps([rel, rel]))
        code, doc = run_json(capsys, [
            "check", "--left", left, "--right", right,
            "--relation", str(prefix), "--mode", "dbbisim"])
        assert code == 0 and doc["ok"] is True

    def test_wrong_shape_is_semantic_error(self, files, tmp_path):
        left, right = files
        rel = tmp_path / "rel.json"
        rel.write_text(json.dumps({"rows": 3, "cols": 2, "entries": []}))
        assert run(["check", "--left", left, "--right", right,
                    "--relation", str(rel), "--mode", "sim"]) == 2
        # The declared shape is compared with the automata before any grid
        # is built (a 2000x2000 grid of floats would take 32 MB) and before
        # any entry is read, so a malformed entry does not make it exit 1.
        big = {"rows": 2000, "cols": 2000, "entries": [[0, 0, 0.5]]}
        malformed = {**big, "entries": [[0, 0, 0.5], "x"]}
        for mode, doc in (("sim", big), ("dbsim", [big]),
                          ("dbbisim", {"trace": [malformed]})):
            rel.write_text(json.dumps(doc))
            tracemalloc.start()
            try:
                code = run(["check", "--left", left, "--right", right,
                            "--relation", str(rel), "--mode", mode])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 2
            assert peak < 2_000_000, f"{mode}: peak {peak} bytes"

    def test_relation_over_the_cell_cap_is_a_resource_error(
            self, files, tmp_path, capsys, monkeypatch):
        # Only automata of more than 2**24 state pairs reach the real cap
        # here, since the declared shape is compared with theirs first.
        monkeypatch.setattr(fuzzy, "MAX_CELLS", 3)
        left, right = files
        rel = tmp_path / "rel.json"
        rel.write_text(json.dumps({"rows": 2, "cols": 2, "entries": []}))
        assert run(["check", "--left", left, "--right", right,
                    "--relation", str(rel), "--mode", "sim"]) == 3
        assert "over the cap of 3 cells" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"rows": -1, "cols": 2, "entries": []},
        {"rows": 2, "cols": 2, "entries": [[0.7, 1.9, 0.5]]},
        {"rows": 2, "cols": 2, "entries": [[0, 0, True]]},
        {"rows": 2, "cols": 2, "entries": [[0, 0, 1.0], [0, 0, 0.0]]},
    ])
    def test_malformed_relation_is_input_error(self, files, tmp_path, doc):
        left, right = files
        rel = tmp_path / "rel.json"
        rel.write_text(json.dumps(doc))
        assert run(["check", "--left", left, "--right", right,
                    "--relation", str(rel), "--mode", "sim"]) == 1

    def test_eps_flag_loosens_comparisons(self, files, tmp_path, capsys):
        left, right = files
        rel = tmp_path / "rel.json"
        rel.write_text(json.dumps({
            "rows": 2, "cols": 2,
            "entries": [[0, 0, 1.0], [0, 1, 1.0], [1, 1, 0.4005]]}))
        argv = ["check", "--left", left, "--right", right,
                "--relation", str(rel), "--mode", "sim", "--tnorm", "godel"]
        _, strict = run_json(capsys, argv)
        _, loose = run_json(capsys, argv + ["--eps", "0.01"])
        assert strict["ok"] is False and loose["ok"] is True

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
    def test_bad_eps_is_input_error(self, files, tmp_path, capsys, eps):
        # A NaN tolerance failed every comparison (a valid chain checked
        # "ok": false) and an infinite one passed every check.
        left, right = files
        trace_file = tmp_path / "trace.json"
        assert run(["dbsim", "--left", left, "--right", right, "--depth", "3",
                    "--trace", "--output", str(trace_file)]) == 0
        code = run(["check", "--left", left, "--right", right,
                    "--relation", str(trace_file), "--mode", "dbsim",
                    "--eps", eps])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert "eps_cmp must be a finite number >= 0" in err


# Degrees whose 12-digit rounding differs from the float, or that sit at the
# ends of the float range in [0, 1].
EDGE_DEGREES = (5e-324, 2.0 ** -1022, 1.0 - 2.0 ** -53, 0.1 + 0.2, 1.0, 2 / 3)


@pytest.fixture(scope="module")
def random_files(tmp_path_factory):
    """Paths of random automaton pairs (5-8 states, two symbols) and the pairs."""
    root = tmp_path_factory.mktemp("pairs")
    out = []
    for seed in range(4):
        pair = tuple(generate_automaton(RandomAutomatonSpec(
            5 + seed + side, 2, 0.35, seed=100 + 2 * seed + side))
            for side in (0, 1))
        paths = []
        for side, automaton in zip("ab", pair):
            path = root / f"{seed}{side}.json"
            path.write_text(json.dumps(automaton_to_json(automaton)))
            paths.append(str(path))
        out.append((*paths, pair))
    return out


@strat.composite
def relations(draw):
    rows, cols = draw(strat.integers(0, 4)), draw(strat.integers(0, 4))
    degree = strat.sampled_from(EDGE_DEGREES + (0.0,)) | strat.floats(0.0, 1.0)
    return FuzzyRelation(rows, cols, [
        draw(strat.lists(degree, min_size=cols, max_size=cols))
        for _ in range(rows)])


def emitted(doc: dict) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        _emit(doc, None)
    return buffer.getvalue()


# The built-ins, and Goedel's pair written out, which runs the generic kernel.
DOC_STRUCTURES = tuple(map(structure, STRUCTURE_NAMES)) + (custom_structure(
    lambda x, y: x if x < y else y, lambda x, y: 1.0 if x <= y else y),)
DOC_DEGREES = EDGE_DEGREES[:5]


@strat.composite
def one_symbol_automata(draw):
    n = draw(strat.integers(1, 3))
    degree = strat.sampled_from((0.0,) + DOC_DEGREES)
    states = [f"q{i}" for i in range(n)]
    return FuzzyAutomaton.build(
        alphabet=["s"], states=states,
        initial=dict(zip(states, draw(strat.lists(degree, min_size=n, max_size=n)))),
        terminal=dict(zip(states, draw(strat.lists(degree, min_size=n, max_size=n)))),
        transitions=[(x, "s", y, d) for x in states for y in states
                     if (d := draw(degree))])


@strat.composite
def results(draw):
    """Computed results, or results over drawn chains with 0xn, nx0 and
    all-zero components."""
    traced = draw(strat.booleans())
    if draw(strat.booleans()):
        st = draw(strat.sampled_from(DOC_STRUCTURES))
        a, b = draw(one_symbol_automata()), draw(one_symbol_automata())
        command = draw(strat.sampled_from(("dbsim", "dbbisim", "greatest")))
        if command == "greatest":
            return greatest_fixpoint(st, a, b, draw(strat.sampled_from(("sim", "bisim"))),
                                     max_iters=3, tol=0.0, trace=traced)
        compute = compute_dbsim if command == "dbsim" else compute_dbbisim
        return compute(st, a, b, draw(strat.integers(0, 3)), trace=traced)
    rows, cols = draw(strat.integers(0, 3)), draw(strat.integers(0, 3))
    degree = strat.sampled_from((0.0, 0.0) + DOC_DEGREES)
    chain = draw(strat.lists(strat.builds(
        lambda grid: FuzzyRelation(rows, cols, grid),
        strat.lists(strat.lists(degree, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)), min_size=1, max_size=3))
    norms = tuple(draw(strat.lists(degree, min_size=len(chain), max_size=len(chain))))
    return DbSimResult("simulation", len(chain) - 1,
                       tuple(chain if traced else chain[-1:]), norms, None,
                       "depth", traced)


class TestOutputFormat:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(results())
    def test_result_document_is_json_dumps(self, result):
        doc = result.to_json()
        text = emitted(doc)
        assert text == json.dumps(doc, sort_keys=True) + "\n"
        assert relation_from_json(json.loads(text)["phi_k"]) == result.relation
        if result.traced:
            assert doc["phi_k"] is doc["trace"][-1]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(one_symbol_automata(), one_symbol_automata(),
           strat.sampled_from(DOC_STRUCTURES), strat.sampled_from(DOC_DEGREES))
    def test_read_side_documents_are_json_dumps(self, a, b, st, constant):
        with tempfile.TemporaryDirectory() as root:
            left, right, trace = (f"{root}/{name}.json" for name in "abt")
            for path, automaton in ((left, a), (right, b)):
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(automaton_to_json(automaton), handle)
            with open(trace, "w", encoding="utf-8") as handle:
                handle.write(emitted(compute_dbsim(st, a, b, 2, trace=True).to_json()))
            for argv in (
                    ["check", "--right", right, "--relation", trace, "--mode", "dbsim"],
                    ["lang", "--max-len", "2"], ["lang", "--word", "s s"],
                    ["formula", "--expr", f"(s . ({constant!r} -> (s . T)))"]):
                args = build_parser().parse_args([argv[0], "--left", left, *argv[1:]])
                doc = args.handler(args, st)
                assert emitted(doc) == json.dumps(doc, sort_keys=True) + "\n"

    def test_traced_dbsim_writes_each_component_once(self, files, tmp_path,
                                                     monkeypatch):
        # The benchmark's tracer spans every relation_to_json call that the
        # CLI makes through dbsim: one per component of the chain.
        calls = []
        original = dbsim.relation_to_json
        monkeypatch.setattr(dbsim, "relation_to_json",
                            lambda rel: calls.append(rel) or original(rel))
        left, right = files
        out = tmp_path / "trace.json"
        assert run(["dbsim", "--left", left, "--right", right, "--depth", "3",
                    "--tnorm", "lukasiewicz", "--trace", "--output", str(out)]) == 0
        assert len(calls) == 3 + 1
        assert out.read_bytes() == (
            b'{"fixpoint_at": null, "k": 3, "mode": "simulation", "norms": '
            b'[1.0, 0.8999999999999999, 0.8000000000000003, 0.7000000000000002], '
            b'"phi_k": {"cols": 2, "entries": [[0, 0, 0.7000000000000001], '
            b'[0, 1, 0.6], [1, 1, 0.5]], "rows": 2}, "status": "depth", "trace": '
            b'[{"cols": 2, "entries": [[0, 0, 1.0], [0, 1, 1.0], [1, 1, 0.8]], '
            b'"rows": 2}, {"cols": 2, "entries": [[0, 0, 0.9], '
            b'[0, 1, 0.8000000000000002], [1, 1, 0.7000000000000002]], "rows": 2}, '
            b'{"cols": 2, "entries": [[0, 0, 0.8000000000000002], '
            b'[0, 1, 0.7000000000000001], [1, 1, 0.6000000000000001]], "rows": 2}, '
            b'{"cols": 2, "entries": [[0, 0, 0.7000000000000001], [0, 1, 0.6], '
            b'[1, 1, 0.5]], "rows": 2}]}\n')

    @given(relations())
    def test_emitted_relation_reads_back_bit_for_bit(self, rel):
        back = relation_from_json(json.loads(emitted(relation_to_json(rel))))
        assert (back.rows, back.cols) == (rel.rows, rel.cols)
        assert back.degrees == rel.degrees

    @pytest.mark.parametrize("name", STRUCTURE_NAMES)
    def test_dbsim_trace_file_is_the_api_chain(self, random_files, tmp_path,
                                               name):
        out = tmp_path / "trace.json"
        for left, right, (a, b) in random_files:
            assert run(["dbsim", "--left", left, "--right", right,
                        "--depth", "4", "--tnorm", name, "--trace",
                        "--output", str(out)]) == 0
            doc = json.loads(out.read_text())
            result = compute_dbsim(structure(name), a, b, 4, trace=True)
            shape = (a.num_states, b.num_states)
            assert [relation_from_json(rel, shape).degrees
                    for rel in doc["trace"]] == [rel.degrees for rel in result.prefix]
            assert relation_from_json(doc["phi_k"], shape) == result.relation
            assert doc["norms"] == list(result.norms)

    @pytest.mark.parametrize("name", STRUCTURE_NAMES)
    def test_dbbisim_trace_on_stdout_is_the_api_chain(self, random_files,
                                                      capsys, name):
        for left, right, (a, b) in random_files:
            code, doc = run_json(capsys, [
                "dbbisim", "--left", left, "--right", right, "--depth", "4",
                "--tnorm", name, "--trace"])
            assert code == 0
            result = compute_dbbisim(structure(name), a, b, 4, trace=True)
            shape = (a.num_states, b.num_states)
            assert [relation_from_json(rel, shape).degrees
                    for rel in doc["trace"]] == [rel.degrees for rel in result.prefix]

    @pytest.mark.parametrize("name", STRUCTURE_NAMES)
    @pytest.mark.parametrize("command, mode", [("dbsim", "dbsim"),
                                               ("dbbisim", "dbbisim")])
    def test_check_accepts_every_written_trace(self, random_files, files,
                                               tmp_path, capsys, name,
                                               command, mode):
        # Goedel's residuum is an exact adjoint in floats, so its chains pass
        # with no tolerance at all. The Lukasiewicz and product residua are
        # not: their chains may break a transition condition by an ulp, which
        # the default tolerance absorbs.
        eps_runs = [[]] + ([["--eps", "0"]] if name == "godel" else [])
        trace = tmp_path / "trace.json"
        for left, right, *_ in random_files + [(*files,)]:
            assert run([command, "--left", left, "--right", right,
                        "--depth", "4", "--tnorm", name, "--trace",
                        "--output", str(trace)]) == 0
            for eps in eps_runs:
                code, doc = run_json(capsys, [
                    "check", "--left", left, "--right", right, "--relation",
                    str(trace), "--mode", mode, "--tnorm", name, *eps])
                assert code == 0 and doc["ok"] is True, (left, eps)


class TestLang:
    def test_single_word(self, files, capsys):
        left, _ = files
        code, doc = run_json(capsys, [
            "lang", "--left", left, "--word", "s", "--tnorm", "godel"])
        assert code == 0
        assert doc["degree"] == pytest.approx(0.4, abs=1e-9)

    def test_bounded_language(self, files, capsys):
        left, _ = files
        code, doc = run_json(capsys, [
            "lang", "--left", left, "--max-len", "1", "--tnorm", "godel"])
        assert code == 0
        assert doc["language"] == {"": 0.0, "s": 0.4}

    def test_unknown_symbol(self, files):
        left, _ = files
        assert run(["lang", "--left", left, "--word", "t"]) == 2

    def test_requires_exactly_one_selector(self, files):
        left, _ = files
        assert run(["lang", "--left", left]) == 1
        assert run(["lang", "--left", left, "--word", "s",
                    "--max-len", "2"]) == 1

    @pytest.mark.parametrize("key, value, named", [
        ("transitions", 5, "transitions"),
        ("alphabet", 5, "alphabet"),
        ("states", 5, "states"),
        ("initial", [1, 2], "initial"),
        ("states", [["x"]], "states"),
        ("alphabet", [["x"]], "alphabet"),
        ("transitions",
         [{"from": [1], "symbol": "s", "to": "v", "degree": 0.4}], "from"),
    ])
    def test_malformed_automaton_is_input_error(self, tmp_path, capsys,
                                                key, value, named):
        doc = automaton_to_json(chain_automaton())
        doc[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["lang", "--left", str(path), "--word", "s"]) == 1
        assert f"'{named}'" in capsys.readouterr().err

    @pytest.mark.parametrize("alphabet, states, rule", [
        (["s", "s"], ["u", "v"], "alphabet symbols must be distinct"),
        (["s"], ["u", "v", "u"], "state names must be distinct"),
        # The constructor checks the alphabet first.
        (["s", "s"], ["u", "v", "u"], "alphabet symbols must be distinct"),
    ], ids=["symbols", "states", "both"])
    def test_repeated_names_are_input_errors(self, tmp_path, capsys,
                                             alphabet, states, rule):
        doc = automaton_to_json(chain_automaton())
        doc["alphabet"], doc["states"] = alphabet, states
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(doc))
        assert run(["lang", "--left", str(path), "--word", "s"]) == 1
        err = capsys.readouterr().err
        assert rule in err and "Traceback" not in err

    def test_negative_length_bound_is_input_error(self, files, capsys):
        left, _ = files
        assert run(["lang", "--left", left, "--max-len", "-1"]) == 1
        assert "word-length bound must be >= 0" in capsys.readouterr().err

    def test_word_cap_exit_code(self, tmp_path):
        doc = {
            "alphabet": ["a", "b"],
            "states": ["q"],
            "initial": {"q": 1.0},
            "terminal": {"q": 1.0},
            "transitions": [
                {"from": "q", "symbol": "a", "to": "q", "degree": 1.0},
                {"from": "q", "symbol": "b", "to": "q", "degree": 0.5},
            ],
        }
        path = tmp_path / "two.json"
        path.write_text(json.dumps(doc))
        assert run(["lang", "--left", str(path), "--max-len", "25"]) == 3


class TestFormula:
    def test_worked_formula_product(self, files, capsys):
        _, right = files
        code, doc = run_json(capsys, [
            "formula", "--left", right, "--expr", "(s . (s . (0.9 -> T)))",
            "--tnorm", "product"])
        assert code == 0
        assert doc["values"]["u'"] == pytest.approx(8 / 45, abs=1e-9)

    def test_syntax_error(self, files):
        left, _ = files
        assert run(["formula", "--left", left, "--expr", "(s . T"]) == 1

    def test_unknown_symbol(self, files):
        left, _ = files
        assert run(["formula", "--left", left, "--expr", "(t . T)"]) == 2

    def test_deep_nesting_is_syntax_error(self, files, capsys):
        left, _ = files
        expr = "(s . " * 3000 + "T" + ")" * 3000
        assert run(["formula", "--left", left, "--expr", expr]) == 1
        assert "nests deeper" in capsys.readouterr().err


class TestEnvironment:
    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["dbsim", "--help"],
                                      ["greatest", "-h"]])
    def test_help_is_printed_and_returns_zero(self, capsys, argv):
        assert run(argv) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: fuzzbound") and err == ""

    def test_usage_error_exit_code(self, files):
        assert run(["dbsim", "--depth", "1"]) == 1
        assert run(["frobnicate"]) == 1

    @pytest.mark.parametrize("argv", [
        ["dbsim", "--right", "{right}", "--depth", "1"],
        ["dbbisim", "--right", "{right}", "--depth", "1"],
        ["greatest", "--right", "{right}"],
        ["lang", "--word", "s"],
        ["formula", "--expr", "T"]])
    def test_eps_is_taken_only_by_check(self, files, capsys, argv):
        # The tolerance is read only by check's comparisons.
        left, right = files
        argv = [arg.format(right=right) for arg in argv] + ["--left", left]
        assert run(argv) == 0
        assert run(argv + ["--eps", "0"]) == 1
        assert "unrecognized arguments: --eps" in capsys.readouterr().err

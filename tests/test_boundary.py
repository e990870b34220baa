"""Properties of the input boundary on generated, mostly malformed input.

The JSON loaders, the formula parser and the CLI must turn every input into
a value or a ``FuzzboundError`` (for the CLI: an exit code of 0, 1, 2 or 3
and no traceback), never into another exception. Example counts are small;
the generators stay near the real schemas so most examples reach deep into
the validation instead of failing at the first key.
"""

import io
import json
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as strat

from fuzzbound import (
    Formula,
    FuzzyRelation,
    automaton_from_json,
    automaton_to_json,
    check_dbsim_prefix,
    compute_dbsim,
    format_formula,
    greatest_fixpoint,
    language_bounded,
    parse_formula,
    relation_from_json,
    relation_to_json,
    structure,
    validate_degree,
    verify_language_invariance,
    verify_language_preservation,
)
from fuzzbound import automata, fuzzy
from fuzzbound.automata import FuzzyAutomaton, require_word_bound
from fuzzbound.cli import run
from fuzzbound.errors import (
    DegreeRangeError,
    FuzzboundError,
    RelationCapExceeded,
    TraceCapExceeded,
    WordCapExceeded,
)

from conftest import chain_automaton, chain_automaton_variant

# Derandomized, so the suite runs the same examples every time.
FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])

# A JSON integer too large for a float, and other values a degree field may
# hold in a hostile document.
HUGE = 10 ** 400
ODD_VALUES = [HUGE, -HUGE, 2 ** 70, -1, 0, 1, 2, True, False, None, "0.5", "",
              float("nan"), float("inf"), -0.0, 5e-324, 1.5, [], {}]

json_scalars = (strat.none() | strat.booleans() | strat.integers()
                | strat.floats() | strat.text(max_size=4)
                | strat.sampled_from(ODD_VALUES))
json_values = strat.recursive(
    json_scalars,
    lambda inner: (strat.lists(inner, max_size=3)
                   | strat.dictionaries(strat.text(max_size=4), inner, max_size=3)),
    max_leaves=8)
names = strat.sampled_from(["p", "q", "r", "s", "t", "", "p "]) | json_scalars
degrees = (strat.floats(min_value=0.0, max_value=1.0)
           | strat.sampled_from(ODD_VALUES) | json_values)


def sometimes(valid, other=json_values):
    """Mostly the near-valid strategy, sometimes any JSON value."""
    return strat.one_of(valid, valid, valid, other)


transitions = strat.fixed_dictionaries(
    {}, optional={"from": names, "symbol": names, "to": names, "degree": degrees})
automaton_docs = strat.fixed_dictionaries({}, optional={
    "alphabet": sometimes(strat.lists(names, max_size=3)),
    "states": sometimes(strat.lists(names, max_size=4)),
    "initial": sometimes(strat.dictionaries(names.filter(
        lambda n: isinstance(n, str)), degrees, max_size=3)),
    "terminal": sometimes(strat.dictionaries(names.filter(
        lambda n: isinstance(n, str)), degrees, max_size=3)),
    "transitions": sometimes(strat.lists(sometimes(transitions), max_size=4)),
}) | json_values

small_ints = strat.integers(min_value=-2, max_value=4)
indices = small_ints | strat.sampled_from(ODD_VALUES)
entries = strat.lists(sometimes(strat.tuples(indices, indices, degrees).map(list)),
                      max_size=5)


def relation_docs(sizes):
    return strat.fixed_dictionaries({}, optional={
        "rows": sometimes(sizes), "cols": sometimes(sizes),
        "entries": sometimes(entries)}) | json_values


def raises_only_fuzzbound_errors(fn, *args):
    try:
        return fn(*args)
    except FuzzboundError:
        return None


class TestLoaders:
    @FUZZ
    @given(automaton_docs)
    def test_automaton_from_json(self, doc):
        automaton = raises_only_fuzzbound_errors(automaton_from_json, doc)
        if automaton is not None:
            assert automaton_from_json(automaton_to_json(automaton)) == automaton

    @FUZZ
    @given(relation_docs(small_ints | strat.sampled_from(ODD_VALUES)),
           strat.tuples(small_ints, small_ints), strat.booleans())
    def test_relation_from_json_against_a_shape(self, doc, shape, declared):
        # The CLI always passes the automata's shape, which is compared
        # before any grid exists, so declared sizes may be anything here.
        # Half the time the shape is the declared one, so the entries are read.
        if declared and isinstance(doc, dict):
            rows, cols = doc.get("rows"), doc.get("cols")
            if all(type(v) is int and abs(v) <= 4 for v in (rows, cols)):
                shape = (rows, cols)
        rel = raises_only_fuzzbound_errors(relation_from_json, doc, shape)
        if rel is not None:
            assert (rel.rows, rel.cols) == shape
            assert relation_from_json(relation_to_json(rel)) == rel

    @FUZZ
    @given(relation_docs(small_ints))
    def test_relation_from_json_without_a_shape(self, doc):
        rel = raises_only_fuzzbound_errors(relation_from_json, doc)
        if rel is not None:
            assert relation_from_json(relation_to_json(rel)) == rel

    @pytest.mark.parametrize("rows, cols", [
        (4097, 4096), (2 ** 24 + 1, 1), (1, 2 ** 24 + 1), (10 ** 5, 10 ** 5),
        (10 ** 9, 0), (2 ** 24, 0), (2 ** 24, 1)])
    def test_declared_size_over_the_cap_is_refused_before_allocating(
            self, rows, cols):
        # Without a shape nothing bounds the declared size but the cap on
        # cells; a row costs a list and a tuple, even when it is empty.
        tracemalloc.start()
        try:
            with pytest.raises(RelationCapExceeded):
                relation_from_json({"rows": rows, "cols": cols, "entries": []})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("rows, cols", [(1, 0), (3, 2), (2, 7), (1, 22)])
    def test_each_row_counts_its_own_cost(self, rows, cols, monkeypatch):
        # The cap is read from the module at each call: a relation whose
        # cells and rows come to exactly the cap loads, one more row does not.
        monkeypatch.setattr(fuzzy, "MAX_CELLS", rows * (cols + fuzzy._ROW_CELLS))
        doc = {"rows": rows, "cols": cols, "entries": []}
        assert relation_from_json(doc) == FuzzyRelation(rows, cols)
        with pytest.raises(RelationCapExceeded):
            relation_from_json(dict(doc, rows=rows + 1))

    @pytest.mark.parametrize("value", [HUGE, -HUGE], ids=["huge", "-huge"])
    def test_integer_too_large_for_a_float_is_a_range_error(self, value):
        with pytest.raises(DegreeRangeError):
            validate_degree(value)
        doc = automaton_to_json(chain_automaton())
        doc["transitions"][0]["degree"] = value
        with pytest.raises(FuzzboundError, match="must lie in"):
            automaton_from_json(doc)
        with pytest.raises(DegreeRangeError):
            relation_from_json({"rows": 1, "cols": 1, "entries": [[0, 0, value]]})


formula_tokens = strat.sampled_from(
    ["(", ")", "T", " ", ".", "&", "->", "<->", "s", "t", "0.5", "1", "1e999",
     "0.3e-2", "-", "<", "x1", "é", "1.", ".5"])
formula_texts = (strat.lists(formula_tokens, max_size=14).map("".join)
                 | strat.text(max_size=12))


class TestFormulaParser:
    @FUZZ
    @given(formula_texts)
    def test_parse_formula(self, text):
        formula = raises_only_fuzzbound_errors(parse_formula, text)
        if formula is not None:
            assert isinstance(formula, Formula)
            assert parse_formula(format_formula(formula)) == formula

    @pytest.mark.parametrize("depth", [255, 256, 257, 5000])
    def test_nesting_at_and_past_the_cap(self, depth):
        text = "(s . " * depth + "T" + ")" * depth
        formula = raises_only_fuzzbound_errors(parse_formula, text)
        assert (formula is not None) == (depth <= 256)


class TestWordBound:
    def test_huge_length_bound_is_refused_without_computing_the_power(self):
        # |Sigma|^(n + 1) for n = 2 * 10**7 is a 2.5 MB integer; the cap
        # test must not build it (a --max-len of 10**12 would need 125 GB).
        two = FuzzyAutomaton.build(["a", "b"], ["q"], {"q": 1.0}, {"q": 1.0}, [])
        tracemalloc.start()
        try:
            with pytest.raises(WordCapExceeded):
                require_word_bound(two, 2 * 10 ** 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("symbols,n,cap,refused", [
        (2, 18, 10 ** 6, False), (2, 19, 10 ** 6, True), (3, 0, 3, False),
        (3, 1, 8, True), (2, 4, 16, True), (2, 3, 16, False),
        # One symbol has n + 1 words of up to n letters, no symbol one word
        # but still n + 1 levels: (n + 1)^2 is held to the cap.
        (1, 999, 10 ** 6, False), (1, 1000, 10 ** 6, True),
        (1, 10 ** 20, 10 ** 6, True), (0, 10 ** 20, 10 ** 6, True),
        (0, 0, 1, False), (2, 0, 0, True)])
    def test_cap_boundary(self, symbols, n, cap, refused, monkeypatch):
        # The cap is read from the module at each call.
        monkeypatch.setattr(automata, "DEFAULT_WORD_CAP", cap)
        self.assert_verdict(symbols, 1, n, refused)

    @pytest.mark.parametrize("symbols,states,n,cells,refused", [
        # The longest words' level holds a degree per state of each word:
        # 2^18 words of 64 states are the real cap of 2^24 degrees.
        (2, 64, 18, 2 ** 24, False), (2, 65, 18, 2 ** 24, True),
        (2, 200, 15, 2 ** 24, False), (2, 200, 18, 2 ** 24, True),
        (3, 5, 2, 45, False), (3, 5, 2, 44, True),
        # With fewer than two symbols each level holds one word.
        (1, 6, 999, 6, False), (1, 7, 999, 6, True),
        (0, 6, 0, 6, False), (0, 7, 0, 6, True)])
    def test_level_cap_counts_the_states(self, symbols, states, n, cells,
                                         refused, monkeypatch):
        monkeypatch.setattr(fuzzy, "MAX_CELLS", cells)
        self.assert_verdict(symbols, states, n, refused)

    # A bool is an int to operator.index: True would enumerate the words of
    # length <= 1. The type is checked before the range, so -0.5 is refused
    # as a float, not as a negative bound.
    @pytest.mark.parametrize("n", [True, False, 2.0, 2.5, -0.5])
    def test_length_bound_is_an_int(self, n):
        two = FuzzyAutomaton.build(["a", "b"], ["q"], {"q": 1.0}, {"q": 1.0}, [])
        st = structure("godel")
        with pytest.raises(TypeError):
            require_word_bound(two, n)
        with pytest.raises(TypeError):
            language_bounded(st, two, n)
        for verify in (verify_language_preservation, verify_language_invariance):
            with pytest.raises(TypeError):
                verify(st, two, two, FuzzyRelation(1, 1), n)

    # A bound that is an index stands for its int all the way through, not
    # only in the cap check.
    def test_index_bound_is_its_int(self):
        class Two:
            def __index__(self):
                return 2

        two = FuzzyAutomaton.build(["a", "b"], ["q", "r"], {"q": 1.0}, {"r": 0.5},
                                   [("q", "a", "r", 0.8), ("r", "b", "q", 0.6)])
        st = structure("godel")
        bound = require_word_bound(two, Two())
        assert type(bound) is int and bound == 2
        assert language_bounded(st, two, Two()) == language_bounded(st, two, 2)
        rel = FuzzyRelation(2, 2, ((1.0, 0.4), (0.7, 1.0)))
        for verify in (verify_language_preservation, verify_language_invariance):
            report = verify(st, two, two, rel, Two())
            assert report == verify(st, two, two, rel, 2)
            assert not report.ok

    @staticmethod
    def assert_verdict(symbols, states, n, refused):
        alphabet = [f"s{i}" for i in range(symbols)]
        automaton = FuzzyAutomaton.build(
            alphabet, [f"q{i}" for i in range(states)], {}, {}, [])
        try:
            require_word_bound(automaton, n)
        except WordCapExceeded:
            assert refused
        else:
            assert not refused


class TestOneCap:
    # Every grid is counted against fuzzy.MAX_CELLS, read at each call, so a
    # patched cap reaches the runs, the checkers, the word levels and the
    # relation loader alike. The chain pair has 2 states and 1 symbol.
    @pytest.mark.parametrize("call, error", [
        (lambda st, a, b: compute_dbsim(st, a, b, 0), TraceCapExceeded),
        (lambda st, a, b: greatest_fixpoint(st, a, b, "sim"), TraceCapExceeded),
        (lambda st, a, b: check_dbsim_prefix(st, a, b, [FuzzyRelation(2, 2)]),
         TraceCapExceeded),
        (lambda st, a, b: language_bounded(st, a, 0), WordCapExceeded),
        (lambda st, a, b: relation_from_json({"rows": 2, "cols": 2}),
         RelationCapExceeded),
    ], ids=["dbsim", "greatest", "check", "language", "relation"])
    def test_patched_cap_reaches_every_count(self, call, error, monkeypatch):
        st, a, b = structure("godel"), chain_automaton(), chain_automaton_variant()
        call(st, a, b)
        monkeypatch.setattr(fuzzy, "MAX_CELLS", 1)
        with pytest.raises(error, match="over the cap of 1 cells"):
            call(st, a, b)


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("boundary")
    return root, write_cli_files(root)


def write_cli_files(root):
    """Paths the generated argv choose from: good and bad automata and
    relation documents, a missing file and a directory."""
    a, b = chain_automaton(), chain_automaton_variant()
    other = FuzzyAutomaton.build(["z"], ["q"], {"q": 1.0}, {"q": 0.5}, [])
    trace = compute_dbsim(structure("godel"), a, b, 2, trace=True).to_json()
    docs = {
        "left.json": automaton_to_json(a),
        "right.json": automaton_to_json(b),
        "other.json": automaton_to_json(other),
        "list.json": [1, 2],
        "trace.json": trace,
        "phi.json": trace["phi_k"],
        "huge-shape.json": {"rows": 10 ** 9, "cols": 10 ** 9, "entries": []},
        "huge-degree.json": {"rows": 2, "cols": 2, "entries": [[0, 0, HUGE]]},
        "repeated.json": {"rows": 2, "cols": 2,
                          "entries": [[0, 0, 0.5], [0, 0, 0.0]]},
    }
    for name, doc in docs.items():
        (root / name).write_text(json.dumps(doc))
    (root / "broken.json").write_text('{"alphabet": [')
    (root / "not-utf8.json").write_bytes(b"\xff\xfe{")
    (root / "deep.json").write_text("[" * 100_000)
    (root / "huge-int.json").write_text(
        json.dumps(automaton_to_json(a)).replace("0.4", "1" + "0" * 400))
    paths = [str(root / name) for name in [*docs, "broken.json", "not-utf8.json",
                                          "deep.json", "huge-int.json"]]
    return paths + [str(root / "missing.json"), str(root)]


# Per command, the options it needs (a tuple: one of them) and those it may
# take; each gets a mostly valid value, and now and then an option of
# another command, a missing value or a bad one is mixed in.
COMMON = ["--tnorm", "--output"]
REQUIRED = {
    "dbsim": (["--left", "--right", "--depth"], ["--trace", *COMMON]),
    "dbbisim": (["--left", "--right", "--depth"], ["--trace", *COMMON]),
    "greatest": (["--left", "--right"],
                 ["--mode", "--max-iters", "--tol", "--trace", *COMMON]),
    "check": (["--left", "--right", "--relation", "--mode"], ["--eps", *COMMON]),
    "lang": (["--left", ("--word", "--max-len")], COMMON),
    "formula": (["--left", "--expr"], COMMON),
    "bogus": ([], []),
}
FLAGS = ["--left", "--right", "--depth", "--trace", "--mode", "--max-iters",
         "--tol", "--relation", "--word", "--max-len", "--expr", "--tnorm",
         "--eps", "--output", "--unknown", "-h", "--help"]
GOOD = {
    "--depth": ["0", "1", "3"], "--max-iters": ["1", "5"], "--max-len": ["0", "3"],
    "--mode": ["sim", "bisim", "dbsim", "dbbisim"], "--word": ["s", "s s", ""],
    "--expr": ["T", "(s . T)", "(0.5 -> (s . T))", "((s . T) & (0.2 <-> T))"],
    "--tnorm": ["godel", "lukasiewicz", "product"], "--eps": ["1e-9", "0"],
    "--tol": ["1e-9", "0"],
}
WORDS = ["0", "1", "-1", "1.5", "x", "", "nan", "inf", "-inf", "1e309",
         "99999999999999999999", "sim", "dbsim", "drastic", "s z", "z",
         "(z . T)", "((", "(2 -> T)", "--trace"]


@strat.composite
def argvs(draw, root, paths):
    files = {"--left": [str(root / "left.json")],
             "--right": [str(root / "right.json")],
             "--relation": [str(root / "trace.json"), str(root / "phi.json")]}
    command = draw(strat.sampled_from(list(REQUIRED)))
    needed, optional = REQUIRED[command]
    flags = [flag for flag in needed if draw(strat.integers(0, 19))]
    flags += draw(strat.lists(sometimes(strat.sampled_from(optional or FLAGS),
                                        strat.sampled_from(FLAGS)), max_size=3))
    argv = [command]
    for flag in flags:
        if isinstance(flag, tuple):
            flag = draw(strat.sampled_from(flag))
        argv.append(flag)
        if flag == "--trace":
            continue
        if flag == "--output":
            choices = [str(root / "out.json"), str(root), str(root / "no" / "x")]
        elif draw(strat.integers(0, 4)):
            choices = files.get(flag) or GOOD.get(flag) or WORDS
        else:
            choices = paths + WORDS
        argv.append(draw(strat.sampled_from(choices)))
    return argv


class TestCli:
    def test_generated_argv_ends_in_a_documented_exit_code(self, cli_files):
        root, paths = cli_files

        @settings(FUZZ, max_examples=150)
        @given(argvs(root, paths))
        def check(argv):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = run(argv)
            assert code in (0, 1, 2, 3)
            if code == 0:
                text = out.getvalue()
                if {"-h", "--help"} & set(argv) and text.startswith("usage: "):
                    return  # the help, printed when parsing reached the flag
                if "--output" not in argv:
                    assert text.count("\n") == 1
                    json.loads(text)
            else:
                assert out.getvalue() == ""
                assert err.getvalue().startswith("fuzzbound: ")

        check()

    def test_degree_too_large_for_a_float_is_an_input_error(self, cli_files,
                                                            capsys):
        root, _ = cli_files
        left, right = str(root / "huge-int.json"), str(root / "right.json")
        assert run(["dbsim", "--left", left, "--right", right,
                    "--depth", "1"]) == 1
        assert "must lie in [0, 1]" in capsys.readouterr().err
        assert run(["check", "--left", str(root / "left.json"), "--right",
                    right, "--relation", str(root / "huge-degree.json"),
                    "--mode", "sim"]) == 1

    def test_deeply_nested_json_is_an_input_error(self, cli_files, capsys):
        # json.load recurses once per bracket; RecursionError must not escape.
        root, _ = cli_files
        deep, left = str(root / "deep.json"), str(root / "left.json")
        assert run(["formula", "--left", deep, "--expr", "T"]) == 1
        assert run(["check", "--left", left, "--right", left,
                    "--relation", deep, "--mode", "dbsim"]) == 1
        assert "nests too deeply" in capsys.readouterr().err

    def test_huge_word_length_bound_is_a_resource_error(self, cli_files):
        root, _ = cli_files
        two = root / "two.json"
        two.write_text(json.dumps(automaton_to_json(FuzzyAutomaton.build(
            ["a", "b"], ["q"], {"q": 1.0}, {"q": 1.0}, []))))
        for path in (root / "other.json", two):   # one and two symbols
            assert run(["lang", "--left", str(path), "--max-len",
                        "99999999999999999999"]) == 3

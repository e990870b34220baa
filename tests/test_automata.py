import random

import pytest
from hypothesis import given
from hypothesis import strategies as strat

from fuzzbound import (
    FuzzyAutomaton,
    FuzzyRelation,
    FuzzySet,
    automaton_from_json,
    automaton_to_json,
    bisim_norm,
    build_index,
    compute_dbsim,
    language_bounded,
    language_eval,
    sim_norm,
    structure,
    word_from_names,
)
from fuzzbound.errors import (
    DegreeRangeError,
    InputFormatError,
    UnknownSymbol,
    WordCapExceeded,
)
from fuzzbound.oracle import RandomAutomatonSpec, generate_automaton

from conftest import chain_pair, loop_automaton, loop_pair, relation


class TestModel:
    def test_rejects_zero_degree_transition(self):
        with pytest.raises(DegreeRangeError):
            FuzzyAutomaton.build(["s"], ["q"], {}, {}, [("q", "s", "q", 0.0)])

    @pytest.mark.parametrize("degree", [True, "0.5"])
    def test_rejects_non_numeric_transition_degree(self, degree):
        with pytest.raises(DegreeRangeError):
            FuzzyAutomaton.build(["s"], ["q"], {}, {}, [("q", "s", "q", degree)])

    def test_rejects_duplicate_transition(self):
        with pytest.raises(ValueError, match="duplicate"):
            FuzzyAutomaton.build(
                ["s"], ["q"], {}, {},
                [("q", "s", "q", 0.3), ("q", "s", "q", 0.6)])

    @pytest.mark.parametrize("alphabet, states, rule", [
        (("s", "s"), ("q",), "alphabet symbols must be distinct"),
        (("s",), ("q", "r", "q"), "state names must be distinct"),
    ], ids=["symbols", "states"])
    def test_rejects_repeated_names(self, alphabet, states, rule):
        with pytest.raises(ValueError, match=rule):
            FuzzyAutomaton.build(alphabet, states, {}, {}, [])
        ends = FuzzySet((0.0,) * len(states))
        with pytest.raises(ValueError, match=rule):
            FuzzyAutomaton(len(states), alphabet, ((),) * len(alphabet), ends, ends,
                           states)

    @pytest.mark.parametrize("alphabet, transitions, ends, names, rule", [
        (("s",), ((),), 2, ("q",), "state_names length must equal num_states"),
        (("s", "t"), ((),), 2, None, "one transition list per alphabet symbol"),
        (("s",), ((),), 1, None, "initial/terminal sets must range over the states"),
    ], ids=["names", "transitions", "end-sets"])
    def test_rejects_inconsistent_parts(self, alphabet, transitions, ends, names,
                                        rule):
        end_set = FuzzySet((0.0,) * ends)
        with pytest.raises(ValueError, match=rule):
            FuzzyAutomaton(2, alphabet, transitions, end_set, end_set, names)

    # Names passed as lists are stored as tuples: an automaton hashes, and
    # two automata over the same names agree whichever sequence held them.
    def test_names_are_stored_as_tuples(self):
        ends = FuzzySet((0.5,))
        listed = FuzzyAutomaton(1, ["a"], ((),), ends, ends, ["p"])
        tupled = FuzzyAutomaton(1, ("a",), ((),), ends, ends, ("p",))
        assert (listed.alphabet, listed.state_names) == (("a",), ("p",))
        assert listed == tupled and hash(listed) == hash(tupled)
        result = compute_dbsim(structure("godel"), listed, tupled, 1)
        assert result.relation[0, 0] == 1.0

    # automaton_from_json reads names only as strings, so the constructor
    # refuses any other name: an automaton it builds writes a document that
    # reads back.
    @pytest.mark.parametrize("alphabet, names", [
        ((5,), ("p",)), (("a",), (7,)), ((b"a",), ("p",)), (("a",), (None,)),
    ], ids=["int-symbol", "int-state", "bytes-symbol", "none-state"])
    def test_rejects_names_that_are_not_strings(self, alphabet, names):
        ends = FuzzySet((0.5,))
        with pytest.raises(TypeError, match="not a string"):
            FuzzyAutomaton(1, alphabet, ((),), ends, ends, names)
        with pytest.raises(TypeError, match="not a string"):
            FuzzyAutomaton.build(alphabet, names, {}, {}, [])
        written = FuzzyAutomaton(1, ("a",), ((),), ends, ends, ("p",))
        assert automaton_from_json(automaton_to_json(written)) == written

    def test_rejects_unknown_names(self):
        with pytest.raises(InputFormatError):
            FuzzyAutomaton.build(["s"], ["q"], {"r": 1.0}, {}, [])
        with pytest.raises(InputFormatError):
            FuzzyAutomaton.build(["s"], ["q"], {}, {}, [("q", "t", "q", 0.3)])

    # A count is an int: 2.0 equals len(state_names) and True equals 1, so
    # either would be kept as the automaton's state count.
    @pytest.mark.parametrize("count, names", [(2.0, ("q", "r")), (True, ("q",))])
    def test_state_count_is_an_int(self, count, names):
        ends = FuzzySet((0.0,) * len(names))
        with pytest.raises(TypeError):
            FuzzyAutomaton(count, ("s",), ((),), ends, ends, names)

    # A transition's source and target are ints too: 1.0 and True are in
    # range, and a float index would be stored, to fail later in a lookup.
    @pytest.mark.parametrize("triple", [(0, 1.0, 0.5), (1.0, 0, 0.5), (True, 1, 0.5),
                                        (0, False, 0.5)])
    def test_transition_states_are_ints(self, triple):
        ends = FuzzySet((0.0, 0.0))
        with pytest.raises(TypeError):
            FuzzyAutomaton(2, ("s",), ((triple,),), ends, ends)

    @pytest.mark.parametrize("triple", [(-1, 0, 0.5), (0, 2, 0.5)])
    def test_transition_states_are_in_range(self, triple):
        ends = FuzzySet((0.0, 0.0))
        with pytest.raises(ValueError):
            FuzzyAutomaton(2, ("s",), ((triple,),), ends, ends)

    def test_an_index_object_is_stored_as_its_int(self):
        class Index:
            def __init__(self, n):
                self.n = n

            def __index__(self):
                return self.n

        ends = FuzzySet((0.0, 0.0))
        a = FuzzyAutomaton(2, ("s",), (((Index(0), Index(1), 0.5),),), ends, ends)
        assert [tuple(map(type, t)) for t in a.transitions[0]] == [(int, int, float)]
        assert a.transitions == (((0, 1, 0.5),),)
        with pytest.raises(ValueError):
            FuzzyAutomaton(2, ("s",), (((Index(0), Index(-1), 0.5),),), ends, ends)

    def test_symbol_relation(self):
        a, _ = chain_pair()
        assert a.symbol_relation(0) == relation(
            2, 2, [(0, 1, 0.4), (1, 1, 0.5)])


class TestBuildIndex:
    def test_chain_layout(self):
        a, _ = chain_pair()
        index = build_index(a)
        assert index.succ[0][0] == ((1, 0.4),)
        assert index.succ[0][1] == ((1, 0.5),)
        assert index.pred[0][1] == ((0, 0.4), (1, 0.5))
        assert index.pred[0][0] == ()

    def test_no_transitions(self):
        bare = FuzzyAutomaton.build(["s"], ["q", "r"], {"q": 1.0}, {"r": 1.0}, [])
        index = build_index(bare)
        assert all(not lst for per in index.succ for lst in per)
        assert all(not lst for per in index.pred for lst in per)

    def test_self_loop_mirrors(self):
        a = loop_automaton(0.9)
        index = build_index(a)
        assert index.succ[0][0] == ((0, 0.9),) == index.pred[0][0]

    def test_views_hold_the_same_triples(self):
        spec = RandomAutomatonSpec(num_states=5, num_symbols=2,
                                   transition_density=0.5, seed=3)
        a = generate_automaton(spec)
        index = build_index(a)
        from_succ = {(s, x, y, d)
                     for s, per in enumerate(index.succ)
                     for x, lst in enumerate(per)
                     for y, d in lst}
        from_pred = {(s, x, y, d)
                     for s, per in enumerate(index.pred)
                     for y, lst in enumerate(per)
                     for x, d in lst}
        assert from_succ == from_pred
        assert len(from_succ) == sum(len(t) for t in a.transitions)


class TestLanguage:
    def test_empty_word(self, st):
        a, _ = chain_pair()
        assert language_eval(st, a, ()) == 0.0

    def test_single_step(self, st):
        a, _ = chain_pair()
        assert language_eval(st, a, word_from_names(a, ["s"])) == pytest.approx(
            0.4, abs=1e-9)

    def test_two_steps_product(self):
        _, b = chain_pair()
        value = language_eval(structure("product"), b, (0, 0))
        assert value == pytest.approx(0.16, abs=1e-12)

    def test_unknown_symbol(self, st):
        a, _ = chain_pair()
        with pytest.raises(UnknownSymbol):
            language_eval(st, a, (3,))
        with pytest.raises(UnknownSymbol):
            word_from_names(a, ["t"])

    def test_bounded_zero(self, st):
        a, _ = chain_pair()
        table = language_bounded(st, a, 0)
        assert set(table) == {()}
        assert table[()] == 0.0

    def test_bounded_one_godel(self):
        a, _ = chain_pair()
        table = language_bounded(structure("godel"), a, 1)
        assert table == {(): 0.0, (0,): 0.4}

    def test_bounded_loop(self, st):
        a = loop_automaton(1.0)
        assert language_bounded(st, a, 2) == {(): 1.0, (0,): 1.0, (0, 0): 1.0}

    def test_bounded_matches_eval(self, st):
        rng = random.Random(21)
        for seed in range(10):
            a = generate_automaton(RandomAutomatonSpec(
                num_states=4, num_symbols=2, transition_density=0.5, seed=seed))
            table = language_bounded(st, a, 3)
            for _ in range(5):
                word = tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
                assert table[word] == pytest.approx(
                    language_eval(st, a, word), abs=1e-12)

    def test_eval_monotone_in_transition_degrees(self, st):
        for seed in range(5):
            a = generate_automaton(RandomAutomatonSpec(
                num_states=4, num_symbols=1, transition_density=0.6, seed=seed))
            if not a.transitions[0]:
                continue
            rng = random.Random(seed)
            triples = list(a.transitions[0])
            i = rng.randrange(len(triples))
            x, y, d = triples[i]
            triples[i] = (x, y, min(1.0, d + 0.2))
            raised = FuzzyAutomaton(
                num_states=a.num_states, alphabet=a.alphabet,
                transitions=(tuple(triples),), initial=a.initial,
                terminal=a.terminal, state_names=a.state_names)
            before = language_bounded(st, a, 3)
            after = language_bounded(st, raised, 3)
            for word, degree in before.items():
                assert after[word] >= degree - 1e-12

    def test_word_cap(self):
        a = generate_automaton(RandomAutomatonSpec(
            num_states=2, num_symbols=2, transition_density=0.5, seed=0))
        with pytest.raises(WordCapExceeded):
            language_bounded(structure("godel"), a, 20)  # 2**21 words


# Degrees at the edges of [0, 1], beside any float in it: the smallest
# subnormal, the smallest normal and the largest float below 1.
edge_degrees = (strat.sampled_from((0.0, 5e-324, 2.0 ** -1022, 1.0 - 2.0 ** -53, 1.0))
                | strat.floats(0.0, 1.0))


@strat.composite
def norm_cases(draw):
    """Two transition-free automata and a relation between their states."""
    def degrees(size):
        return draw(strat.lists(edge_degrees, min_size=size, max_size=size))

    n_a, n_b = draw(strat.integers(1, 4)), draw(strat.integers(1, 4))
    a, b = (FuzzyAutomaton(n, ("s",), ((),), FuzzySet(degrees(n)), FuzzySet((0.0,) * n))
            for n in (n_a, n_b))
    return a, b, FuzzyRelation(n_a, n_b, [degrees(n_b) for _ in range(n_a)])


class TestNorms:
    @given(case=norm_cases())
    def test_sim_norm_is_the_dense_inclusion(self, st, case):
        # min(1, min_x sigma_A(x) => max_x' sigma_B(x') (x) R(x, x')). The
        # t-norm takes its operands in the other order than in sim_norm, so
        # the two agree bit for bit only as long as (C) holds.
        a, b, rel = case
        pulled = [max(st.tnorm(sb, r) for sb, r in zip(b.initial, row))
                  for row in rel.degrees]
        expected = min(1.0, *map(st.residuum, a.initial, pulled))
        assert sim_norm(st, rel, a, b) == expected

    def test_sim_norm_godel(self):
        a, b = chain_pair()
        rel = relation(2, 2, [(0, 0, 1.0), (0, 1, 1.0), (1, 1, 0.4)])
        assert sim_norm(structure("godel"), rel, a, b) == 1.0

    def test_bisim_norm_lukasiewicz(self):
        a, b = chain_pair()
        rel = relation(2, 2, [(0, 0, 0.5), (0, 1, 0.2), (1, 1, 0.5)])
        assert bisim_norm(structure("lukasiewicz"), rel, a, b) == pytest.approx(
            0.5, abs=1e-9)

    def test_empty_relation_norm(self, st):
        a, b = chain_pair()
        assert sim_norm(st, FuzzyRelation(2, 2), a, b) == 0.0


class TestJson:
    def test_round_trip(self):
        a, _ = chain_pair()
        assert automaton_from_json(automaton_to_json(a)) == a

    def test_round_trip_random(self):
        a = generate_automaton(RandomAutomatonSpec(
            num_states=5, num_symbols=2, transition_density=0.4, seed=11))
        assert automaton_from_json(automaton_to_json(a)) == a

    def test_missing_end_states_default_to_zero(self):
        doc = {
            "alphabet": ["s"],
            "states": ["q", "r"],
            "initial": {"q": 1.0},
            "terminal": {},
            "transitions": [],
        }
        a = automaton_from_json(doc)
        assert a.terminal == FuzzySet((0.0, 0.0))

    def test_rejects_out_of_range_degree(self):
        doc = {
            "alphabet": ["s"],
            "states": ["q"],
            "initial": {},
            "terminal": {},
            "transitions": [{"from": "q", "symbol": "s", "to": "q", "degree": 0.0}],
        }
        with pytest.raises(InputFormatError):
            automaton_from_json(doc)
        doc["transitions"][0]["degree"] = 1.2
        with pytest.raises(InputFormatError):
            automaton_from_json(doc)

    def test_rejects_missing_keys(self):
        with pytest.raises(InputFormatError):
            automaton_from_json({"alphabet": ["s"]})

    @pytest.mark.parametrize("key", ["initial", "terminal"])
    def test_rejects_boolean_end_degree(self, key):
        doc = automaton_to_json(chain_pair()[0])
        doc[key] = {"u": True}
        with pytest.raises(InputFormatError):
            automaton_from_json(doc)

    def test_rejects_boolean_transition_degree(self):
        doc = automaton_to_json(chain_pair()[0])
        doc["transitions"][0]["degree"] = True
        with pytest.raises(InputFormatError):
            automaton_from_json(doc)

    @pytest.mark.parametrize("where", ["initial", "terminal", "transition"])
    def test_rejects_string_degree(self, where):
        doc = automaton_to_json(chain_pair()[0])
        if where == "transition":
            doc["transitions"][0]["degree"] = "0.5"
        else:
            doc[where] = {"u": "1"}
        with pytest.raises(InputFormatError):
            automaton_from_json(doc)


def test_loop_pair_shapes():
    a, b = loop_pair(0.1)
    assert a.num_states == b.num_states == 1
    assert b.transitions[0][0][2] == pytest.approx(0.9)

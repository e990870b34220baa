import pytest

from fuzzbound import (
    And,
    Dia,
    Equiv,
    FuzzyRelation,
    Imp,
    Tau,
    compose_rel_set,
    compute_dbbisim,
    compute_dbsim,
    constant_pool_for,
    eval_formula,
    format_formula,
    formula_bound_relation,
    formula_depth,
    hm_check_bisim,
    hm_check_sim,
    in_dialect,
    parse_formula,
    random_formula,
    rel_leq,
    structure,
)
from fuzzbound.errors import DegreeRangeError, DialectError, FormulaSyntaxError
from fuzzbound.logic import MAX_NESTING, Formula, _children
from fuzzbound.oracle import RandomAutomatonSpec, generate_automaton

WORKED = "(s . (s . (0.9 -> T)))"

# Refused inputs, each with the message and the position it is refused at.
DEEP = "(" * (MAX_NESTING + 1) + "T" + ")" * (MAX_NESTING + 1)
REFUSED = [
    ("", "expected a formula, found end of input", 0),
    ("  ", "expected a formula, found end of input", 2),
    ("T T", "trailing input 'T'", 2),
    ("(s ! T)", "unexpected character '!'", 3),
    ("(s . T", "expected ')', found end of input", 6),
    ("(s T)", "expected '.', found 'T'", 3),
    ("(0.5 T)", "expected '->' or '<->' after a constant, found 'T'", 5),
    ("(0.5", "expected '->' or '<->' after a constant, found end of input", 4),
    ("(1.5 -> T)", "constant 1.5 outside [0, 1]", 1),
    ("(T", "expected '&', found end of input", 2),
    ("(T &", "expected a formula, found end of input", 4),
    ("((T & T)", "expected '&', found end of input", 8),
    ("(s . T))", "trailing input ')'", 7),
    ("(0.5 -> )", "expected a formula, found ')'", 8),
    ("x", "expected a formula, found 'x'", 0),
    (DEEP, f"formula nests deeper than {MAX_NESTING} parentheses", MAX_NESTING),
]


# Objects that are not formulas, alone or as a node's child.
NOT_FORMULAS = [5, None, "T", Formula(), Dia("s0", 5), And(Tau(), None)]


def formula_size(formula) -> int:
    """The number of nodes in the formula's tree."""
    return 1 + sum(map(formula_size, _children(formula)))


class TestParser:
    def test_worked_formula(self):
        assert parse_formula(WORKED) == Dia("s", Dia("s", Imp(0.9, Tau())))

    def test_tau(self):
        assert parse_formula("T") == Tau()
        assert parse_formula("  T  ") == Tau()

    def test_conjunction_and_equiv(self):
        assert parse_formula("((0.5 <-> T) & T)") == And(Equiv(0.5, Tau()), Tau())

    def test_unbalanced(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(s . T")

    def test_error_position(self):
        with pytest.raises(FormulaSyntaxError) as info:
            parse_formula("(s ! T)")
        assert info.value.position == 3

    def test_constant_out_of_range(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(1.5 -> T)")

    def test_trailing_garbage(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("T T")

    def test_missing_operator(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("(0.5 T)")

    def test_round_trip_worked(self):
        assert parse_formula(format_formula(parse_formula(WORKED))) == \
            parse_formula(WORKED)

    def test_round_trip_random(self):
        pool = (0.0, 0.25, 8 / 45, 1.0)
        for seed in range(60):
            for dialect in ("sim", "bisim"):
                formula = random_formula(dialect, 3, pool, ("s", "t"), seed)
                assert parse_formula(format_formula(formula)) == formula

    def test_nesting_cap(self, st, pair):
        a, _ = pair
        levels = MAX_NESTING - 1
        text = "(s . " * levels + "(0.9 -> T)" + ")" * levels
        formula = parse_formula(text)
        # Every recursive walker copes with a formula at the cap.
        assert formula_depth(formula) == levels
        assert in_dialect(formula, "sim")
        assert format_formula(formula) == text
        assert eval_formula(st, a, formula).size == a.num_states
        deeper = "(s . " * (MAX_NESTING + 1) + "T" + ")" * (MAX_NESTING + 1)
        with pytest.raises(FormulaSyntaxError) as info:
            parse_formula(deeper)
        assert info.value.position == 5 * MAX_NESTING

    def test_round_trip_tiny_constant(self):
        formula = Imp(1e-05, Tau())
        assert parse_formula(format_formula(formula)) == formula

    @pytest.mark.parametrize("text, message, position", REFUSED,
                             ids=[text[:12] or "empty" for text, *_ in REFUSED])
    def test_refused_input(self, text, message, position):
        with pytest.raises(FormulaSyntaxError) as info:
            parse_formula(text)
        assert str(info.value) == f"{message} (at position {position})"
        assert info.value.position == position


class TestShape:
    def test_depth_of_worked_formula(self):
        assert formula_depth(parse_formula(WORKED)) == 2

    def test_depth_of_tau(self):
        assert formula_depth(Tau()) == 0

    def test_depth_ignores_guards(self):
        assert formula_depth(Imp(0.3, Equiv(0.2, Tau()))) == 0
        assert formula_depth(And(Dia("s", Tau()), Tau())) == 1

    def test_dialects(self):
        assert in_dialect(Imp(0.5, Tau()), "sim")
        assert not in_dialect(Imp(0.5, Tau()), "bisim")
        assert in_dialect(Equiv(0.5, Tau()), "bisim")
        assert not in_dialect(Equiv(0.5, Tau()), "sim")
        assert in_dialect(Tau(), "sim") and in_dialect(Tau(), "bisim")

    # A dialect is named as a mode is everywhere else, by either name.
    def test_dialects_take_the_mode_names(self, pair):
        a, b = pair
        st = structure("godel")
        pool = constant_pool_for(a, b)
        for short, full in (("sim", "simulation"), ("bisim", "bisimulation")):
            for formula in (Imp(0.5, Tau()), Equiv(0.5, Tau())):
                assert in_dialect(formula, full) == in_dialect(formula, short)
                assert (formula_bound_relation(st, a, b, formula, full)
                        == formula_bound_relation(st, a, b, formula, short))
            assert (random_formula(full, 3, pool, a.alphabet, 7)
                    == random_formula(short, 3, pool, a.alphabet, 7))
        with pytest.raises(ValueError, match="unknown mode 'dbsim'"):
            in_dialect(Tau(), "dbsim")

    def test_guard_constant_validated(self):
        with pytest.raises(DegreeRangeError):
            Imp(1.2, Tau())

    # The printer writes a step's symbol as it is, so a symbol the parser
    # cannot read back is refused when the step is built.
    @pytest.mark.parametrize("symbol", ["a b", "T", "", "1x", "x-y", "\u00e9"])
    def test_step_symbol_is_an_identifier(self, symbol):
        with pytest.raises(ValueError, match=f"step symbol {symbol!r}"):
            Dia(symbol, Tau())
        with pytest.raises(ValueError, match=f"step symbol {symbol!r}"):
            random_formula("sim", 3, (0.5,), (symbol,), seed=0)

    @pytest.mark.parametrize("value", NOT_FORMULAS,
                             ids=[repr(v) for v in NOT_FORMULAS])
    @pytest.mark.parametrize("walker", [
        format_formula, formula_depth, lambda f: in_dialect(f, "sim"),
        lambda f: in_dialect(f, "bisim"),
        lambda f: eval_formula(structure("godel"), generate_automaton(
            RandomAutomatonSpec(2, 1, 0.5, seed=0)), f)],
        ids=["format", "depth", "sim-dialect", "bisim-dialect", "eval"])
    def test_walkers_refuse_a_non_formula(self, walker, value):
        with pytest.raises(TypeError, match="not a formula"):
            walker(value)


class TestEval:
    def test_worked_values(self, pair):
        a, b = pair
        formula = parse_formula(WORKED)
        expected = {
            "godel": (0.4, 0.4),
            "lukasiewicz": (0.0, 0.0),
            "product": (0.2, 8 / 45),
        }
        for name, (at_u, at_up) in expected.items():
            st = structure(name)
            assert eval_formula(st, a, formula).degrees[0] == pytest.approx(
                at_u, abs=1e-12)
            assert eval_formula(st, b, formula).degrees[0] == pytest.approx(
                at_up, abs=1e-12)

    def test_tau_is_terminal_set(self, st, pair):
        a, _ = pair
        assert eval_formula(st, a, Tau()) == a.terminal

    def test_diamond_unfolds_to_composition(self, st, pair):
        a, _ = pair
        direct = eval_formula(st, a, Dia("s", Tau()))
        composed = compose_rel_set(st, a.symbol_relation(0), a.terminal)
        assert direct.degrees == pytest.approx(composed.degrees, abs=1e-12)

    def test_unknown_symbol(self, st, pair):
        a, _ = pair
        from fuzzbound.errors import UnknownSymbol
        with pytest.raises(UnknownSymbol):
            eval_formula(st, a, Dia("t", Tau()))


class TestRandomFormula:
    def test_deterministic(self):
        pool = (0.0, 0.5, 1.0)
        first = random_formula("sim", 3, pool, ("s",), seed=42)
        second = random_formula("sim", 3, pool, ("s",), seed=42)
        assert first == second

    def test_depth_zero_has_no_diamonds(self):
        pool = (0.5,)
        for seed in range(50):
            formula = random_formula("sim", 0, pool, ("s",), seed)
            assert formula_depth(formula) == 0

    def test_depth_and_size_bounds(self):
        pool = (0.0, 0.5, 1.0)
        for seed in range(1000):
            formula = random_formula("bisim", 3, pool, ("s", "t"), seed)
            assert formula_depth(formula) <= 3
            assert formula_size(formula) <= 64
            assert in_dialect(formula, "bisim")

    # A bool or float depth would build a formula as for its value (True as
    # depth 1); the type is checked before the range.
    @pytest.mark.parametrize("depth", [True, False, 2.0, 1.5, -0.5])
    def test_depth_is_an_int(self, depth):
        with pytest.raises(TypeError):
            random_formula("sim", depth, (0.5,), ("s",), seed=0)

    @pytest.mark.parametrize("pool, symbols, what", [
        ((), ("s",), "constant_pool"), ((0.5,), (), "symbols")])
    def test_empty_choices_refused(self, pool, symbols, what):
        with pytest.raises(ValueError, match=f"{what} must not be empty"):
            random_formula("sim", 3, pool, symbols, seed=0)

    def test_constant_pool_helper(self, pair):
        a, b = pair
        pool = constant_pool_for(a, b)
        for value in (0.0, 0.4, 0.5, 0.8, 1.0):
            assert value in pool


class TestHennessyMilner:
    def test_empty_relation_always_passes(self, st, pair):
        a, b = pair
        empty = FuzzyRelation(2, 2)
        assert hm_check_sim(st, a, b, empty, parse_formula(WORKED), 2)
        assert hm_check_bisim(st, a, b, empty, Equiv(0.3, Tau()), 0)

    def test_worked_formula_against_component(self, pair):
        a, b = pair
        st = structure("lukasiewicz")
        phi2 = compute_dbsim(st, a, b, 2).relation
        assert hm_check_sim(st, a, b, phi2, parse_formula(WORKED), 2)

    def test_tau_against_initial_component(self, st, pair):
        a, b = pair
        phi0 = compute_dbsim(st, a, b, 0).relation
        assert hm_check_sim(st, a, b, phi0, Tau(), 0)

    def test_depth_violation_raises(self, st, pair):
        a, b = pair
        rel = FuzzyRelation(2, 2)
        with pytest.raises(DialectError):
            hm_check_sim(st, a, b, rel, parse_formula(WORKED), 1)

    def test_dialect_violation_raises(self, st, pair):
        a, b = pair
        rel = FuzzyRelation(2, 2)
        with pytest.raises(DialectError):
            hm_check_sim(st, a, b, rel, Equiv(0.5, Tau()), 3)
        with pytest.raises(DialectError):
            hm_check_bisim(st, a, b, rel, Imp(0.5, Tau()), 3)

    # A float or bool bound would be compared with the formula's depth as a
    # number: 2.5 would admit depth 2, and True depth 1.
    @pytest.mark.parametrize("bound", [2.0, 2.5, True, False])
    def test_depth_bound_is_an_int(self, pair, bound):
        a, b = pair
        st = structure("godel")
        rel = FuzzyRelation(2, 2)
        for check in (hm_check_sim, hm_check_bisim):
            with pytest.raises(TypeError):
                check(st, a, b, rel, Tau(), bound)

    def test_depth_bound_may_be_an_index(self, pair):
        class Two:
            def __index__(self):
                return 2

        a, b = pair
        st = structure("godel")
        rel = FuzzyRelation(2, 2)
        assert hm_check_sim(st, a, b, rel, parse_formula(WORKED), Two())
        with pytest.raises(DialectError):
            hm_check_sim(st, a, b, rel, Dia("s", parse_formula(WORKED)), Two())

    def test_random_formulas_preserved(self, st):
        for seed in range(4):
            a = generate_automaton(RandomAutomatonSpec(
                num_states=4, num_symbols=2, transition_density=0.5, seed=seed))
            b = generate_automaton(RandomAutomatonSpec(
                num_states=5, num_symbols=2, transition_density=0.5,
                seed=seed + 77))
            pool = constant_pool_for(a, b)
            depth = seed % 4 + 1
            sim = compute_dbsim(st, a, b, depth).relation
            bis = compute_dbbisim(st, a, b, depth).relation
            for j in range(30):
                formula = random_formula("sim", depth, pool, a.alphabet,
                                         seed * 1000 + j)
                assert hm_check_sim(st, a, b, sim, formula, depth)
                bound = formula_bound_relation(st, a, b, formula, "sim")
                assert rel_leq(st, sim, bound)
                formula = random_formula("bisim", depth, pool, a.alphabet,
                                         seed * 1000 + j)
                assert hm_check_bisim(st, a, b, bis, formula, depth)
                bound = formula_bound_relation(st, a, b, formula, "bisim")
                assert rel_leq(st, bis, bound)

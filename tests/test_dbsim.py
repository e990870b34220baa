import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as strat

from fuzzbound import (
    FuzzyAutomaton,
    FuzzyRelation,
    FuzzySet,
    Structure,
    check_bisim,
    check_dbbisim_prefix,
    check_dbsim_prefix,
    check_sim,
    compose_rel_rel,
    compute_dbbisim,
    compute_dbsim,
    custom_structure,
    greatest_fixpoint,
    naive_dbsim,
    prefix_norm,
    rel_leq,
    structure,
)
from fuzzbound import dbsim
from fuzzbound.automata import build_index
from fuzzbound.errors import AlphabetMismatch, DegreeRangeError, DimensionMismatch
from fuzzbound.oracle import RandomAutomatonSpec, generate_automaton

from conftest import (
    STRUCTURE_NAMES,
    assert_rel_close,
    chain_pair,
    identity,
    is_zero,
    loop_pair,
    relation,
)


def rel2(entries: dict) -> FuzzyRelation:
    """2x2 relation between the chain pair's state sets; keys are (row, col)."""
    return relation(2, 2, [(r, c, v) for (r, c), v in entries.items()])


KERNEL = dbsim._kernel  # picks a structure's kernel; tests wrap dbsim._kernel

# Components of the greatest depth-bounded simulation between the chain pair,
# per structure, as {step: relation}; "inf" holds the plateau value.
SIM_TABLE = {
    "godel": {0: rel2({(0, 0): 1, (0, 1): 1, (1, 1): 0.8}),
              "inf": rel2({(0, 0): 1, (0, 1): 1, (1, 1): 0.4})},
    "lukasiewicz": {0: rel2({(0, 0): 1, (0, 1): 1, (1, 1): 0.8}),
                    1: rel2({(0, 0): 0.9, (0, 1): 0.8, (1, 1): 0.7}),
                    2: rel2({(0, 0): 0.8, (0, 1): 0.7, (1, 1): 0.6}),
                    3: rel2({(0, 0): 0.7, (0, 1): 0.6, (1, 1): 0.5}),
                    "inf": rel2({(0, 0): 0.6, (0, 1): 0.6, (1, 1): 0.5})},
}

BISIM_TABLE = {
    "godel": {0: rel2({(0, 0): 1, (1, 1): 0.8}),
              "inf": rel2({(0, 0): 0.4, (1, 1): 0.4})},
    "lukasiewicz": {0: rel2({(0, 0): 1, (0, 1): 0.2, (1, 1): 0.8}),
                    1: rel2({(0, 0): 0.7, (0, 1): 0.2, (1, 1): 0.7}),
                    2: rel2({(0, 0): 0.6, (0, 1): 0.2, (1, 1): 0.6}),
                    "inf": rel2({(0, 0): 0.5, (0, 1): 0.2, (1, 1): 0.5})},
}


def random_pair(seed, num_states=4, num_symbols=2, density=0.5):
    a = generate_automaton(RandomAutomatonSpec(
        num_states=num_states, num_symbols=num_symbols,
        transition_density=density, seed=seed))
    b = generate_automaton(RandomAutomatonSpec(
        num_states=num_states, num_symbols=num_symbols,
        transition_density=density, seed=seed + 10_000))
    return a, b


class TestSimulationGolden:
    @pytest.mark.parametrize("name", ["godel", "lukasiewicz"])
    def test_table(self, name):
        a, b = chain_pair()
        result = compute_dbsim(structure(name), a, b, 8, trace=True)
        table = SIM_TABLE[name]
        for step, expected in table.items():
            if step == "inf":
                for n in range(5, 9):
                    assert_rel_close(result.component(n), expected)
            else:
                assert_rel_close(result.component(step), expected)

    def test_table_product(self):
        a, b = chain_pair()
        result = compute_dbsim(structure("product"), a, b, 10, trace=True)
        assert_rel_close(result.component(0), SIM_TABLE["godel"][0])
        for n in range(1, 11):
            expected = rel2({(0, 0): 0.8 ** (n - 1), (0, 1): 0.8 ** n,
                             (1, 1): 0.8 ** (n + 1)})
            assert_rel_close(result.component(n), expected)
        assert result.fixpoint_at is None

    def test_depth_zero_is_terminal_residuum(self, st):
        a, b = random_pair(17)
        result = compute_dbsim(st, a, b, 0)
        expected = [[st.residuum(tx, ty) for ty in b.terminal.degrees]
                    for tx in a.terminal.degrees]
        assert_rel_close(result.relation, FuzzyRelation(
            a.num_states, b.num_states, tuple(tuple(r) for r in expected)))

    def test_loop_pair_lukasiewicz(self):
        a, b = loop_pair(0.1)
        result = compute_dbsim(structure("lukasiewicz"), a, b, 4)
        assert result.relation.degrees[0][0] == pytest.approx(0.6, abs=1e-9)


class TestBisimulationGolden:
    @pytest.mark.parametrize("name", ["godel", "lukasiewicz"])
    def test_table(self, name):
        a, b = chain_pair()
        result = compute_dbbisim(structure(name), a, b, 8, trace=True)
        table = BISIM_TABLE[name]
        for step, expected in table.items():
            if step == "inf":
                for n in range(4, 9):
                    assert_rel_close(result.component(n), expected)
            else:
                assert_rel_close(result.component(step), expected)

    def test_table_product(self):
        a, b = chain_pair()
        result = compute_dbbisim(structure("product"), a, b, 8, trace=True)
        assert_rel_close(result.component(0), BISIM_TABLE["godel"][0])
        for n in range(1, 9):
            expected = rel2({(0, 0): 0.8 ** (n + 1), (1, 1): 0.8 ** (n + 1)})
            assert_rel_close(result.component(n), expected)


class TestChainShape:
    def test_prefix_is_decreasing(self, st):
        for seed in range(6):
            a, b = random_pair(seed)
            for compute in (compute_dbsim, compute_dbbisim):
                result = compute(st, a, b, 6, trace=True)
                for later, earlier in zip(result.prefix[1:], result.prefix):
                    assert rel_leq(st, later, earlier)
                for later, earlier in zip(result.norms[1:], result.norms):
                    assert later <= earlier + 1e-12

    def test_fixpoint_repeats(self, st):
        a, b = chain_pair()
        result = compute_dbsim(st, a, b, 30, trace=True)
        if result.fixpoint_at is not None:
            assert result.fixpoint_at == len(result.prefix) - 1
            again = compute_dbsim(st, a, b, result.fixpoint_at + 5, trace=True)
            assert again.relation == result.relation

    def test_trace_off_keeps_only_last(self, st):
        a, b = chain_pair()
        result = compute_dbsim(st, a, b, 3)
        assert len(result.prefix) == 1
        traced = compute_dbsim(st, a, b, 3, trace=True)
        assert result.relation == traced.relation
        assert result.norms == traced.norms
        with pytest.raises(ValueError):
            result.component(1)

    def test_alphabet_mismatch(self, st):
        a, _ = chain_pair()
        other = generate_automaton(RandomAutomatonSpec(
            num_states=2, num_symbols=2, transition_density=0.5, seed=1))
        with pytest.raises(AlphabetMismatch):
            compute_dbsim(st, a, other, 2)

    def test_negative_depth(self, st):
        a, b = chain_pair()
        with pytest.raises(ValueError):
            compute_dbsim(st, a, b, -1)


class TestDefinitionCheckers:
    def test_empty_relation_is_simulation(self, st):
        a, b = chain_pair()
        assert check_sim(st, a, b, FuzzyRelation(2, 2))

    def test_golden_simulation_accepted(self):
        a, b = chain_pair()
        rel = rel2({(0, 0): 1, (0, 1): 1, (1, 1): 0.4})
        assert check_sim(structure("godel"), a, b, rel)

    def test_raised_entry_rejected(self):
        a, b = chain_pair()
        rel = rel2({(0, 0): 1, (0, 1): 1, (1, 1): 0.5})
        assert not check_sim(structure("godel"), a, b, rel)

    def test_bisim_checker_golden(self):
        a, b = chain_pair()
        assert check_bisim(structure("lukasiewicz"), a, b,
                           rel2({(0, 0): 0.5, (0, 1): 0.2, (1, 1): 0.5}))

    def test_bisim_checker_rejects_failing_inverse(self):
        # A simulation whose inverse is not one: only the mirrored direction
        # fails.
        a, b = chain_pair()
        st = structure("godel")
        rel = rel2({(0, 0): 1, (0, 1): 1, (1, 1): 0.4})
        assert check_sim(st, a, b, rel)
        assert not check_bisim(st, a, b, rel)

    def test_shape_mismatch(self, st):
        a, b = chain_pair()
        with pytest.raises(DimensionMismatch):
            check_sim(st, a, b, FuzzyRelation(3, 2))

    def test_constant_prefix_of_simulation(self, st):
        a, b = chain_pair()
        fixed = greatest_fixpoint(st, a, b, "sim", max_iters=300, tol=1e-12)
        rel = fixed.relation
        assert check_dbsim_prefix(st, a, b, [rel, rel, rel])

    def test_computed_prefixes_conform(self, st):
        for seed in range(8):
            a, b = random_pair(seed, num_states=5)
            sim = compute_dbsim(st, a, b, 5, trace=True)
            assert check_dbsim_prefix(st, a, b, sim.prefix)
            bis = compute_dbbisim(st, a, b, 5, trace=True)
            assert check_dbbisim_prefix(st, a, b, bis.prefix)

    def test_simulation_chain_is_not_a_bisimulation_chain(self, st):
        a, b = chain_pair()
        chain = compute_dbsim(st, a, b, 4, trace=True).prefix
        assert check_dbsim_prefix(st, a, b, chain)
        assert not check_dbbisim_prefix(st, a, b, chain)

    def test_increasing_chain_rejected(self, st):
        a, b = chain_pair()
        low = rel2({(0, 0): 0.3})
        high = rel2({(0, 0): 0.9})
        assert not check_dbsim_prefix(st, a, b, [low, high])

    def test_fixpoint_is_plain_simulation(self, st):
        for seed in range(6):
            a, b = random_pair(seed)
            result = compute_dbsim(st, a, b, 60)
            if result.fixpoint_at is not None:
                assert check_sim(st, a, b, result.relation)
            result = compute_dbbisim(st, a, b, 60)
            if result.fixpoint_at is not None:
                assert check_bisim(st, a, b, result.relation)

    def test_greatestness_of_components(self, st):
        rng = random.Random(99)
        for seed in range(6):
            a, b = random_pair(seed)
            result = compute_dbsim(st, a, b, 4, trace=True)
            lowered = []
            running = None
            for rel in result.prefix:
                grid = [[v * rng.choice((1.0, 1.0, 0.9, 0.5)) for v in row]
                        for row in rel.degrees]
                if running is not None:
                    grid = [[min(v, p) for v, p in zip(row, prow)]
                            for row, prow in zip(grid, running)]
                running = grid
                lowered.append(FuzzyRelation(
                    rel.rows, rel.cols, tuple(tuple(r) for r in grid)))
            if check_dbsim_prefix(st, a, b, lowered):
                for low, high in zip(lowered, result.prefix):
                    assert rel_leq(st, low, high)

    def test_check_cost_grows_like_a_round(self):
        # t-norm calls, not time: the composition pairs only positive cells,
        # so a check costs about n^2 x out-degree, and doubling n should
        # multiply the count by about 4 (a dense composition gives 8).
        calls = [0]
        luk = structure("lukasiewicz")

        def counted(x, y):
            calls[0] += 1
            return luk.tnorm(x, y)

        st = custom_structure(counted, luk.residuum)
        counts = []
        for n in (50, 100, 200):
            a, b = random_pair(n, num_states=n, num_symbols=2, density=3 / n)
            prefix = compute_dbsim(luk, a, b, 4, trace=True).prefix
            calls[0] = 0
            assert check_dbsim_prefix(st, a, b, prefix)
            counts.append(calls[0])
        for small, large in zip(counts, counts[1:]):
            assert large <= 5 * small, counts


class TestGreatestFixpoint:
    def test_godel_simulation(self):
        a, b = chain_pair()
        result = greatest_fixpoint(structure("godel"), a, b, "sim")
        assert result.status == "fixpoint"
        assert_rel_close(result.relation, SIM_TABLE["godel"]["inf"])
        assert result.norms[-1] == pytest.approx(1.0, abs=1e-9)

    def test_godel_bisimulation(self):
        a, b = chain_pair()
        result = greatest_fixpoint(structure("godel"), a, b, "bisim")
        assert result.status == "fixpoint"
        assert_rel_close(result.relation, BISIM_TABLE["godel"]["inf"])
        assert result.norms[-1] == pytest.approx(0.4, abs=1e-9)

    def test_lukasiewicz_both_modes(self):
        a, b = chain_pair()
        st = structure("lukasiewicz")
        sim = greatest_fixpoint(st, a, b, "sim")
        assert sim.status == "fixpoint"
        assert_rel_close(sim.relation, SIM_TABLE["lukasiewicz"]["inf"])
        assert sim.norms[-1] == pytest.approx(0.6, abs=1e-9)
        bis = greatest_fixpoint(st, a, b, "bisim")
        assert bis.status == "fixpoint"
        assert_rel_close(bis.relation, BISIM_TABLE["lukasiewicz"]["inf"])
        assert bis.norms[-1] == pytest.approx(0.5, abs=1e-9)

    def test_product_converges_to_empty(self):
        a, b = chain_pair()
        result = greatest_fixpoint(structure("product"), a, b, "sim",
                                   max_iters=200, tol=1e-6)
        assert result.status == "tol"
        assert all(v <= 1e-4 for row in result.relation.degrees for v in row)

    def test_cap_status(self):
        a, b = chain_pair()
        result = greatest_fixpoint(structure("product"), a, b, "sim",
                                   max_iters=3, tol=0.0)
        assert result.status == "cap"

    def test_bad_mode(self, st):
        a, b = chain_pair()
        with pytest.raises(ValueError):
            greatest_fixpoint(st, a, b, "similarity")

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_bad_tol(self, tol):
        a, b = chain_pair()
        other = FuzzyAutomaton.build(["t"], ["w"], {"w": 1.0}, {}, [])
        # Refused before the automata are looked at.
        for right in (b, other):
            with pytest.raises(ValueError, match="tol must be a finite number"):
                greatest_fixpoint(structure("godel"), a, right, "sim", tol=tol)

    @staticmethod
    def two_step_pair():
        # In round 1 the s- and t-constraints lower phi(p, p') 1.0 -> 0.9 ->
        # 0.8, each by 0.1, and round 2 lowers nothing under Godel.
        transitions = [("p", "s", "q", 1.0), ("p", "t", "q", 1.0),
                       ("q", "s", "q", 1.0), ("q", "t", "q", 1.0)]
        a = FuzzyAutomaton.build(["s", "t"], ["p", "q"], {"p": 1.0},
                                 {"q": 1.0}, transitions)
        b = FuzzyAutomaton.build(
            ["s", "t"], ["p'", "q'"], {"p'": 1.0}, {"q'": 1.0},
            [("p'", "s", "q'", 0.9), ("p'", "t", "q'", 0.8),
             ("q'", "s", "q'", 1.0), ("q'", "t", "q'", 1.0)])
        return a, b

    def test_tol_bounds_single_lowerings(self):
        # Each lowering of round 1 is within tol, the two together are not.
        # The tolerance applies to each lowering, so the iteration stops there.
        a, b = self.two_step_pair()
        result = greatest_fixpoint(structure("godel"), a, b, "sim", tol=0.15)
        assert result.status == "tol" and result.fixpoint_at is None
        assert len(result.norms) == 2
        assert result.relation.degrees[0][0] == 0.8
        # Without the tolerance, the next round is the fixpoint.
        exact = greatest_fixpoint(structure("godel"), a, b, "sim", tol=0.0)
        assert exact.status == "fixpoint" and exact.fixpoint_at == 1


def counted_passes(monkeypatch):
    """Wrap the pass of every kernel dbsim._kernel picks; return the list
    that gets an item per call."""
    calls = []

    def counted_kernel(st):
        run_pass, row_norms = KERNEL(st)

        def counted(*args):
            calls.append(None)
            return run_pass(*args)
        return counted, row_norms

    monkeypatch.setattr(dbsim, "_kernel", counted_kernel)
    return calls


class TestStopRules:
    # Where a run cuts the chain: tol is tested before the iteration bound,
    # the bound stops before the next round, and a round that lowers nothing
    # makes the component before it the fixpoint. The kernel calls show that
    # no round runs past the cut, which the outputs alone would not.

    @pytest.mark.parametrize("max_iters,tol,expected,passes", [
        (1, 0.15, ("tol", None, 2), 1),
        (1, 0.0, ("cap", None, 2), 1),
        (2, 0.0, ("fixpoint", 1, 2), 2),
        (3, 0.0, ("fixpoint", 1, 2), 2),
        (2, 0.15, ("tol", None, 2), 1),
    ])
    def test_greatest_boundaries(self, monkeypatch, max_iters, tol, expected,
                                 passes):
        a, b = TestGreatestFixpoint.two_step_pair()
        calls = counted_passes(monkeypatch)
        result = greatest_fixpoint(structure("godel"), a, b, "sim",
                                   max_iters=max_iters, tol=tol)
        assert (result.status, result.fixpoint_at, len(result.norms)) == expected
        assert len(calls) == passes

    def test_depth_at_and_past_the_fixpoint(self):
        a, b = chain_pair()
        st = structure("godel")
        for compute in (compute_dbsim, compute_dbbisim):
            stable = compute(st, a, b, 30).fixpoint_at
            assert stable == 1
            at = compute(st, a, b, stable, trace=True)
            assert (at.status, at.fixpoint_at, len(at.prefix)) == (
                "depth", None, stable + 1)
            past = compute(st, a, b, stable + 1, trace=True)
            assert (past.status, past.fixpoint_at, len(past.prefix)) == (
                "fixpoint", stable, stable + 1)
            assert past.prefix == at.prefix

    @pytest.mark.parametrize("name,k,sim_passes,bisim_passes", [
        ("godel", 0, 0, 0),
        ("product", 0, 0, 0),
        ("product", 3, 3, 6),
        ("godel", 30, 2, 4),
    ])
    def test_kernel_calls(self, monkeypatch, name, k, sim_passes, bisim_passes):
        a, b = chain_pair()
        st = structure(name)
        calls = counted_passes(monkeypatch)
        for compute, passes in ((compute_dbsim, sim_passes),
                                (compute_dbbisim, bisim_passes)):
            calls.clear()
            compute(st, a, b, k)
            assert len(calls) == passes


class TestIntegerBounds:
    # A depth or iteration cap is an int: a float such as 2.5 never equals a
    # round index, so the cap would be ignored and the run go on to the
    # fixpoint (without end under product, where there may be none).

    @pytest.mark.parametrize("bound", [2.5, 2.0])
    def test_float_depth_is_refused(self, bound):
        a, b = chain_pair()
        for compute in (compute_dbsim, compute_dbbisim):
            with pytest.raises(TypeError):
                compute(structure("godel"), a, b, bound)

    @pytest.mark.parametrize("bound", [1.5, 2.0])
    def test_float_max_iters_is_refused(self, bound):
        a, b = chain_pair()
        with pytest.raises(TypeError):
            greatest_fixpoint(structure("product"), a, b, "sim", max_iters=bound)

    # A bool is an int to operator.index: True would run one round.
    @pytest.mark.parametrize("bound", [True, False])
    def test_bool_depth_is_refused(self, bound):
        a, b = chain_pair()
        for compute in (compute_dbsim, compute_dbbisim):
            with pytest.raises(TypeError, match="'bool' object"):
                compute(structure("godel"), a, b, bound)

    def test_bool_max_iters_is_refused(self):
        a, b = chain_pair()
        with pytest.raises(TypeError, match="'bool' object"):
            greatest_fixpoint(structure("product"), a, b, "sim", max_iters=True)

    def test_index_types_are_ints(self):
        class Depth:
            def __index__(self):
                return 1

        a, b = chain_pair()
        result = compute_dbsim(structure("godel"), a, b, Depth(), trace=True)
        assert type(result.requested) is int and len(result.prefix) == 2

    @pytest.mark.parametrize("tol", [True, False])
    def test_bool_tol_is_refused(self, tol):
        a, b = chain_pair()
        with pytest.raises(ValueError, match="tol must be a finite number"):
            greatest_fixpoint(structure("godel"), a, b, "sim", tol=tol)


class TestPrefixNorm:
    def test_simulation_norms(self):
        a, b = chain_pair()
        result = compute_dbsim(structure("lukasiewicz"), a, b, 10, trace=True)
        assert prefix_norm(structure("lukasiewicz"), result.prefix, a, b,
                           "sim") == pytest.approx(0.6, abs=1e-9)
        godel = compute_dbsim(structure("godel"), a, b, 10, trace=True)
        assert prefix_norm(structure("godel"), godel.prefix, a, b,
                           "sim") == pytest.approx(1.0, abs=1e-9)

    def test_bisimulation_norms(self):
        a, b = chain_pair()
        result = compute_dbbisim(structure("godel"), a, b, 10, trace=True)
        assert prefix_norm(structure("godel"), result.prefix, a, b,
                           "bisim") == pytest.approx(0.4, abs=1e-9)

    def test_auto_simulation_norm_is_one(self, st):
        for seed in range(4):
            a, _ = random_pair(seed)
            result = greatest_fixpoint(st, a, a, "sim", max_iters=40, tol=1e-9,
                                       trace=True)
            assert prefix_norm(st, result.prefix, a, a, "sim") == pytest.approx(
                1.0, abs=1e-9)

    def test_norm_agrees_with_result_norms(self, st):
        # prefix_norm is computed by sim_norm/bisim_norm, independently of
        # the per-round norm the computation records.
        pairs = [chain_pair()] + [random_pair(seed, num_states=seed % 4 + 1)
                                  for seed in range(6)]
        for a, b in pairs:
            for mode, compute in (("sim", compute_dbsim),
                                  ("bisim", compute_dbbisim)):
                result = compute(st, a, b, 6, trace=True)
                assert prefix_norm(st, result.prefix, a, b, mode) == pytest.approx(
                    min(result.norms), abs=1e-12)
                per_component = [prefix_norm(st, [rel], a, b, mode)
                                 for rel in result.prefix]
                assert per_component == pytest.approx(list(result.norms), abs=1e-12)

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3), (1, 2)])
    @pytest.mark.parametrize("mode", ["sim", "bisim"])
    def test_shape_mismatch(self, shape, mode):
        a, b = chain_pair()
        rel = FuzzyRelation(*shape, tuple((0.5,) * shape[1] for _ in range(shape[0])))
        with pytest.raises(DimensionMismatch):
            prefix_norm(structure("godel"), [rel], a, b, mode)


def compose_prefixes(st, left, right):
    """Componentwise composition of two equally long chains."""
    return [compose_rel_rel(st, p, q) for p, q in zip(left, right, strict=True)]


class TestComposePrefixes:
    def test_identity_right_unit(self, st):
        a, b = chain_pair()
        result = compute_dbsim(st, a, b, 3, trace=True)
        composed = compose_prefixes(st, result.prefix,
                                    [identity(2)] * len(result.prefix))
        for got, expected in zip(composed, result.prefix):
            assert_rel_close(got, expected)

    def test_empty_left_annihilates(self, st):
        empty = [FuzzyRelation(2, 2)] * 3
        other = [identity(2)] * 3
        assert all(map(is_zero, compose_prefixes(st, empty, other)))

    def test_composition_is_valid_prefix(self, st):
        for seed in range(5):
            a, b = random_pair(seed)
            c = generate_automaton(RandomAutomatonSpec(
                num_states=3, num_symbols=2, transition_density=0.5,
                seed=seed + 500))
            left = compute_dbsim(st, a, b, 4, trace=True)
            right = compute_dbsim(st, b, c, 4, trace=True)
            depth = min(len(left.prefix), len(right.prefix))
            composed = compose_prefixes(st, left.prefix[:depth],
                                        right.prefix[:depth])
            assert check_dbsim_prefix(st, a, c, composed)
            norm_left = prefix_norm(st, left.prefix[:depth], a, b, "sim")
            norm_right = prefix_norm(st, right.prefix[:depth], b, c, "sim")
            norm_composed = prefix_norm(st, composed, a, c, "sim")
            assert st.tnorm(norm_left, norm_right) <= norm_composed + 1e-9


class TestCustomStructure:
    @staticmethod
    def nilpotent_minimum():
        from fuzzbound import custom_structure

        return custom_structure(
            tnorm=lambda x, y: min(x, y) if x + y > 1.0 else 0.0,
            residuum=lambda x, y: 1.0 if x <= y else max(1.0 - x, y),
        )

    def test_pipeline_accepts_custom_pair(self):
        st = self.nilpotent_minimum()
        from fuzzbound import naive_dbsim

        for seed in range(5):
            a, b = random_pair(seed)
            for mode, compute in (("sim", compute_dbsim),
                                  ("bisim", compute_dbbisim)):
                expected = naive_dbsim(st, a, b, 5, mode)
                result = compute(st, a, b, 5, trace=True)
                for step, rel in enumerate(expected):
                    assert_rel_close(result.component(step), rel, tol=1e-12)
            assert check_dbsim_prefix(
                st, a, b, compute_dbsim(st, a, b, 5, trace=True).prefix)

    def test_degree_below_zero_after_first_round_is_refused(self):
        # A residuum that maps 0.4 to 0.35 and 0.35 out of range. 0.35 is
        # first a bound in round 2, so only that round calls the residuum
        # with it; the structure checks the result at the call.
        special = {0.4: 0.35, 0.35: -0.5}
        st = custom_structure(
            tnorm=min,
            residuum=lambda x, y: 1.0 if x <= y else special.get(y, y))
        idle = [f"i{n}" for n in range(30)]
        a = FuzzyAutomaton.build(
            ["s"], ["p", "q", "r"] + idle, {"p": 1.0}, {"r": 1.0},
            [("p", "s", "q", 1.0), ("q", "s", "r", 1.0)])
        b = FuzzyAutomaton.build(
            ["s"], ["p'", "q'", "r'"], {"p'": 1.0}, {"r'": 0.5},
            [("p'", "s", "q'", 1.0), ("q'", "s", "r'", 0.4)])
        assert compute_dbsim(st, a, b, 1).relation.degrees[1][1] == 0.35
        with pytest.raises(DegreeRangeError, match="-0.5"):
            compute_dbsim(st, a, b, 2)

    def test_adjunction_spot_check(self):
        st = self.nilpotent_minimum()
        rng = random.Random(4)
        for _ in range(2000):
            x, y, z = rng.random(), rng.random(), rng.random()
            assert (st.tnorm(x, y) <= z) == (x <= st.residuum(y, z))


def chain_repr(result) -> str:
    """Everything a result holds, compared bit for bit by repr."""
    return repr((result.status, result.fixpoint_at, result.norms,
                 [rel.degrees for rel in result.prefix]))


class TestLawPruning:
    # The kernel skips the calls that the laws (L1), (L2) and (L3) of
    # dbsim's _pass show cannot lower a cell; the outputs stay naive_dbsim's
    # bit for bit.

    @staticmethod
    def fan_pair(d1, d2, end2):
        # x -s-> y (1.0) on the left; x' -s-> y1' (d1) and x' -s-> y2' (d2) on
        # the right, y1' terminal in 1.0 and y2' in end2. Every state of the
        # left is terminal in 1.0, so phi_1(x, x') is the bound
        # max(d1 (x) 1.0, d2 (x) end2) under any residuum with 1.0 => b = b.
        a = FuzzyAutomaton.build(["s"], ["x", "y"], {"x": 1.0},
                                 {"x": 1.0, "y": 1.0}, [("x", "s", "y", 1.0)])
        b = FuzzyAutomaton.build(
            ["s"], ["x'", "y1'", "y2'"], {"x'": 1.0},
            {"x'": 1.0, "y1'": 1.0, "y2'": end2},
            [("x'", "s", "y1'", d1), ("x'", "s", "y2'", d2)])
        return a, b

    @staticmethod
    def assert_naive(st, a, b, depth):
        for mode, compute in (("sim", compute_dbsim), ("bisim", compute_dbbisim)):
            expected = naive_dbsim(st, a, b, depth, mode)
            result = compute(st, a, b, depth, trace=True)
            assert [rel.degrees for rel in result.prefix] == [
                rel.degrees for rel in expected[:len(result.prefix)]]
            assert result.relation == expected[-1]

    # Every Lukasiewicz t-norm value is a multiple of 2**-52, so none lies
    # between a degree d' and its cap d' (x) 1.0 (0.1 (x) 1.0 is
    # 0.10000000000000009): there, a bound never equals d' while the term of
    # d' still raises it. RAISED_UNIT keeps L1 and L2 with d' (x) 1.0 just
    # above d' and unrounded values: 0.6 (x) 0.5 makes the bound exactly 0.5,
    # and 0.5 (x) 1.0 must still raise it; a sup that stopped at the first
    # d' <= bound would end at 0.5.
    RAISED_UNIT = custom_structure(
        tnorm=lambda x, y: (min(x, y) if y < 1.0 or x == 0.0
                            else min(math.nextafter(x, 2.0), 1.0)),
        residuum=structure("godel").residuum)

    @pytest.mark.parametrize("st,d1,d2,end2,expected", [
        (structure("lukasiewicz"), 0.1, 0.6, 0.4, 0.10000000000000009),
        (RAISED_UNIT, 0.5, 0.6, 0.5, math.nextafter(0.5, 1.0)),
    ], ids=["lukasiewicz", "raised-unit"])
    def test_cap_is_the_tnorm_at_one(self, st, d1, d2, end2, expected):
        a, b = self.fan_pair(d1, d2, end2)
        assert st.tnorm(d1, 1.0) == expected
        assert compute_dbsim(st, a, b, 1).relation.degrees[0][0] == expected
        self.assert_naive(st, a, b, 3)

    # Calls through the structure on the pair below at k = 4 (bisimulation,
    # the initial grid and the norms included), made by the kernel before the
    # pruning, which takes one t-norm per successor and one residuum per
    # predecessor of every pair a round visits: (t-norm, residuum). The
    # initial grid then took two residuum calls per cell, 20000; it now takes
    # two per cell of one row per distinct terminal degree, 2200 here.
    UNPRUNED = {"godel": (350927, 320434), "lukasiewicz": (497582, 439027),
                "product": (351003, 320526)}

    @staticmethod
    def counted_calls(name):
        # (t-norm, residuum) calls of the bisimulation below, whose chain
        # must equal the uncounted built-in's.
        base = structure(name)
        calls = [0, 0]

        def tnorm(x, y):
            calls[0] += 1
            return base.tnorm(x, y)

        def residuum(x, y):
            calls[1] += 1
            return base.residuum(x, y)

        a, b = random_pair(3, num_states=100, num_symbols=2, density=3 / 100)
        counted = compute_dbbisim(custom_structure(tnorm, residuum), a, b, 4,
                                  trace=True)
        assert chain_repr(counted) == chain_repr(
            compute_dbbisim(base, a, b, 4, trace=True))
        return calls

    @pytest.mark.parametrize("name", STRUCTURE_NAMES)
    def test_pruned_kernel_makes_fewer_calls(self, name):
        calls = self.counted_calls(name)
        # Measured: 0.26/0.07 (Godel), 0.28/0.11 (Lukasiewicz) and 0.27/0.11
        # (product) of the unpruned counts, with every round after the first
        # a revisit round.
        for made, unpruned in zip(calls, self.UNPRUNED[name]):
            assert made <= 0.7 * unpruned, (calls, self.UNPRUNED[name])

    def test_settled_cells_cost_no_calls(self):
        # By (L3) a pair whose cells are all at or below their floors
        # d => 0.0 is left before its bound is taken. Without that, the
        # Lukasiewicz bisimulation made 282891 t-norm and 183511 residuum
        # calls (20000 of them for the initial grid); measured with it:
        # 141217 and 49687 (2200 for the initial grid).
        calls = self.counted_calls("lukasiewicz")
        for made, without in zip(calls, (282891, 183511)):
            assert made <= 0.6 * without, calls

    def test_cell_at_one_floor_is_lowered_by_another_transition(self):
        # x -s-> y (0.7) and x -t-> z (0.9) on the left; x' has an s- but no
        # t-transition. phi_0(x, x') = 0.7 => 0.0 is exactly the floor of the
        # s-transition, so that transition cannot lower it, but the
        # t-transition's floor 0.9 => 0.0 lies below it, and there the bound
        # is 0: phi_1(x, x') is that floor.
        st = structure("lukasiewicz")
        a = FuzzyAutomaton.build(
            ["s", "t"], ["x", "y", "z"], {"x": 1.0}, {"x": 0.7, "y": 1.0, "z": 1.0},
            [("x", "s", "y", 0.7), ("x", "t", "z", 0.9)])
        b = FuzzyAutomaton.build(
            ["s", "t"], ["x'", "y'"], {"x'": 1.0}, {"y'": 1.0},
            [("x'", "s", "y'", 1.0)])
        result = compute_dbsim(st, a, b, 1, trace=True)
        assert result.component(0)[0, 0] == st.residuum(0.7, 0.0)
        assert result.relation[0, 0] == st.residuum(0.9, 0.0) < st.residuum(0.7, 0.0)
        self.assert_naive(st, a, b, 3)

    @pytest.mark.parametrize("name", ["godel", "product"])
    def test_rows_emptied_mid_run_match_naive(self, name):
        # Rows and columns of phi empty in rounds 1 and 2 while other cells
        # stay positive and are lowered in the next round; both passes of
        # the next round leave out the empty rows of their working grid.
        st = structure(name)
        a, b = random_pair(8, num_states=6, num_symbols=2, density=0.4)
        result = compute_dbbisim(st, a, b, 6, trace=True)
        for i in (1, 2):
            before, after = result.prefix[i - 1].degrees, result.prefix[i].degrees
            assert any(any(p) and not any(q) for p, q in zip(before, after))
            assert any(any(p) and not any(q)
                       for p, q in zip(zip(*before), zip(*after)))
            assert any(map(any, after)) and result.prefix[i + 1] != result.prefix[i]
        expected = naive_dbsim(st, a, b, 6, "bisim")
        assert [rel.degrees for rel in result.prefix] == [
            rel.degrees for rel in expected[:len(result.prefix)]]
        assert result.relation == expected[-1]


# Degrees the fixed populations miss: 1.0, the smallest subnormal, the
# largest float below 1.0, and a sum that rounds.
EDGE_DEGREES = (1.0, 5e-324, 1.0 - 2 ** -53, 0.5, 0.1 + 0.2)
TOP = 1.0 - 2 ** -53


def edge_automaton(transitions, initial, terminal):
    """States 0..len(initial)-1; one tuple of (x, y, d) per symbol."""
    return FuzzyAutomaton(len(initial), tuple("abc"[:len(transitions)]),
                          transitions, FuzzySet(initial), FuzzySet(terminal))


@strat.composite
def edge_pairs(draw):
    """Pairs of 1-4 states each over 1-3 symbols. A transition slot is empty
    more often than not, so states without successors and symbols without
    transitions are common."""
    symbols = draw(strat.integers(1, 3))
    slot = strat.sampled_from((None,) * 5 + EDGE_DEGREES)
    end = strat.sampled_from((0.0,) + EDGE_DEGREES)

    def automaton():
        n = draw(strat.integers(1, 4))
        transitions = tuple(
            tuple((x, y, d) for x in range(n) for y in range(n)
                  for d in [draw(slot)] if d is not None)
            for _ in range(symbols))
        ends = strat.lists(end, min_size=n, max_size=n)
        return edge_automaton(transitions, draw(ends), draw(ends))

    return automaton(), automaton()


class TestEdgeShapesAgainstOracle:
    # Traced compute_* against naive_dbsim on shapes and degrees the fixed
    # populations miss; derandomized, so every run draws the same pairs.
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(pair=edge_pairs(), k=strat.integers(0, 4))
    @example(pair=(edge_automaton((((0, 0, TOP),),), (1.0,), (5e-324,)),
                   edge_automaton(((),), (1.0,), (1.0,))), k=4)
    @example(pair=(edge_automaton((((0, 0, 5e-324),), ()), (1.0,), (TOP,)),
                   edge_automaton((((0, 1, 1.0), (1, 2, TOP), (0, 2, 5e-324)), ()),
                                  (1.0, 0.0, 5e-324), (0.0, TOP, 1.0))), k=4)
    @example(pair=(edge_automaton((((0, 1, 1.0), (1, 2, 0.5), (2, 2, TOP)),),
                                  (TOP, 0.0, 1.0), (5e-324, 0.5, 1.0)),
                   edge_automaton((((0, 1, 5e-324),),), (1.0, TOP), (1.0, 5e-324))),
             k=4)
    def test_traced_chain_matches_naive(self, pair, k):
        a, b = pair
        for name in STRUCTURE_NAMES:
            st = structure(name)
            for mode, compute in (("sim", compute_dbsim), ("bisim", compute_dbbisim)):
                expected = naive_dbsim(st, a, b, k, mode)
                result = compute(st, a, b, k, trace=True)
                stable = next((i - 1 for i in range(1, k + 1)
                               if expected[i] == expected[i - 1]), None)
                assert result.fixpoint_at == stable, (name, mode)
                for step, rel in enumerate(expected):
                    got = result.component(step)
                    assert (got.rows, got.cols) == (rel.rows, rel.cols)
                    gap = max((abs(e - g) for erow, grow in zip(rel.degrees, got.degrees)
                               for e, g in zip(erow, grow)), default=0.0)
                    assert gap <= 1e-12, (name, mode, step, gap)


class TestStartGrid:
    def test_equal_terminal_degrees_are_lowered_apart(self):
        # p' and q' are terminal in 1.0 alike, so their rows of phi_0 are
        # equal; then q' has no s-transition and p' one to r' (terminal 0.4),
        # so the rounds lower the two rows to different values.
        a = FuzzyAutomaton.build(["s"], ["x", "y"], {"x": 1.0},
                                 {"x": 1.0, "y": 1.0}, [("x", "s", "y", 1.0)])
        b = FuzzyAutomaton.build(
            ["s"], ["p'", "q'", "r'"], {"p'": 1.0}, {"p'": 1.0, "q'": 1.0, "r'": 0.4},
            [("p'", "s", "r'", 0.9)])
        for name in STRUCTURE_NAMES:
            st = structure(name)
            for compute in (compute_dbsim, compute_dbbisim):
                result = compute(st, a, b, 3, trace=True)
                first = result.component(0)
                assert [row[0] for row in first.degrees] == [row[1] for row in first.degrees]
                lowered = result.component(1)
                assert lowered[0, 1] == 0.0 < lowered[0, 0], (name, compute.__name__)
            TestLawPruning.assert_naive(st, a, b, 3)


class _Walked(list):
    """A predecessor list that logs its tag each time it is walked."""

    def __init__(self, items, tag, log):
        super().__init__(items)
        self.tag, self.log = tag, log

    def __iter__(self):
        self.log.append(self.tag)
        return super().__iter__()


class _Read(list):
    """A row of the working grid that logs its state each time a cell is read."""

    def __init__(self, items, xp, log):
        super().__init__(items)
        self.xp, self.log = xp, log

    def __getitem__(self, x):
        self.log.append(self.xp)
        return super().__getitem__(x)


def logged_pass(st, grid, prev, caps, floors, *state):
    """Run the pass of st's kernel on logging copies of the predecessor lists and of
    grid's rows, copy its lowerings back into grid, and return its drop and
    its visits (symbol, x', y) in order: a visit walks the predecessor list
    of y, which logs (symbol, y), and then reads a cell of row x', which
    logs x'. ``state`` is the pass's open masks and marks."""
    log = []
    walked = [[_Walked(pred_y, (s, y), log) for y, pred_y in enumerate(pred_s)]
              for s, pred_s in enumerate(floors)]
    rows = [_Read(row, xp, log) for xp, row in enumerate(grid)]
    drop = KERNEL(st)[0](st, rows, prev, caps, walked, *state)
    for row, read in zip(grid, rows):
        row[:] = read
    # A y without predecessors is never visited, not even to find no cell.
    assert all(floors[tag[0]][tag[1]] for tag in log if isinstance(tag, tuple))
    visits = []
    for tag, xp in zip(log, log[1:]):
        if isinstance(tag, tuple) and isinstance(xp, int):
            visit = (tag[0], xp, tag[1])
            if not visits or visits[-1] != visit:  # a pair may walk its list twice
                visits.append(visit)
    return drop, visits


@strat.composite
def pass_inputs(draw):
    """Automata of 1-12 states over 1-3 symbols with sparse transitions, so
    states without successors or predecessors are common; a previous
    relation, a set of its changed cells, some columns of it changed in
    every row, a working grid with some rows emptied, and a few pairs
    (symbol, x', y) closed before the pass."""
    symbols = draw(strat.integers(1, 3))
    degree = strat.sampled_from((0.0, 0.0, 0.3, 0.7, 1.0))

    def automaton(n):
        edges = strat.sets(strat.tuples(strat.integers(0, n - 1),
                                        strat.integers(0, n - 1)), max_size=2 * n)
        transitions = tuple(
            tuple((x, y, draw(strat.sampled_from(EDGE_DEGREES)))
                  for x, y in sorted(draw(edges)))
            for _ in range(symbols))
        return edge_automaton(transitions, (1.0,) * n, (1.0,) * n)

    n_a, n_b = draw(strat.integers(1, 12)), draw(strat.integers(1, 12))
    a, b = automaton(n_a), automaton(n_b)
    prev = tuple(tuple(draw(degree) for _ in range(n_b)) for _ in range(n_a))
    changed = draw(strat.sets(strat.tuples(strat.integers(0, n_a - 1),
                                           strat.integers(0, n_b - 1))))
    # A column changed in every row marks every y with predecessors.
    for yp in draw(strat.sets(strat.integers(0, n_b - 1))):
        changed |= {(y, yp) for y in range(n_a)}
    grid = [[draw(degree) for _ in range(n_a)] if draw(strat.booleans())
            else [0.0] * n_a for _ in range(n_b)]
    closed = draw(strat.sets(strat.tuples(strat.integers(0, symbols - 1),
                                          strat.integers(0, n_b - 1),
                                          strat.integers(0, n_a - 1)), max_size=4))
    return a, b, prev, changed, grid, closed


class TestRevisitPass:
    # The pairs (x', y) that the kernel's _pass visits, seen through logged_pass.

    @staticmethod
    def settled(floors, grid):
        """The pairs (symbol, x', y) whose cells are all at or below their
        floors, or at 0.0."""
        return {(s, xp, y) for s, pred_s in enumerate(floors)
                for xp, row in enumerate(grid) for y, pred_y in enumerate(pred_s)
                if all(row[x] <= max(floor, 0.0) for x, _, floor in pred_y)}

    @staticmethod
    def logged_kernel(monkeypatch):
        """Run every pass through logged_pass; return the list its visits
        go to."""
        visits = []

        def counted(st, grid, prev, caps, floors, *state):
            drop, made = logged_pass(st, grid, prev, caps, floors, *state)
            visits.extend(made)
            return drop

        monkeypatch.setattr(dbsim, "_kernel", lambda st: (counted, KERNEL(st)[1]))
        return visits

    # A Lukasiewicz pair settled by the floor 5e-324 => 0.0 = 1.0, whose
    # successor cell is marked again in the second pass.
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(inputs=pass_inputs(), name=strat.sampled_from(STRUCTURE_NAMES))
    @example(inputs=(edge_automaton((((0, 1, 5e-324),),), (1.0, 1.0), (1.0, 1.0)),
                     edge_automaton((((0, 0, 1.0),),), (1.0,), (1.0,)),
                     ((0.3,), (0.7,)), {(1, 0)}, [[0.7, 0.3]], set()),
             name="lukasiewicz")
    def test_revisited_pairs_are_those_reading_a_changed_cell(self, inputs, name):
        a, b, prev, changed, grid, closed = inputs
        st = structure(name)
        index_a, index_b = build_index(a), build_index(b)
        caps, floors, opened = dbsim._views(st, index_a, index_b, b.num_states)
        for s, xp, y in closed:
            opened[s][xp] &= ~(1 << y)
        marks = [0] * b.num_states
        for y, yp in changed:
            marks[yp] |= 1 << y

        def expected(shut, grid, marks):
            # Every open pair of a live row whose y has predecessors and that
            # reads a changed cell (every such pair if marks is None).
            live = [xp for xp, row in enumerate(grid) if any(row)]
            return [(s, xp, y) for s in range(a.num_symbols) for xp in live
                    for y in range(a.num_states) if index_a.pred[s][y]
                    if (s, xp, y) not in shut
                    if marks is None or any((y, yp) in changed
                                            for yp, _ in index_b.succ[s][xp])]

        for marking in (marks, None):
            work = [row[:] for row in grid]
            opens = [open_s[:] for open_s in opened]
            settled_before = self.settled(floors, work)
            _, first = logged_pass(st, work, prev, caps, floors, opens, marking)
            assert first == expected(closed, grid, marking)
            assert all(now & ~was == 0 for was_s, now_s in zip(opened, opens)
                       for was, now in zip(was_s, now_s))
            cleared = {(s, xp, y) for s, (was_s, now_s) in enumerate(zip(opened, opens))
                       for xp, (was, now) in enumerate(zip(was_s, now_s))
                       for y in range(a.num_states) if (was & ~now) >> y & 1}
            # The pass closes the pairs it finds settled: every visited pair
            # settled before it, and only pairs still settled after it.
            visited = set(first)
            assert settled_before & visited <= cleared
            assert cleared <= self.settled(floors, work) & visited
            # A closed pair is not visited again, though it reads the same
            # marked cells.
            _, second = logged_pass(st, work, prev, caps, floors, opens, marking)
            assert second == expected(closed | cleared, work, marking)

    # Pair visits, every pass of every round, of the Lukasiewicz
    # bisimulation below when a pair found settled stayed open: the kernel
    # then revisited it whenever it read a changed cell, only to leave it.
    VISITS_KEPT_OPEN = 12048

    def test_closing_settled_pairs_saves_visits(self, monkeypatch):
        st = structure("lukasiewicz")
        a, b = random_pair(2, num_states=30, num_symbols=2, density=0.1)
        visits = self.logged_kernel(monkeypatch)
        result = compute_dbbisim(st, a, b, 6, trace=True)
        # Measured: 7526 visits.
        assert len(visits) <= 0.8 * self.VISITS_KEPT_OPEN, len(visits)
        expected = naive_dbsim(st, a, b, 6, "bisim")
        assert [rel.degrees for rel in result.prefix] == [
            rel.degrees for rel in expected[:len(result.prefix)]]
        assert result.relation == expected[-1]

    def test_pair_settled_by_a_high_floor_is_visited_once(self, monkeypatch):
        # x -s-> y (0.1) on the left, so the Lukasiewicz floor of phi(x, x')
        # through it is 0.1 => 0.0 = 0.9, and phi_0(x, x') = 1.0 => 0.5 lies
        # below it: the pair (x', y) is settled from the start and found so
        # in round 1. The cell it reads, phi(y, y') with x' -s-> y', falls in
        # every round (y -s-> z -s-> z against y' -s-> y'), so without
        # closing the pair the kernel would visit it in every round.
        st = structure("lukasiewicz")
        a = FuzzyAutomaton.build(
            ["s"], ["x", "y", "z"], {"x": 1.0}, {"x": 1.0, "y": 1.0, "z": 1.0},
            [("x", "s", "y", 0.1), ("y", "s", "z", 0.9), ("z", "s", "z", 0.9)])
        b = FuzzyAutomaton.build(
            ["s"], ["x'", "y'"], {"x'": 1.0}, {"x'": 0.5, "y'": 1.0},
            [("x'", "s", "y'", 1.0), ("y'", "s", "y'", 0.8)])
        visits = self.logged_kernel(monkeypatch)
        result = compute_dbsim(st, a, b, 4, trace=True)
        assert result.component(0)[0, 0] == 0.5 <= st.residuum(0.1, 0.0)
        falls = [result.component(i)[1, 1] for i in range(4)]
        assert falls == sorted(set(falls), reverse=True), falls
        assert visits.count((0, 0, 1)) == 1
        TestLawPruning.assert_naive(st, a, b, 4)


# The edge degrees and the smallest normal float, 2**-1022, where the
# product residuum changes branch, with a few plain ones.
KERNEL_DEGREES = EDGE_DEGREES + (2.0 ** -1022, 0.7, 0.25)


@strat.composite
def kernel_pairs(draw):
    """Pairs of 1-12 states over 1-3 symbols with sparse transitions, every
    degree one of KERNEL_DEGREES (or 0.0, for initial and terminal ones)."""
    symbols = draw(strat.integers(1, 3))
    degree = strat.sampled_from(KERNEL_DEGREES)
    end = strat.sampled_from((0.0,) + KERNEL_DEGREES)

    def automaton():
        n = draw(strat.integers(1, 12))
        edges = strat.sets(strat.tuples(strat.integers(0, n - 1),
                                        strat.integers(0, n - 1)), max_size=3 * n)
        transitions = tuple(tuple((x, y, draw(degree)) for x, y in sorted(draw(edges)))
                            for _ in range(symbols))
        ends = strat.lists(end, min_size=n, max_size=n)
        return edge_automaton(transitions, draw(ends), draw(ends))

    return automaton(), automaton()


def routed(st):
    """st with its ops behind fresh functions: no built-in pair, so it runs
    the generic kernel, which calls them."""
    return Structure(st.kind, lambda x, y: st.tnorm(x, y),
                     lambda x, y: st.residuum(x, y))


class TestCompiledKernels:
    # A built-in structure runs the kernel text with its ops inlined; any
    # other pair runs the same text through calls.

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(pair=kernel_pairs(), name=strat.sampled_from(STRUCTURE_NAMES))
    def test_inlined_ops_equal_called_ones(self, pair, name):
        a, b = pair
        st = structure(name)
        called = routed(st)
        assert KERNEL(called) != KERNEL(st)
        for k in range(9):
            for compute in (compute_dbsim, compute_dbbisim):
                assert (chain_repr(compute(st, a, b, k, trace=True))
                        == chain_repr(compute(called, a, b, k, trace=True)))
        for mode in ("sim", "bisim"):
            for tol in (0.0, 1e-3):
                runs = [greatest_fixpoint(s, a, b, mode, max_iters=100, tol=tol,
                                          trace=True) for s in (st, called)]
                assert chain_repr(runs[0]) == chain_repr(runs[1])

    @pytest.mark.parametrize("name", STRUCTURE_NAMES)
    def test_builtin_kernels_call_no_op(self, name):
        for fn in KERNEL(structure(name)):
            code = fn.__code__
            assert {"st", "tnorm", "residuum"}.isdisjoint(code.co_names)
            assert {"tnorm", "residuum"}.isdisjoint(code.co_varnames)
            assert name in code.co_filename
        for fn in KERNEL(routed(structure(name))):
            assert "tnorm" in fn.__code__.co_varnames
            assert "generic" in fn.__code__.co_filename

    def test_the_cache_holds_the_builtin_pairs_only(self):
        a, b = chain_pair()
        for name in STRUCTURE_NAMES * 2:
            compute_dbbisim(structure(name), a, b, 2)
            compute_dbbisim(routed(structure(name)), a, b, 2)
        assert set(dbsim._KERNELS) <= {"generic", *STRUCTURE_NAMES}

    def test_a_traceback_names_the_kernel(self):
        def failing(x, y):
            if y < 1.0:  # every call before the kernel's has y = 1.0
                raise ArithmeticError
            return x

        a, b = chain_pair()
        st = custom_structure(failing, lambda x, y: 1.0 if x <= y else y)
        with pytest.raises(ArithmeticError) as info:
            compute_dbsim(st, a, b, 1)
        assert any(str(entry.path) == "<fuzzbound.dbsim kernel, generic>"
                   for entry in info.traceback)


def differing(new, old):
    """Per row, the set of columns where the two relations differ."""
    return [{c for c, (p, q) in enumerate(zip(row, old_row)) if p != q}
            for row, old_row in zip(new, old)]


def set_bits(mask):
    return {c for c in range(mask.bit_length()) if mask >> c & 1}


@strat.composite
def relation_pairs(draw):
    """Two relations of the same 1-8 by 1-8 shape, x-major, whose cells
    differ in a drawn set of places."""
    rows, cols = draw(strat.integers(1, 8)), draw(strat.integers(1, 8))
    degree = strat.sampled_from((0.0, 5e-324, 0.3, TOP, 1.0))
    old = [[draw(degree) for _ in range(cols)] for _ in range(rows)]
    new = [row[:] for row in old]
    for r, c in draw(strat.sets(strat.tuples(strat.integers(0, rows - 1),
                                             strat.integers(0, cols - 1)))):
        new[r][c] = draw(degree.filter(lambda v, was=old[r][c]: v != was))
    return tuple(map(tuple, new)), tuple(map(tuple, old))


WIDE = 4400  # wider than the 4300 digits Python reads into an int in base 10


class TestChangeMasks:
    # dbsim._diff reads the cells that differ per row as the bits of an int,
    # on x-major components (tuples) and on x'-major working grids (lists).

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(pair=relation_pairs())
    @example(pair=(((0.5,) * (WIDE - 1) + (0.25,), (1.0,) + (0.5,) * (WIDE - 1)),
                   ((0.5,) * WIDE, (0.5,) * WIDE)))
    def test_masks_are_the_differing_cells(self, pair):
        new, old = pair
        assert list(map(set_bits, dbsim._diff(new, old))) == differing(new, old)
        new_t, old_t = dbsim._transpose(new), dbsim._transpose(old)
        assert list(map(set_bits, dbsim._diff(new_t, old_t))) == differing(new_t, old_t)

    @pytest.mark.parametrize("name,mode,seed,states,density", [
        ("lukasiewicz", "sim", 4, 5, 0.5),
        ("lukasiewicz", "bisim", 1, 6, 0.4),
    ])
    def test_chain_through_a_dense_round_matches_naive(self, name, mode, seed,
                                                       states, density):
        # Round 2 changes more than half of the cells and round 3 fewer, so
        # rounds 3 and 4 revisit from a dense and then from a sparse change.
        st = structure(name)
        a, b = random_pair(seed, num_states=states, num_symbols=2, density=density)
        compute = compute_dbsim if mode == "sim" else compute_dbbisim
        result = compute(st, a, b, 6, trace=True)
        shares = [sum(map(len, differing(new.degrees, old.degrees))) / states ** 2
                  for old, new in zip(result.prefix, result.prefix[1:])]
        assert shares[1] > 0.5 > shares[2] > 0.0 < shares[3], shares
        expected = naive_dbsim(st, a, b, 6, mode)
        assert [rel.degrees for rel in result.prefix] == [
            rel.degrees for rel in expected[:len(result.prefix)]]
        assert result.relation == expected[-1]


class TestResultShape:
    def test_json_document(self):
        a, b = chain_pair()
        result = compute_dbsim(structure("godel"), a, b, 2, trace=True)
        doc = result.to_json()
        assert doc["mode"] == "simulation"
        assert doc["k"] == 2
        assert doc["phi_k"]["rows"] == 2
        assert len(doc["trace"]) == len(result.prefix)
        assert doc["status"] in ("depth", "fixpoint")

    def test_component_guard(self):
        a, b = chain_pair()
        result = compute_dbsim(structure("product"), a, b, 3, trace=True)
        with pytest.raises(ValueError):
            result.component(7)


class TestNegativeZero:
    # -0.0 is a degree in [0, 1] and is accepted where degrees enter, but it
    # is read in as 0.0: otherwise a -0.0 terminal degree came out as -0.0
    # cells under Godel and product, and equal start degrees differed in sign.

    @staticmethod
    def positive(v):
        return math.copysign(1.0, v) == 1.0

    @pytest.mark.parametrize("name", STRUCTURE_NAMES)
    def test_no_negative_zero_in_any_component_or_norm(self, name):
        st = structure(name)
        a = FuzzyAutomaton.build(["s"], ["x", "y"], {"x": 1.0, "y": -0.0},
                                 {"x": 1.0, "y": 0.5}, [("x", "s", "y", 0.7)])
        b = FuzzyAutomaton.build(["s"], ["x'", "y'"], {"x'": 1.0, "y'": -0.0},
                                 {"x'": -0.0, "y'": 1.0}, [("x'", "s", "y'", 0.3)])
        for left, right in ((a, b), (b, a)):
            for mode in ("sim", "bisim"):
                compute = compute_dbsim if mode == "sim" else compute_dbbisim
                for result in (compute(st, left, right, 3, trace=True),
                               greatest_fixpoint(st, left, right, mode, trace=True)):
                    assert all(self.positive(v) for rel in result.prefix
                               for row in rel.degrees for v in row)
                    assert all(map(self.positive, result.norms))

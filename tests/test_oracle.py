import hashlib

import pytest

from fuzzbound import (
    FuzzyAutomaton,
    FuzzyRelation,
    FuzzySet,
    bisim_norm,
    compute_dbbisim,
    compute_dbsim,
    generate_automaton,
    greatest_fixpoint,
    language_bounded,
    naive_dbsim,
    structure,
    verify_language_invariance,
    verify_language_preservation,
)
from fuzzbound.errors import AlphabetMismatch, DegreeRangeError, DimensionMismatch
from fuzzbound.oracle import DEFAULT_DEGREE_GRID, RandomAutomatonSpec

from conftest import assert_rel_close, chain_pair, loop_pair, relation


def max_rel_gap(a: FuzzyRelation, b: FuzzyRelation) -> float:
    return max(
        (abs(av - bv) for arow, brow in zip(a.degrees, b.degrees)
         for av, bv in zip(arow, brow)),
        default=0.0)


class TestGenerator:
    def test_deterministic(self):
        spec = RandomAutomatonSpec(num_states=5, num_symbols=2,
                                   transition_density=0.5, seed=123)
        assert generate_automaton(spec) == generate_automaton(spec)

    def test_zero_density_means_no_transitions(self):
        spec = RandomAutomatonSpec(num_states=4, num_symbols=2,
                                   transition_density=0.0, seed=5)
        assert not any(generate_automaton(spec).transitions)

    def test_samples_satisfy_invariants(self):
        # Construction re-validates, so generating is itself the check.
        for seed in range(100):
            a = generate_automaton(RandomAutomatonSpec(
                num_states=4, num_symbols=2, transition_density=0.5, seed=seed))
            assert all(0.0 < d <= 1.0
                       for triples in a.transitions for _, _, d in triples)

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            RandomAutomatonSpec(num_states=0, num_symbols=1,
                                transition_density=0.5)
        with pytest.raises(ValueError):
            RandomAutomatonSpec(num_states=1, num_symbols=1,
                                transition_density=1.5)

    @pytest.mark.parametrize("states, symbols", [
        (True, True), (2.0, 1), (2, 1.0), (1, True), (False, 1)])
    def test_counts_are_ints(self, states, symbols):
        with pytest.raises(TypeError):
            RandomAutomatonSpec(states, symbols, 0.5)

    @pytest.mark.parametrize("density", [True, False])
    def test_bool_density_is_refused(self, density):
        with pytest.raises(DegreeRangeError):
            RandomAutomatonSpec(2, 1, density)

    def test_the_benchmark_pools_are_pinned(self):
        # Every automaton the benchmark's pools are made of: per workload,
        # n states, 2 symbols, density min(1, 3 / n), and seeds base + 0..49
        # (25 entries, a pair each). Their digest was recorded before the
        # generator was last rewritten, so the random stream is unchanged.
        digest = hashlib.sha256()
        for n, base in ((200, 1_000_000), (100, 2_000_000), (80, 3_000_000)):
            for seed in range(base, base + 50):
                a = generate_automaton(RandomAutomatonSpec(n, 2, min(1.0, 3 / n), seed))
                digest.update(repr((a.transitions, a.initial.degrees,
                                    a.terminal.degrees)).encode())
        assert digest.hexdigest() == (
            "0f6353d4b1b1c70c9e68619f6ef5bd01830e643a717b97e518c695652d7a067d")


class TestNaiveRecurrence:
    def test_godel_plateau(self):
        a, b = chain_pair()
        chain = naive_dbsim(structure("godel"), a, b, 2, "sim")
        assert_rel_close(chain[2], relation(
            2, 2, [(0, 0, 1.0), (0, 1, 1.0), (1, 1, 0.4)]))

    def test_depth_zero_matches_algorithm(self, st):
        a, b = chain_pair()
        for mode, compute in (("sim", compute_dbsim), ("bisim", compute_dbbisim)):
            chain = naive_dbsim(st, a, b, 0, mode)
            assert len(chain) == 1
            assert max_rel_gap(chain[0], compute(st, a, b, 0).relation) == 0.0

    # A bool is an int to operator.index: True would run one round. The type
    # is checked before the range, as compute_dbsim's depth is.
    @pytest.mark.parametrize("k", [True, False, 2.0, -0.5])
    def test_depth_is_an_int(self, k):
        a, b = chain_pair()
        with pytest.raises(TypeError):
            naive_dbsim(structure("godel"), a, b, k)

    def test_alphabet_mismatch(self, st):
        a, _ = chain_pair()
        other = generate_automaton(RandomAutomatonSpec(
            num_states=2, num_symbols=2, transition_density=0.5, seed=1))
        with pytest.raises(AlphabetMismatch):
            naive_dbsim(st, a, other, 2)

    def test_matches_optimized_on_random_pairs(self, st):
        def random_automaton(states, density, seed, grid=None):
            a = generate_automaton(RandomAutomatonSpec(
                num_states=states, num_symbols=2,
                transition_density=density, seed=seed))
            if grid is None:
                return a
            # The generator draws from DEFAULT_DEGREE_GRID; its i-th degree
            # becomes the grid's, cycling, and 0.0 stays.
            swap = {0.0: 0.0, **dict(zip(DEFAULT_DEGREE_GRID, grid * 10))}
            return FuzzyAutomaton(
                states, a.alphabet,
                tuple(tuple((x, y, swap[d]) for x, y, d in triples)
                      for triples in a.transitions),
                FuzzySet(swap[v] for v in a.initial),
                FuzzySet(swap[v] for v in a.terminal))

        def cycle(prime, end):
            # One-symbol cycle c0 -> c1 -> ... -> c7 -> c0 of degree 1; c0 is
            # initial, and terminal in degree `end`.
            names = [f"c{i}{prime}" for i in range(8)]
            others = 0.0 if prime == "" else 1.0
            return FuzzyAutomaton.build(
                ["s"], names, {names[0]: 1.0},
                {name: end if i == 0 else others for i, name in enumerate(names)},
                [(x, "s", y, 1.0) for x, y in zip(names, names[1:] + names[:1])])

        pairs = [(random_automaton(4, 0.5, seed),
                  random_automaton(5, 0.5, seed + 1000), 6) for seed in range(30)]
        # Edge shapes, where the kernel's transposes would show shape bugs:
        # one state on either side, no transitions, an empty alphabet.
        no_symbols = [FuzzyAutomaton.build(
            [], states, {states[0]: 1.0}, {states[-1]: 0.6}, [])
            for states in (["p", "q", "r"], ["x", "y"])]
        pairs += [
            (random_automaton(1, 1.0, 1), random_automaton(1, 1.0, 2), 6),
            (random_automaton(1, 1.0, 3), random_automaton(5, 0.5, 4), 6),
            (random_automaton(4, 0.5, 5), random_automaton(1, 1.0, 6), 6),
            (random_automaton(3, 0.0, 7), random_automaton(4, 0.0, 8), 6),
            (random_automaton(3, 0.0, 9), random_automaton(2, 0.7, 10), 6),
            (*no_symbols, 6),
        ]
        # Rounds after the first that lower few cells, so later rounds
        # revisit only some pairs: sparse pairs, and a cycle pair where one
        # lowered cell (c0, c0') travels one step back per round.
        pairs += [(random_automaton(10 + seed % 2, 0.15, 40 + seed),
                   random_automaton(11 - seed % 2, 0.15, 50 + seed), 10)
                  for seed in range(6)]
        pairs.append((cycle("", 1.0), cycle("'", 0.5), 10))
        # Degrees at the edges of the floats: the smallest subnormal and
        # normal, 0.1 and 0.3 (whose Lukasiewicz caps 0.1 (x) 1.0 and
        # 0.3 (x) 1.0 differ from them), and the float just below 1.
        edge_grid = (5e-324, 2.0 ** -1022, 0.1, 0.3, 1.0 - 2.0 ** -53)
        pairs += [(random_automaton(4 + seed % 3, 0.5, 60 + seed, edge_grid),
                   random_automaton(6 - seed % 3, 0.5, 70 + seed, edge_grid), 6)
                  for seed in range(8)]
        for a, b, depth in pairs:
            for mode, compute in (("sim", compute_dbsim),
                                  ("bisim", compute_dbbisim)):
                expected = naive_dbsim(st, a, b, depth, mode)
                result = compute(st, a, b, depth, trace=True)
                fixed = greatest_fixpoint(st, a, b, mode, max_iters=depth,
                                          trace=True)
                for step, rel in enumerate(expected):
                    # Same lattice operations on the same operands: the
                    # chains agree bit for bit.
                    assert result.component(step) == rel
                    if step < len(fixed.norms) or fixed.fixpoint_at is not None:
                        assert fixed.component(step) == rel


class TestLanguagePreservation:
    def test_empty_relation_passes(self, st):
        a, b = chain_pair()
        report = verify_language_preservation(
            st, a, b, FuzzyRelation(2, 2), 3)
        assert report.ok and not report.violations

    def test_algorithm_outputs_pass(self, st):
        a, b = chain_pair()
        for depth in range(5):
            rel = compute_dbsim(st, a, b, depth).relation
            assert verify_language_preservation(st, a, b, rel, depth).ok

    def test_loop_pair_equality_case(self):
        st = structure("product")
        a, b = loop_pair(0.1)
        rel = compute_dbsim(st, a, b, 3).relation
        assert rel.degrees[0][0] == pytest.approx(0.9 ** 3, abs=1e-12)
        # Each automaton is initial in degree 1 at its only state, so its
        # language is the language of that state.
        bounded_a = language_bounded(st, a, 3)
        bounded_b = language_bounded(st, b, 3)
        words = sorted(bounded_a)
        inclusion = min(
            st.residuum(bounded_a[w], bounded_b[w]) for w in words)
        assert inclusion == pytest.approx(0.9 ** 3, abs=1e-12)
        assert verify_language_preservation(st, a, b, rel, 3).ok

    def test_violations_are_localized(self):
        st = structure("product")
        a, b = chain_pair()
        too_large = FuzzyRelation(2, 2, ((1.0, 1.0), (1.0, 1.0)))
        report = verify_language_preservation(st, a, b, too_large, 2)
        assert not report.ok
        assert all(v.lhs > v.rhs for v in report.violations)
        # Per state pair, words by length then lexicographically; norm-level
        # entries last.
        order = [(v.x is None, v.x or 0, v.xp or 0, len(v.word), v.word)
                 for v in report.violations]
        assert order == sorted(order) and order[-1][0]
        assert {type(v.x) for v in report.violations} == {int, type(None)}

    @pytest.mark.parametrize("shape", [(3, 2), (1, 2)])
    def test_shape_mismatch(self, shape):
        a, b = chain_pair()
        rel = FuzzyRelation(*shape, tuple((0.5,) * shape[1] for _ in range(shape[0])))
        with pytest.raises(DimensionMismatch):
            verify_language_preservation(structure("godel"), a, b, rel, 2)


class TestLanguageInvariance:
    def test_empty_relation_passes(self, st):
        a, b = chain_pair()
        assert verify_language_invariance(st, a, b, FuzzyRelation(2, 2), 3).ok

    def test_algorithm_outputs_pass(self, st):
        a, b = chain_pair()
        for depth in range(5):
            rel = compute_dbbisim(st, a, b, depth).relation
            assert verify_language_invariance(st, a, b, rel, depth).ok

    def test_self_pair_norm_bound(self, st):
        a, _ = chain_pair()
        rel = greatest_fixpoint(st, a, a, "bisim", max_iters=60,
                                tol=1e-9).relation
        report = verify_language_invariance(st, a, a, rel, 3)
        assert report.ok
        assert bisim_norm(st, rel, a, a) == pytest.approx(1.0, abs=1e-9)


class TestMonotoneDegradation:
    def test_loop_pair_gap_stays_nonnegative(self):
        st = structure("product")
        a, b = loop_pair(0.1)
        result = compute_dbsim(st, a, b, 10, trace=True)
        values = []
        inclusions = []
        for n in range(11):
            value = result.component(n).degrees[0][0]
            bounded_a = language_bounded(st, a, n)
            bounded_b = language_bounded(st, b, n)
            inclusion = min(
                st.residuum(bounded_a[w], bounded_b[w]) for w in bounded_a)
            assert inclusion - value >= -1e-12
            values.append(value)
            inclusions.append(inclusion)
        assert all(x >= y - 1e-12 for x, y in zip(values, values[1:]))
        assert all(x >= y - 1e-12 for x, y in zip(inclusions, inclusions[1:]))

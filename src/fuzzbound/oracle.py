"""Independent brute-force verifiers and random-instance generators.

The dense recurrence here recomputes depth-bounded (bi)simulation chains with
straight quintuple loops and no early exit; it is the anti-bug oracle the
optimized computation is compared against. The language verifiers enumerate
the words up to a bound once, each with the vector of degrees in which every
state accepts it, and check the preservation/invariance inequalities word by
word.
"""

from __future__ import annotations

import random
from typing import Optional

from .automata import (
    MODE_BISIM,
    FuzzyAutomaton,
    FuzzyRelation,
    bisim_norm,
    build_index,
    canonical_mode,
    pull_back,
    require_same_alphabet,
    require_word_bound,
    sim_norm,
)
from .fuzzy import FuzzySet
from .lattice import Frozen, Structure, as_int, validate_degree

DEFAULT_DEGREE_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


class RandomAutomatonSpec(Frozen):
    """Parameters for deterministic random automaton generation."""

    __slots__ = ("num_states", "num_symbols", "transition_density", "seed")

    def __init__(self, num_states: int, num_symbols: int, transition_density: float,
                 seed: int = 0):
        self._init(as_int(num_states, 1, "num_states"),
                   as_int(num_symbols, 1, "num_symbols"),
                   validate_degree(transition_density, "transition_density"), seed)


def generate_automaton(spec: RandomAutomatonSpec) -> FuzzyAutomaton:
    """Density-controlled random automaton, identical for identical specs.

    Each (symbol, source, target) slot becomes a transition with the given
    probability and a degree drawn from ``DEFAULT_DEGREE_GRID``;
    initial/terminal degrees are drawn from the grid extended with 0 so empty
    supports occur too.
    """
    rng = random.Random(spec.seed)
    draw, choice, density = rng.random, rng.choice, spec.transition_density
    states = range(spec.num_states)
    end_grid = (0.0,) + DEFAULT_DEGREE_GRID
    alphabet = tuple(f"s{i}" for i in range(spec.num_symbols))
    # Each slot's draw, then a hit's degree, before the next slot's draw.
    transitions = tuple(
        tuple([(x, y, choice(DEFAULT_DEGREE_GRID))
               for x in states for y in states if draw() < density])
        for _ in alphabet)
    initial = FuzzySet(tuple(choice(end_grid) for _ in states))
    terminal = FuzzySet(tuple(choice(end_grid) for _ in states))
    return FuzzyAutomaton(
        num_states=spec.num_states,
        alphabet=alphabet,
        transitions=transitions,
        initial=initial,
        terminal=terminal,
    )


def naive_dbsim(st: Structure, a: FuzzyAutomaton, b: FuzzyAutomaton, k: int,
                mode: str = "sim") -> list[FuzzyRelation]:
    """The chain phi_0..phi_k by the dense recurrence, with no early exit.

    O(k * |alphabet| * n^4); intended for oracle-scale inputs only.
    """
    require_same_alphabet(a, b)
    k = as_int(k, 0, "depth")
    bisim = canonical_mode(mode) == MODE_BISIM
    tnorm = st.tnorm
    residuum = st.residuum
    na = a.num_states
    nb = b.num_states
    delta_a = [a.symbol_relation(s).degrees for s in range(a.num_symbols)]
    delta_b = [b.symbol_relation(s).degrees for s in range(b.num_symbols)]
    init_op = st.biresiduum if bisim else residuum
    cur = [[init_op(tx, ty) for ty in b.terminal.degrees]
           for tx in a.terminal.degrees]
    chain = [FuzzyRelation(na, nb, tuple(tuple(row) for row in cur))]
    for _ in range(k):
        prev = cur
        nxt = [[0.0] * nb for _ in range(na)]
        for x in range(na):
            for xp in range(nb):
                value = prev[x][xp]
                for s in range(a.num_symbols):
                    da = delta_a[s]
                    db = delta_b[s]
                    for y in range(na):
                        bound = 0.0
                        for yp in range(nb):
                            v = tnorm(db[xp][yp], prev[y][yp])
                            if v > bound:
                                bound = v
                        r = residuum(da[x][y], bound)
                        if r < value:
                            value = r
                    if bisim:
                        for yp in range(nb):
                            bound = 0.0
                            for y in range(na):
                                v = tnorm(da[x][y], prev[y][yp])
                                if v > bound:
                                    bound = v
                            r = residuum(db[xp][yp], bound)
                            if r < value:
                                value = r
                nxt[x][xp] = value
        cur = nxt
        chain.append(FuzzyRelation(na, nb, tuple(tuple(row) for row in cur)))
    return chain


class Violation(Frozen):
    """One witnessed failure of a language inequality.

    ``x``/``xp`` are None for failures of the norm-level inequality.
    """

    __slots__ = ("x", "xp", "word", "lhs", "rhs")

    def __init__(self, x: Optional[int], xp: Optional[int], word: tuple[int, ...],
                 lhs: float, rhs: float):
        self._init(x, xp, word, lhs, rhs)


class VerificationReport(Frozen):
    __slots__ = ("ok", "violations")

    def __init__(self, ok: bool, violations: tuple[Violation, ...] = ()):
        self._init(ok, violations)


def _verify_languages(st: Structure, a: FuzzyAutomaton, b: FuzzyAutomaton,
                      rel: FuzzyRelation, n: int,
                      invariance: bool) -> VerificationReport:
    require_same_alphabet(a, b)
    n = require_word_bound(a, n)
    require_word_bound(b, n)  # each word holds a degree per state of b too
    tnorm = st.tnorm
    compare = st.biresiduum if invariance else st.residuum
    eps = st.eps_cmp
    norm = (bisim_norm if invariance else sim_norm)(st, rel, a, b)
    related = [(x, xp, value) for x, row in enumerate(rel.degrees)
               for xp, value in enumerate(row) if value > eps]
    succ_a = build_index(a).succ
    succ_b = build_index(b).succ
    violations: list[Violation] = []
    norm_violations: list[Violation] = []

    # Words by length, then lexicographically; each carries, per automaton,
    # the degree in which every state accepts it, built backwards from the
    # terminal set.
    level = [((), a.terminal.degrees, b.terminal.degrees)]
    for length in range(n + 1):
        for word, va, vb in level:
            for x, xp, value in related:
                gap = compare(va[x], vb[xp])
                if value > gap + eps:
                    violations.append(Violation(x, xp, word, value, gap))
            if norm > eps:
                # The automata's own degrees: initial set composed with vector.
                gap = compare(max(map(tnorm, a.initial.degrees, va)),
                              max(map(tnorm, b.initial.degrees, vb)))
                if norm > gap + eps:
                    norm_violations.append(Violation(None, None, word, norm, gap))
        if length < n:
            level = [((s,) + word, pull_back(tnorm, succ_a[s], va),
                      pull_back(tnorm, succ_b[s], vb))
                     for s in range(a.num_symbols) for word, va, vb in level]

    # Report per state pair, each pair's words in enumeration order (stable).
    violations.sort(key=lambda v: (v.x, v.xp))
    violations += norm_violations
    return VerificationReport(ok=not violations, violations=tuple(violations))


def verify_language_preservation(st: Structure, a: FuzzyAutomaton,
                                 b: FuzzyAutomaton, rel: FuzzyRelation,
                                 n: int) -> VerificationReport:
    """Check, word by word, that rel fuzzily preserves languages up to length n.

    For every state pair the relation degree must lower-bound the graded
    inclusion of the pinned bounded languages, and the relation's norm must
    lower-bound the graded inclusion of the full bounded languages.
    """
    return _verify_languages(st, a, b, rel, n, invariance=False)


def verify_language_invariance(st: Structure, a: FuzzyAutomaton,
                               b: FuzzyAutomaton, rel: FuzzyRelation,
                               n: int) -> VerificationReport:
    """Invariance counterpart: graded language equality and the bisim norm."""
    return _verify_languages(st, a, b, rel, n, invariance=True)

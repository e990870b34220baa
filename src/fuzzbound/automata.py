"""Finite fuzzy automata: sparse transitions, languages, and norms.

States and symbols are 0-based contiguous indices internally; display names
are carried alongside for I/O. Transitions are stored sparsely per symbol as
(source, target, degree) triples with strictly positive degrees, mirrored
into successor/predecessor adjacency lists by :func:`build_index`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    AlphabetMismatch,
    DegreeRangeError,
    DimensionMismatch,
    InputFormatError,
    UnknownSymbol,
    WordCapExceeded,
)
from .fuzzy import (
    FuzzyRelation,
    FuzzySet,
    compose_rel_set,
    inverse,
    require_cells,
    subset_degree,
)
from .lattice import Frozen, Structure, as_int, validate_degree

DEFAULT_WORD_CAP = 10**6

Transition = tuple[int, int, float]
Word = tuple[int, ...]


class FuzzyAutomaton(Frozen):
    """A fuzzy automaton: states, alphabet, graded transitions and end sets."""

    __slots__ = ("num_states", "alphabet", "transitions", "initial", "terminal",
                 "state_names")

    def __init__(self, num_states: int, alphabet: Sequence[str],
                 transitions: tuple[tuple[Transition, ...], ...],  # per symbol index
                 initial: FuzzySet, terminal: FuzzySet,
                 state_names: Optional[Sequence[str]] = None):
        num_states = as_int(num_states, 1, "the number of states")
        alphabet = tuple(alphabet)
        if len(set(alphabet)) != len(alphabet):
            raise ValueError("alphabet symbols must be distinct")
        if state_names is None:
            state_names = [f"q{i}" for i in range(num_states)]
        state_names = tuple(state_names)
        for name in alphabet + state_names:  # as automaton_from_json reads them
            if not isinstance(name, str):
                raise TypeError(f"a symbol or state name holds {name!r}, not a string")
        if len(state_names) != num_states:
            raise ValueError("state_names length must equal num_states")
        if len(set(state_names)) != num_states:
            raise ValueError("state names must be distinct")
        if len(transitions) != len(alphabet):
            raise ValueError("one transition list per alphabet symbol expected")
        if initial.size != num_states or terminal.size != num_states:
            raise ValueError("initial/terminal sets must range over the states")
        seen: set[tuple[int, int, int]] = set()
        normalized = []
        for s, triples in enumerate(transitions):
            per_symbol = []
            for x, y, d in triples:
                if type(x) is not int or type(y) is not int:  # a bool or float raises
                    x = as_int(x, 0, "transition source")
                    y = as_int(y, 0, "transition target")
                if not (0 <= x < num_states and 0 <= y < num_states):
                    raise ValueError(f"transition ({x}, {y}) out of state range")
                if type(d) is not float or not 0.0 < d <= 1.0:
                    what = (f"degree of transition {state_names[x]} "
                            f"-{alphabet[s]}-> {state_names[y]}")
                    d = validate_degree(d, what)
                    if d == 0.0:
                        raise DegreeRangeError(f"{what} must lie in (0, 1], got {d!r}")
                if (s, x, y) in seen:
                    raise ValueError(
                        f"duplicate transition for symbol {alphabet[s]!r}: ({x}, {y})")
                seen.add((s, x, y))
                per_symbol.append((x, y, d))
            normalized.append(tuple(per_symbol))
        self._init(num_states, alphabet, tuple(normalized), initial, terminal,
                   state_names)

    @classmethod
    def build(cls, alphabet: Sequence[str], states: Sequence[str],
              initial: Mapping[str, float], terminal: Mapping[str, float],
              transitions: Iterable[tuple[str, str, str, float]]) -> "FuzzyAutomaton":
        """Construct from display names; transitions are (from, symbol, to, degree)."""
        state_index = {name: i for i, name in enumerate(states)}
        symbol_index = {name: i for i, name in enumerate(alphabet)}

        def lookup(table: dict[str, int], name: str, what: str) -> int:
            try:
                return table[name]
            except KeyError:
                raise InputFormatError(f"unknown {what} {name!r}") from None

        def end_set(mapping: Mapping[str, float], what: str) -> FuzzySet:
            degrees = [0.0] * len(states)
            for name, value in mapping.items():
                degrees[lookup(state_index, name, "state")] = validate_degree(
                    value, f"{what} degree")
            return FuzzySet(tuple(degrees))

        per_symbol: list[list[Transition]] = [[] for _ in alphabet]
        for src, sym, dst, degree in transitions:
            s = lookup(symbol_index, sym, "symbol")
            per_symbol[s].append(
                (lookup(state_index, src, "state"),
                 lookup(state_index, dst, "state"), degree))
        return cls(
            num_states=len(states),
            alphabet=tuple(alphabet),
            transitions=tuple(tuple(t) for t in per_symbol),
            initial=end_set(initial, "initial"),
            terminal=end_set(terminal, "terminal"),
            state_names=tuple(states),
        )

    @property
    def num_symbols(self) -> int:
        return len(self.alphabet)

    def symbol_index(self, name: str) -> int:
        try:
            return self.alphabet.index(name)
        except ValueError:
            raise UnknownSymbol(f"symbol {name!r} not in alphabet") from None

    def symbol_relation(self, s: int) -> FuzzyRelation:
        """The dense relation of one symbol's transitions."""
        n = self.num_states
        grid = [[0.0] * n for _ in range(n)]
        for x, y, d in self.transitions[s]:  # validated in __init__
            grid[x][y] = d
        return FuzzyRelation.trusted(n, n, tuple(map(tuple, grid)))


class SuccPredIndex(Frozen):
    """Successor and predecessor adjacency views of the same transitions.

    ``succ[s][x]`` lists (target, degree) pairs, ``pred[s][y]`` lists
    (source, degree) pairs; both enumerate exactly the positive transitions.
    """

    __slots__ = ("succ", "pred")

    def __init__(self, succ: tuple[tuple[tuple[tuple[int, float], ...], ...], ...],
                 pred: tuple[tuple[tuple[tuple[int, float], ...], ...], ...]):
        self._init(succ, pred)


def build_index(automaton: FuzzyAutomaton) -> SuccPredIndex:
    """Materialize both adjacency views in one pass over the transitions."""
    n = automaton.num_states
    succ = [[[] for _ in range(n)] for _ in automaton.alphabet]
    pred = [[[] for _ in range(n)] for _ in automaton.alphabet]
    for s, triples in enumerate(automaton.transitions):
        for x, y, d in triples:
            succ[s][x].append((y, d))
            pred[s][y].append((x, d))

    def freeze(view):
        return tuple(tuple(tuple(lst) for lst in per) for per in view)

    return SuccPredIndex(succ=freeze(succ), pred=freeze(pred))


def require_same_alphabet(a: FuzzyAutomaton, b: FuzzyAutomaton) -> None:
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch(
            f"alphabets differ: {list(a.alphabet)} vs {list(b.alphabet)}")


def require_shape(rel: FuzzyRelation, a: FuzzyAutomaton, b: FuzzyAutomaton) -> None:
    if rel.rows != a.num_states or rel.cols != b.num_states:
        raise DimensionMismatch(
            f"relation is {rel.rows}x{rel.cols}, automata have "
            f"{a.num_states} and {b.num_states} states")


def word_from_names(automaton: FuzzyAutomaton, names: Sequence[str]) -> Word:
    """Translate symbol names into the index word the evaluators use."""
    return tuple(automaton.symbol_index(name) for name in names)


def _check_word(automaton: FuzzyAutomaton, word: Sequence[int]) -> None:
    for s in word:
        if not 0 <= s < automaton.num_symbols:
            raise UnknownSymbol(f"symbol index {s!r} out of range")


def _advance(tnorm, succ_s, vec: list[float], n: int) -> list[float]:
    """One sup-t-norm step of the forward state-distribution vector."""
    new = [0.0] * n
    for x, fv in enumerate(vec):
        if fv > 0.0:
            for y, d in succ_s[x]:
                v = tnorm(fv, d)
                if v > new[y]:
                    new[y] = v
    return new


def pull_back(tnorm, succ_s, vec: Sequence[float]) -> list[float]:
    """One backward sup-t-norm step: x |-> sup_y delta_s(x, y) (x) vec(y)."""
    out = []
    for succ_x in succ_s:
        best = 0.0
        for y, d in succ_x:
            v = tnorm(d, vec[y])
            if v > best:
                best = v
        out.append(best)
    return out


def _accept(tnorm, vec, terminal) -> float:
    return max(
        (tnorm(fv, tv) for fv, tv in zip(vec, terminal) if fv > 0.0),
        default=0.0)


def language_eval(st: Structure, automaton: FuzzyAutomaton,
                  word: Sequence[int]) -> float:
    """Degree in which the automaton accepts the word.

    Evaluates the initial-set / transition-chain / terminal-set composition
    left to right over the sparse successor lists, in O(|word| * m).
    """
    _check_word(automaton, word)
    tnorm = st.tnorm
    index = build_index(automaton)
    vec = list(automaton.initial.degrees)
    for s in word:
        vec = _advance(tnorm, index.succ[s], vec, automaton.num_states)
    return _accept(tnorm, vec, automaton.terminal.degrees)


def require_word_bound(automaton: FuzzyAutomaton, n: int) -> int:
    """The length bound n as an int. Refuse a negative bound, or one whose
    words would exceed ``DEFAULT_WORD_CAP``: k^(n + 1) for k >= 2 symbols
    (the exponent clipped where 2^e is past the cap), else (n + 1)^2 for
    n + 1 levels of words of up to n letters; or whose widest level, k^n
    words (one word for k < 2) with a degree per state each, would hold
    more than ``MAX_CELLS`` degrees."""
    n = as_int(n, 0, "word-length bound")
    cap = DEFAULT_WORD_CAP
    k = automaton.num_symbols
    if (k ** min(n + 1, cap.bit_length() + 1) if k > 1 else (n + 1) ** 2) > cap:
        raise WordCapExceeded(
            f"words of length <= {n} over {k} symbols exceed the cap of {cap}")
    slots = (k ** n if k > 1 else 1) * automaton.num_states  # a degree per state
    require_cells(slots, f"words of length {n} over {k} symbols", WordCapExceeded)
    return n


def language_bounded(st: Structure, automaton: FuzzyAutomaton,
                     n: int) -> dict[Word, float]:
    """All words of length <= n with their acceptance degrees.

    Zero-degree words are kept: graded language comparisons quantify over
    every word up to the bound. Words are enumerated breadth first, carrying
    the forward state-distribution vector so each level costs O(m) per word.
    More than ``DEFAULT_WORD_CAP`` words, or a level of more than
    ``MAX_CELLS`` degrees, raise ``WordCapExceeded`` first.
    """
    n = require_word_bound(automaton, n)
    tnorm = st.tnorm
    index = build_index(automaton)
    terminal = automaton.terminal.degrees

    language: dict[Word, float] = {}
    frontier: list[tuple[Word, list[float]]] = [((), list(automaton.initial.degrees))]
    for length in range(n + 1):
        next_frontier: list[tuple[Word, list[float]]] = []
        for word, vec in frontier:
            language[word] = _accept(tnorm, vec, terminal)
            if length < n:
                for s in range(automaton.num_symbols):
                    next_frontier.append((
                        word + (s,),
                        _advance(tnorm, index.succ[s], vec, automaton.num_states)))
        frontier = next_frontier
    return language


MODE_SIM = "simulation"
MODE_BISIM = "bisimulation"

_MODE_ALIASES = {"sim": MODE_SIM, "simulation": MODE_SIM,
                 "bisim": MODE_BISIM, "bisimulation": MODE_BISIM}


def canonical_mode(mode: str) -> str:
    """MODE_SIM or MODE_BISIM, named in full or as "sim" or "bisim"."""
    try:
        return _MODE_ALIASES[mode]
    except KeyError:
        raise ValueError(f"unknown mode {mode!r} (use 'sim' or 'bisim')") from None


def sim_norm(st: Structure, rel: FuzzyRelation, a: FuzzyAutomaton,
             b: FuzzyAutomaton) -> float:
    """Graded inclusion of a's initial set in b's, pulled back through rel."""
    require_shape(rel, a, b)
    return subset_degree(st, a.initial, compose_rel_set(st, rel, b.initial))


def bisim_norm(st: Structure, rel: FuzzyRelation, a: FuzzyAutomaton,
               b: FuzzyAutomaton) -> float:
    """Meet of the simulation norms in both directions."""
    return min(sim_norm(st, rel, a, b), sim_norm(st, inverse(rel), b, a))


def automaton_to_json(automaton: FuzzyAutomaton) -> dict:
    names = automaton.state_names
    return {
        "alphabet": list(automaton.alphabet),
        "states": list(names),
        "initial": {names[i]: v for i, v in enumerate(automaton.initial.degrees)
                    if v > 0.0},
        "terminal": {names[i]: v for i, v in enumerate(automaton.terminal.degrees)
                     if v > 0.0},
        "transitions": [
            {"from": names[x], "symbol": automaton.alphabet[s],
             "to": names[y], "degree": d}
            for s, triples in enumerate(automaton.transitions)
            for x, y, d in triples
        ],
    }


def automaton_from_json(doc: dict) -> FuzzyAutomaton:
    if not isinstance(doc, dict):
        raise InputFormatError("automaton document must be a JSON object")
    for key, kind in (("alphabet", list), ("states", list), ("initial", dict),
                      ("terminal", dict), ("transitions", list)):
        if key not in doc:
            raise InputFormatError(f"automaton document lacks {key!r}")
        if not isinstance(doc[key], kind):
            raise InputFormatError(
                f"{key!r} must be a JSON {'array' if kind is list else 'object'}")
    transitions = []
    for item in doc["transitions"]:
        try:
            transitions.append(
                (item["from"], item["symbol"], item["to"], item["degree"]))
        except (KeyError, TypeError) as exc:
            raise InputFormatError(f"malformed transition {item!r}: {exc}") from None
    columns = (doc["alphabet"], doc["states"], *zip(*transitions))
    for key, names in zip(("alphabet", "states", "from", "symbol", "to"), columns):
        for name in names:
            if not isinstance(name, str):
                raise InputFormatError(f"{key!r} holds {name!r}, not a string")
    try:
        return FuzzyAutomaton.build(doc["alphabet"], doc["states"], doc["initial"],
                                    doc["terminal"], transitions)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from None

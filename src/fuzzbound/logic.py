"""Modal formulas over an alphabet and the unit interval.

The language has the terminal-test atom, a diamond step along one symbol,
graded implication/equivalence guards, and conjunction. Formulas with
implication guards form the simulation dialect; those with equivalence
guards form the bisimulation dialect. Concrete syntax:

    T                     terminal test
    (sym . F)             step along `sym` into F
    (0.9 -> F)            graded implication guard
    (0.9 <-> F)           graded equivalence guard
    (F & F)               conjunction

Step symbols are identifiers; the name ``T`` is reserved for the terminal
test, and ``Dia`` refuses any other symbol, so every formula prints to text
that parses back.
"""

from __future__ import annotations

import random
import re
from typing import Sequence

from .automata import (
    MODE_BISIM,
    MODE_SIM,
    FuzzyAutomaton,
    build_index,
    canonical_mode,
    pull_back,
)
from .errors import DialectError, FormulaSyntaxError
from .fuzzy import FuzzyRelation, FuzzySet, compose_rel_set, inverse, set_leq
from .lattice import Frozen, Structure, as_int, validate_degree

# Deepest parenthesis nesting the parser accepts. The evaluator, printer and
# walkers take at most two frames per level (a walker maps over the
# children), so this keeps them well inside Python's default recursion limit
# of 1000.
MAX_NESTING = 256


class Formula(Frozen):
    """Base class for formula nodes."""

    __slots__ = ()


class Tau(Formula):
    __slots__ = ()


class Dia(Formula):
    __slots__ = ("symbol", "child")

    def __init__(self, symbol: str, child: Formula):
        if symbol == "T" or not _SYMBOL_RE.fullmatch(symbol):
            raise ValueError(
                f"step symbol {symbol!r} is not an identifier other than 'T'")
        self._init(symbol, child)


class Imp(Formula):
    __slots__ = ("constant", "child")

    def __init__(self, constant: float, child: Formula):
        self._init(validate_degree(constant, "formula constant"), child)


class Equiv(Formula):
    __slots__ = ("constant", "child")
    __init__ = Imp.__init__


class And(Formula):
    __slots__ = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        self._init(left, right)


# Each kind's concrete syntax: {0} is the node, {1} and {2} its children's
# text. The fields named in _LEAVES hold values; every other field is a child.
_SYNTAX = {Tau: "T", Dia: "({0.symbol} . {1})", Imp: "({0.constant!r} -> {1})",
           Equiv: "({0.constant!r} <-> {1})", And: "({1} & {2})"}
_LEAVES = ("symbol", "constant")


def _children(formula: Formula) -> tuple[Formula, ...]:
    if type(formula) not in _SYNTAX:
        raise TypeError(f"not a formula: {formula!r}")
    return tuple([getattr(formula, name) for name in formula.__slots__
                  if name not in _LEAVES])


def formula_depth(formula: Formula) -> int:
    """Nesting depth of diamond steps."""
    return (isinstance(formula, Dia)
            + max(map(formula_depth, _children(formula)), default=0))


def in_dialect(formula: Formula, dialect: str) -> bool:
    """Does the formula avoid the guard the dialect (named as a mode) excludes?"""
    banned = Equiv if canonical_mode(dialect) == MODE_SIM else Imp

    def walk(f: Formula) -> bool:
        return not isinstance(f, banned) and all(map(walk, _children(f)))

    return walk(formula)


# A step symbol: an identifier other than ``T``, which is the terminal test.
_SYMBOL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# One group matches at every position: a token, a character no token starts
# with (`bad`), or the end of the input, so a scan ends with an `eof` token.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<lparen>\()|(?P<rparen>\))|(?P<equiv><->)|(?P<imp>->)"
    r"|(?P<dot>\.)|(?P<amp>&)|(?P<number>\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)"
    rf"|(?P<tau>T(?![A-Za-z0-9_]))|(?P<symbol>{_SYMBOL_RE.pattern})"
    r"|(?P<bad>\S)|(?P<eof>\Z))")


def _expected(token: tuple[str, str, int], what: str) -> FormulaSyntaxError:
    kind, value, pos = token
    found = "end of input" if kind == "eof" else repr(value)
    return FormulaSyntaxError(f"expected {what}, found {found}", pos)


def _formula(tokens: list, i: int, depth: int) -> tuple[Formula, int]:
    """The formula at ``tokens[i]``, inside ``depth`` parentheses, and the
    index of the token after it."""
    kind, value, pos = tokens[i]
    if kind == "tau":
        return Tau(), i + 1
    if kind != "lparen":
        raise _expected(tokens[i], "a formula")
    if depth == MAX_NESTING:
        raise FormulaSyntaxError(
            f"formula nests deeper than {MAX_NESTING} parentheses", pos)
    kind, value, pos = tokens[i + 1]
    if kind == "symbol":
        if tokens[i + 2][0] != "dot":
            raise _expected(tokens[i + 2], "'.'")
        child, i = _formula(tokens, i + 3, depth + 1)
        node = Dia(value, child)
    elif kind == "number":
        constant = float(value)
        if not 0.0 <= constant <= 1.0:
            raise FormulaSyntaxError(f"constant {value} outside [0, 1]", pos)
        guard = {"imp": Imp, "equiv": Equiv}.get(tokens[i + 2][0])
        if guard is None:
            raise _expected(tokens[i + 2], "'->' or '<->' after a constant")
        child, i = _formula(tokens, i + 3, depth + 1)
        node = guard(constant, child)
    else:
        left, i = _formula(tokens, i + 1, depth + 1)
        if tokens[i][0] != "amp":
            raise _expected(tokens[i], "'&'")
        right, i = _formula(tokens, i + 1, depth + 1)
        node = And(left, right)
    if tokens[i][0] != "rparen":
        raise _expected(tokens[i], "')'")
    return node, i + 1


def parse_formula(text: str) -> Formula:
    """Parse the concrete syntax; raises FormulaSyntaxError with a position."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        token = (kind, match.group(kind), match.start(kind))
        if kind == "bad":
            raise FormulaSyntaxError(f"unexpected character {token[1]!r}", token[2])
        tokens.append(token)
    formula, i = _formula(tokens, 0, 0)
    kind, value, pos = tokens[i]
    if kind != "eof":
        raise FormulaSyntaxError(f"trailing input {value!r}", pos)
    return formula


def format_formula(formula: Formula) -> str:
    """Print a formula so that parsing the output reproduces it."""
    children = _children(formula)
    return _SYNTAX[type(formula)].format(formula, *map(format_formula, children))


def eval_formula(st: Structure, automaton: FuzzyAutomaton,
                 formula: Formula) -> FuzzySet:
    """Degree, per state, in which the state has the formula's property."""
    tnorm = st.tnorm
    guard_ops = {Imp: st.residuum, Equiv: st.biresiduum}
    succ = build_index(automaton).succ

    def walk(f: Formula) -> list[float]:
        kind = type(f)
        if kind is Tau:
            return list(automaton.terminal.degrees)
        if kind is Dia:
            succ_s = succ[automaton.symbol_index(f.symbol)]
            return pull_back(tnorm, succ_s, walk(f.child))
        if kind is And:
            return [min(l, r) for l, r in zip(walk(f.left), walk(f.right))]
        if kind in guard_ops:
            op = guard_ops[kind]
            return [op(f.constant, v) for v in walk(f.child)]
        raise TypeError(f"not a formula: {f!r}")

    return FuzzySet(tuple(walk(formula)))


def constant_pool_for(*automata: FuzzyAutomaton) -> tuple[float, ...]:
    """Degrees occurring in the automata, extended with 0, 0.5 and 1.

    Guards instantiated at reachable evaluation values discriminate best, so
    generators draw constants from this pool by default.
    """
    pool = {0.0, 0.5, 1.0}
    for automaton in automata:
        pool.update(automaton.initial.degrees)
        pool.update(automaton.terminal.degrees)
        for triples in automaton.transitions:
            pool.update(d for _, _, d in triples)
    return tuple(sorted(pool))


def random_formula(dialect: str, max_depth: int,
                   constant_pool: Sequence[float], symbols: Sequence[str],
                   seed: int) -> Formula:
    """A random formula of the dialect with diamond depth <= max_depth.

    Deterministic per seed; the node count is at most 64.
    """
    max_depth = as_int(max_depth, 0, "max_depth")
    if not constant_pool:
        raise ValueError("constant_pool must not be empty")
    if not symbols:
        raise ValueError("symbols must not be empty")
    guard = Imp if canonical_mode(dialect) == MODE_SIM else Equiv
    rng = random.Random(seed)

    def build(depth_left: int, budget: int) -> Formula:
        # Produces a tree of at most `budget` nodes by splitting the budget
        # among children up front.
        kinds = ["tau"]
        weights = [2]
        if budget >= 2:
            kinds.append("guard")
            weights.append(3)
            if depth_left > 0:
                kinds.append("dia")
                weights.append(5)
        if budget >= 3:
            kinds.append("and")
            weights.append(2)
        kind = rng.choices(kinds, weights)[0]
        if kind == "tau":
            return Tau()
        if kind == "dia":
            return Dia(rng.choice(symbols), build(depth_left - 1, budget - 1))
        if kind == "guard":
            return guard(rng.choice(constant_pool), build(depth_left, budget - 1))
        left_share = rng.randint(1, budget - 2)
        return And(build(depth_left, left_share),
                   build(depth_left, budget - 1 - left_share))

    return build(max_depth, 64)


def _values(st: Structure, a: FuzzyAutomaton, b: FuzzyAutomaton, formula: Formula,
            depth_bound: int, dialect: str) -> tuple[FuzzySet, FuzzySet]:
    # The formula's values on a and on b, once it is found to be of the
    # dialect and of depth <= depth_bound.
    depth_bound = as_int(depth_bound, 0, "depth_bound")
    if not in_dialect(formula, dialect):
        raise DialectError(
            f"formula {format_formula(formula)} is outside the {dialect} dialect")
    depth = formula_depth(formula)
    if depth > depth_bound:
        raise DialectError(
            f"formula depth {depth} exceeds the component depth {depth_bound}")
    return eval_formula(st, a, formula), eval_formula(st, b, formula)


def _preserved(st: Structure, rel: FuzzyRelation, va: FuzzySet, vb: FuzzySet) -> bool:
    # rel^-1 o va <= vb: va(x) (x) rel(x, x') is at most vb(x') for every pair.
    return set_leq(st, compose_rel_set(st, inverse(rel), va), vb)


def hm_check_sim(st: Structure, a: FuzzyAutomaton, b: FuzzyAutomaton,
                 rel: FuzzyRelation, formula: Formula, depth_bound: int) -> bool:
    """Are the formula's degrees preserved through the relation?

    For a component of depth n of a depth-bounded fuzzy simulation and any
    simulation-dialect formula of depth <= n this must hold.
    """
    return _preserved(st, rel, *_values(st, a, b, formula, depth_bound, MODE_SIM))


def hm_check_bisim(st: Structure, a: FuzzyAutomaton, b: FuzzyAutomaton,
                   rel: FuzzyRelation, formula: Formula, depth_bound: int) -> bool:
    """Bisimulation counterpart of :func:`hm_check_sim`: its check on rel
    from a to b, and on the inverse of rel from b to a."""
    va, vb = _values(st, a, b, formula, depth_bound, MODE_BISIM)
    return _preserved(st, rel, va, vb) and _preserved(st, inverse(rel), vb, va)


def formula_bound_relation(st: Structure, a: FuzzyAutomaton, b: FuzzyAutomaton,
                           formula: Formula, dialect: str) -> FuzzyRelation:
    """Pointwise bound a formula induces on relating state pairs.

    Entry (x, x') is the implication degree (sim dialect) or equivalence
    degree (bisim dialect) between the formula's values at x and x'. Every
    component of the corresponding depth regards it as an upper bound.
    """
    op = st.residuum if canonical_mode(dialect) == MODE_SIM else st.biresiduum
    va = eval_formula(st, a, formula)
    vb = eval_formula(st, b, formula)
    return FuzzyRelation.trusted(
        a.num_states, b.num_states,
        tuple(tuple(op(x_val, y_val) for y_val in vb.degrees)
              for x_val in va.degrees))

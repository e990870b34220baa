"""Shared builders and fixtures for the test suite."""

import pytest

from fuzzbound import FuzzyAutomaton, FuzzyRelation, relation_from_json, structure

STRUCTURE_NAMES = ("godel", "lukasiewicz", "product")


def chain_automaton() -> FuzzyAutomaton:
    """Two states u -> v (0.4) with a 0.5 self-loop on v; u initial, v terminal."""
    return FuzzyAutomaton.build(
        alphabet=["s"],
        states=["u", "v"],
        initial={"u": 1.0},
        terminal={"v": 1.0},
        transitions=[("u", "s", "v", 0.4), ("v", "s", "v", 0.5)],
    )


def chain_automaton_variant() -> FuzzyAutomaton:
    """Companion of :func:`chain_automaton` with swapped degrees and a 0.8 terminal."""
    return FuzzyAutomaton.build(
        alphabet=["s"],
        states=["u'", "v'"],
        initial={"u'": 1.0},
        terminal={"v'": 0.8},
        transitions=[("u'", "s", "v'", 0.5), ("v'", "s", "v'", 0.4)],
    )


def chain_pair() -> tuple[FuzzyAutomaton, FuzzyAutomaton]:
    return chain_automaton(), chain_automaton_variant()


def loop_automaton(degree: float, name: str = "u") -> FuzzyAutomaton:
    """One state, initial and terminal in degree 1, one self-loop of the given degree."""
    return FuzzyAutomaton.build(
        alphabet=["s"],
        states=[name],
        initial={name: 1.0},
        terminal={name: 1.0},
        transitions=[(name, "s", name, degree)],
    )


def loop_pair(eps: float) -> tuple[FuzzyAutomaton, FuzzyAutomaton]:
    """The almost-equal pair: a perfect self-loop vs one damped by eps."""
    return loop_automaton(1.0, "u"), loop_automaton(1.0 - eps, "u'")


def relation(rows: int, cols: int, entries=()) -> FuzzyRelation:
    """A relation holding the given (row, col, degree) cells, 0 elsewhere."""
    return relation_from_json({"rows": rows, "cols": cols, "entries": list(entries)})


def identity(n: int) -> FuzzyRelation:
    return relation(n, n, [(i, i, 1.0) for i in range(n)])


def is_zero(rel: FuzzyRelation) -> bool:
    return not any(map(any, rel.degrees))


def assert_rel_close(actual, expected, tol=1e-9):
    """Entrywise comparison of two relations within a tolerance."""
    assert actual.rows == expected.rows and actual.cols == expected.cols
    for arow, erow in zip(actual.degrees, expected.degrees):
        for av, ev in zip(arow, erow):
            assert abs(av - ev) <= tol, f"{actual.degrees} != {expected.degrees}"


@pytest.fixture(params=STRUCTURE_NAMES, scope="module")
def st(request):
    """One fixture value per built-in structure (immutable, safe to share)."""
    return structure(request.param)


@pytest.fixture
def pair():
    return chain_pair()

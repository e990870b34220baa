"""The float chain against the real one: an exact rational referee.

Every other referee (``naive_dbsim``, the checkers, the golden tables)
computes in the same floats as the kernel, so none of them measures how far
a result is from the real-valued phi_k. Here each built-in's ops take and
return ``Fraction``s, reading a float input as its exact binary value; the
rationals in [0, 1] are closed under all three pairs of ops, so the run is
the real chain, with no rounding at all. The structure is built through the
``Frozen`` protocol, not ``Structure(...)``, whose check of each result would
turn it back into a float. Its ops are no built-in pair, so it runs the
generic kernel unchanged: this referees the float arithmetic, while
``naive_dbsim`` and the checkers referee the kernel's logic.

Measured on the 40 pairs below at depth 6, per structure:

- Gödel: every float cell is the real value, with the same status and
  ``fixpoint_at``.
- product: every cell and norm is within 3 ulp of the correctly rounded
  real value and within 2e-16 of the real one (1.96e-16 seen), and none is
  zero on one side and positive on the other.
- Łukasiewicz: every cell and norm is within 7.8e-16 of the real value
  (7.77e-16 seen, in a simulation), but 33 simulation and 52 bisimulation
  cells are zero on one side and positive on the other, and 7 simulation
  and 5 bisimulation runs of the 40 stop with another status or
  ``fixpoint_at`` than the real chain: a float ``fixpoint`` is a fixpoint
  of the float round.

``greatest_fixpoint`` is held to the real greatest fixpoint, which the exact
run reaches with ``tol=0`` on every pair. A float Łukasiewicz run that stops
on "fixpoint" or "tol" is within 3.4e-16 of it in every cell of its relation
and in its last norm for simulation, and within 1.7e-16 for bisimulation
(3.33e-16 and 1.67e-16 seen), although 13 simulation and 5 bisimulation
runs of the 40 stop one or two rounds before the real chain is stable. The
same holds on the first 100-state pair of the benchmark's fixpoint-tail
workload (3.33e-16 seen, for simulation).
"""

import math
import random
from fractions import Fraction

import pytest

from fuzzbound import (
    compute_dbbisim,
    compute_dbsim,
    greatest_fixpoint,
    naive_dbsim,
    structure,
)
from fuzzbound.lattice import Structure
from fuzzbound.oracle import RandomAutomatonSpec, generate_automaton

DEPTH = 6
PAIRS = 40

EXACT_OPS = {
    "godel": (lambda x, y: min(Fraction(x), Fraction(y)),
              lambda x, y: Fraction(1) if x <= y else Fraction(y)),
    "lukasiewicz": (lambda x, y: max(Fraction(0), Fraction(x) + Fraction(y) - 1),
                    lambda x, y: min(Fraction(1), 1 - Fraction(x) + Fraction(y))),
    "product": (lambda x, y: Fraction(x) * Fraction(y),
                lambda x, y: Fraction(1) if x <= y else Fraction(y) / Fraction(x)),
}

# Bounds measured on this population (see the module docstring): the
# distance of a cell or norm from the real value, product's distance in ulp
# from the correctly rounded one, and, per mode, Łukasiewicz's count of cells
# zero on one side only and of runs that stop differently.
PRODUCT_ULPS = 3
PRODUCT_ABS = 2e-16
LUKASIEWICZ_ABS = 7.8e-16
LUKASIEWICZ_FLIPS = {"sim": 33, "bisim": 52}
LUKASIEWICZ_OTHER_STOPS = {"sim": 7, "bisim": 5}
# Per mode, the distance of a stopped float Łukasiewicz greatest_fixpoint
# from the real greatest fixpoint.
GREATEST_ABS = {"sim": 3.4e-16, "bisim": 1.7e-16}


def exact_structure(name):
    """name's ops on Fractions, unchecked, so no result is rounded."""
    st = object.__new__(Structure)
    st._init(name, *EXACT_OPS[name], 0.0)
    return st


def pair(seed):
    """Two automata of 3-8 states over two symbols, seeded."""
    rng = random.Random(seed)
    return tuple(generate_automaton(RandomAutomatonSpec(
        num_states=rng.randint(3, 8), num_symbols=2, transition_density=0.4,
        seed=2 * seed + i)) for i in (0, 1))


@pytest.fixture(scope="module")
def runs():
    """Per (structure, mode), the (float, exact) traced runs of every pair."""
    found = {}
    for name in EXACT_OPS:
        floats, exact = structure(name), exact_structure(name)
        for mode, compute in (("sim", compute_dbsim), ("bisim", compute_dbbisim)):
            found[name, mode] = [
                (compute(floats, a, b, DEPTH, trace=True),
                 compute(exact, a, b, DEPTH, trace=True))
                for a, b in map(pair, range(PAIRS))]
    return found


def cells(got, real):
    """(float, real) per cell of every component phi_0..phi_DEPTH, and per norm."""
    for i in range(DEPTH + 1):
        for row, real_row in zip(got.component(i).degrees, real.component(i).degrees):
            yield from zip(row, real_row)
    yield from zip(got.norms, real.norms)


def stops(result):
    return result.status, result.fixpoint_at


@pytest.mark.parametrize("mode", ["sim", "bisim"])
def test_exact_components_are_rationals(runs, mode):
    # Every cell is an op's result, so none was rounded to a float. (A norm
    # no side lowers keeps its start value, the float 1.0, which is exact.)
    for name in EXACT_OPS:
        for _, real in runs[name, mode]:
            assert all(type(r) is Fraction for rel in real.prefix
                       for row in rel.degrees for r in row)


@pytest.mark.parametrize("mode", ["sim", "bisim"])
def test_exact_kernel_rounds_to_the_exact_oracle(mode):
    # naive_dbsim keeps the exact values in its working rows and rounds each
    # cell once, as it freezes a component: the correctly rounded real chain.
    compute = compute_dbsim if mode == "sim" else compute_dbbisim
    for name in EXACT_OPS:
        st = exact_structure(name)
        for a, b in map(pair, range(3)):
            real = compute(st, a, b, 4, trace=True)
            rounded = [tuple(tuple(map(float, row)) for row in real.component(i).degrees)
                       for i in range(5)]
            assert rounded == [rel.degrees for rel in naive_dbsim(st, a, b, 4, mode)]


@pytest.mark.parametrize("mode", ["sim", "bisim"])
def test_godel_is_exact(runs, mode):
    for got, real in runs["godel", mode]:
        assert all(f == r for f, r in cells(got, real))
        assert stops(got) == stops(real)


@pytest.mark.parametrize("mode", ["sim", "bisim"])
def test_product_is_within_a_few_ulp(runs, mode):
    for got, real in runs["product", mode]:
        for f, r in cells(got, real):
            rounded = float(r)  # int division: correctly rounded
            assert abs(f - rounded) <= PRODUCT_ULPS * math.ulp(rounded), (f, r)
            assert abs(Fraction(f) - r) <= PRODUCT_ABS, (f, r)
            assert (f > 0.0) == (r > 0), (f, r)


@pytest.mark.parametrize("mode", ["sim", "bisim"])
def test_lukasiewicz_is_within_an_absolute_bound(runs, mode):
    flips = other_stops = 0
    for got, real in runs["lukasiewicz", mode]:
        for f, r in cells(got, real):
            assert abs(Fraction(f) - r) <= LUKASIEWICZ_ABS, (f, r)
            flips += (f > 0.0) != (r > 0)
        other_stops += stops(got) != stops(real)
    assert flips <= LUKASIEWICZ_FLIPS[mode]
    assert other_stops <= LUKASIEWICZ_OTHER_STOPS[mode]


def assert_near_the_real_greatest(a, b, mode, **stop):
    got = greatest_fixpoint(structure("lukasiewicz"), a, b, mode, **stop)
    real = greatest_fixpoint(exact_structure("lukasiewicz"), a, b, mode,
                             tol=0, max_iters=1000)
    assert got.status in ("fixpoint", "tol") and real.status == "fixpoint"
    values = zip((*got.relation.degrees, (got.norms[-1],)),
                 (*real.relation.degrees, (real.norms[-1],)))
    for row, real_row in values:
        for f, r in zip(row, real_row):
            assert abs(Fraction(f) - r) <= GREATEST_ABS[mode], (f, r)


@pytest.mark.parametrize("mode", ["sim", "bisim"])
def test_lukasiewicz_greatest_is_near_the_real_one(mode):
    for a, b in map(pair, range(PAIRS)):
        assert_near_the_real_greatest(a, b, mode)


def test_lukasiewicz_greatest_is_near_the_real_one_at_100_states():
    # fixpoint-tail entry 0, with that workload's stop rules: the float run
    # ends on "tol" at the component where the real chain is stable. (The
    # exact run takes seconds.)
    a, b = (generate_automaton(RandomAutomatonSpec(100, 2, 0.03, seed=2_000_000 + i))
            for i in (0, 1))
    assert_near_the_real_greatest(a, b, "sim", max_iters=60, tol=1e-9)

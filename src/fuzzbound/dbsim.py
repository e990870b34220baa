"""Depth-bounded fuzzy simulations and bisimulations.

The two computation entry points return the component chain phi_0..phi_k of
the greatest depth-bounded fuzzy (bi)simulation between two finite automata,
using the sparse successor/predecessor iteration. A bisimulation is a
simulation whose inverse is one too, so the simulation code also serves the
mirrored side, on the swapped automata and the inverse relations: the round
kernel :func:`_pass`, the round norm :func:`_norm`, and the conditions the
definition-level checkers test. A fixpoint driver wraps the same iteration
for the greatest plain fuzzy (bi)simulation, which is checked as the
constant chain (rel, rel).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .automata import (
    FuzzyAutomaton,
    bisim_norm,
    build_index,
    require_same_alphabet,
    sim_norm,
)
from .errors import DimensionMismatch
from .fuzzy import (
    FuzzyRelation,
    compose_rel_rel,
    compose_rel_set,
    inverse,
    rel_leq,
    relation_to_json,
    set_leq,
)
from .lattice import Structure

MODE_SIM = "simulation"
MODE_BISIM = "bisimulation"

_MODE_ALIASES = {
    "sim": MODE_SIM,
    "simulation": MODE_SIM,
    "bisim": MODE_BISIM,
    "bisimulation": MODE_BISIM,
}


def canonical_mode(mode: str) -> str:
    try:
        return _MODE_ALIASES[mode]
    except KeyError:
        raise ValueError(f"unknown mode {mode!r} (use 'sim' or 'bisim')") from None


@dataclass(frozen=True)
class DbSimResult:
    """Outcome of a depth-bounded (bi)simulation computation.

    ``prefix`` holds the computed components phi_0..phi_i when tracing was on,
    otherwise just the final component. ``norms`` always covers phi_0..phi_i.
    ``status`` is "depth" (ran to the requested depth), "fixpoint" (an
    iteration changed nothing; ``fixpoint_at`` is the index of the stable
    component), "tol" (pointwise change fell below the tolerance) or "cap"
    (iteration budget exhausted without converging).
    """

    mode: str
    requested: int
    prefix: tuple[FuzzyRelation, ...]
    norms: tuple[float, ...]
    fixpoint_at: Optional[int]
    status: str
    traced: bool

    @property
    def relation(self) -> FuzzyRelation:
        """The last computed component."""
        return self.prefix[-1]

    @property
    def last_step(self) -> int:
        """Index of the last computed component."""
        return len(self.norms) - 1

    def component(self, n: int) -> FuzzyRelation:
        """The component phi_n; past a fixpoint all components coincide."""
        if n < 0:
            raise ValueError("component index must be >= 0")
        if not self.traced:
            raise ValueError("tracing was disabled; only .relation is available")
        last = len(self.prefix) - 1
        if n > last and self.fixpoint_at is None:
            raise ValueError(f"component {n} was not computed (last is {last})")
        return self.prefix[min(n, last)]

    def to_json(self) -> dict:
        doc = {
            "mode": self.mode,
            "k": self.requested,
            "fixpoint_at": self.fixpoint_at,
            "status": self.status,
            "phi_k": relation_to_json(self.relation),
            "norms": list(self.norms),
        }
        if self.traced:
            doc["trace"] = [relation_to_json(rel) for rel in self.prefix]
        return doc


def _init_grid(st: Structure, a: FuzzyAutomaton, b: FuzzyAutomaton,
               bisim: bool) -> list[list[float]]:
    # phi_0 is the greatest relation compatible with the terminal sets; the
    # working grid is held x'-major (see _pass).
    op = st.biresiduum if bisim else st.residuum
    ta = a.terminal.degrees
    tb = b.terminal.degrees
    return [[op(tx, ty) for tx in ta] for ty in tb]


def _norm(st: Structure, rows: Sequence[Sequence[float]],
          init_rows: Sequence[float], init_cols: Sequence[float]) -> float:
    # Simulation norm of the relation held row by row: the graded inclusion
    # of the row side's initial set in the column side's, pulled back.
    tnorm = st.tnorm
    residuum = st.residuum
    norm = 1.0
    for sx, row in zip(init_rows, rows):
        pulled = 0.0
        for sxp, v in zip(init_cols, row):
            if sxp > 0.0:
                v = tnorm(sxp, v)
                if v > pulled:
                    pulled = v
        r = residuum(sx, pulled)
        if r < norm:
            norm = r
    return norm


def _pass(st: Structure, grid: list[list[float]],
          prev: Sequence[Sequence[float]], succ, pred) -> float:
    """Lower grid to the transition condition against prev; returns the largest drop.

    For each symbol, each transition x -d-> y listed in ``pred`` and each x'
    with its transitions x' -d'-> y' listed in ``succ``:
    grid[x'][x] <= d => sup_y' d' (x) prev[y][y']. grid and prev are indexed
    the opposite way round, so the row written and the row read are both
    hoisted out of the inner loops. The simulation condition is the call on
    the x'-major working grid with prev = phi_{i-1} and (succ of b, pred of
    a); the bisimulation's mirrored condition swaps the automata and
    transposes both relations.
    """
    tnorm = st.tnorm
    residuum = st.residuum
    max_drop = 0.0
    for succ_s, pred_s in zip(succ, pred):
        for row, succ_list in zip(grid, succ_s):
            for prev_y, pred_list in zip(prev, pred_s):
                bound = 0.0
                for yp, d in succ_list:
                    v = tnorm(d, prev_y[yp])
                    if v > bound:
                        bound = v
                for x, d in pred_list:
                    cur = row[x]
                    new = residuum(d, bound)
                    if new < cur:
                        row[x] = new
                        drop = cur - new
                        if drop > max_drop:
                            max_drop = drop
    return max_drop


def _transpose(grid: Sequence[Sequence[float]]) -> list[list[float]]:
    return [list(col) for col in zip(*grid)]


def _freeze(grid: list[list[float]]) -> FuzzyRelation:
    # The working grid is x'-major; relations are x-major.
    return FuzzyRelation(len(grid[0]), len(grid), tuple(zip(*grid)))


def _run(st: Structure, a: FuzzyAutomaton, b: FuzzyAutomaton, mode: str,
         max_steps: int, trace: bool, tol: Optional[float]) -> DbSimResult:
    require_same_alphabet(a, b)
    if max_steps < 0:
        raise ValueError("iteration bound must be >= 0")
    bisim = mode == MODE_BISIM
    index_a = build_index(a)
    index_b = build_index(b)

    ia, ib = a.initial.degrees, b.initial.degrees

    def norm_of(frozen: FuzzyRelation, grid: list[list[float]]) -> float:
        # The bisimulation norm adds the simulation norm from b to a on the
        # inverse relation, which the x'-major working grid holds row by row.
        value = _norm(st, frozen.degrees, ia, ib)
        return min(value, _norm(st, grid, ib, ia)) if bisim else value

    grid = _init_grid(st, a, b, bisim)
    prefix: list[FuzzyRelation] = [_freeze(grid)]
    norms: list[float] = [norm_of(prefix[0], grid)]
    fixpoint_at: Optional[int] = None
    status = "depth" if tol is None else "cap"

    for i in range(1, max_steps + 1):
        prev = prefix[-1].degrees
        drop = _pass(st, grid, prev, index_b.succ, index_a.pred)
        if bisim:
            rows = _transpose(grid)
            drop = max(drop, _pass(st, rows, _transpose(prev),
                                   index_a.succ, index_b.pred))
            grid = _transpose(rows)
        if drop == 0.0:
            # This iteration changed nothing, so phi_{i-1} is the fixpoint.
            fixpoint_at = i - 1
            status = "fixpoint"
            break
        frozen = _freeze(grid)
        if trace:
            prefix.append(frozen)
        else:
            prefix[0] = frozen
        norms.append(norm_of(frozen, grid))
        if tol is not None and drop <= tol:
            status = "tol"
            break

    return DbSimResult(
        mode=mode,
        requested=max_steps,
        prefix=tuple(prefix),
        norms=tuple(norms),
        fixpoint_at=fixpoint_at,
        status=status,
        traced=trace,
    )


def compute_dbsim(st: Structure, a: FuzzyAutomaton, b: FuzzyAutomaton, k: int,
                  trace: bool = False) -> DbSimResult:
    """Component phi_k of the greatest depth-bounded fuzzy simulation.

    Starts from the terminal-set residuum relation and applies k rounds of
    the sparse bound/predecessor update, exiting early once a round changes
    nothing (every later component equals that fixpoint). O(k(m+n)n).
    """
    return _run(st, a, b, MODE_SIM, k, trace, tol=None)


def compute_dbbisim(st: Structure, a: FuzzyAutomaton, b: FuzzyAutomaton, k: int,
                    trace: bool = False) -> DbSimResult:
    """Component phi_k of the greatest depth-bounded fuzzy bisimulation.

    Like :func:`compute_dbsim` with the terminal biresiduum start; each round
    also runs the simulation kernel from b to a on the transposed relations,
    and both conditions read phi_{i-1}.
    """
    return _run(st, a, b, MODE_BISIM, k, trace, tol=None)


def greatest_fixpoint(st: Structure, a: FuzzyAutomaton, b: FuzzyAutomaton,
                      mode: str, max_iters: int = 1000, tol: float = 1e-9,
                      trace: bool = False) -> DbSimResult:
    """Iterate toward the greatest fuzzy (bi)simulation between two automata.

    Stops at an exact fixpoint (status "fixpoint": the result is the greatest
    fuzzy (bi)simulation), when an iteration's largest pointwise decrease is
    at most ``tol`` (status "tol": approximate), or at the iteration cap
    (status "cap": not converged). Under the product structure exact fixpoints
    may not exist, hence the tolerance.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    return _run(st, a, b, canonical_mode(mode), max_iters, trace, tol=tol)


def _check_rel_shape(rel: FuzzyRelation, a: FuzzyAutomaton,
                     b: FuzzyAutomaton) -> None:
    if rel.rows != a.num_states or rel.cols != b.num_states:
        raise DimensionMismatch(
            f"relation is {rel.rows}x{rel.cols}, automata have "
            f"{a.num_states} and {b.num_states} states")


def check_sim(st: Structure, a: FuzzyAutomaton, b: FuzzyAutomaton,
              rel: FuzzyRelation) -> bool:
    """Is rel a fuzzy simulation? The chain check on the constant chain (rel, rel)."""
    return _check_prefix(st, a, b, (rel, rel), bisim=False)


def check_bisim(st: Structure, a: FuzzyAutomaton, b: FuzzyAutomaton,
                rel: FuzzyRelation) -> bool:
    """Is rel a fuzzy bisimulation? The check of :func:`check_sim`, run both
    ways: on rel from a to b and on its inverse from b to a."""
    return _check_prefix(st, a, b, (rel, rel), bisim=True)


def check_dbsim_prefix(st: Structure, a: FuzzyAutomaton, b: FuzzyAutomaton,
                       prefix: Sequence[FuzzyRelation]) -> bool:
    """Is the chain a prefix of a depth-bounded fuzzy simulation?

    Checks the decreasing-chain condition, the terminal condition on the
    first component, and every step's transition condition, all within the
    structure's tolerance.
    """
    return _check_prefix(st, a, b, prefix, bisim=False)


def check_dbbisim_prefix(st: Structure, a: FuzzyAutomaton, b: FuzzyAutomaton,
                         prefix: Sequence[FuzzyRelation]) -> bool:
    """Bisimulation counterpart of :func:`check_dbsim_prefix`: the chain
    passes the simulation check from a to b, and its inverse from b to a."""
    return _check_prefix(st, a, b, prefix, bisim=True)


def _check_prefix(st: Structure, a: FuzzyAutomaton, b: FuzzyAutomaton,
                  prefix: Sequence[FuzzyRelation], bisim: bool) -> bool:
    require_same_alphabet(a, b)
    if not prefix:
        raise ValueError("prefix must contain at least one relation")
    for rel in prefix:
        _check_rel_shape(rel, a, b)
    inverses = [inverse(rel) for rel in prefix]
    return (_simulates(st, a, b, prefix, inverses)
            and (not bisim or _simulates(st, b, a, inverses, prefix)))


def _simulates(st: Structure, a: FuzzyAutomaton, b: FuzzyAutomaton,
               chain: Sequence[FuzzyRelation],
               inverses: Sequence[FuzzyRelation]) -> bool:
    # The simulation conditions on a chain from a to b, given its inverses.
    if not set_leq(st, compose_rel_set(st, inverses[0], a.terminal), b.terminal):
        return False
    rels_a = [a.symbol_relation(s) for s in range(a.num_symbols)]
    rels_b = [b.symbol_relation(s) for s in range(b.num_symbols)]
    for i in range(1, len(chain)):
        if not rel_leq(st, chain[i], chain[i - 1]):
            return False
        for rel_a, rel_b in zip(rels_a, rels_b):
            lhs = compose_rel_rel(st, inverses[i], rel_a)
            rhs = compose_rel_rel(st, rel_b, inverses[i - 1])
            if not rel_leq(st, lhs, rhs):
                return False
    return True


def prefix_norm(st: Structure, prefix: Sequence[FuzzyRelation],
                a: FuzzyAutomaton, b: FuzzyAutomaton, mode: str) -> float:
    """Meet of the per-component norms over a chain.

    Each component's norm is :func:`sim_norm` or :func:`bisim_norm` (a
    mis-shaped relation raises ``DimensionMismatch``). The meet equals the
    sequence norm at a fixpoint and is an upper bound otherwise (callers can
    tell the two apart via the result's ``fixpoint_at``/``status``).
    """
    if not prefix:
        raise ValueError("prefix must contain at least one relation")
    norm = bisim_norm if canonical_mode(mode) == MODE_BISIM else sim_norm
    return min(norm(st, rel, a, b) for rel in prefix)


def compose_prefixes(st: Structure, left: Sequence[FuzzyRelation],
                     right: Sequence[FuzzyRelation]) -> tuple[FuzzyRelation, ...]:
    """Componentwise relation composition of two equally long chains."""
    if len(left) != len(right):
        raise DimensionMismatch(
            f"prefixes have lengths {len(left)} and {len(right)}")
    return tuple(compose_rel_rel(st, p, q) for p, q in zip(left, right))

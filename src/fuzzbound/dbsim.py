"""Depth-bounded fuzzy simulations and bisimulations.

The two computation entry points return the component chain phi_0..phi_k of
the greatest depth-bounded fuzzy (bi)simulation between two finite automata,
using the sparse successor/predecessor iteration. phi_i depends only on
phi_{i-1}, so the rounds are semi-naive: the first round is a full pass, and
each later one revisits only the constraints whose successor degrees changed
in the round before, falling back to a full pass when that round changed
many cells. A bisimulation is a simulation whose inverse is one too, so the
simulation code also serves the mirrored side, on the swapped automata and
the inverse relations: the round kernel :func:`_pass`, the per-row norm
values :func:`_row_norms`, and the conditions the definition-level checkers
test. A fixpoint driver wraps the same iteration for the greatest plain
fuzzy (bi)simulation, which is checked as the constant chain (rel, rel).
"""

from __future__ import annotations

import math
from itertools import compress, repeat
from operator import ne
from typing import Optional, Sequence

from .automata import (
    FuzzyAutomaton,
    SuccPredIndex,
    bisim_norm,
    build_index,
    require_same_alphabet,
    sim_norm,
)
from .errors import DimensionMismatch, TraceCapExceeded
from .fuzzy import (
    MAX_CELLS,
    FuzzyRelation,
    compose_rel_rel,
    compose_rel_set,
    inverse,
    rel_leq,
    relation_to_json,
    set_leq,
)
from .lattice import Frozen, Structure

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


class DbSimResult(Frozen):
    """Outcome of a depth-bounded (bi)simulation computation.

    ``prefix`` holds the computed components phi_0..phi_i when tracing was on,
    otherwise just the final component. ``norms`` always covers phi_0..phi_i.
    ``status`` is "depth" (ran to the requested depth), "fixpoint" (an
    iteration changed nothing; ``fixpoint_at`` is the index of the stable
    component), "tol" (no single lowering exceeded the tolerance) or "cap"
    (iteration budget exhausted without converging).
    """

    __slots__ = ("mode", "requested", "prefix", "norms", "fixpoint_at", "status",
                 "traced")

    def __init__(self, mode: str, requested: int, prefix: tuple[FuzzyRelation, ...],
                 norms: tuple[float, ...], fixpoint_at: Optional[int], status: str,
                 traced: bool):
        self._init(mode, requested, prefix, norms, fixpoint_at, status, traced)

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
        """The result document the CLI prints. ``phi_k`` and each ``trace``
        component are in :func:`relation_to_json`'s sparse form, whose row
        and column indices are the state indices of the left and right
        automaton (their positions in a JSON file's ``"states"`` array);
        ``trace`` is present only for a traced result. Degrees are the
        computed floats themselves."""
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


def _row_norms(st: Structure, rows: Sequence[Sequence[float]],
               init_rows: Sequence[float], init_cols: Sequence[float],
               changed: Optional[_Changes]) -> list[tuple[int, float]]:
    """Per row x in ``changed`` (every row if None) of the relation held row
    by row: the graded inclusion of x in the row side's initial set,
    sigma(x) => sup_x' sigma'(x') (x) row[x']; the simulation norm is the
    meet of 1.0 and these values. By (L1) of :func:`_pass` the sup stops at
    the first cap s (x) 1.0, largest first, that cannot raise it."""
    tnorm = st.tnorm
    residuum = st.residuum
    support = sorted(((tnorm(s, 1.0), j, s)
                      for j, s in enumerate(init_cols) if s > 0.0), reverse=True)
    which = range(len(rows)) if changed is None else (x for x, _ in changed)
    out = []
    for x in which:
        row = rows[x]
        pulled = 0.0
        for cap, j, s in support:
            if cap <= pulled:
                break
            v = tnorm(s, row[j])
            if v > pulled:
                pulled = v
        out.append((x, residuum(init_rows[x], pulled)))
    return out


def _capped(st: Structure, index: SuccPredIndex) -> list:
    # The successor view of _pass: per symbol and state, each (y', d') as
    # (cap, y', d'), largest cap first; cap = d' (x) 1.0, which need not be d'.
    tnorm = st.tnorm
    return [[sorted(((tnorm(d, 1.0), y, d) for y, d in succ_x), reverse=True)
             for succ_x in succ_s] for succ_s in index.succ]


def _floored(st: Structure, index: SuccPredIndex) -> list:
    # The predecessor view of _pass: per symbol and state, each (x, d) as
    # (x, d, floor) with floor = d => 0.0, below which no bound lowers a cell.
    residuum = st.residuum
    return [[[(x, d, residuum(d, 0.0)) for x, d in pred_y] for pred_y in pred_s]
            for pred_s in index.pred]


def _pass(st: Structure, grid: list[list[float]],
          prev: Sequence[Sequence[float]], caps: list, right: SuccPredIndex,
          floors: list, changed: Optional[_Changes]) -> tuple[float, int]:
    """Lower grid to the transition condition against prev.

    Returns the largest single drop and the number of lowerings.

    For each symbol, each transition x -d-> y of the left automaton and each
    x' with its transitions x' -d'-> y' in the right one:
    grid[x'][x] <= d => sup_y' d' (x) prev[y][y']. grid and prev are indexed
    the opposite way round, so the row written and the row read are both
    hoisted out of the inner loops. The simulation condition is the call on
    the x'-major working grid with prev = phi_{i-1} and (right, left) =
    (b, a); the bisimulation's mirrored condition swaps the automata and
    transposes both relations. ``caps`` is :func:`_capped` of ``right`` and
    ``floors`` is :func:`_floored` of ``left``.

    A full pass (``changed`` is None) visits every pair (x', y) where y has
    a predecessor. Otherwise only the pairs with a successor cell
    prev[y][y'] in ``changed`` (the cells that differ from the relation the
    last round read) are visited: any other pair's bound is the one it had
    when last applied, and the grid only decreases, so it could lower
    nothing. The order is the same (symbol, x', y, x), so the same
    lowerings happen in the same order.

    Calls that cannot lower a cell are skipped by three laws the built-ins
    keep in floats, (L1) d' (x) p <= d' (x) 1.0, (L2) (d => b) >= b and
    (L3) (d => b) >= (d => 0.0): by L1 the sup stops at the first cap
    d' (x) 1.0, largest first, that cannot raise it; by L2 no residuum is
    taken for a cell at or below the bound; by L3 a cell at or below its
    floor d => 0.0 is settled, since no bound lowers it through that
    transition. The pair is left once the bound reaches its largest
    unsettled cell, before any t-norm if every cell is settled, and a row
    of the grid with no positive cell is not visited. For a structure that
    keeps the three laws, the lowerings are those of the full loops.
    """
    tnorm = st.tnorm
    residuum = st.residuum
    max_drop = 0.0
    lowered = 0
    live = list(map(any, grid))
    for succ_s, pred_s, back_s in zip(caps, floors, right.pred):
        if changed is None:
            every_y = [(prev_y, pred_list)
                       for prev_y, pred_list in zip(prev, pred_s) if pred_list]
            work = compress(zip(grid, succ_s, repeat(every_y)), live)
        else:
            work = ((grid[xp], succ_s[xp], ys)
                    for xp, ys in _revisits(changed, prev, pred_s, back_s, live))
        for row, succ_list, ys in work:
            for prev_y, pred_list in ys:
                top = 0.0
                for x, _, floor in pred_list:
                    cur = row[x]
                    if cur > top and cur > floor:
                        top = cur
                bound = 0.0
                for cap, yp, d in succ_list:
                    if cap <= bound or bound >= top:
                        break
                    v = tnorm(d, prev_y[yp])
                    if v > bound:
                        bound = v
                if bound >= top:
                    continue
                for x, d, floor in pred_list:
                    cur = row[x]
                    if cur <= bound or cur <= floor:
                        continue
                    new = residuum(d, bound)
                    if new < cur:
                        row[x] = new
                        lowered += 1
                        drop = cur - new
                        if drop > max_drop:
                            max_drop = drop
    return max_drop, lowered


# Cells that changed in a round, as (row, [columns]) for each row that moved,
# rows and columns ascending.
_Changes = list[tuple[int, list[int]]]

# A round that made more lowerings than this share of the n_a*n_b cells (both
# directions counted for a bisimulation) is followed by a full pass. Measured
# on random pairs of out-degree 3: a round of revisits after a share below
# 0.6 took 0.01-0.99 of a full round, after 0.6-1.6 it took 0.75-1.9.
_DENSE_SHARE = 0.5


def _revisits(changed: _Changes, prev: Sequence[Sequence[float]], pred_s,
              back_s, live: list[bool]) -> list[tuple[int, list]]:
    # The pairs (x', y) whose bound reads a changed cell (y, y'): x' is a
    # predecessor of y' whose row is ``live``. Grouped by x' ascending, each
    # with its (prev[y], pred[y]) items, y ascending; y without predecessors
    # is skipped.
    targets: dict[int, list] = {}
    for y, cols in changed:
        pred_list = pred_s[y]
        if pred_list:
            item = (prev[y], pred_list)
            for yp in cols:
                for xp, _ in back_s[yp]:
                    if not live[xp]:
                        continue
                    ys = targets.get(xp)
                    if ys is None:
                        targets[xp] = [item]
                    elif ys[-1] is not item:
                        ys.append(item)
    return sorted(targets.items())


def _diff(new: Sequence[Sequence[float]],
          old: Sequence[Sequence[float]]) -> _Changes:
    # Rows compare in C; only the rows that moved are scanned cell by cell.
    cols = range(len(new[0]))
    return [(r, list(compress(cols, map(ne, row, old_row))))
            for r, (row, old_row) in enumerate(zip(new, old)) if row != old_row]


def _transpose(grid: Sequence[Sequence[float]]) -> list[list[float]]:
    return [list(col) for col in zip(*grid)]


def _run(st: Structure, a: FuzzyAutomaton, b: FuzzyAutomaton, mode: str,
         max_steps: int, trace: bool, tol: Optional[float]) -> DbSimResult:
    if max_steps < 0:
        raise ValueError("iteration bound must be >= 0")
    require_same_alphabet(a, b)
    # A traced run holds up to (steps + 1) * n_a * n_b degrees.
    cells = (max_steps + 1) * a.num_states * b.num_states
    if trace and cells > MAX_CELLS:
        raise TraceCapExceeded(
            f"a trace of {max_steps + 1} components of {a.num_states}x"
            f"{b.num_states} could hold {cells} degrees, over the cap of "
            f"{MAX_CELLS}; trace fewer steps or leave tracing off")
    bisim = mode == MODE_BISIM
    index_a = build_index(a)
    index_b = build_index(b)
    caps_b = _capped(st, index_b)
    caps_a = _capped(st, index_a) if bisim else None
    floors_a = _floored(st, index_a)
    floors_b = _floored(st, index_b) if bisim else None
    n_a, n_b = a.num_states, b.num_states
    ia, ib = a.initial.degrees, b.initial.degrees

    grid = _init_grid(st, a, b, bisim)
    # The working grid is x'-major; relations are x-major.
    degrees = tuple(zip(*grid))
    prefix: list[FuzzyRelation] = []
    # The per-row values whose meet is the norm: the simulation side per x
    # of the frozen component, the bisimulation's mirrored side per x' of the
    # x'-major working grid. A round recomputes the rows it changed.
    sim_rows: dict[int, float] = {}
    mirror_rows: dict[int, float] = {}
    norms: list[float] = []
    fixpoint_at: Optional[int] = None
    status = "depth" if tol is None else "cap"
    changed: Optional[_Changes] = None   # None: every cell may have changed
    columns: Optional[_Changes] = None   # the same cells, x'-major

    for i in range(max_steps + 1):
        if i:
            prev = degrees
            drop, lowered = _pass(st, grid, prev, caps_b, index_b, floors_a,
                                  changed)
            if bisim:
                prev_t = _transpose(prev)
                rows = _transpose(grid)
                mirrored, more = _pass(st, rows, prev_t, caps_a, index_a,
                                       floors_b, columns)
                drop = max(drop, mirrored)
                lowered += more
                grid = _transpose(rows)
            if drop == 0.0:
                # This iteration changed nothing, so phi_{i-1} is the fixpoint.
                fixpoint_at = i - 1
                status = "fixpoint"
                break
            degrees = tuple(zip(*grid))
            # The next round revisits from this round's changes unless this
            # round was dense or is the last.
            if lowered > _DENSE_SHARE * n_a * n_b or i == max_steps:
                changed = columns = None
            else:
                changed = _diff(degrees, prev)
                columns = _diff(grid, prev_t) if bisim else None
            rows = prev_t = None  # freed before the next round, for peak memory
        if not trace:
            prefix.clear()
        # Every degree is a built-in's result or a checked one (lattice).
        prefix.append(FuzzyRelation.trusted(n_a, n_b, degrees))
        sim_rows.update(_row_norms(st, degrees, ia, ib, changed))
        if bisim:
            mirror_rows.update(_row_norms(st, grid, ib, ia, columns))
        norms.append(min(1.0, *sim_rows.values(), *mirror_rows.values()))
        if i and tol is not None and drop <= tol:
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
    nothing (every later component equals that fixpoint). The first round
    is a full one, O(n_a m_b + n_b m_a + n_a n_b) for automata of n states
    and m transitions; a later round visits only the pairs whose successor
    degrees changed in the round before, plus O(n_a n_b) C-level work to
    find the changed cells, and is a full round again when the round before
    lowered many cells. A traced run that could hold more than
    ``MAX_CELLS`` degrees raises ``TraceCapExceeded`` before its first
    round.
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
    fuzzy (bi)simulation), when the largest single lowering an iteration
    makes is at most ``tol`` (status "tol": approximate; two constraints that
    lower the same degree in one iteration count apart), or at the iteration
    cap (status "cap": not converged). Under the product structure exact
    fixpoints may not exist, hence the tolerance, which must be a finite
    number >= 0. With ``trace``, the cap on traced degrees of
    :func:`compute_dbsim` applies to ``max_iters`` + 1 components.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not 0.0 <= tol < math.inf:  # NaN fails both comparisons
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
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

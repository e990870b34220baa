"""Depth-bounded fuzzy simulations and bisimulations.

The two computation entry points return the component chain phi_0..phi_k of
the greatest depth-bounded fuzzy (bi)simulation between two finite automata,
using the sparse successor/predecessor iteration. One kernel, :func:`_pass`,
enforces a round's transition condition; a bisimulation is a simulation whose
inverse is one too, so its mirrored condition is the same kernel on the
swapped automata and the transposed relations. A fixpoint driver wraps the
same iteration for the greatest plain fuzzy (bi)simulation, and definition-
level checkers validate relations and chains directly against the dense
conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .automata import (
    FuzzyAutomaton,
    build_index,
    require_same_alphabet,
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


def _norm_from_grid(st: Structure, grid: Sequence[Sequence[float]],
                    a: FuzzyAutomaton, b: FuzzyAutomaton, bisim: bool) -> float:
    tnorm = st.tnorm
    residuum = st.residuum
    ia = a.initial.degrees
    ib = b.initial.degrees
    norm = 1.0
    for x, sx in enumerate(ia):
        pulled = 0.0
        row = grid[x]
        for xp, sxp in enumerate(ib):
            if sxp > 0.0:
                v = tnorm(sxp, row[xp])
                if v > pulled:
                    pulled = v
        r = residuum(sx, pulled)
        if r < norm:
            norm = r
    if not bisim:
        return norm
    for xp, sxp in enumerate(ib):
        pulled = 0.0
        for x, sx in enumerate(ia):
            if sx > 0.0:
                v = tnorm(sx, grid[x][xp])
                if v > pulled:
                    pulled = v
        r = residuum(sxp, pulled)
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

    grid = _init_grid(st, a, b, bisim)
    prefix: list[FuzzyRelation] = [_freeze(grid)]
    norms: list[float] = [_norm_from_grid(st, prefix[0].degrees, a, b, bisim)]
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
        norms.append(_norm_from_grid(st, frozen.degrees, a, b, bisim))
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
    """Is rel a fuzzy simulation? Evaluates the defining inequalities densely."""
    require_same_alphabet(a, b)
    _check_rel_shape(rel, a, b)
    rel_inv = inverse(rel)
    if not set_leq(st, compose_rel_set(st, rel_inv, a.terminal), b.terminal):
        return False
    for s in range(a.num_symbols):
        lhs = compose_rel_rel(st, rel_inv, a.symbol_relation(s))
        rhs = compose_rel_rel(st, b.symbol_relation(s), rel_inv)
        if not rel_leq(st, lhs, rhs):
            return False
    return True


def check_bisim(st: Structure, a: FuzzyAutomaton, b: FuzzyAutomaton,
                rel: FuzzyRelation) -> bool:
    """Is rel a fuzzy bisimulation (a simulation whose inverse also is one)?"""
    if not check_sim(st, a, b, rel):
        return False
    return check_sim(st, b, a, inverse(rel))


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
    """Bisimulation counterpart of :func:`check_dbsim_prefix`."""
    return _check_prefix(st, a, b, prefix, bisim=True)


def _check_prefix(st: Structure, a: FuzzyAutomaton, b: FuzzyAutomaton,
                  prefix: Sequence[FuzzyRelation], bisim: bool) -> bool:
    require_same_alphabet(a, b)
    if not prefix:
        raise ValueError("prefix must contain at least one relation")
    for rel in prefix:
        _check_rel_shape(rel, a, b)

    first = prefix[0]
    if not set_leq(st, compose_rel_set(st, inverse(first), a.terminal), b.terminal):
        return False
    if bisim and not set_leq(st, compose_rel_set(st, first, b.terminal), a.terminal):
        return False

    rels_a = [a.symbol_relation(s) for s in range(a.num_symbols)]
    rels_b = [b.symbol_relation(s) for s in range(b.num_symbols)]
    for i in range(1, len(prefix)):
        cur, older = prefix[i], prefix[i - 1]
        if not rel_leq(st, cur, older):
            return False
        cur_inv = inverse(cur)
        older_inv = inverse(older)
        for s in range(a.num_symbols):
            lhs = compose_rel_rel(st, cur_inv, rels_a[s])
            rhs = compose_rel_rel(st, rels_b[s], older_inv)
            if not rel_leq(st, lhs, rhs):
                return False
            if bisim:
                lhs = compose_rel_rel(st, cur, rels_b[s])
                rhs = compose_rel_rel(st, rels_a[s], older)
                if not rel_leq(st, lhs, rhs):
                    return False
    return True


def prefix_norm(st: Structure, prefix: Sequence[FuzzyRelation],
                a: FuzzyAutomaton, b: FuzzyAutomaton, mode: str) -> float:
    """Meet of the per-component norms over a chain.

    Equals the sequence norm when the chain has reached its fixpoint, and is
    an upper bound otherwise (callers can tell the two apart via the result's
    ``fixpoint_at``/``status``).
    """
    if not prefix:
        raise ValueError("prefix must contain at least one relation")
    bisim = canonical_mode(mode) == MODE_BISIM
    return min(
        _norm_from_grid(st, rel.degrees, a, b, bisim) for rel in prefix)


def compose_prefixes(st: Structure, left: Sequence[FuzzyRelation],
                     right: Sequence[FuzzyRelation]) -> tuple[FuzzyRelation, ...]:
    """Componentwise relation composition of two equally long chains."""
    if len(left) != len(right):
        raise DimensionMismatch(
            f"prefixes have lengths {len(left)} and {len(right)}")
    return tuple(compose_rel_rel(st, p, q) for p, q in zip(left, right))

"""Depth-bounded fuzzy simulations and bisimulations.

The two computation entry points return the component chain phi_0..phi_k of
the greatest depth-bounded fuzzy (bi)simulation between two finite automata,
using the sparse successor/predecessor iteration. phi_i depends only on
phi_{i-1}, so the rounds are semi-naive: the first round works per class of
equal rows of phi_0, and each later one revisits only the open constraints
whose successor degrees changed in the round before; a constraint whose cells
have all reached their floors is settled and leaves for good. One generator,
:func:`_rounds`, yields the chain until it is stable; :func:`_run` cuts it by
the stop rules (depth, fixpoint, tolerance) for both entry points and for the
fixpoint driver of the greatest plain fuzzy (bi)simulation. A bisimulation is
a simulation whose inverse is one too, so the simulation code also serves the
mirrored side, on the swapped automata and the inverse relations: the round
kernel :func:`_pass` with the inputs of :func:`_views`, and the conditions
the definition-level checkers test; a plain (bi)simulation is checked as the
constant chain (rel, rel). The same pass computes each component's norm, on
the initial sets as one more symbol (:func:`_side`). The kernel is one source
text: :func:`_kernel` compiles it on first use per built-in structure with
its t-norm and residuum inlined, and once as it stands for every other pair,
which it then calls.
"""

from __future__ import annotations

import math  # read by the op templates that _kernel inlines
from itertools import compress, count
from operator import ne
from typing import Callable, Optional, Sequence

from .automata import (
    MODE_BISIM,
    MODE_SIM,
    FuzzyAutomaton,
    bisim_norm,
    build_index,
    canonical_mode,
    require_same_alphabet,
    require_shape,
    sim_norm,
)
from .errors import TraceCapExceeded
from .fuzzy import (
    FuzzyRelation,
    compose_rel_rel,
    compose_rel_set,
    inverse,
    rel_leq,
    relation_to_json,
    require_cells,
    set_leq,
)
from .lattice import _KINDS, _TEMPLATES, Frozen, Structure, as_int, as_tolerance


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

    def component(self, n: int) -> FuzzyRelation:
        """The component phi_n; past a fixpoint all components coincide."""
        n = as_int(n, 0, "component index")
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
        ``trace`` is present only for a traced result, and then ``phi_k``
        is the very dict ``trace[-1]``: a caller should mutate a copy.
        Degrees are the computed floats themselves."""
        trace = [relation_to_json(rel) for rel in self.prefix]
        doc = {
            "mode": self.mode,
            "k": self.requested,
            "fixpoint_at": self.fixpoint_at,
            "status": self.status,
            "phi_k": trace[-1],
            "norms": list(self.norms),
        }
        if self.traced:
            doc["trace"] = trace
        return doc


def _init_grid(st: Structure, a: FuzzyAutomaton, b: FuzzyAutomaton,
               bisim: bool) -> tuple[tuple, list[list[float]]]:
    # phi_0, the greatest relation compatible with the terminal sets, as
    # (x-major tuples, x'-major lists). One row of calls per distinct
    # terminal degree of b (never -0.0), copied per state.
    op = st.biresiduum if bisim else st.residuum
    ta = a.terminal.degrees
    tb = b.terminal.degrees
    rows = {ty: [op(tx, ty) for tx in ta] for ty in dict.fromkeys(tb)}
    grid = [rows[ty][:] for ty in tb]
    return tuple(zip(*grid)), grid


def _views(st: Structure, pred: Sequence, succ: Sequence) -> tuple[list, list, list]:
    # One direction's (caps, floors, opens) for _pass, per symbol, from the
    # left automaton's pred and the right one's succ (see build_index): per
    # state of the right automaton, each (y', d') as (cap, y', d'), largest
    # cap first, cap = d' (x) 1.0 (which need not be d'); per state of the
    # left one, each (x, d) as (x, d, floor), floor = d => 0.0; per x' of
    # the right, the open mask (see _pass), at first every y with a predecessor.
    tnorm, residuum = st.tnorm, st.residuum
    caps = [[sorted(((tnorm(d, 1.0), y, d) for y, d in succ_x), reverse=True)
             for succ_x in succ_s] for succ_s in succ]
    floors = [[[(x, d, residuum(d, 0.0)) for x, d in pred_y] for pred_y in pred_s]
              for pred_s in pred]
    opens = [[int.from_bytes(bytes(map(bool, pred_s)), "little")] * len(succ_s)
             for pred_s, succ_s in zip(floors, caps)]
    return caps, floors, opens


def _side(st: Structure, left: tuple, right: tuple) -> tuple[tuple, tuple]:
    # One side of the conditions, from left to right, each automaton given as
    # (build_index's result, initial degrees): the _views of its round pass,
    # and of its norm pass, whose one symbol leads from a fresh start state 0
    # to each state x of positive initial degree d, with degree d.
    (index_l, initial_l), (index_r, initial_r) = left, right
    pred = [[(0, d)] if d > 0.0 else [] for d in initial_l]
    succ = [[(x, d) for x, d in enumerate(initial_r) if d > 0.0]]
    return _views(st, index_l.pred, index_r.succ), _views(st, (pred,), (succ,))


# The round kernel, written once: the text of _pass, which :func:`_kernel`
# compiles per structure. It applies each op at one call site,
# ``v = tnorm(d, p)`` and ``new = residuum(d, bound)``. Compiled as it
# stands, the text calls the ops it binds from st: the generic kernel. For a
# built-in pair, the binding line goes and each call becomes the op's
# template with (x, y, v) filled in as (d, p, v) and (d, bound, new), so it
# makes the float operations of the op's function in the same order.
_KERNEL_TEXT = '''\
def _pass(st: Structure, grid: list[list[float]],
          prev: Sequence[Sequence[float]], caps: list, floors: list, opens: list,
          marks: Optional[list[int]]) -> float:
    """Lower grid to the transition condition against prev.

    Returns the largest single drop.

    For each symbol, each transition x -d-> y of the left automaton and each
    x' with its transitions x' -d'-> y' in the right one:
    grid[x'][x] <= d => sup_y' d' (x) prev[y][y']. grid and prev are indexed
    the opposite way round, so the row written and the row read are both
    hoisted out of the inner loops. The simulation condition is the call on
    the x'-major working grid with prev = phi_{i-1} and (right, left) =
    (b, a); the bisimulation's mirrored condition swaps the automata and
    transposes both relations. ``caps``, ``floors`` and ``opens`` are the
    direction's :func:`_views`: the successors of the right automaton, the
    predecessors of the left one, and per symbol and x' the open mask of the
    pass, an int whose bit 8y is set while the pair (x', y) might still
    lower a cell: a mask holds a byte per cell, so int.from_bytes and
    int.to_bytes convert it in C. A built-in structure's kernel has its
    t-norm and residuum inlined; any other calls st's (:func:`_kernel`).

    ``marks`` holds, per column y' of prev, an int whose bit 8y is set if the
    cell prev[y][y'] differs from the relation the last round read. The first
    round (``marks`` is None) reads phi_0, whose row for y is fixed by y's
    terminal degree, so its rows repeat: it takes per live x' one bound per
    (symbol, class of equal rows) and one residuum per distinct
    (symbol, class, d) of the transitions x -d-> y, then lowers each positive
    cell x by its transitions in (symbol, y) order: a 0.0 cell cannot fall,
    as no residuum is below 0.0 and a cell only takes a lower value. It
    reads no open mask, as every pair is open, so round two settles pairs.
    A later round visits only the open pairs with a marked successor cell:
    any other pair's bound is the one it had when last applied, and the grid
    only decreases, so it could lower nothing. A pair whose cells are all at
    or below their floors (see L3) is settled: the pass clears its bit, and
    it is never visited again, since cells only fall and floors are fixed.
    A pair whose bound is 0.0 is settled in the visit that lowers it, as it
    takes every cell above its floor to d => 0.0, the floor itself. Either
    way each cell meets its transitions in (symbol, y) order, so the cells
    and the drop are those of a walk over every pair in (symbol, x', y, x)
    order. Finding the pairs costs O(m_b) int ORs (:func:`_revisits`), on
    the masks of one C-level O(n_a n_b) diff (:func:`_diff`).

    The norm is this pass on the 1x1 grid phi(iota_a, iota_b) of fresh start
    states, with the norm views of :func:`_side`: it lowers the cell to each
    sigma_a(x) => sup_x' sigma_b(x') (x) prev[x][x']. The cell persists
    across rounds, a running meet, which is the component's norm because
    these values only fall with prev (the ops are monotone).

    Evaluations that cannot lower a cell are skipped by three laws the
    built-ins keep in floats, (L1) d' (x) p <= d' (x) 1.0, (L2)
    (d => b) >= b and (L3) (d => b) >= (d => 0.0): by L1 the sup stops at
    the first cap d' (x) 1.0, largest first, that cannot raise it; by L2 no
    residuum is taken for a cell at or below the bound; by L3 a cell at or
    below its floor d => 0.0 is settled, since no bound lowers it through
    that transition. The pair is left once the bound reaches its largest
    unsettled cell, before any t-norm if every cell is settled (and then
    for good, by the open masks), and a row of the grid with no positive
    cell is not visited. For a structure that keeps the three laws, the
    lowerings are those of the full loops.
    """
    tnorm, residuum = st.tnorm, st.residuum
    max_drop = 0.0
    if marks is None:
        classes: dict = {}  # a row of prev -> the first y with that row
        of_y = [classes.setdefault(tuple(prev_y), y) for y, prev_y in enumerate(prev)]
        bounds: dict = {}  # (symbol, first y of a class) -> its index in tops
        steps: dict = {}  # (index in tops, d) -> its index in lows
        walks: list = [[] for _ in grid[0]]  # per x, its steps in (symbol, y) order
        for s, pred_s in enumerate(floors):
            for y, pred_y in enumerate(pred_s):
                for x, d, _ in pred_y:
                    k = bounds.setdefault((s, of_y[y]), len(bounds))
                    walks[x].append(steps.setdefault((k, d), len(steps)))
        for row, succ in compress(zip(grid, zip(*caps)), map(any, grid)):
            tops = []
            for s, y in bounds:
                prev_y = prev[y]
                bound = 0.0
                for cap, yp, d in succ[s]:
                    if cap <= bound:
                        break
                    p = prev_y[yp]
                    v = tnorm(d, p)
                    if v > bound:
                        bound = v
                tops.append(bound)
            lows = [residuum(d, bound) for k, d in steps for bound in (tops[k],)]
            for x, walk in compress(enumerate(walks), row):
                cur = row[x]
                for k in walk:
                    new = lows[k]
                    if new < cur:
                        if cur - new > max_drop:
                            max_drop = cur - new
                        cur = new
                row[x] = cur
        return max_drop
    bits = [1 << 8 * y for y in range(len(prev))]  # the open-mask bit of each y
    for row, succ_list, ys, open_s, xp in _revisits(grid, prev, caps, floors,
                                                    marks, opens):
        settled = 0
        for y, prev_y, pred_list in ys:
            top = 0.0
            for x, _, floor in pred_list:
                cur = row[x]
                if cur > top and cur > floor:
                    top = cur
            if top == 0.0:
                settled |= bits[y]
                continue
            bound = 0.0
            for cap, yp, d in succ_list:
                if cap <= bound or bound >= top:
                    break
                p = prev_y[yp]
                v = tnorm(d, p)
                if v > bound:
                    bound = v
            if bound >= top:
                continue
            if bound == 0.0:
                settled |= bits[y]
            for x, d, floor in pred_list:
                cur = row[x]
                if cur <= bound or cur <= floor:
                    continue
                new = residuum(d, bound)
                if new < cur:
                    row[x] = new
                    drop = cur - new
                    if drop > max_drop:
                        max_drop = drop
        if settled:
            open_s[xp] &= ~settled
    return max_drop
'''
_BIND = "    tnorm, residuum = st.tnorm, st.residuum\n"
# The compiled kernels, _pass per built-in structure name or "generic".
_KERNELS: dict[str, Callable] = {}


def _kernel(st: Structure) -> Callable:
    """The kernel ``_pass`` that st runs: the kernel text with the ops
    inlined if they are a built-in pair, else the generic kernel, which
    calls them (a custom pair, checked wrappers, or any other functions).
    Each is compiled on first use, under a file name that names it."""
    kind = _KINDS.get((st.tnorm, st.residuum), "generic")
    kernel = _KERNELS.get(kind)
    if kernel is None:
        text = _KERNEL_TEXT
        if kind != "generic":
            tnorm, residuum = _TEMPLATES[kind]
            text = (text.replace(_BIND, "")
                    .replace("tnorm(d, p)", tnorm.format(x="d", y="p", v="v"))
                    .replace("residuum(d, bound)",
                             residuum.format(x="d", y="bound", v="new")))
        scope: dict = {}
        code = compile(text, f"<fuzzbound.dbsim kernel, {kind}>", "exec")
        exec(code, globals(), scope)
        kernel = _KERNELS[kind] = scope["_pass"]
    return kernel


def _revisits(grid: list[list[float]], prev: Sequence[Sequence[float]],
              caps: list, floors: list, marks: list[int], opens: list):
    # The work of a pass: per symbol and live x' ascending, the open pairs
    # (x', y) whose bound reads a marked cell (y, y'), y' a successor of x',
    # each as (y, prev[y], pred[y]), with the symbol's open masks and x'.
    # The y are the bytes set in the open mask (a subset of the y with
    # predecessors) ANDed with the OR of those columns' marks; when
    # that is every y with predecessors, the symbol's one list is shared.
    live = list(compress(range(len(grid)), map(any, grid)))
    for succ_s, pred_s, open_s in zip(caps, floors, opens):
        items = list(zip(count(), prev, pred_s))
        every_y = list(compress(items, pred_s))
        for xp in live:
            ys = open_s[xp]
            if not ys:
                continue
            succ_list = succ_s[xp]
            seen = 0
            for _, yp, _ in succ_list:
                seen |= marks[yp]
            ys &= seen
            if ys.bit_count() == len(every_y):
                yield grid[xp], succ_list, every_y, open_s, xp
            elif ys:
                yield (grid[xp], succ_list,
                       compress(items, ys.to_bytes(len(items), "little")), open_s, xp)


def _diff(new: Sequence[Sequence[float]],
          old: Sequence[Sequence[float]]) -> list[int]:
    # Per row, the columns c where new and old differ, as the bits 8c of an
    # int. Rows compare in C, and a row that moved becomes its int in C too.
    return [int.from_bytes(bytes(map(ne, row, old_row)), "little")
            if row != old_row else 0 for row, old_row in zip(new, old)]


def _transpose(grid: Sequence[Sequence[float]]) -> list[list[float]]:
    return [list(col) for col in zip(*grid)]


def _rounds(st: Structure, a: FuzzyAutomaton, b: FuzzyAutomaton, bisim: bool):
    # The chain phi_0, phi_1, ... as (degrees, norm, drop) per component:
    # degrees x-major, drop the largest single lowering of the round that
    # made it (None for phi_0). Ends after the first round that lowers
    # nothing, so the last item is the fixpoint.
    ends = [(build_index(a), a.initial.degrees), (build_index(b), b.initial.degrees)]
    # The sides: a to b, and for a bisimulation b to a on the inverse relations.
    sides = [_side(st, *ends)] + ([_side(st, *ends[::-1])] if bisim else [])
    run_pass = _kernel(st)
    # The component x-major (tuples, yielded) and x'-major (lists): side s
    # reads orientation s and writes the other one.
    phi = _init_grid(st, a, b, bisim)
    norm = [[1.0]]  # phi(iota_a, iota_b), the norm (see _pass), lowered by each side
    # Per side, the _diff masks of the cells the last round changed, per
    # column of the orientation it reads; None: every cell may have.
    marks: list[Optional[list[int]]] = [None] * len(sides)
    drop = None
    while True:
        for (_, norm_views), prev, marked in zip(sides, phi, marks):
            run_pass(st, norm, prev, *norm_views, marked)
        yield phi[0], norm[0][0], drop
        work = list(map(list, phi[1]))
        drop = 0.0
        for s, ((views, _), prev, marked) in enumerate(zip(sides, phi, marks)):
            if s:  # the mirrored side writes x-major
                work = _transpose(work)
            drop = max(drop, run_pass(st, work, prev, *views, marked))
        if drop == 0.0:
            return
        # A bisimulation's work is x-major after the mirrored side.
        new = ((tuple(map(tuple, work)), _transpose(work)) if bisim
               else (tuple(zip(*work)), work))
        # A column of one orientation is a row of the other. Taken before the
        # yield, as phi_i's norm passes read the marks of the round that made it.
        marks = [_diff(new[1 - s], phi[1 - s]) for s in range(len(sides))]
        phi = new


def _run(st: Structure, a: FuzzyAutomaton, b: FuzzyAutomaton, mode: str,
         max_steps: int, trace: bool, tol: Optional[float]) -> DbSimResult:
    max_steps = as_int(max_steps, 0, "iteration bound")
    require_same_alphabet(a, b)
    # The working grid holds n_a * n_b degrees, a trace up to steps + 1 grids.
    held = max_steps + 1 if trace else 1
    require_cells(held * a.num_states * b.num_states,
                  f"{held} grid(s) of {a.num_states}x{b.num_states}", TraceCapExceeded)
    prefix: list[FuzzyRelation] = []
    norms: list[float] = []
    fixpoint_at: Optional[int] = None
    status = "depth" if tol is None else "cap"
    for i, (degrees, norm, drop) in enumerate(_rounds(st, a, b, mode == MODE_BISIM)):
        if not trace:
            prefix.clear()
        # Every degree is a built-in's result or a checked one (lattice).
        prefix.append(FuzzyRelation.trusted(a.num_states, b.num_states, degrees))
        norms.append(norm)
        if i and tol is not None and drop <= tol:
            status = "tol"
            break
        if i == max_steps:
            break
    else:
        # The round after phi_i changed nothing, so phi_i is the fixpoint.
        fixpoint_at = i
        status = "fixpoint"

    return DbSimResult(mode=mode, requested=max_steps, prefix=tuple(prefix),
                       norms=tuple(norms), fixpoint_at=fixpoint_at, status=status,
                       traced=trace)


def compute_dbsim(st: Structure, a: FuzzyAutomaton, b: FuzzyAutomaton, k: int,
                  trace: bool = False) -> DbSimResult:
    """Component phi_k of the greatest depth-bounded fuzzy simulation.

    Starts from the terminal-set residuum relation and applies k rounds of the
    sparse bound/predecessor update, exiting early once a round changes
    nothing (every later component equals that fixpoint). The first round is a
    full one, O(n_a m_b + n_b m_a + n_a n_b) for automata of n states and m
    transitions, but makes at most c_a m_b + n_b u_a op calls, phi_0 having
    c_a <= n_a distinct rows and u_a <= m_a being the distinct (symbol, row,
    degree) of a's transitions; a later round visits only the open pairs whose
    successor degrees changed in the round before, plus O(m_b) int ORs to find
    those pairs and one C-level O(n_a n_b) diff, a byte per cell, per
    orientation (a simulation needs only one). A pair whose cells have all
    reached their floors is settled and leaves the work for good. The start
    component costs one row of n_a calls per distinct terminal degree of b. A
    run whose working grid, or traced chain, could hold more than
    ``MAX_CELLS`` degrees raises ``TraceCapExceeded`` before its first round.
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
    max_iters = as_int(max_iters, 1, "max_iters")
    tol = as_tolerance(tol, "tol")
    return _run(st, a, b, canonical_mode(mode), max_iters, trace, tol=tol)


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
    structure's tolerance. Automata whose dense symbol relations could hold
    more than ``MAX_CELLS`` degrees raise ``TraceCapExceeded`` first.
    """
    return _check_prefix(st, a, b, prefix, bisim=False)


def check_dbbisim_prefix(st: Structure, a: FuzzyAutomaton, b: FuzzyAutomaton,
                         prefix: Sequence[FuzzyRelation]) -> bool:
    """Bisimulation counterpart of :func:`check_dbsim_prefix`: the chain
    passes the simulation check from a to b, and its inverse from b to a."""
    return _check_prefix(st, a, b, prefix, bisim=True)


def _require_checkable(a: FuzzyAutomaton, b: FuzzyAutomaton) -> None:
    # The automata of a check: one alphabet, and the dense relation of each
    # symbol, which _simulates builds on both sides at once, under the cap.
    require_same_alphabet(a, b)
    require_cells(a.num_symbols * (a.num_states ** 2 + b.num_states ** 2),
                  f"the symbol relations of {a.num_states} and {b.num_states} states",
                  TraceCapExceeded)


def _check_prefix(st: Structure, a: FuzzyAutomaton, b: FuzzyAutomaton,
                  prefix: Sequence[FuzzyRelation], bisim: bool) -> bool:
    _require_checkable(a, b)
    if not prefix:
        raise ValueError("prefix must contain at least one relation")
    for rel in prefix:
        require_shape(rel, a, b)
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

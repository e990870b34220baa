"""Depth-bounded fuzzy simulations and bisimulations.

The two computation entry points return the component chain phi_0..phi_k of
the greatest depth-bounded fuzzy (bi)simulation between two finite automata,
using the sparse successor/predecessor iteration. phi_i depends only on
phi_{i-1}, so the rounds are semi-naive: the first round is a full pass, and
each later one revisits only the open constraints whose successor degrees
changed in the round before; a constraint whose cells have all reached their
floors is settled and leaves for good. One generator, :func:`_rounds`,
yields the chain until it is stable; :func:`_run` cuts it by the stop rules
(depth, fixpoint, tolerance) for both entry points and for the fixpoint
driver of the greatest plain fuzzy (bi)simulation. A bisimulation is a
simulation whose inverse is one too, so the simulation code also serves the
mirrored side, on the swapped automata and the inverse relations: the round
kernel :func:`_pass` with the inputs of :func:`_views`, the per-row norm
values :func:`_row_norms`, and the conditions the definition-level checkers
test; a plain (bi)simulation is checked as the constant chain (rel, rel).
The round kernel, ``_pass`` and ``_row_norms``, is one source text:
:func:`_kernel` compiles it on first use per built-in structure with its
t-norm and residuum inlined, and once as it stands for every other pair,
which it then calls.
"""

from __future__ import annotations

import math
import re
from functools import reduce
from itertools import compress, count
from operator import index, ne, or_
from typing import Optional, Sequence

from .automata import (
    FuzzyAutomaton,
    SuccPredIndex,
    bisim_norm,
    build_index,
    require_same_alphabet,
    require_shape,
    sim_norm,
)
from .errors import TraceCapExceeded
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
from .lattice import _BUILTINS, _OP_TEXT, Frozen, Structure

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
               bisim: bool) -> list[list[float]]:
    # phi_0 is the greatest relation compatible with the terminal sets; the
    # working grid is held x'-major (see _pass). One row of calls per
    # distinct terminal degree of b (never -0.0), copied per state.
    op = st.biresiduum if bisim else st.residuum
    ta = a.terminal.degrees
    tb = b.terminal.degrees
    rows = {ty: [op(tx, ty) for tx in ta] for ty in dict.fromkeys(tb)}
    return [rows[ty][:] for ty in tb]


def _views(st: Structure, left_index: SuccPredIndex, right_index: SuccPredIndex,
           n_right: int) -> tuple[list, list, list]:
    # One direction's (caps, floors, opens) for _pass, per symbol: per state
    # of the right automaton, each (y', d') as (cap, y', d'), largest cap
    # first, cap = d' (x) 1.0 (which need not be d'); per state of the left
    # one, each (x, d) as (x, d, floor), floor = d => 0.0; per x' of the
    # right, the open mask, at first every y with a predecessor.
    tnorm, residuum = st.tnorm, st.residuum
    caps = [[sorted(((tnorm(d, 1.0), y, d) for y, d in succ_x), reverse=True)
             for succ_x in succ_s] for succ_s in right_index.succ]
    floors = [[[(x, d, residuum(d, 0.0)) for x, d in pred_y] for pred_y in pred_s]
              for pred_s in left_index.pred]
    opens = [[sum(1 << y for y, pred_y in enumerate(pred_s) if pred_y)] * n_right
             for pred_s in floors]
    return caps, floors, opens


# The round kernel, written once: the text of _row_norms and _pass, which
# :func:`_kernel` compiles per structure. An op is applied only on a line
# ``target = tnorm(a, b)`` or ``target = residuum(a, b)``, with plain names
# or literals as operands. Compiled as it stands, the text calls the ops it
# binds from st: the generic kernel. For a built-in pair, each such line
# becomes the op's text with x, y and v renamed to a, b and target, so it
# makes the float operations of the op's function in the same order, and
# the binding lines go.
_KERNEL_TEXT = '''\
def _row_norms(st: Structure, rows: Sequence[Sequence[float]],
               init_rows: Sequence[float], init_cols: Sequence[float],
               moved: Optional[Sequence]) -> list[tuple[int, float]]:
    """Per row x whose selector in ``moved`` is true (every row if None) of
    the relation held row by row: the graded inclusion of x in the row
    side's initial set, sigma(x) => sup_x' sigma'(x') (x) row[x']; the
    simulation norm is the meet of 1.0 and these values. By (L1) of
    :func:`_pass` the sup stops at the first cap s (x) 1.0, largest first,
    that cannot raise it."""
    tnorm, residuum = st.tnorm, st.residuum
    support = []
    for j, s in enumerate(init_cols):
        if s > 0.0:
            cap = tnorm(s, 1.0)
            support.append((cap, j, s))
    support.sort(reverse=True)
    which = range(len(rows)) if moved is None else compress(range(len(rows)), moved)
    out = []
    for x in which:
        row = rows[x]
        pulled = 0.0
        for cap, j, s in support:
            if cap <= pulled:
                break
            cell = row[j]
            v = tnorm(s, cell)
            if v > pulled:
                pulled = v
        start = init_rows[x]
        norm = residuum(start, pulled)
        out.append((x, norm))
    return out


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
    pass, an int whose bit y is set while the pair (x', y) might still lower
    a cell. A built-in structure's kernel has its t-norm and residuum
    inlined; any other calls st's (:func:`_kernel`).

    ``marks`` holds, per column y' of prev, an int whose bit y is set if the
    cell prev[y][y'] differs from the relation the last round read. The
    first round (``marks`` is None) visits every open pair, at first every
    (x', y) where y has a predecessor. A later round visits only the open
    pairs with a marked successor cell: any other pair's bound is the one it
    had when last applied, and the grid only decreases, so it could lower
    nothing. A pair whose cells are all at or below their floors (see L3) is
    settled: the pass clears its bit, and it is never visited again, since
    cells only fall and floors are fixed. The order is the same
    (symbol, x', y, x), so the same lowerings happen in the same order.
    Finding the pairs costs O(m_b) int ORs (:func:`_revisits`), on the masks
    of one C-level O(n_a n_b) diff (:func:`_diff`).

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
                settled |= 1 << y
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
_OP_LINE = r"(?m)^( +)(\w+) = (tnorm|residuum)\(([\w.]+), ([\w.]+)\)$"
_OPERAND = r"\b[xyv]\b"
_KINDS = {ops: kind for kind, ops in _BUILTINS.items()}  # built-in pair -> name
# The compiled kernels, (pass, row_norms), by built-in structure name or
# "generic".
_KERNELS: dict[str, tuple] = {}


def _kernel(st: Structure) -> tuple:
    """The kernel (pass, row_norms) that st runs: the kernel text with the
    ops inlined if they are a built-in pair, else the generic kernel, which
    calls them (a custom pair, checked wrappers, or any other functions).
    Each is compiled on first use, under a file name that names it."""
    kind = _KINDS.get((st.tnorm, st.residuum), "generic")
    kernel = _KERNELS.get(kind)
    if kernel is None:
        text = _KERNEL_TEXT
        if kind != "generic":
            tnorm, residuum = _BUILTINS[kind]
            inline = {"tnorm": _OP_TEXT[tnorm], "residuum": _OP_TEXT[residuum]}

            def substitute(line: re.Match) -> str:
                indent, target, op, x, y = line.groups()
                names = {"x": x, "y": y, "v": target}
                return f"{indent}{target} = " + re.sub(
                    _OPERAND, lambda m: names[m[0]], inline[op])

            text = re.sub(_OP_LINE, substitute, text.replace(_BIND, ""))
        scope: dict = {}
        code = compile(text, f"<fuzzbound.dbsim kernel, {kind}>", "exec")
        exec(code, globals(), scope)
        kernel = _KERNELS[kind] = scope["_pass"], scope["_row_norms"]
    return kernel


_BITS = bytes.maketrans(b"01", b"\x00\x01")  # binary digits as compress selectors
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # and back


def _selectors(mask: int) -> bytes:
    # The bits of mask, lowest first, as one compress selector each.
    return format(mask, "b")[::-1].encode().translate(_BITS)


def _revisits(grid: list[list[float]], prev: Sequence[Sequence[float]],
              caps: list, floors: list, marks: Optional[list[int]], opens: list):
    # The work of a pass: per symbol and live x' ascending, the open pairs
    # (x', y) whose bound reads a marked cell (y, y'), y' a successor of x',
    # each as (y, prev[y], pred[y]), with the symbol's open masks and x'.
    # The y are the set bits of the open mask (a subset of the y with
    # predecessors) ANDed with the OR of those columns' marks, if any; when
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
            if marks is not None:
                seen = 0
                for _, yp, _ in succ_list:
                    seen |= marks[yp]
                ys &= seen
            if ys.bit_count() == len(every_y):
                yield grid[xp], succ_list, every_y, open_s, xp
            elif ys:
                yield grid[xp], succ_list, compress(items, _selectors(ys)), open_s, xp


def _diff(new: Sequence[Sequence[float]],
          old: Sequence[Sequence[float]]) -> list[int]:
    # Per row, the columns where new and old differ, as the set bits of an
    # int. Rows compare in C, and a row that moved is turned into its int in
    # C too (base 2 has no digit limit), lowest column as the last digit.
    return [int(bytes(map(ne, row, old_row))[::-1].translate(_DIGITS), 2)
            if row != old_row else 0 for row, old_row in zip(new, old)]


def _transpose(grid: Sequence[Sequence[float]]) -> list[list[float]]:
    return [list(col) for col in zip(*grid)]


def _require_cells(cells: int, what: str) -> None:
    # Called before any grid exists; exit code 3 in the CLI.
    if cells > MAX_CELLS:
        raise TraceCapExceeded(
            f"{what} could hold {cells} degrees, over the cap of {MAX_CELLS}")


def _rounds(st: Structure, a: FuzzyAutomaton, b: FuzzyAutomaton, bisim: bool):
    # The chain phi_0, phi_1, ... as (degrees, norm, drop) per component:
    # degrees x-major, drop the largest single lowering of the round that
    # made it (None for phi_0). Ends after the first round that lowers
    # nothing, so the last item is the fixpoint.
    index_a, index_b = build_index(a), build_index(b)
    forward = _views(st, index_a, index_b, b.num_states)
    mirror = _views(st, index_b, index_a, a.num_states) if bisim else None
    ia, ib = a.initial.degrees, b.initial.degrees
    run_pass, row_norms = _kernel(st)
    grid = _init_grid(st, a, b, bisim)
    # The working grid is x'-major; relations are x-major.
    degrees = tuple(zip(*grid))
    # The per-row values whose meet is the norm: the simulation side per x
    # of the component, the bisimulation's mirrored side per x' of the
    # x'-major working grid. A round recomputes the rows it changed.
    sim_rows: dict[int, float] = {}
    mirror_rows: dict[int, float] = {}
    # The cells the last round changed; None: every cell may have. marks
    # holds the _diff masks per x' row of the working grid, read by the
    # forward pass and the mirror norm. changed selects the rows x of the
    # component that moved, for the sim norm; for a bisimulation it is their
    # _diff masks, which the mirrored pass reads.
    marks: Optional[list[int]] = None
    changed: Optional[Sequence] = None
    drop = None
    while True:
        sim_rows.update(row_norms(st, degrees, ia, ib, changed))
        if bisim:
            mirror_rows.update(row_norms(st, grid, ib, ia, marks))
        yield degrees, min(1.0, *sim_rows.values(), *mirror_rows.values()), drop
        prev = degrees
        prev_t = list(map(list, grid))  # the yielded component, x'-major
        drop = run_pass(st, grid, prev, *forward, marks)
        if bisim:
            rows = _transpose(grid)
            drop = max(drop, run_pass(st, rows, prev_t, *mirror, changed))
            grid = _transpose(rows)
        if drop == 0.0:
            return
        degrees = tuple(map(tuple, rows)) if bisim else tuple(zip(*grid))
        marks = _diff(grid, prev_t)
        changed = _diff(degrees, prev) if bisim else _selectors(reduce(or_, marks))
        rows = prev_t = None  # freed before the next round, for peak memory


def _run(st: Structure, a: FuzzyAutomaton, b: FuzzyAutomaton, mode: str,
         max_steps: int, trace: bool, tol: Optional[float]) -> DbSimResult:
    if type(max_steps) is bool:  # index() takes True as 1
        raise TypeError("'bool' object cannot be interpreted as an integer")
    max_steps = index(max_steps)  # TypeError for a float, even 2.0
    if max_steps < 0:
        raise ValueError("iteration bound must be >= 0")
    require_same_alphabet(a, b)
    # The working grid holds n_a * n_b degrees, a trace up to steps + 1 grids.
    held = max_steps + 1 if trace else 1
    _require_cells(held * a.num_states * b.num_states,
                   f"{held} grid(s) of {a.num_states}x{b.num_states}")
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

    Starts from the terminal-set residuum relation and applies k rounds of
    the sparse bound/predecessor update, exiting early once a round changes
    nothing (every later component equals that fixpoint). The first round
    is a full one, O(n_a m_b + n_b m_a + n_a n_b) for automata of n states
    and m transitions; a later round visits only the open pairs whose
    successor degrees changed in the round before, plus O(m_b) int ORs to
    find those pairs and one C-level O(n_a n_b) diff per orientation to find
    the changed cells (a simulation needs only one). A pair whose cells have
    all reached their floors is settled and leaves the work for good. The
    start component costs one row of n_a calls per distinct terminal degree
    of b. A run whose working grid, or traced chain, could hold more than
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
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if type(tol) is bool or not 0.0 <= tol < math.inf:  # NaN fails both comparisons
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
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


def _check_prefix(st: Structure, a: FuzzyAutomaton, b: FuzzyAutomaton,
                  prefix: Sequence[FuzzyRelation], bisim: bool) -> bool:
    require_same_alphabet(a, b)
    if not prefix:
        raise ValueError("prefix must contain at least one relation")
    for rel in prefix:
        require_shape(rel, a, b)
    # _simulates builds each symbol's dense relation, on both sides at once.
    _require_cells(a.num_symbols * (a.num_states ** 2 + b.num_states ** 2),
                   f"the symbol relations of {a.num_states} and {b.num_states} states")
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

"""Per-layer metrics of the traced run.

The timed loop of the traced run gives spans around the calls each operation
makes. After it, ``probe`` runs the workload's own operations once more on
its first pool entry, in ways that expose one layer at a time: the CLI
in-process with spans, the computations with tracing on (for counts) and at
depth 0 (for the per-call fixed cost), and single calls of the functions the
kernel calls once per round. Layers the workload's operations never reach
(for the API workloads: relation parsing, checking, formulas) are probed on
the same entry, so every metric exists on every workload.
"""

from __future__ import annotations

import contextlib
import statistics
import subprocess
import sys
from time import perf_counter

from fuzzbound import (
    FuzzyRelation,
    bisim_norm,
    check_dbsim_prefix,
    compute_dbbisim,
    compute_dbsim,
    eval_formula,
    parse_formula,
    relation_from_json,
    relation_to_json,
    sim_norm,
    structure,
)

import spans
from spans import END, NAME, OP, START
from workloads import (
    API_CALLS,
    STRUCTURES,
    WRITE_COMMANDS,
    api_call,
    cli_env,
    entry_formula,
    rounds_of,
)

KERNEL_SPANS = {"dbsim." + fn.__name__ for fn in API_CALLS.values()}
REPEATS = 3
STARTUP_REPEATS = 5
LATTICE_DEGREES = tuple(i / 10 for i in range(11))

# (metric, span name): the median duration of that call, in ms.
SPAN_MEDIANS = (
    ("automata.build_index_ms", "automata.build_index"),
    ("automata.from_json_ms", "automata.automaton_from_json"),
    ("fuzzy.to_json_ms", "fuzzy.relation_to_json"),
    ("fuzzy.from_json_ms", "fuzzy.relation_from_json"),
    ("fuzzy.compose_ms", "fuzzy.compose_rel_rel"),
    ("dbsim.check_ms", "dbsim.check_dbsim_prefix"),
    ("logic.parse_ms", "logic.parse_formula"),
    ("logic.eval_ms", "logic.eval_formula"),
)


def kernel_ops_per_round(a, b, bisim: bool) -> int:
    """t-norm plus residuum evaluations of one round: sum_s n_a*m_b,s + n_b*m_a,s."""
    ops = sum(a.num_states * len(tb) + b.num_states * len(ta)
              for ta, tb in zip(a.transitions, b.transitions))
    return 2 * ops if bisim else ops


def cells_lowered(prefix) -> int:
    return sum(1 for older, cur in zip(prefix, prefix[1:])
               for row_o, row_c in zip(older.degrees, cur.degrees)
               for x, y in zip(row_o, row_c) if y < x)


def _cli_probe(workload, ctx, tracer, ops):
    """Run the entry's CLI commands in-process; returns (kernel seconds per op, bytes written)."""
    from fuzzbound import cli

    run = tracer.wrap(cli.run, "cli.run")
    kernel_seconds, written = {}, 0
    with tracer.patched(spans.CALLS_FROM_CLI + spans.CALLS_FROM_DBSIM):
        for op in ops:
            argv = workload.argv(ctx, op)
            first = len(tracer.spans)
            with open(ctx.stdout, "w", encoding="utf-8") as out, \
                    contextlib.redirect_stdout(out):
                code = run(argv)
            if code != 0:
                raise RuntimeError(f"probe {op.key}: exit code {code}")
            if op.command in WRITE_COMMANDS:
                target = argv[argv.index("--output") + 1] if "--output" in argv \
                    else ctx.stdout
                with open(target, "rb") as handle:
                    written += len(handle.read())
                kernel = next(s for s in tracer.spans[first:] if s[NAME] in KERNEL_SPANS)
                kernel_seconds[op] = kernel[END] - kernel[START]
    return kernel_seconds, written


def _lattice_ns():
    pairs = [(x, y) for x in LATTICE_DEGREES for y in LATTICE_DEGREES] * 40
    rows = []
    for name in STRUCTURES:
        st = structure(name)
        for op in ("tnorm", "residuum"):
            fn = getattr(st, op)
            times = []
            for _ in range(5):
                start = perf_counter()
                for x, y in pairs:
                    fn(x, y)
                times.append(perf_counter() - start)
            rows.append((f"lattice.{op}_ns.{name}",
                         statistics.median(times) / len(pairs) * 1e9, "ns",
                         f"per call, median of 5 loops of {len(pairs)} calls"))
    return rows


def _startup_ms():
    env = cli_env()
    times = []
    for _ in range(STARTUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import fuzzbound.cli"], env=env,
                       check=True, timeout=60)
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e3


def probe(workload, ctx, tracer) -> list[tuple]:
    """Per-layer rows (name, value, unit, base) measured on the run's first entry."""
    entry = ctx.order[0]
    a, b = ctx.pairs[entry]
    cells = a.num_states * b.num_states
    ops = workload.cycle(entry)
    compute_ops = [op for op in ops if op.command in API_CALLS]
    kernel_seconds, written = _cli_probe(workload, ctx, tracer, ops)

    rounds = lowered = kernel_ops = 0
    round_seconds, k0, freeze, norm = 0.0, [], [], []
    sim_chain = None
    for op in compute_ops:
        st = structure(op.structure)
        bisim = op.mode == "bisim"
        result = api_call(op, st, a, b, trace=True)
        if sim_chain is None and not bisim:
            sim_chain = (st, result.prefix)
        n_rounds = rounds_of(result.status, result.norms)
        rounds += n_rounds
        lowered += cells_lowered(result.prefix)
        kernel_ops += kernel_ops_per_round(a, b, bisim) * n_rounds
        depth0 = compute_dbbisim if bisim else compute_dbsim
        t0 = statistics.median(tracer.call("dbsim." + depth0.__name__, depth0,
                                           st, a, b, 0)[1] for _ in range(REPEATS))
        k0.append(t0)
        round_seconds += kernel_seconds[op] - t0
        grid = [list(row) for row in result.relation.degrees]
        t_freeze = statistics.median(
            tracer.call("fuzzy.FuzzyRelation", lambda: FuzzyRelation(
                a.num_states, b.num_states, tuple(tuple(r) for r in grid)))[1]
            for _ in range(REPEATS))
        freeze.append(t_freeze * len(result.norms))
        norm_fn = bisim_norm if bisim else sim_norm
        _, t_norm = tracer.call("automata." + norm_fn.__name__, norm_fn, st,
                                result.relation, a, b)
        norm.append(t_norm * len(result.norms))

    # Layers the workload's own operations do not reach.
    st = structure(ops[0].structure)
    if not tracer.durations("fuzzy.relation_from_json"):
        doc = relation_to_json(sim_chain[1][-1])
        for _ in range(REPEATS):
            tracer.call("fuzzy.relation_from_json", relation_from_json, doc)
    if not tracer.durations("dbsim.check_dbsim_prefix"):
        with tracer.patched(spans.CALLS_FROM_DBSIM):
            tracer.call("dbsim.check_dbsim_prefix", check_dbsim_prefix,
                        sim_chain[0], a, b, sim_chain[1][:2])
    if not tracer.durations("logic.parse_formula"):
        text = ctx.formulas.get(entry) or entry_formula(workload.name, a, entry)
        for _ in range(REPEATS):
            formula, _ = tracer.call("logic.parse_formula", parse_formula, text)
            tracer.call("logic.eval_formula", eval_formula, st, a, formula)

    calls = len(compute_ops)
    base = f"entry {entry}, {calls} calls of {a.num_states}x{b.num_states} cells"
    rows = [
        ("dbsim.round_ms", round_seconds / rounds * 1e3, "ms",
         f"(T(k) - T(0)) / rounds, {base}"),
        ("dbsim.k0_ms", statistics.mean(k0) * 1e3, "ms", f"per call, {base}"),
        ("dbsim.rounds", rounds, "count", f"sum over {base}"),
        ("dbsim.cells_lowered", lowered, "count", f"sum over {base}"),
        ("dbsim.changed_cell_frac", lowered / (cells * rounds), "ratio",
         f"cells lowered / (cells x rounds) = {lowered} / ({cells} x {rounds})"),
        ("lattice.kernel_ops", kernel_ops, "count",
         f"t-norm + residuum calls, sum over {base}"),
        ("dbsim.ops_per_s", kernel_ops / round_seconds, "1/s",
         f"kernel ops / round time, {base}"),
        *_lattice_ns(),
        ("fuzzy.freeze_ms", statistics.mean(freeze) * 1e3, "ms",
         f"one freeze x freezes per call, mean over {base}"),
        ("automata.norm_ms", statistics.mean(norm) * 1e3, "ms",
         f"one norm x norms per call, mean over {base}"),
    ]
    for metric, name in SPAN_MEDIANS:
        durations = tracer.durations(name)
        rows.append((metric, statistics.median(durations) * 1e3, "ms",
                     f"median of {len(durations)} calls"))
    cli_self = [t for span, t in zip(tracer.spans, tracer.self_times())
                if span[NAME] == "cli.run"]
    generated = tracer.durations("oracle.generate_automaton")
    rows += [
        ("cli.output_bytes", written, "bytes",
         f"documents written by the {calls} writing commands of entry {entry}"),
        ("cli.self_ms", statistics.median(cli_self) * 1e3, "ms",
         f"cli.run minus child spans, median of {len(cli_self)} commands"),
        ("cli.startup_ms", _startup_ms(), "ms",
         f"'import fuzzbound.cli' subprocess, median of {STARTUP_REPEATS}"),
        ("oracle.generate_ms", sum(generated) * 1e3, "ms",
         f"total over the {len(generated)} automata of set-up"),
    ]
    return rows


def layer_self_ms(tracer, traced_ops: int) -> dict[str, float]:
    """Self time per layer and traced operation, over the timed loop's spans."""
    totals: dict[str, float] = {}
    for span, self_time in zip(tracer.spans, tracer.self_times()):
        if span[OP] is not None:
            layer = span[NAME].split(".")[0]
            totals[layer] = totals.get(layer, 0.0) + self_time
    return {layer: t / traced_ops * 1e3 for layer, t in sorted(totals.items())}

"""The benchmark's workloads, their inputs and the checks on their outputs.

Each workload draws its inputs from a pool of POOL entries. An entry is a
pair of random automata made by ``oracle.generate_automaton`` from fixed
spec seeds; the run seed picks PER_RUN entries and their order. The outputs
of every pool entry were recorded once in ``reference.json`` (``record.py``
writes it), so each operation's output is checked against a fingerprint,
outside the timed region.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from fuzzbound import (
    automaton_to_json,
    bisim_norm,
    compute_dbbisim,
    compute_dbsim,
    constant_pool_for,
    eval_formula,
    format_formula,
    generate_automaton,
    greatest_fixpoint,
    language_bounded,
    naive_dbsim,
    parse_formula,
    random_formula,
    relation_from_json,
    sim_norm,
    structure,
)
from fuzzbound.oracle import RandomAutomatonSpec

import spans

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
CLI_CHILD = HERE / "cli_child.py"

STRUCTURES = ("godel", "lukasiewicz", "product")
COMBOS = tuple((s, m) for s in STRUCTURES for m in ("sim", "bisim"))
NUM_SYMBOLS = 2
OUT_DEGREE = 3          # expected transitions per state and symbol
DEPTH = 4
MAX_ITERS = 60
TOL = 1e-9
LANG_MAX_LEN = 8
FORMULA_DEPTH = 4
POOL = 24
PER_RUN = 12
EPS = 1e-9              # agreement with the recorded fingerprints and norms
REFEREE_EPS = 1e-12     # agreement with naive_dbsim
REFEREE_STATES = 5

SIZES = {
    "full": {"depth-large": 200, "fixpoint-tail": 100, "cli-session": 80},
    "tiny": {"depth-large": 6, "fixpoint-tail": 6, "cli-session": 6},
}
SEED_BASE = {"depth-large": 1_000_000, "fixpoint-tail": 2_000_000,
             "cli-session": 3_000_000}
API_CALLS = {"dbsim": compute_dbsim, "dbbisim": compute_dbbisim,
             "greatest": greatest_fixpoint}
WRITE_COMMANDS = tuple(API_CALLS)
READ_COMMANDS = ("check", "formula", "lang")


class Mismatch(Exception):
    """An operation's output disagrees with its reference."""


@dataclass(frozen=True)
class Op:
    """One API call or one CLI command on one pool entry."""

    entry: int
    command: str
    structure: str
    mode: str

    @property
    def key(self) -> str:
        return f"{self.entry}:{self.command}:{self.structure}:{self.mode}"


@dataclass
class Sample:
    op: Op
    seconds: float
    ok: bool
    traced: bool
    position: tuple[int, int]   # (cycle, index in cycle)
    cell_rounds: int = 0
    rss_kb: int = 0
    calibration: float = 0.0    # seconds of run.calibrate() just before the operation


@dataclass
class Context:
    """A workload's inputs for one run, made by ``Workload.setup``."""

    order: list[int]
    pairs: dict[int, tuple]
    workdir: Path
    files: dict[int, tuple[str, str]] = field(default_factory=dict)
    formulas: dict[int, str] = field(default_factory=dict)
    reference: dict[str, dict] = field(default_factory=dict)

    @property
    def trace_file(self) -> Path:
        return self.workdir / "trace.json"

    @property
    def stdout(self) -> Path:
        return self.workdir / "stdout.json"

    @property
    def stderr(self) -> Path:
        return self.workdir / "stderr.txt"

    @property
    def child_spans(self) -> Path:
        return self.workdir / "child-spans.json"


def make_pair(workload: str, n: int, entry: int, generate=generate_automaton):
    density = min(1.0, OUT_DEGREE / n)
    base = SEED_BASE[workload] + 2 * entry
    return tuple(
        generate(RandomAutomatonSpec(n, NUM_SYMBOLS, density, seed=base + i))
        for i in (0, 1))


def entry_formula(workload: str, automaton, entry: int) -> str:
    formula = random_formula("sim", FORMULA_DEPTH, constant_pool_for(automaton),
                             automaton.alphabet, seed=SEED_BASE[workload] + entry)
    return format_formula(formula)


def write_files(ctx: Context, entry: int) -> tuple[str, str]:
    """The entry's automata as JSON files in the run's work directory."""
    if entry not in ctx.files:
        paths = []
        for side, automaton in zip("lr", ctx.pairs[entry]):
            path = ctx.workdir / f"{entry}-{side}.json"
            path.write_text(json.dumps(automaton_to_json(automaton)),
                            encoding="utf-8")
            paths.append(str(path))
        ctx.files[entry] = tuple(paths)
    return ctx.files[entry]


def api_call(op: Op, st, a, b, fn=None, **kwargs):
    fn = fn or API_CALLS[op.command]
    if op.command == "greatest":
        return fn(st, a, b, op.mode, max_iters=MAX_ITERS, tol=TOL, **kwargs)
    return fn(st, a, b, DEPTH, **kwargs)


def cli_argv(ctx: Context, op: Op, output=None, trace=False) -> list[str]:
    left, right = write_files(ctx, op.entry)
    args = [op.command, "--left", left]
    if op.command in ("dbsim", "dbbisim"):
        args += ["--right", right, "--depth", str(DEPTH)]
        args += ["--trace"] if trace else []
    elif op.command == "greatest":
        args += ["--right", right, "--mode", op.mode,
                 "--max-iters", str(MAX_ITERS), "--tol", repr(TOL)]
    elif op.command == "check":
        args += ["--right", right, "--mode", "dbsim",
                 "--relation", str(ctx.trace_file)]
    elif op.command == "formula":
        args += ["--expr", ctx.formulas[op.entry]]
    elif op.command == "lang":
        args += ["--max-len", str(LANG_MAX_LEN)]
    args += ["--tnorm", op.structure]
    return args + (["--output", str(output)] if output else [])


def rounds_of(status: str, norms) -> int:
    """Rounds executed: one per appended norm, plus the round that found a fixpoint."""
    return len(norms) - 1 + (status == "fixpoint")


def stats(values) -> dict:
    values = list(values)
    return {"count": len(values), "sum": math.fsum(values),
            "min": min(values), "max": max(values)}


def result_fingerprint(result) -> dict:
    cells = [v for row in result.relation.degrees for v in row]
    return {"status": result.status, "fixpoint_at": result.fixpoint_at,
            "norms": list(result.norms), **stats(cells)}


def doc_fingerprint(doc: dict) -> dict:
    phi = doc["phi_k"]
    values = [v for _, _, v in phi["entries"]]
    # The document omits zero entries.
    values += [0.0] * (phi["rows"] * phi["cols"] - len(values))
    return {"status": doc["status"], "fixpoint_at": doc["fixpoint_at"],
            "norms": doc["norms"], **stats(values)}


def _close(x, y) -> bool:
    if isinstance(x, float) or isinstance(y, float):
        return abs(x - y) <= EPS
    if isinstance(x, list) and isinstance(y, list):
        return len(x) == len(y) and all(map(_close, x, y))
    return x == y


def require_match(key: str, got: dict, reference: dict) -> None:
    if got.keys() != reference.keys() or not all(
            _close(got[k], reference[k]) for k in reference):
        raise Mismatch(f"{key}: got {got}, reference {reference}")


def require_norm(key: str, st, relation, a, b, mode: str, reported: float):
    """Cross-check the reported final norm with the independent norm functions."""
    norm = (bisim_norm if mode == "bisim" else sim_norm)(st, relation, a, b)
    if abs(norm - reported) > EPS:
        raise Mismatch(f"{key}: final norm {reported} but {mode} norm is {norm}")


def referee(seed: int) -> list[str]:
    """Compare a small seeded pair against naive_dbsim; returns the mismatches."""
    a, b = (generate_automaton(RandomAutomatonSpec(
        REFEREE_STATES, NUM_SYMBOLS, 0.4, seed=2 * seed + i)) for i in (0, 1))
    failures = []
    for name, mode in COMBOS:
        st = structure(name)
        compute = compute_dbbisim if mode == "bisim" else compute_dbsim
        result = compute(st, a, b, DEPTH, trace=True)
        chain = naive_dbsim(st, a, b, DEPTH, mode)
        if any(abs(x - y) > REFEREE_EPS
               for i, rel in enumerate(chain)
               for row, other in zip(rel.degrees, result.component(i).degrees)
               for x, y in zip(row, other)):
            failures.append(f"referee {name}/{mode}: differs from naive_dbsim")
    return failures


class Workload:
    """A named set of operations over the run's pool entries."""

    name = ""
    patches: tuple = ()   # spans recorded in the benchmark process when traced

    def __init__(self, size: str = "full"):
        self.n = SIZES[size][self.name]

    def cycle(self, entry: int) -> list[Op]:
        """The operations run, in order, on one entry."""
        raise NotImplementedError

    def cycle_ops(self, order: list[int], cycle: int) -> list[Op]:
        """The operations of a run's cycle-th cycle."""
        return self.cycle(order[cycle % len(order)])

    def setup(self, seed: int, workdir: Path, tracer=None) -> Context:
        generate = generate_automaton
        if tracer is not None:
            generate = tracer.wrap(generate, "oracle.generate_automaton")
        order = random.Random(seed).sample(range(POOL), PER_RUN)
        pairs = {g: make_pair(self.name, self.n, g, generate) for g in order}
        ctx = Context(order=order, pairs=pairs, workdir=workdir)
        self.prepare(ctx)
        self.warm_up(ctx)
        return ctx

    def prepare(self, ctx: Context) -> None:
        pass

    def warm_up(self, ctx: Context) -> None:
        raise NotImplementedError

    def run(self, ctx: Context, op: Op, tracer=None):
        """Run one operation; returns (seconds, raw output, child peak RSS in KB)."""
        raise NotImplementedError

    def check(self, ctx: Context, op: Op, raw) -> int:
        """Raise Mismatch unless the output is right; returns n_a*n_b*rounds."""
        raise NotImplementedError

    def reference(self, ctx: Context, op: Op) -> dict:
        """The fingerprint ``record.py`` stores for an operation."""
        st = structure(op.structure)
        return result_fingerprint(api_call(op, st, *ctx.pairs[op.entry]))

    def attempt(self, ctx: Context, op: Op, tracer, position) -> Sample:
        seconds, rss_kb, cell_rounds, ok = 0.0, 0, 0, False
        try:
            seconds, raw, rss_kb = self.run(ctx, op, tracer)
            cell_rounds = self.check(ctx, op, raw)
            ok = True
        except Exception as exc:  # any failure is counted, and the run goes on
            print(f"perfbench: {op.key} failed: {exc!r}"[:500], file=sys.stderr)
        return Sample(op, seconds, ok, tracer is not None, position, cell_rounds, rss_kb)


class ApiWorkload(Workload):
    """Calls into dbsim, cycling through the structure x mode combinations."""

    patches = spans.CALLS_FROM_DBSIM

    def cycle(self, entry: int) -> list[Op]:
        return [Op(entry, self.command(mode), name, mode) for name, mode in COMBOS]

    def command(self, mode: str) -> str:
        raise NotImplementedError

    def argv(self, ctx: Context, op: Op) -> list[str]:
        """The CLI command that makes the same call (for the traced run's probe)."""
        return cli_argv(ctx, op, output=ctx.workdir / "probe.json")

    def warm_up(self, ctx: Context) -> None:
        # Every code path once, on a small pair from outside the pool.
        a, b = make_pair(self.name, REFEREE_STATES, POOL)
        for op in self.cycle(POOL):
            api_call(op, structure(op.structure), a, b)

    def run(self, ctx: Context, op: Op, tracer=None):
        st = structure(op.structure)
        a, b = ctx.pairs[op.entry]
        fn = API_CALLS[op.command]
        if tracer is not None:
            fn = tracer.wrap(fn, "dbsim." + fn.__name__)
        start = perf_counter()
        result = api_call(op, st, a, b, fn)
        return perf_counter() - start, result, 0

    def check(self, ctx: Context, op: Op, result) -> int:
        require_match(op.key, result_fingerprint(result), ctx.reference[op.key])
        st = structure(op.structure)
        a, b = ctx.pairs[op.entry]
        require_norm(op.key, st, result.relation, a, b, op.mode, result.norms[-1])
        return a.num_states * b.num_states * rounds_of(result.status, result.norms)


class DepthLarge(ApiWorkload):
    name = "depth-large"

    def command(self, mode: str) -> str:
        return "dbbisim" if mode == "bisim" else "dbsim"


class FixpointTail(ApiWorkload):
    name = "fixpoint-tail"

    def command(self, mode: str) -> str:
        return "greatest"


class CliSession(Workload):
    """``python -m fuzzbound`` subprocesses, one at a time.

    A cycle is one six-command session per structure, so every run weighs the
    structures alike. In a run, each session of a cycle takes the next entry,
    so a run covers three times as many entries as it has cycles; the rounds
    of ``greatest`` differ by entry.
    """

    name = "cli-session"

    @staticmethod
    def session(entry: int, name: str) -> list[Op]:
        return [Op(entry, command, name, mode)
                for command, mode in (("dbsim", "sim"), ("dbbisim", "bisim"),
                                      ("greatest", "sim"), ("check", "sim"),
                                      ("formula", "sim"), ("lang", "sim"))]

    def cycle(self, entry: int) -> list[Op]:
        return [op for name in STRUCTURES for op in self.session(entry, name)]

    def cycle_ops(self, order: list[int], cycle: int) -> list[Op]:
        return [op for i, name in enumerate(STRUCTURES)
                for op in self.session(order[(len(STRUCTURES) * cycle + i) % len(order)],
                                       name)]

    def prepare(self, ctx: Context) -> None:
        for g in ctx.order:
            write_files(ctx, g)
            ctx.formulas[g] = entry_formula(self.name, ctx.pairs[g][0], g)

    def warm_up(self, ctx: Context) -> None:
        left, _ = ctx.files[ctx.order[0]]
        subprocess.run([sys.executable, "-m", "fuzzbound", "lang", "--left", left,
                        "--max-len", "1"], env=cli_env(), cwd=ctx.workdir,
                       stdout=subprocess.DEVNULL, check=True, timeout=60)

    def argv(self, ctx: Context, op: Op) -> list[str]:
        return cli_argv(ctx, op, output=ctx.trace_file if op.command == "dbsim" else None,
                        trace=op.command in ("dbsim", "dbbisim"))

    def run(self, ctx: Context, op: Op, tracer=None):
        if op.command == "dbsim":
            # check reads this file back; a stale copy must not pass.
            ctx.trace_file.unlink(missing_ok=True)
        argv = self.argv(ctx, op)
        if tracer is None:
            cmd = [sys.executable, "-m", "fuzzbound", *argv]
        else:
            ctx.child_spans.unlink(missing_ok=True)
            cmd = [sys.executable, str(CLI_CHILD), str(ctx.child_spans), *argv]
        env = cli_env()
        with open(ctx.stdout, "wb") as out, open(ctx.stderr, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ctx.workdir,
                                    env=env)
            _, status, usage = os.wait4(proc.pid, 0)
            end = perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if tracer is not None:
            parent = tracer.record("process.fuzzbound", start, end)
            if ctx.child_spans.exists():
                tracer.adopt(spans.load(ctx.child_spans), parent)
        return end - start, proc.returncode, usage.ru_maxrss

    def check(self, ctx: Context, op: Op, code) -> int:
        if code != 0:
            raise Mismatch(f"{op.key}: exit code {code}: "
                           f"{ctx.stderr.read_text(errors='replace')[-300:]}")
        source = ctx.trace_file if op.command == "dbsim" else ctx.stdout
        doc = json.loads(source.read_text(encoding="utf-8"))
        if op.command == "check":
            if doc.get("ok") is not True:
                raise Mismatch(f"{op.key}: the chain written by dbsim does not check")
            return 0
        if op.command == "formula":
            require_match(op.key, stats(doc["values"].values()), ctx.reference[op.key])
            return 0
        if op.command == "lang":
            require_match(op.key, stats(doc["language"].values()), ctx.reference[op.key])
            return 0
        require_match(op.key, doc_fingerprint(doc), ctx.reference[op.key])
        relation = relation_from_json(doc["phi_k"])
        a, b = ctx.pairs[op.entry]
        require_norm(op.key, structure(op.structure), relation, a, b, op.mode,
                     doc["norms"][-1])
        return relation.rows * relation.cols * rounds_of(doc["status"], doc["norms"])

    def reference(self, ctx: Context, op: Op) -> dict:
        st = structure(op.structure)
        a = ctx.pairs[op.entry][0]
        if op.command == "formula":
            return stats(eval_formula(st, a, parse_formula(ctx.formulas[op.entry])).degrees)
        if op.command == "lang":
            return stats(language_bounded(st, a, LANG_MAX_LEN).values())
        return super().reference(ctx, op)


WORKLOADS = {cls.name: cls for cls in (DepthLarge, FixpointTail, CliSession)}


def cli_env() -> dict:
    """Environment for CLI children: the checkout's sources, no default structure."""
    env = {k: v for k, v in os.environ.items() if k != "FUZZBOUND_TNORM"}
    env["PYTHONPATH"] = str(HERE.parent / "src")
    return env


def load_reference(workload: str, size: str) -> dict[str, dict]:
    with open(REFERENCE, "r", encoding="utf-8") as handle:
        return json.load(handle)[workload][size]

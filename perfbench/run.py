"""fuzzbound benchmark: three workloads, end-to-end metrics and a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload depth-large --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

- ``depth-large``: ``compute_dbsim``/``compute_dbbisim`` at k = 4 on pairs of
  200-state automata;
- ``fixpoint-tail``: ``greatest_fixpoint`` (60 iterations, tol 1e-9) on pairs
  of 100-state automata;
- ``cli-session``: ``python -m fuzzbound`` subprocesses on JSON files of
  80-state pairs, six commands per session, one session per structure.

Load shape: one process, one caller, no threads, a closed loop: the next
operation starts when the previous one has ended (cli-session runs one
subprocess at a time). Cycles of operations run until ``--seconds`` have
passed; a started cycle is finished, so every run holds whole cycles.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` is the separate
traced run: each cycle runs once plain and once with spans, in alternating
order, which gives the tracing overhead and each layer's self time; probes on
the first pool entry then give the per-layer metrics. Spans are written to
``.perfbench-out/`` when the run ends.

Host speed: the benchmark shares a host whose speed drifts by up to 2.5x
over seconds to minutes, which moves every time between runs far more than
medians inside a run can remove. So a fixed pure-Python calibration (an
integer loop, then a scan of floats in shuffled memory order, about 20 ms)
runs just before each operation, outside its timed region, and the gated
latencies are host-adjusted: each operation's time is multiplied by
REFERENCE_CALIBRATION_S over the calibration time measured beside it, i.e.
expressed in ms of a host on which the calibration takes
REFERENCE_CALIBRATION_S. The calibration does not touch the program, so a
change to the program moves the adjusted times as much as the raw ones; the
raw figures are printed in the report beside them.
Set-up time is adjusted the same way, by a calibration just before each
set-up; memory is not.

Operation latencies are summarised per kind of operation (command, structure,
mode), whose costs differ by up to 5x, and the kinds' medians are combined by
a geometric mean, so the summary does not jump between kinds from run to run.

Every operation's output is checked outside the timed region (see
``workloads.py``). The lines printed before the last are the report: each
metric with its unit and base, and a header with the Python version, nproc,
the seed and the calibration's time before the run. The last line is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

WORKLOAD_NAMES = ("depth-large", "fixpoint-tail", "cli-session")
MIN_CYCLES = 2          # at least 12 operations, so the tail has 10 beyond it
SETUP_CHILDREN = 6      # set-ups in fresh processes, besides the run's own
CALIBRATION_LOOP = 200_000          # integer additions
CALIBRATION_FLOATS = 120_000        # floats scanned; the list's order is shuffled
REFERENCE_CALIBRATION_S = 0.020     # host speed the adjusted times are expressed at
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: 6-state inputs, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


@functools.cache
def calibration_floats() -> list[float]:
    rng = random.Random(0)
    floats = [rng.random() for _ in range(CALIBRATION_FLOATS)]
    rng.shuffle(floats)
    return floats


def calibrate() -> float:
    """Seconds a fixed pure-Python calibration takes: the host's speed now."""
    floats = calibration_floats()
    start = perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i
    least = 1.0
    for x in floats:
        if x < least:
            least = x
    return perf_counter() - start


def adjusted(sample) -> float:
    """The sample's seconds on a host where the calibration takes REFERENCE_CALIBRATION_S."""
    return sample.seconds * REFERENCE_CALIBRATION_S / sample.calibration


def setup_in_child(args) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--size", args.size,
         "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["setup_s"], result["calibration"]


def measure(workload, ctx, seconds: float, tracer):
    """Run whole cycles until ``seconds`` have passed; returns the samples."""
    samples = []
    deadline = perf_counter() + seconds
    cycle = 0
    while cycle < MIN_CYCLES or perf_counter() < deadline:
        ops = workload.cycle_ops(ctx.order, cycle)
        if tracer is None:
            passes = [None]
        else:
            passes = [None, tracer] if cycle % 2 == 0 else [tracer, None]
        for active in passes:
            patched = active.patched(workload.patches) if active else contextlib.nullcontext()
            with patched:
                for index, op in enumerate(ops):
                    if active is not None:
                        active.op = f"{cycle}.{index}"
                    calibration = calibrate()
                    sample = workload.attempt(ctx, op, active, (cycle, index))
                    sample.calibration = calibration
                    samples.append(sample)
            if active is not None:
                active.op = None
        cycle += 1
    return samples


def tail(values: list[float]) -> tuple[float, float]:
    """The value with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(values)
    return ordered[-TAIL_BEYOND - 1], 100.0 * (len(ordered) - TAIL_BEYOND) / len(ordered)


def kind_p50(samples, seconds) -> tuple[float, int]:
    """Geometric mean over kinds of operation of each kind's median seconds."""
    kinds = {}
    for s in samples:
        kinds.setdefault((s.op.command, s.op.structure, s.op.mode), []).append(seconds(s))
    logs = [math.log(statistics.median(v)) for v in kinds.values()]
    return math.exp(statistics.fmean(logs)), len(kinds)


def end_to_end(workload, samples, setups) -> tuple[list, list]:
    """(metrics, report-only rows); each row is (name, value, unit, base)."""
    from workloads import READ_COMMANDS, WRITE_COMMANDS

    plain = [s for s in samples if not s.traced]
    latencies = [adjusted(s) for s in plain]
    busy = sum(latencies)
    tail_s, percentile = tail(latencies)
    p50_s, kinds = kind_p50(plain, adjusted)
    raw_p50_s, _ = kind_p50(plain, lambda s: s.seconds)
    raw_busy = sum(s.seconds for s in plain)
    loop_ms = [s.calibration * 1e3 for s in plain]
    # The commands that compute a chain; on the API workloads, every call.
    computing = [s for s in plain if s.op.command in WRITE_COMMANDS]
    computing_busy = sum(map(adjusted, computing))
    setup_s = [seconds * REFERENCE_CALIBRATION_S / calibration
               for seconds, calibration in setups]
    if workload.name == "cli-session":
        peak_kb = max(s.rss_kb for s in plain)
        peak_base = "largest CLI child"
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak_base = "benchmark process"
    n = len(latencies)
    metrics = [
        ("setup_s", statistics.median(setup_s), "s",
         f"adjusted; median of {len(setups)} set-ups: " + " ".join(f"{s:.3f}" for s in setup_s)),
        ("op_p50_ms", p50_s * 1e3, "ms",
         f"adjusted; geometric mean of the medians of {kinds} kinds, {n} operations"),
        ("ops_per_s", n / busy, "1/s", f"adjusted; {n} operations / {busy:.3f} s busy"),
        ("cell_rounds_per_s", sum(s.cell_rounds for s in computing) / computing_busy, "1/s",
         f"adjusted; sum of n_a*n_b*rounds / {computing_busy:.3f} s busy in "
         f"{len(computing)} {'/'.join(WRITE_COMMANDS)} operations"),
        ("peak_rss_mb", peak_kb / 1024, "MB", peak_base),
    ]
    report = [
        # Not gated: which slow inputs a seed draws (fixpoint-tail's product
        # sim takes 20 to 60 rounds) moves the tail more than its bound.
        ("op_tail_ms", tail_s * 1e3, "ms",
         f"adjusted; p{percentile:.1f}: {TAIL_BEYOND} of {n} samples beyond it"),
        ("raw_setup_s", statistics.median(s for s, _ in setups), "s", "setup_s as measured"),
        ("raw_op_p50_ms", raw_p50_s * 1e3, "ms", "op_p50_ms as measured"),
        ("raw_ops_per_s", n / raw_busy, "1/s", f"ops_per_s as measured, {raw_busy:.3f} s busy"),
        ("calibration_ms", statistics.median(loop_ms), "ms",
         "median calibration before each operation, "
         f"range {min(loop_ms):.1f}-{max(loop_ms):.1f}"),
    ]
    if workload.name == "cli-session":
        for name, commands in (("write_p50_ms", WRITE_COMMANDS),
                               ("read_p50_ms", READ_COMMANDS)):
            chosen = [s for s in plain if s.op.command in commands]
            report.append((name, kind_p50(chosen, adjusted)[0] * 1e3, "ms",
                           f"adjusted; as op_p50_ms, {len(chosen)} "
                           f"{'/'.join(commands)} commands"))
    return metrics, report


def traced_layers(workload, ctx, tracer, samples) -> tuple[list, list]:
    """(per-layer metrics, report-only rows) of the traced run."""
    import layers

    pairs = {}
    for s in samples:
        pairs.setdefault(s.position, {})[s.traced] = s.seconds
    diffs = [p[True] - p[False] for p in pairs.values() if len(p) == 2]
    traced = [s for s in samples if s.traced]
    report = [("traced_op_p50_ms", statistics.median(s.seconds for s in traced) * 1e3,
               "ms", f"median of {len(traced)} traced operations")]
    for layer, ms in layers.layer_self_ms(tracer, len(traced)).items():
        report.append((f"self_ms.{layer}", ms, "ms", "self time per traced operation"))
    metrics = layers.probe(workload, ctx, tracer)
    metrics.append(("trace.overhead_ms", statistics.median(diffs) * 1e3, "ms",
                    f"traced minus plain latency, median of {len(diffs)} pairs"))
    return metrics, report


def print_rows(rows) -> None:
    for name, value, unit, base in rows:
        print(f"{name:<28} {value:>16.6g} {unit:<6} {base}")


def run(args, workdir: Path) -> int:
    tracer = None
    calibration = calibrate()
    start = perf_counter()
    import workloads  # set-up starts here: this imports fuzzbound

    import fuzzbound
    if Path(fuzzbound.__file__).resolve().parent != (SRC / "fuzzbound").resolve():
        print(f"perfbench: imported fuzzbound from {fuzzbound.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.trace:
        import spans
        tracer = spans.Tracer()
    workload = workloads.WORKLOADS[args.workload](args.size)
    ctx = workload.setup(args.seed, workdir, tracer)
    setups = [(perf_counter() - start, calibration)]
    if args.setup_only:
        print(json.dumps({"setup_s": setups[0][0], "calibration": calibration}))
        return 0
    if not args.trace:
        setups += [setup_in_child(args) for _ in range(SETUP_CHILDREN)]
    ctx.reference = workloads.load_reference(args.workload, args.size)

    samples = measure(workload, ctx, args.seconds, tracer)
    referee_failures = workloads.referee(args.seed)
    for failure in referee_failures:
        print(f"perfbench: {failure}", file=sys.stderr)

    if args.trace:
        metrics, report = traced_layers(workload, ctx, tracer, samples)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.json")
    else:
        metrics, report = end_to_end(workload, samples, setups)
    attempted = len(samples) + len(workloads.COMBOS)
    failed = sum(not s.ok for s in samples) + len(referee_failures)
    report.append(("fail_frac", failed / attempted, "ratio",
                   f"{failed} failed of {attempted} attempted "
                   f"({len(workloads.COMBOS)} of them checks against naive_dbsim)"))
    print_rows(metrics + report)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in metrics},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fuzzbound" / "__init__.py").is_file():
        print(f"perfbench: no fuzzbound sources at {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    cpus = os.sched_getaffinity(0)
    # One CPU for the benchmark and the processes it starts: the calibration
    # must run where the operation runs, and the host's CPUs differ in speed.
    os.sched_setaffinity(0, {min(cpus)})
    if not args.setup_only:
        print(f"# perfbench workload={args.workload} seed={args.seed} "
              f"trace={args.trace} size={args.size} "
              f"python={platform.python_version()} nproc={len(cpus)} cpu={min(cpus)} "
              f"calibration_ms={statistics.median(calibrate() for _ in range(5)) * 1e3:.2f} "
              "(median of 5)")
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

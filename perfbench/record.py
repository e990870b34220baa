"""Record the reference fingerprints the benchmark checks outputs against.

Usage (from the repository root): python3 perfbench/record.py

For every workload, size and pool entry, computes each operation's output
through the API and stores its fingerprint in ``reference.json``: status,
``fixpoint_at``, norms, and the count/sum/min/max of the final component
(of the formula values, or of the bounded language). Run it only when a
change is meant to alter outputs, and say so in the change.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    reference = {}
    for name, cls in workloads.WORKLOADS.items():
        reference[name] = {}
        for size in workloads.SIZES:
            workload = cls(size)
            with tempfile.TemporaryDirectory() as tmp:
                ctx = workloads.Context(
                    order=list(range(workloads.POOL)),
                    pairs={g: workloads.make_pair(name, workload.n, g)
                           for g in range(workloads.POOL)},
                    workdir=Path(tmp))
                workload.prepare(ctx)
                reference[name][size] = {
                    op.key: workload.reference(ctx, op)
                    for g in ctx.order for op in workload.cycle(g)
                    if op.command != "check"}
            print(f"{name} {size}: {len(reference[name][size])} fingerprints",
                  file=sys.stderr)
    with open(workloads.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

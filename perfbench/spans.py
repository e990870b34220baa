"""In-memory spans around calls into fuzzbound's public functions.

A span is ``[id, parent, op, name, start, end]``: ``parent`` is the id of the
span that was open when it began, ``op`` identifies the benchmark operation
it belongs to, and ``start``/``end`` are ``time.perf_counter`` readings
(CLOCK_MONOTONIC on Linux, so spans recorded by a child process line up with
the parent's). Span names start with the layer: the fuzzbound module whose
function was called, or ``process`` for a CLI subprocess as a whole.

Spans are recorded from the benchmark's side only: a module attribute is
swapped for a recording wrapper for the duration of a ``patched`` block, so
nothing under ``src/`` carries instrumentation.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name): the public functions the CLI calls in
# other modules.
CALLS_FROM_CLI = (
    ("fuzzbound.cli", "structure", "lattice.structure"),
    ("fuzzbound.cli", "automaton_from_json", "automata.automaton_from_json"),
    ("fuzzbound.cli", "language_bounded", "automata.language_bounded"),
    ("fuzzbound.cli", "compute_dbsim", "dbsim.compute_dbsim"),
    ("fuzzbound.cli", "compute_dbbisim", "dbsim.compute_dbbisim"),
    ("fuzzbound.cli", "greatest_fixpoint", "dbsim.greatest_fixpoint"),
    ("fuzzbound.cli", "check_dbsim_prefix", "dbsim.check_dbsim_prefix"),
    ("fuzzbound.cli", "check_dbbisim_prefix", "dbsim.check_dbbisim_prefix"),
    ("fuzzbound.cli", "relation_from_json", "fuzzy.relation_from_json"),
    ("fuzzbound.cli", "parse_formula", "logic.parse_formula"),
    ("fuzzbound.cli", "eval_formula", "logic.eval_formula"),
    ("fuzzbound.cli", "format_formula", "logic.format_formula"),
)

# The public functions of other modules that dbsim calls once per
# computation, never inside a round.
CALLS_FROM_DBSIM = (
    ("fuzzbound.dbsim", "build_index", "automata.build_index"),
    ("fuzzbound.dbsim", "relation_to_json", "fuzzy.relation_to_json"),
    ("fuzzbound.dbsim", "compose_rel_rel", "fuzzy.compose_rel_rel"),
)

ID, PARENT, OP, NAME, START, END = range(6)


class Tracer:
    """Collects spans in memory; ``op`` tags every span begun while it is set."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op = None

    def wrap(self, fn, name: str):
        """``fn`` with a span named ``name`` around each call."""
        spans = self.spans
        open_ids = self._open

        def traced(*args, **kwargs):
            span = [len(spans), open_ids[-1] if open_ids else None, self.op,
                    name, 0.0, 0.0]
            spans.append(span)
            open_ids.append(span[ID])
            span[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                open_ids.pop()

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` under a span; returns (result, seconds)."""
        index = len(self.spans)
        result = self.wrap(fn, name)(*args, **kwargs)
        span = self.spans[index]
        return result, span[END] - span[START]

    def record(self, name: str, start: float, end: float) -> int:
        """Add a span measured elsewhere; returns its id."""
        sid = len(self.spans)
        self.spans.append([sid, self._open[-1] if self._open else None,
                           self.op, name, start, end])
        return sid

    def adopt(self, spans: list[list], parent: int) -> None:
        """Merge spans recorded by a child process under span ``parent``."""
        offset = len(self.spans)
        for span in spans:
            self.spans.append([
                span[ID] + offset,
                parent if span[PARENT] is None else span[PARENT] + offset,
                self.op, span[NAME], span[START], span[END]])

    @contextmanager
    def patched(self, targets):
        """Route calls through recording wrappers for the block's duration."""
        saved = []
        try:
            for module_name, attr, name in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def durations(self, name: str) -> list[float]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        covered = defaultdict(float)
        for span in self.spans:
            if span[PARENT] is not None:
                covered[span[PARENT]] += span[END] - span[START]
        return [span[END] - span[START] - covered[span[ID]]
                for span in self.spans]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def load(path) -> list[list]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)

"""Command-line interface over the JSON automaton/relation formats.

Subcommands: dbsim, dbbisim, greatest, check, lang, formula. Each result is
printed as one line of deterministic JSON: keys sorted, and floats written by
``repr``, so every degree reads back as the very float that was computed.
Relations (``phi_k`` and each ``trace`` component) are sparse
``{rows, cols, entries}`` objects; an entry ``[r, c, degree]`` indexes the
``"states"`` arrays of the --left and --right files. Exit codes
(``_EXIT_CODES``): 0 success, 1 I/O, parse or option problem, 2 semantic
mismatch (alphabets, shapes, unknown symbols, formula dialect), 3 resource cap
exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import import_module
from typing import Optional, Sequence

from .automata import (
    automaton_from_json,
    language_bounded,
    language_eval,
    word_from_names,
)
from .errors import (
    AlphabetMismatch,
    DialectError,
    DimensionMismatch,
    FuzzboundError,
    InputFormatError,
    RelationCapExceeded,
    TraceCapExceeded,
    UnknownSymbol,
    WordCapExceeded,
)
from .fuzzy import relation_from_json, require_cells
from .lattice import DEFAULT_EPS, STRUCTURE_NAMES, Structure, structure

# The names the handlers call from these modules, which load only when a
# command that needs them runs: its handler first binds them as module
# globals, keeping any already set (a wrapper put in their place), and
# ``__getattr__`` serves a reader that comes before it.
_LAZY = {
    "dbsim": ("_require_checkable", "check_dbbisim_prefix", "check_dbsim_prefix",
              "compute_dbbisim", "compute_dbsim", "greatest_fixpoint"),
    "logic": ("eval_formula", "format_formula", "parse_formula"),
}

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SEMANTIC = 2
EXIT_RESOURCE = 3

# First match wins: the semantic errors are ValueErrors too.
_EXIT_CODES = (
    ((AlphabetMismatch, DimensionMismatch, UnknownSymbol, DialectError),
     EXIT_SEMANTIC),
    ((WordCapExceeded, TraceCapExceeded, RelationCapExceeded), EXIT_RESOURCE),
    ((FuzzboundError, ValueError), EXIT_INPUT),
)


def _bind(module: str) -> None:
    source = import_module(f"{__package__}.{module}")
    for name in _LAZY[module]:
        globals().setdefault(name, getattr(source, name))


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Parser(argparse.ArgumentParser):
    # Route usage problems through the normal error path (exit 1, not
    # argparse's default exit 2, which this tool reserves for semantic
    # mismatches).
    def error(self, message):
        raise InputFormatError(message)


def _dumps(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True)``, byte for byte. A relation
    (``phi_k``, each ``trace`` component) is joined in C-level passes from
    pieces formatted once per document: a row's ``"[r, "``, a column's
    ``"c, "``, a degree's ``repr(v) + "]"``; one object is encoded once."""
    heads: list[str] = []
    mids: list[str] = []
    tails: dict[float, str] = {}
    done: dict[int, str] = {}

    def relation(rel: dict) -> str:
        if id(rel) not in done:
            rows, cols = rel["rows"], rel["cols"]
            heads.extend(map("[%d, ".__mod__, range(len(heads), rows)))
            mids.extend(map("%d, ".__mod__, range(len(mids), cols)))
            r, c, v = tuple(zip(*rel["entries"])) or ((), (), ())
            new = set(v).difference(tails)
            tails.update(zip(new, map("%r]".__mod__, new)))
            entries = ", ".join(map("".join, zip(
                map(heads.__getitem__, r), map(mids.__getitem__, c),
                map(tails.__getitem__, v))))
            done[id(rel)] = f'{{"cols": {cols}, "entries": [{entries}], "rows": {rows}}}'
        return done[id(rel)]

    def value(key: str, item) -> str:
        if key == "trace":
            return "[" + ", ".join(map(relation, item)) + "]"
        return relation(item) if key == "phi_k" else json.dumps(item, sort_keys=True)

    return "{" + ", ".join(f"{json.dumps(key)}: {value(key, doc[key])}"
                           for key in sorted(doc)) + "}"


def _emit(doc: dict, output: Optional[str]) -> None:
    # One line; floats print as repr, which round-trips.
    text = _dumps(doc) + "\n"
    if output:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputFormatError(f"cannot write {output}: {exc}") from None
    else:
        sys.stdout.write(text)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise InputFormatError(f"{path} nests too deeply") from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fuzzbound",
                     description="Depth-bounded fuzzy (bi)simulations between "
                                 "finite fuzzy automata")
    # check's --eps default; no other command compares degrees.
    parser.set_defaults(eps=DEFAULT_EPS)
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, summary: str, right: bool = True):
        p = commands.add_parser(name, help=summary)
        p.add_argument("--left", required=True, help="automaton file")
        if right:
            p.add_argument("--right", required=True, help="automaton file")
        p.add_argument("--tnorm", default="godel",
                       help=f"structure name ({', '.join(STRUCTURE_NAMES)})")
        p.add_argument("--output", default=None,
                       help="write JSON here instead of stdout")
        p.set_defaults(handler=handler)
        return p

    for name, kind in (("dbsim", "simulation"), ("dbbisim", "bisimulation")):
        p = command(name, _cmd_compute, f"depth-bounded fuzzy {kind}")
        p.add_argument("--depth", type=int, required=True)
        p.add_argument("--trace", action="store_true")

    p = command("greatest", _cmd_compute,
                "greatest fuzzy (bi)simulation via fixpoint iteration")
    p.add_argument("--mode", choices=["sim", "bisim"], default="sim")
    p.add_argument("--max-iters", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--trace", action="store_true")

    p = command("check", _cmd_check,
                "check a relation or chain against the definitions")
    p.add_argument("--relation", required=True)
    p.add_argument("--mode", choices=["sim", "bisim", "dbsim", "dbbisim"],
                   required=True)
    p.add_argument("--eps", type=float, default=argparse.SUPPRESS,
                   help=f"comparison tolerance (default {DEFAULT_EPS})")

    p = command("lang", _cmd_lang, "evaluate the recognized fuzzy language",
                right=False)
    bound = p.add_mutually_exclusive_group(required=True)
    bound.add_argument("--word", help="space-separated symbol names")
    bound.add_argument("--max-len", type=int)

    p = command("formula", _cmd_formula, "evaluate a formula on an automaton",
                right=False)
    p.add_argument("--expr", required=True)

    return parser


def _cmd_compute(args: argparse.Namespace, st: Structure) -> dict:
    _bind("dbsim")
    left = automaton_from_json(_load_json(args.left))
    right = automaton_from_json(_load_json(args.right))
    if args.command == "greatest":
        result = greatest_fixpoint(st, left, right, args.mode,
                                   max_iters=args.max_iters, tol=args.tol,
                                   trace=args.trace)
    else:
        compute = compute_dbbisim if args.command == "dbbisim" else compute_dbsim
        result = compute(st, left, right, args.depth, trace=args.trace)
    return result.to_json()


def _cmd_check(args: argparse.Namespace, st: Structure) -> dict:
    _bind("dbsim")
    left = automaton_from_json(_load_json(args.left))
    right = automaton_from_json(_load_json(args.right))
    # One chain, from a relation object, an array of them or a result
    # document (its phi_k for sim and bisim, which check one relation as
    # (rel, rel); else its trace), counted with the checker's symbol
    # relations, and each declared shape compared, before any grid exists.
    chain = _load_json(args.relation)
    plain = args.mode in ("sim", "bisim")
    if isinstance(chain, dict):
        if plain and "phi_k" in chain:
            chain = chain["phi_k"]
        elif "trace" in chain:
            chain = chain["trace"]
        elif "phi_k" in chain:
            raise InputFormatError(f"--mode {args.mode} checks a chain, and this "
                                   "result document has none: write it with --trace")
    chain = [chain] if isinstance(chain, dict) else chain
    if not isinstance(chain, list) or not chain or plain and len(chain) > 1:
        raise InputFormatError(
            f"--mode {args.mode} checks {'one relation' if plain else 'a chain'}: "
            "a relation object, an array of them, or a result document")
    shape = (left.num_states, right.num_states)
    require_cells(len(chain) * shape[0] * shape[1], f"a chain of {len(chain)} "
                  f"{shape[0]}x{shape[1]} relations", RelationCapExceeded)
    _require_checkable(left, right)
    chain = [relation_from_json(item, shape) for item in chain] * (2 if plain else 1)
    checker = check_dbbisim_prefix if "bisim" in args.mode else check_dbsim_prefix
    return {"mode": args.mode, "ok": checker(st, left, right, chain)}


def _cmd_lang(args: argparse.Namespace, st: Structure) -> dict:
    automaton = automaton_from_json(_load_json(args.left))
    # Words are named by their symbols joined with spaces, --word is split.
    for name in automaton.alphabet:
        if name.split() != [name]:
            raise InputFormatError(f"lang cannot name words over symbol {name!r}: "
                                   "a name must be non-empty, without whitespace")
    if args.word is not None:
        names = args.word.split()
        word = word_from_names(automaton, names)
        return {"word": names, "degree": language_eval(st, automaton, word)}
    table = language_bounded(st, automaton, args.max_len)
    language = {
        " ".join(automaton.alphabet[s] for s in word): degree
        for word, degree in table.items()
    }
    return {"max_len": args.max_len, "language": language}


def _cmd_formula(args: argparse.Namespace, st: Structure) -> dict:
    _bind("logic")
    automaton = automaton_from_json(_load_json(args.left))
    formula = parse_formula(args.expr)
    values = eval_formula(st, automaton, formula)
    return {
        "formula": format_formula(formula),
        "values": {automaton.state_names[i]: v
                   for i, v in enumerate(values.degrees)},
    }


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        st = structure(args.tnorm, args.eps)
        _emit(args.handler(args, st), args.output)
        return EXIT_OK
    except (FuzzboundError, ValueError) as exc:
        print(f"fuzzbound: {exc}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(exc, kinds))
    except SystemExit as exc:  # -h/--help; usage errors raise in _Parser.error
        return exc.code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

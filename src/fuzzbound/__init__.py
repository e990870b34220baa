"""Depth-bounded fuzzy simulations and bisimulations between fuzzy automata.

``import fuzzbound`` loads this file alone. A public name, or a submodule,
loads its submodule when it is first read (PEP 562), and is then kept here.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_EXPORTS = {
    "automata": (
        "FuzzyAutomaton", "automaton_from_json", "automaton_to_json", "bisim_norm",
        "build_index", "language_bounded", "language_eval", "sim_norm",
        "word_from_names",
    ),
    "dbsim": (
        "DbSimResult", "check_bisim", "check_dbbisim_prefix", "check_dbsim_prefix",
        "check_sim", "compute_dbbisim", "compute_dbsim", "greatest_fixpoint",
        "prefix_norm",
    ),
    "errors": (
        "AlphabetMismatch", "DegreeRangeError", "DialectError", "DimensionMismatch",
        "FormulaSyntaxError", "FuzzboundError", "InputFormatError",
        "RelationCapExceeded", "TraceCapExceeded", "UnknownSymbol", "WordCapExceeded",
    ),
    "fuzzy": (
        "FuzzyRelation", "FuzzySet", "compose_rel_rel", "compose_rel_set", "inverse",
        "rel_leq", "relation_from_json", "relation_to_json", "set_leq",
        "subset_degree",
    ),
    "lattice": ("Structure", "custom_structure", "structure", "validate_degree"),
    "logic": (
        "And", "Dia", "Equiv", "Formula", "Imp", "Tau", "constant_pool_for",
        "eval_formula", "format_formula", "formula_bound_relation", "formula_depth",
        "hm_check_bisim", "hm_check_sim", "in_dialect", "parse_formula",
        "random_formula",
    ),
    "oracle": (
        "RandomAutomatonSpec", "VerificationReport", "Violation", "generate_automaton",
        "naive_dbsim", "verify_language_invariance", "verify_language_preservation",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in (module, *names)}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{_HOME[name]}")  # binds the submodule here
    if name != _HOME[name]:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*__all__, *(name for name in globals() if name[:1] != "_"
                               or name[:2] == "__")})

"""Depth-bounded fuzzy simulations and bisimulations between fuzzy automata."""

from .automata import (
    FuzzyAutomaton,
    automaton_from_json,
    automaton_to_json,
    bisim_norm,
    build_index,
    language_bounded,
    language_eval,
    sim_norm,
    word_from_names,
)
from .dbsim import (
    DbSimResult,
    check_bisim,
    check_dbbisim_prefix,
    check_dbsim_prefix,
    check_sim,
    compute_dbbisim,
    compute_dbsim,
    greatest_fixpoint,
    prefix_norm,
)
from .errors import (
    AlphabetMismatch,
    DegreeRangeError,
    DialectError,
    DimensionMismatch,
    FormulaSyntaxError,
    FuzzboundError,
    InputFormatError,
    RelationCapExceeded,
    TraceCapExceeded,
    UnknownSymbol,
    WordCapExceeded,
)
from .fuzzy import (
    FuzzyRelation,
    FuzzySet,
    compose_rel_rel,
    compose_rel_set,
    inverse,
    rel_leq,
    relation_from_json,
    relation_to_json,
    set_leq,
    subset_degree,
)
from .lattice import Structure, custom_structure, structure, validate_degree
from .logic import (
    And,
    Dia,
    Equiv,
    Formula,
    Imp,
    Tau,
    constant_pool_for,
    eval_formula,
    format_formula,
    formula_bound_relation,
    formula_depth,
    hm_check_bisim,
    hm_check_sim,
    in_dialect,
    parse_formula,
    random_formula,
)
from .oracle import (
    RandomAutomatonSpec,
    VerificationReport,
    Violation,
    generate_automaton,
    naive_dbsim,
    verify_language_invariance,
    verify_language_preservation,
)

__version__ = "0.1.0"

"""Value semantics of the immutable classes built on ``lattice.Frozen``.

Each class keeps its fields in ``__slots__``, set once by its constructor:
instances compare and hash by exact class and fields, refuse assignment and
deletion, print like ``Name(field=value, ...)`` and survive pickle and copy.
"""

import copy
import dataclasses
import inspect
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from fuzzbound import (
    And,
    DbSimResult,
    DegreeRangeError,
    Dia,
    Equiv,
    FuzzyAutomaton,
    FuzzyRelation,
    FuzzySet,
    Imp,
    Tau,
    build_index,
    compute_dbbisim,
    custom_structure,
    structure,
)
from fuzzbound.automata import SuccPredIndex
from fuzzbound.lattice import Frozen, Structure
from fuzzbound.logic import Formula
from fuzzbound.oracle import (
    RandomAutomatonSpec,
    VerificationReport,
    Violation,
)

from conftest import chain_automaton, chain_automaton_variant, chain_pair
from test_cli import automaton_to_json

SRC = Path(__file__).resolve().parent.parent / "src"

# One builder per value class; each call builds a fresh instance.
BUILDERS = {
    FuzzySet: lambda: FuzzySet((0.5, 1.0, 5e-324)),
    FuzzyRelation: lambda: FuzzyRelation(2, 3, ((1.0, 0.5, 0.0), (0.0, 0.25, 1.0))),
    FuzzyAutomaton: chain_automaton,
    SuccPredIndex: lambda: build_index(chain_automaton()),
    DbSimResult: lambda: compute_dbbisim(structure("product"), *chain_pair(), 3,
                                         trace=True),
    Tau: Tau,
    Dia: lambda: Dia("s", Tau()),
    Imp: lambda: Imp(0.5, Dia("s", Tau())),
    Equiv: lambda: Equiv(0.5, Tau()),
    And: lambda: And(Imp(1, Tau()), Dia("s", Tau())),
    RandomAutomatonSpec: lambda: RandomAutomatonSpec(3, 2, 0.5, seed=7),
    Violation: lambda: Violation(0, 1, (0, 1), 0.5, 0.25),
    VerificationReport: lambda: VerificationReport(
        False, (Violation(None, None, (), 1.0, 0.5),)),
    Structure: lambda: structure("lukasiewicz"),
}
CLASSES = list(BUILDERS)


def value_classes(base=Frozen):
    for cls in base.__subclasses__():
        yield cls
        yield from value_classes(cls)


def test_every_value_class_is_covered():
    assert set(value_classes()) - {Formula} == set(BUILDERS)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestValueSemantics:
    def test_equal_fields_are_equal_and_hash_alike(self, cls):
        a, b = BUILDERS[cls](), BUILDERS[cls]()
        assert type(a) is cls and a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)

    def test_assignment_and_deletion_raise(self, cls):
        value = BUILDERS[cls]()
        for name in cls.__slots__ or ("anything",):
            before = getattr(value, name, None)
            with pytest.raises(AttributeError):
                setattr(value, name, before)
            with pytest.raises(AttributeError):
                delattr(value, name)
            assert getattr(value, name, None) is before
        assert value == BUILDERS[cls]()

    def test_pickle_round_trips(self, cls):
        value = BUILDERS[cls]()
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert type(back) is cls and back == value and hash(back) == hash(value)

    def test_copy_and_deepcopy_round_trip(self, cls):
        value = BUILDERS[cls]()
        for back in (copy.copy(value), copy.deepcopy(value)):
            assert type(back) is cls and back == value

    def test_constructor_parameters_name_the_fields(self, cls):
        assert tuple(inspect.signature(cls).parameters) == cls.__slots__

    def test_dataclasses_functions_still_apply(self, cls):
        value = BUILDERS[cls]()
        assert dataclasses.is_dataclass(value)
        assert tuple(f.name for f in dataclasses.fields(cls)) == cls.__slots__
        back = dataclasses.replace(value)
        assert type(back) is cls and back == value


def test_same_fields_of_another_class_are_unequal():
    assert Imp(0.5, Tau()) != Equiv(0.5, Tau())
    assert Equiv(0.5, Tau()) != Imp(0.5, Tau())
    assert Imp(0.5, Tau()) != (0.5, Tau())
    assert Tau() == Tau() and Tau() != Formula()


def test_a_different_field_is_unequal():
    assert FuzzySet((0.5,)) != FuzzySet((0.25,))
    assert FuzzyRelation(1, 2) != FuzzyRelation(2, 1)
    assert Dia("s", Tau()) != Dia("t", Tau())
    assert structure("godel") != structure("godel", eps_cmp=0.0)
    assert structure("godel") != structure("product")


def test_trusted_equals_the_validating_constructor():
    grid = ((1.0, 0.5, 0.0), (5e-324, 0.25, 1.0 - 2 ** -53))
    trusted = FuzzyRelation.trusted(2, 3, grid)
    checked = FuzzyRelation(2, 3, grid)
    assert trusted == checked and hash(trusted) == hash(checked)
    assert repr(trusted) == repr(checked)
    # Every component dbsim computes is frozen trusted.
    for rel in BUILDERS[DbSimResult]().prefix:
        assert rel == FuzzyRelation(rel.rows, rel.cols, rel.degrees)


def test_constructors_keep_their_defaults_and_keywords():
    spec = RandomAutomatonSpec(3, 2, 0.5, seed=7)
    assert spec.seed == 7
    assert RandomAutomatonSpec(num_states=3, num_symbols=2, transition_density=0.5,
                               seed=7) == spec
    assert FuzzyRelation(2, 3) == FuzzyRelation(rows=2, cols=3, degrees=None)
    assert FuzzyRelation(2, 3).degrees == ((0.0,) * 3,) * 2
    assert VerificationReport(True).violations == ()
    a = chain_automaton()
    plain = FuzzyAutomaton(a.num_states, a.alphabet, a.transitions, a.initial,
                           a.terminal)
    assert plain.state_names == ("q0", "q1")


def test_repr_names_each_field():
    assert repr(Dia("s", Tau())) == "Dia(symbol='s', child=Tau())"
    assert repr(FuzzySet((0.5,))) == "FuzzySet(degrees=(0.5,))"
    assert repr(VerificationReport(True)) == "VerificationReport(ok=True, violations=())"
    assert repr(structure("godel")) == "Structure('godel', eps_cmp=1e-09)"


def test_copied_custom_structure_is_not_wrapped_again():
    st = custom_structure(lambda x, y: min(x, y), lambda x, y: 1.0 if x <= y else y)
    back = copy.deepcopy(st)
    assert back == st and back.tnorm is st.tnorm


def test_dataclasses_replace_builds_through_the_constructor():
    result = BUILDERS[DbSimResult]()
    lowered = dataclasses.replace(result, norms=result.norms[:-1] + (0.0,))
    assert type(lowered) is DbSimResult and lowered != result
    assert lowered.prefix == result.prefix and lowered.norms[-1] == 0.0
    with pytest.raises(DegreeRangeError):
        dataclasses.replace(FuzzySet((0.5,)), degrees=(1.5,))


@pytest.mark.parametrize("values", [("s",), ("s", Tau(), 1)], ids=["short", "long"])
def test_init_refuses_a_wrong_number_of_fields(values):
    with pytest.raises(ValueError):
        object.__new__(Dia)._init(*values)


def test_import_loads_no_dataclasses(tmp_path):
    # The value classes are plain slotted classes, so neither the package nor
    # the CLI pays for importing dataclasses (and inspect, ast, dis, tokenize
    # with it) at every start, nor while it runs a command.
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    left, right = tmp_path / "left.json", tmp_path / "right.json"
    left.write_text(json.dumps(automaton_to_json(chain_automaton())))
    right.write_text(json.dumps(automaton_to_json(chain_automaton_variant())))
    argv = ["dbbisim", "--left", str(left), "--right", str(right), "--depth", "2",
            "--output", str(tmp_path / "out.json")]
    # Nor does an import compile a round kernel (``_KERNELS`` holds those
    # compiled), so the commands that run none pay nothing for them. The
    # star import loads every submodule of the lazy package.
    loaded = (f"print([m for m in {heavy!r} if m in sys.modules],"
              " len(sys.modules['fuzzbound.dbsim']._KERNELS))\n")
    code = ("import sys\n"
            "from fuzzbound import *\n"
            + loaded +
            "import fuzzbound.cli\n"
            + loaded +
            f"print(fuzzbound.cli.run({argv!r}))\n"
            + loaded)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[] 0", "[] 0", "0", "[] 1", ""]
    assert json.loads((tmp_path / "out.json").read_text())["mode"] == "bisimulation"

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as strat

from fuzzbound import (
    FuzzyRelation,
    FuzzySet,
    compose_rel_set,
    custom_structure,
    set_leq,
    structure,
    subset_degree,
    validate_degree,
)
from fuzzbound import lattice
from fuzzbound.errors import DegreeRangeError
from fuzzbound.lattice import STRUCTURE_NAMES, Structure

EPS = 1e-9

degrees = strat.floats(min_value=0.0, max_value=1.0, allow_nan=False)
degree_lists = strat.lists(degrees, max_size=6)


# Module scope is safe (structures are immutable) and keeps hypothesis happy
# about fixture reuse across generated examples.
@pytest.fixture(params=STRUCTURE_NAMES, scope="module")
def st(request):
    return structure(request.param)


class TestGoldenValues:
    def test_tnorm(self):
        assert structure("godel").tnorm(0.4, 0.5) == 0.4
        assert structure("lukasiewicz").tnorm(0.4, 0.5) == 0.0
        assert structure("product").tnorm(0.4, 0.5) == pytest.approx(0.2, abs=1e-12)

    def test_residuum(self, st):
        assert st.residuum(0.3, 0.3) == 1.0

    def test_residuum_lukasiewicz(self):
        assert structure("lukasiewicz").residuum(0.4, 0.3) == pytest.approx(0.9, abs=EPS)

    def test_residuum_product(self):
        assert structure("product").residuum(0.9, 0.8) == pytest.approx(8 / 9, abs=EPS)
        assert structure("product").residuum(0.0, 0.0) == 1.0

    def test_residuum_product_subnormal(self):
        # 0.5 * 5e-324 underflows to 0.0, so the adjoint residuum must reach 0.5.
        prod = structure("product")
        assert prod.tnorm(0.5, 5e-324) == 0.0
        assert prod.residuum(5e-324, 0.0) == 0.5
        assert prod.residuum(0.5, 0.0) == 0.0

    def test_biresiduum(self, st):
        assert st.biresiduum(0.37, 0.37) == 1.0

    def test_biresiduum_lukasiewicz(self):
        assert structure("lukasiewicz").biresiduum(0.0, 0.8) == pytest.approx(0.2, abs=EPS)

    def test_biresiduum_godel(self):
        assert structure("godel").biresiduum(1.0, 0.8) == pytest.approx(0.8, abs=EPS)

    def test_meet_join(self, st):
        # The t-norm lies below the meet; the biresiduum is the meet of the
        # residua in both directions.
        assert st.tnorm(0.9, 0.7) <= min(0.9, 0.7)
        assert st.biresiduum(0.9, 0.7) == min(st.residuum(0.9, 0.7),
                                              st.residuum(0.7, 0.9))

    def test_empty_meet_is_top_empty_join_is_bottom(self, st):
        # Inclusion over no states is a meet of nothing; composing through no
        # states is a join of nothing.
        assert subset_degree(st, FuzzySet(()), FuzzySet(())) == 1.0
        assert compose_rel_set(st, FuzzyRelation(2, 0),
                               FuzzySet(())).degrees == (0.0, 0.0)


def leq(st, x, y):
    """x <= y up to the structure's comparison tolerance."""
    return x <= y + st.eps_cmp


class TestLatticeLaws:
    @given(x=degrees)
    def test_unit_and_zero(self, st, x):
        assert st.tnorm(x, 1.0) == pytest.approx(x, abs=EPS)
        assert st.tnorm(x, 0.0) == 0.0

    @given(x=degrees, y=degrees)
    def test_tnorm_commutative(self, st, x, y):
        assert st.tnorm(x, y) == pytest.approx(st.tnorm(y, x), abs=EPS)

    @given(x=degrees, y=degrees, z=degrees)
    def test_tnorm_associative(self, st, x, y, z):
        left = st.tnorm(st.tnorm(x, y), z)
        right = st.tnorm(x, st.tnorm(y, z))
        assert left == pytest.approx(right, abs=EPS)

    @given(x=degrees, y=degrees, z=degrees)
    def test_adjunction(self, st, x, y, z):
        if st.tnorm(x, y) <= z:
            assert leq(st, x, st.residuum(y, z))
        if x <= st.residuum(y, z):
            assert leq(st, st.tnorm(x, y), z)

    @given(x=degrees, x2=degrees, y=degrees, y2=degrees)
    def test_tnorm_monotone(self, st, x, x2, y, y2):
        lo_x, hi_x = sorted((x, x2))
        lo_y, hi_y = sorted((y, y2))
        assert leq(st, st.tnorm(lo_x, lo_y), st.tnorm(hi_x, hi_y))

    @given(x=degrees, x2=degrees, y=degrees, y2=degrees)
    def test_residuum_antitone_monotone(self, st, x, x2, y, y2):
        lo_x, hi_x = sorted((x, x2))
        lo_y, hi_y = sorted((y, y2))
        assert leq(st, st.residuum(hi_x, lo_y), st.residuum(lo_x, hi_y))

    @given(x=degrees, y=degrees)
    def test_modus_ponens_bound(self, st, x, y):
        assert leq(st, st.tnorm(x, st.residuum(x, y)), y)

    @given(x=degrees, y=degrees)
    def test_residuum_one_iff_leq(self, st, x, y):
        if x <= y:
            assert st.residuum(x, y) == 1.0
        if st.residuum(x, y) == 1.0:
            assert leq(st, x, y)

    @given(x=degrees, ys=degree_lists)
    def test_tnorm_distributes_over_join(self, st, x, ys):
        left = st.tnorm(x, max(ys, default=0.0))
        right = max((st.tnorm(x, y) for y in ys), default=0.0)
        assert left == pytest.approx(right, abs=EPS)

    @given(xs=degree_lists, y=degrees)
    def test_residuum_turns_join_into_meet(self, st, xs, y):
        left = st.residuum(max(xs, default=0.0), y)
        right = min((st.residuum(x, y) for x in xs), default=1.0)
        assert left == pytest.approx(right, abs=EPS)


# Floats at the edges of [0, 1]: the smallest subnormal, the smallest normal,
# the largest float below 1, and a sum that is not the decimal it spells.
EDGE_FLOATS = (0.0, 5e-324, 2.0 ** -1022, 1.0 - 2.0 ** -53, 0.1 + 0.2, 1.0)
unit_floats = strat.sampled_from(EDGE_FLOATS) | degrees


def assert_closed(st, x, y):
    for v in (st.tnorm(x, y), st.residuum(x, y), st.biresiduum(x, y)):
        assert type(v) is float and 0.0 <= v <= 1.0, (x, y, v)


def assert_c(st, x, y):
    assert st.tnorm(x, y) == st.tnorm(y, x), (x, y)


def assert_l1(st, x, y):
    assert st.tnorm(x, y) <= st.tnorm(x, 1.0), (x, y)


def assert_l2(st, x, y):
    assert st.residuum(x, y) >= y, (x, y)


def assert_l3(st, x, y):
    # Monotone in the consequent: nothing lowers x => y below its floor x => 0.
    assert st.residuum(x, y) >= st.residuum(x, 0.0), (x, y)
    for y2 in EDGE_FLOATS:
        if y <= y2:
            assert st.residuum(x, y) <= st.residuum(x, y2), (x, y, y2)


# A t-norm that is neither continuous nor strict, with its residuum.
NILPOTENT_MINIMUM = custom_structure(
    lambda x, y: min(x, y) if x + y > 1.0 else 0.0,
    lambda x, y: 1.0 if x <= y else max(1.0 - x, y))


class TestBuiltinsInFloats:
    # Exactly, with no tolerance: relations computed from the built-ins are
    # frozen unchecked, the round kernel skips calls by (L1), (L2) and (L3),
    # and the norms rely on (C) to pass the t-norm's operands in either order.

    @given(x=unit_floats, y=unit_floats)
    def test_operations_map_unit_floats_to_unit_floats(self, st, x, y):
        assert_closed(st, x, y)

    @given(x=unit_floats, y=unit_floats)
    def test_c_tnorm_commutes_bit_for_bit(self, st, x, y):
        assert_c(st, x, y)

    @given(x=unit_floats, y=unit_floats)
    def test_l1_tnorm_is_at_most_its_value_at_one(self, st, x, y):
        assert_l1(st, x, y)

    @given(x=unit_floats, y=unit_floats)
    def test_l2_residuum_is_at_least_its_consequent(self, st, x, y):
        assert_l2(st, x, y)

    @given(x=unit_floats, y=unit_floats, y2=unit_floats)
    def test_l3_residuum_is_monotone_in_its_consequent(self, st, x, y, y2):
        assert_l3(st, x, y)
        low, high = min(y, y2), max(y, y2)
        assert st.residuum(x, low) <= st.residuum(x, high), (x, low, high)

    @pytest.mark.parametrize("law", [assert_closed, assert_c, assert_l1, assert_l2,
                                     assert_l3])
    def test_every_pair_of_edge_floats(self, st, law):
        for x in EDGE_FLOATS:
            for y in EDGE_FLOATS:
                law(st, x, y)

    @pytest.mark.parametrize("law", [assert_c, assert_l1, assert_l2, assert_l3])
    def test_nilpotent_minimum_keeps_the_laws(self, law):
        # The custom structure the kernel tests run beside the built-ins.
        rng = random.Random(11)
        floats = list(EDGE_FLOATS) + [rng.random() for _ in range(40)]
        for x in floats:
            for y in floats:
                law(NILPOTENT_MINIMUM, x, y)


class TestConstruction:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown structure"):
            structure("minimax")

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            structure("godel", eps_cmp=-1.0)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="finite number >= 0"):
            structure("godel", eps_cmp=eps)
        with pytest.raises(ValueError, match="finite number >= 0"):
            custom_structure(min, lambda x, y: 1.0 if x <= y else y, eps)

    # A bool passes the range test as 0 or 1: True would compare every degree
    # within 1.0.
    @pytest.mark.parametrize("eps", [True, False])
    def test_bool_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="finite number >= 0"):
            structure("godel", eps)
        with pytest.raises(ValueError, match="finite number >= 0"):
            custom_structure(min, lambda x, y: 1.0 if x <= y else y, eps_cmp=eps)

    def test_eps_is_configurable(self):
        wide = structure("godel", eps_cmp=0.1)
        high, low = FuzzySet((1.0,)), FuzzySet((0.95,))
        assert set_leq(wide, high, low)
        assert not set_leq(structure("godel"), high, low)

    def test_custom_structure(self):
        drastic_like = custom_structure(
            tnorm=lambda x, y: min(x, y) if max(x, y) == 1.0 else 0.0,
            residuum=lambda x, y: 1.0 if x <= y else y,
        )
        assert drastic_like.kind == "custom"
        assert drastic_like.tnorm(0.4, 0.5) == 0.0
        assert drastic_like.tnorm(0.4, 1.0) == 0.4

    @pytest.mark.parametrize("bad", [-0.5, 1.5, float("nan"), True, "0.5"],
                             ids=["negative", "above-one", "nan", "bool", "str"])
    @pytest.mark.parametrize("make", [
        lambda t, r: custom_structure(t, r),
        lambda t, r: Structure("direct", t, r)], ids=["custom", "direct"])
    def test_foreign_result_out_of_range_is_refused_at_the_call(self, make, bad):
        godel = structure("godel")
        st = make(lambda x, y: bad, godel.residuum)
        with pytest.raises(DegreeRangeError, match=r"tnorm\(0\.25, 0\.5\)"):
            st.tnorm(0.25, 0.5)
        st = make(godel.tnorm, lambda x, y: bad)
        with pytest.raises(DegreeRangeError, match=r"residuum\(0\.5, 0\.25\)"):
            st.residuum(0.5, 0.25)
        with pytest.raises(DegreeRangeError):
            st.biresiduum(0.5, 0.25)

    def test_foreign_int_result_becomes_a_float(self):
        st = custom_structure(lambda x, y: 1, lambda x, y: 0)
        assert type(st.tnorm(0.5, 0.5)) is float and st.tnorm(0.5, 0.5) == 1.0
        assert type(st.residuum(0.5, 0.5)) is float

    def test_an_unhashable_op_is_checked_at_the_call(self):
        class Op:  # defines __eq__, so it has no hash
            def __eq__(self, other):
                return self is other

            def __call__(self, x, y):
                return 2.0

        st = custom_structure(Op(), Op())
        with pytest.raises(DegreeRangeError, match=r"tnorm\(0\.25, 0\.5\)"):
            st.tnorm(0.25, 0.5)

    @pytest.mark.parametrize("name", STRUCTURE_NAMES)
    def test_builtins_run_unwrapped(self, name):
        st = structure(name)
        assert (st.tnorm, st.residuum) == lattice._BUILTINS[name]

    def test_structures_are_immutable(self):
        st = structure("godel")
        with pytest.raises(AttributeError):
            st.eps_cmp = 0.5

    def test_validate_degree(self):
        assert validate_degree(0.0) == 0.0
        assert validate_degree(1.0) == 1.0
        assert math.copysign(1.0, validate_degree(-0.0)) == 1.0
        with pytest.raises(DegreeRangeError):
            validate_degree(-0.1)
        with pytest.raises(DegreeRangeError):
            validate_degree(1.0000001)
        with pytest.raises(DegreeRangeError):
            validate_degree("high")
        with pytest.raises(DegreeRangeError):
            validate_degree(True)
        for text in ("0.5", "1"):
            with pytest.raises(DegreeRangeError):
                validate_degree(text)

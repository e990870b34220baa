import pytest
from hypothesis import given
from hypothesis import strategies as strat

from fuzzbound import (
    FuzzyRelation,
    FuzzySet,
    compose_set_rel,
    custom_structure,
    structure,
    subset_degree,
    validate_degree,
)
from fuzzbound.errors import DegreeRangeError
from fuzzbound.lattice import STRUCTURE_NAMES

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
        assert compose_set_rel(st, FuzzySet(()),
                               FuzzyRelation(0, 2)).degrees == (0.0, 0.0)


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
            assert st.leq(x, st.residuum(y, z))
        if x <= st.residuum(y, z):
            assert st.leq(st.tnorm(x, y), z)

    @given(x=degrees, x2=degrees, y=degrees, y2=degrees)
    def test_tnorm_monotone(self, st, x, x2, y, y2):
        lo_x, hi_x = sorted((x, x2))
        lo_y, hi_y = sorted((y, y2))
        assert st.leq(st.tnorm(lo_x, lo_y), st.tnorm(hi_x, hi_y))

    @given(x=degrees, x2=degrees, y=degrees, y2=degrees)
    def test_residuum_antitone_monotone(self, st, x, x2, y, y2):
        lo_x, hi_x = sorted((x, x2))
        lo_y, hi_y = sorted((y, y2))
        assert st.leq(st.residuum(hi_x, lo_y), st.residuum(lo_x, hi_y))

    @given(x=degrees, y=degrees)
    def test_modus_ponens_bound(self, st, x, y):
        assert st.leq(st.tnorm(x, st.residuum(x, y)), y)

    @given(x=degrees, y=degrees)
    def test_residuum_one_iff_leq(self, st, x, y):
        if x <= y:
            assert st.residuum(x, y) == 1.0
        if st.residuum(x, y) == 1.0:
            assert st.leq(x, y)

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

    def test_eps_is_configurable(self):
        wide = structure("godel", eps_cmp=0.1)
        assert wide.approx(0.95, 1.0)
        assert not structure("godel").approx(0.95, 1.0)

    def test_custom_structure(self):
        drastic_like = custom_structure(
            tnorm=lambda x, y: min(x, y) if max(x, y) == 1.0 else 0.0,
            residuum=lambda x, y: 1.0 if x <= y else y,
        )
        assert drastic_like.kind == "custom"
        assert drastic_like.tnorm(0.4, 0.5) == 0.0
        assert drastic_like.tnorm(0.4, 1.0) == 0.4

    def test_structures_are_immutable(self):
        st = structure("godel")
        with pytest.raises(AttributeError):
            st.eps_cmp = 0.5

    def test_validate_degree(self):
        assert validate_degree(0.0) == 0.0
        assert validate_degree(1.0) == 1.0
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

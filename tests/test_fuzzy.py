import random

import pytest

from fuzzbound import (
    FuzzyRelation,
    FuzzySet,
    compose_rel_rel,
    compose_rel_set,
    compose_set_rel,
    equal_degree,
    inverse,
    rel_leq,
    relation_from_json,
    relation_to_json,
    set_leq,
    structure,
    subset_degree,
)
from fuzzbound.errors import DegreeRangeError, DimensionMismatch, InputFormatError

from conftest import assert_rel_close

GRID = [i / 10 for i in range(11)]


def random_relation(rng, rows, cols):
    return FuzzyRelation(
        rows, cols,
        tuple(tuple(rng.choice(GRID) for _ in range(cols)) for _ in range(rows)))


def random_set(rng, size):
    return FuzzySet(tuple(rng.choice(GRID) for _ in range(size)))


class TestValues:
    def test_set_rejects_out_of_range(self):
        with pytest.raises(DegreeRangeError):
            FuzzySet((0.2, 1.3))

    def test_relation_rejects_bad_shape(self):
        with pytest.raises(DimensionMismatch):
            FuzzyRelation(2, 2, ((0.1,), (0.2, 0.3)))

    def test_empty_relation_support(self):
        assert FuzzyRelation.empty(2, 3).is_empty()
        assert FuzzyRelation.empty(2, 3).entries() == []

    def test_from_entries_bounds_checked(self):
        with pytest.raises(DimensionMismatch):
            FuzzyRelation.from_entries(2, 2, [(2, 0, 0.5)])


class TestCompose:
    def test_identity_is_left_unit(self, st):
        rng = random.Random(7)
        rel = random_relation(rng, 3, 2)
        assert_rel_close(compose_rel_rel(st, FuzzyRelation.identity(3), rel), rel)

    def test_empty_annihilates(self, st):
        rng = random.Random(8)
        rel = random_relation(rng, 3, 2)
        out = compose_rel_rel(st, FuzzyRelation.empty(4, 3), rel)
        assert out.is_empty()

    def test_single_cell_godel(self):
        st = structure("godel")
        left = FuzzyRelation(1, 1, ((0.4,),))
        right = FuzzyRelation(1, 1, ((0.5,),))
        assert compose_rel_rel(st, left, right).degrees == ((0.4,),)

    def test_dimension_mismatch(self, st):
        with pytest.raises(DimensionMismatch):
            compose_rel_rel(st, FuzzyRelation.empty(2, 3), FuzzyRelation.empty(2, 3))

    def test_set_rel_zero_vector(self, st):
        rng = random.Random(9)
        rel = random_relation(rng, 3, 2)
        assert compose_set_rel(st, FuzzySet.zeros(3), rel).is_empty()

    def test_set_rel_chain_step(self):
        # Forward step of the chain automaton under product.
        st = structure("product")
        initial = FuzzySet((1.0, 0.0))
        step = FuzzyRelation.from_entries(2, 2, [(0, 1, 0.4), (1, 1, 0.5)])
        assert compose_set_rel(st, initial, step).degrees == (0.0, 0.4)

    def test_rel_set_terminal_pullback(self):
        st = structure("product")
        step = FuzzyRelation.from_entries(2, 2, [(0, 1, 0.5), (1, 1, 0.4)])
        terminal = FuzzySet((0.0, 0.8))
        pulled = compose_rel_set(st, step, terminal)
        assert pulled.degrees == pytest.approx((0.4, 0.32), abs=1e-12)

    def test_associative(self, st):
        rng = random.Random(10)
        for _ in range(30):
            a = random_relation(rng, rng.randint(1, 3), rng.randint(1, 3))
            b = random_relation(rng, a.cols, rng.randint(1, 3))
            c = random_relation(rng, b.cols, rng.randint(1, 3))
            left = compose_rel_rel(st, compose_rel_rel(st, a, b), c)
            right = compose_rel_rel(st, a, compose_rel_rel(st, b, c))
            for lrow, rrow in zip(left.degrees, right.degrees):
                for lv, rv in zip(lrow, rrow):
                    assert lv == pytest.approx(rv, abs=1e-9)

    def test_inverse_of_composition(self, st):
        rng = random.Random(11)
        for _ in range(30):
            a = random_relation(rng, rng.randint(1, 3), rng.randint(1, 3))
            b = random_relation(rng, a.cols, rng.randint(1, 3))
            assert inverse(compose_rel_rel(st, a, b)) == compose_rel_rel(
                st, inverse(b), inverse(a))

    def test_compose_monotone(self, st):
        rng = random.Random(12)
        for _ in range(30):
            a = random_relation(rng, 3, 3)
            other = random_relation(rng, 3, 3)
            bigger = FuzzyRelation(3, 3, tuple(
                tuple(map(max, arow, orow))
                for arow, orow in zip(a.degrees, other.degrees)))
            b = random_relation(rng, 3, 2)
            assert rel_leq(st, compose_rel_rel(st, a, b),
                           compose_rel_rel(st, bigger, b))


class TestInverse:
    def test_involution(self):
        rng = random.Random(13)
        rel = random_relation(rng, 3, 4)
        assert inverse(inverse(rel)) == rel

    def test_identity_fixed(self):
        assert inverse(FuzzyRelation.identity(3)) == FuzzyRelation.identity(3)

    def test_transpose_shape(self):
        rel = FuzzyRelation(2, 1, ((0.3,), (0.7,)))
        assert inverse(rel) == FuzzyRelation(1, 2, ((0.3, 0.7),))


class TestDegrees:
    def test_subset_reflexive(self, st):
        rng = random.Random(14)
        f = random_set(rng, 4)
        assert subset_degree(st, f, f) == 1.0

    def test_equal_on_empty_sets(self, st):
        assert equal_degree(st, FuzzySet.zeros(3), FuzzySet.zeros(3)) == 1.0

    def test_subset_lukasiewicz(self):
        st = structure("lukasiewicz")
        val = subset_degree(st, FuzzySet((0.9,)), FuzzySet((0.5,)))
        assert val == pytest.approx(0.6, abs=1e-9)

    def test_subset_one_iff_pointwise_leq(self, st):
        rng = random.Random(15)
        for _ in range(50):
            g = random_set(rng, 3)
            f = random_set(rng, 3)
            if subset_degree(st, g, f) == 1.0:
                assert set_leq(st, g, f)
            if all(gv <= fv for gv, fv in zip(g.degrees, f.degrees)):
                assert subset_degree(st, g, f) == 1.0

    def test_size_mismatch(self, st):
        with pytest.raises(DimensionMismatch):
            subset_degree(st, FuzzySet.zeros(2), FuzzySet.zeros(3))


class TestPointwiseOps:
    def test_empty_below_everything(self, st):
        rng = random.Random(16)
        rel = random_relation(rng, 3, 3)
        assert rel_leq(st, FuzzyRelation.empty(3, 3), rel)

    def test_shape_mismatch(self, st):
        with pytest.raises(DimensionMismatch):
            rel_leq(st, FuzzyRelation.empty(2, 3), FuzzyRelation.empty(3, 2))


class TestJson:
    def test_round_trip(self):
        rng = random.Random(19)
        rel = random_relation(rng, 3, 4)
        assert relation_from_json(relation_to_json(rel)) == rel

    def test_omitted_entries_are_zero(self):
        rel = relation_from_json({"rows": 2, "cols": 2, "entries": [[0, 1, 0.5]]})
        assert rel.degrees == ((0.0, 0.5), (0.0, 0.0))

    def test_rejects_garbage(self):
        with pytest.raises(InputFormatError):
            relation_from_json({"rows": 2})
        with pytest.raises(InputFormatError):
            relation_from_json({"rows": 2, "cols": 2, "entries": [[0, 1]]})
        with pytest.raises(DegreeRangeError):
            relation_from_json({"rows": 1, "cols": 1, "entries": [[0, 0, 1.4]]})
        with pytest.raises(DegreeRangeError):
            relation_from_json({"rows": 1, "cols": 1, "entries": [[0, 0, "0.5"]]})

    @pytest.mark.parametrize("entry", [[0.7, 1.9, 0.5], [0, 1.0, 0.5],
                                       [True, 0, 0.5], [0, "1", 0.5]])
    def test_rejects_non_integer_indices(self, entry):
        # int() would read [0.7, 1.9, 0.5] as cell (0, 1).
        with pytest.raises(InputFormatError):
            relation_from_json({"rows": 2, "cols": 2, "entries": [entry]})

    @pytest.mark.parametrize("shape", [(-1, 2), (2, -1), (2.5, 2), (True, 1)])
    def test_rejects_bad_shape(self, shape):
        rows, cols = shape
        with pytest.raises(InputFormatError):
            relation_from_json({"rows": rows, "cols": cols, "entries": []})

    def test_rejects_boolean_degree(self):
        with pytest.raises(DegreeRangeError):
            relation_from_json({"rows": 1, "cols": 1, "entries": [[0, 0, True]]})

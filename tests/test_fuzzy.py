import json
import random

import pytest

from fuzzbound import (
    FuzzyRelation,
    FuzzySet,
    compose_rel_rel,
    compose_rel_set,
    compose_set_rel,
    custom_structure,
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


def sparse_relation(rng, rows, cols):
    """Most cells 0, some rows all 0: the shape of a transition relation."""
    return FuzzyRelation(rows, cols, tuple(
        tuple(rng.choice(GRID) if rng.random() < 0.2 else 0.0 for _ in range(cols))
        if rng.random() < 0.8 else (0.0,) * cols
        for _ in range(rows)))


def dense_compose(st, left, right):
    """The dense triple loop: every (row, col, b) term in ascending b."""
    out = []
    for row in left.degrees:
        out_row = []
        for c in range(right.cols):
            best = 0.0
            for b, lv in enumerate(row):
                if lv > 0.0:
                    v = st.tnorm(lv, right.degrees[b][c])
                    if v > best:
                        best = v
            out_row.append(best)
        out.append(tuple(out_row))
    return FuzzyRelation(left.rows, right.cols, tuple(out))


# Nilpotent minimum: a t-norm that is neither continuous nor strict.
NILPOTENT_MINIMUM = custom_structure(
    lambda x, y: min(x, y) if x + y > 1.0 else 0.0,
    lambda x, y: 1.0 if x <= y else max(1.0 - x, y))


def random_set(rng, size):
    return FuzzySet(tuple(rng.choice(GRID) for _ in range(size)))


class TestValues:
    def test_set_rejects_out_of_range(self):
        with pytest.raises(DegreeRangeError):
            FuzzySet((0.2, 1.3))

    def test_relation_rejects_bad_shape(self):
        with pytest.raises(DimensionMismatch):
            FuzzyRelation(2, 2, ((0.1,), (0.2, 0.3)))

    def test_relation_stores_checked_floats(self):
        # An int cell is stored as the float validate_degree returns, as in
        # FuzzySet, so the JSON form writes 1.0, not 1.
        rel = FuzzyRelation(1, 2, ((1, 0),))
        assert rel.degrees == ((1.0, 0.0),)
        assert all(type(v) is float for row in rel.degrees for v in row)
        assert relation_to_json(rel)["entries"] == [[0, 0, 1.0]]
        assert json.dumps(relation_to_json(rel)["entries"]) == "[[0, 0, 1.0]]"
        assert rel == FuzzyRelation.trusted(1, 2, ((1.0, 0.0),))

    def test_empty_relation_support(self):
        assert FuzzyRelation.empty(2, 3).is_empty()
        assert relation_to_json(FuzzyRelation.empty(2, 3))["entries"] == []

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

    @pytest.mark.parametrize("name", ["godel", "lukasiewicz", "product",
                                      "nilpotent-minimum"])
    def test_equals_dense_product(self, name):
        # Pairing only positive cells leaves out terms with a zero factor;
        # every cell must still be bit-identical to the dense triple loop.
        st = NILPOTENT_MINIMUM if name == "nilpotent-minimum" else structure(name)
        rng = random.Random(20)
        shapes = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (1, 1, 1)]
        shapes += [(rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6))
                   for _ in range(60)]
        for rows, inner, cols in shapes:
            for make_left, make_right in ((sparse_relation, random_relation),
                                          (random_relation, sparse_relation),
                                          (sparse_relation, sparse_relation),
                                          (random_relation, random_relation)):
                left = make_left(rng, rows, inner)
                right = make_right(rng, inner, cols)
                assert compose_rel_rel(st, left, right) == dense_compose(
                    st, left, right)

    def test_out_of_range_output_is_refused(self):
        # A custom t-norm can return degrees outside [0, 1].
        st = custom_structure(lambda x, y: x + y, lambda x, y: 1.0)
        one = FuzzyRelation(1, 1, ((0.6,),))
        with pytest.raises(DegreeRangeError):
            compose_rel_rel(st, one, one)

    def test_non_float_output_is_validated(self):
        # Cells are frozen without the validating constructor; the custom
        # structure converts or refuses a value of another type at the call.
        one = FuzzyRelation(1, 2, ((0.6, 0.0),))
        ints = custom_structure(lambda x, y: 1, lambda x, y: 1.0)
        out = compose_rel_rel(ints, one, FuzzyRelation(2, 1, ((0.5,), (0.5,))))
        assert out.degrees == ((1.0,),) and type(out.degrees[0][0]) is float
        bools = custom_structure(lambda x, y: True, lambda x, y: 1.0)
        with pytest.raises(DegreeRangeError):
            compose_rel_rel(bools, one, FuzzyRelation(2, 1, ((0.5,), (0.5,))))

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

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_shapes(self, shape):
        rows, cols = shape
        inv = inverse(FuzzyRelation.empty(rows, cols))
        assert inv == FuzzyRelation.empty(cols, rows)
        assert inverse(inv) == FuzzyRelation.empty(rows, cols)


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

    def test_agrees_with_structure_leq(self):
        # Cells at and just past the tolerance: the row comparison is the
        # same float operation as Structure.leq, cell for cell.
        st = structure("godel", eps_cmp=1e-3)
        rng = random.Random(17)
        steps = [0.0, 1e-3, 1e-3 + 1e-12, 2e-3, 0.1]
        for _ in range(300):
            b = random_set(rng, 3)
            a = FuzzySet(tuple(min(1.0, v + rng.choice(steps)) for v in b.degrees))
            cellwise = all(map(st.leq, a.degrees, b.degrees))
            assert set_leq(st, a, b) == cellwise
            rel_a = FuzzyRelation(1, 3, (a.degrees,))
            rel_b = FuzzyRelation(1, 3, (b.degrees,))
            assert rel_leq(st, rel_a, rel_b) == cellwise


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

    def test_shape_is_compared_before_entries(self):
        # The declared shape is refused before any grid or entry is built,
        # so malformed entries do not matter.
        doc = {"rows": 3, "cols": 2, "entries": [[0, 0, 1.4], "x"]}
        with pytest.raises(DimensionMismatch):
            relation_from_json(doc, (2, 2))
        ok = {"rows": 2, "cols": 2, "entries": [[1, 0, 0.5]]}
        assert relation_from_json(ok, (2, 2)) == relation_from_json(ok)

    def test_entry_errors_come_before_bounds(self):
        # An entry outside the shape is reported only once every entry has
        # parsed, so a later malformed entry is still an input error.
        with pytest.raises(InputFormatError):
            relation_from_json({"rows": 1, "cols": 1,
                                "entries": [[5, 0, 0.5], [0, 0]]})
        with pytest.raises(DimensionMismatch, match=r"entry \(5, 0\)"):
            relation_from_json({"rows": 1, "cols": 1,
                                "entries": [[5, 0, 0.5], [0, 3, 0.5]]})

    def test_rejects_boolean_degree(self):
        with pytest.raises(DegreeRangeError):
            relation_from_json({"rows": 1, "cols": 1, "entries": [[0, 0, True]]})

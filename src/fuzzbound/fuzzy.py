"""Fuzzy sets and fuzzy relations over finite, 0-based index sets.

Relations are stored dense (row-major lists of float rows); index sets are
contiguous integers, with display names kept elsewhere for I/O only. All
operations treat their inputs as immutable and return fresh values.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, le
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DimensionMismatch, InputFormatError, RelationCapExceeded
from .lattice import Frozen, Structure, as_int, validate_degree

# The most degrees a grid may keep, counted by require_cells before it is
# built: a run's working grid or trace, check's chain and symbol relations, a
# loaded relation, a level of words. It counts degrees, not bytes or working
# copies: 2**24 cells are 128 MiB of tuple slots alone, and an untraced run
# peaked at about 80 B per n_a*n_b cell at n = 1000, so one at the cap would
# near 1.3 GB (extrapolated; no run that size was made). A loaded relation's
# row counts as _ROW_CELLS cells more: the list and the tuple that hold it
# take about 100 bytes, even when it is empty.
MAX_CELLS = 2 ** 24
_ROW_CELLS = 8


def require_cells(cells: int, what: str, error: type[Exception]) -> None:
    """Raise ``error`` before ``what`` exists if its ``cells`` exceed ``MAX_CELLS``."""
    if cells > MAX_CELLS:
        raise error(f"{what}: {cells} cells, over the cap of {MAX_CELLS} cells")


# The 0.0 a loaded relation's cells start as. It is no parsed entry's float,
# so an entry whose cell holds any other object repeats an earlier entry.
_UNSET = float("0")


class FuzzySet(Frozen):
    """A degree vector over 0..size-1."""

    __slots__ = ("degrees",)

    def __init__(self, degrees: Iterable[float]):
        self._init(tuple(validate_degree(v, "fuzzy-set degree") for v in degrees))

    @property
    def size(self) -> int:
        return len(self.degrees)

    def __getitem__(self, i: int) -> float:
        return self.degrees[i]

    def __iter__(self) -> Iterator[float]:
        return iter(self.degrees)


class FuzzyRelation(Frozen):
    """A dense degree matrix over rows x cols."""

    __slots__ = ("rows", "cols", "degrees")

    def __init__(self, rows: int, cols: int,
                 degrees: Optional[Iterable[Iterable[float]]] = None):
        rows = as_int(rows, 0, "relation rows")
        cols = as_int(cols, 0, "relation columns")
        if degrees is None:
            grid = tuple((0.0,) * cols for _ in range(rows))
        else:
            grid = tuple(tuple(row) for row in degrees)
        if len(grid) != rows or any(len(row) != cols for row in grid):
            raise DimensionMismatch(f"relation grid does not match shape {rows}x{cols}")
        self._init(rows, cols, tuple(
            tuple([validate_degree(v, "relation degree") for v in row])
            for row in grid))

    def __getitem__(self, pair: tuple[int, int]) -> float:
        r, c = pair
        return self.degrees[r][c]

    @classmethod
    def trusted(cls, rows: int, cols: int,
                degrees: tuple[tuple[float, ...], ...]) -> "FuzzyRelation":
        """A relation over a tuple grid of the given shape, unchecked: each
        cell must be a float in [0, 1] already (see :mod:`fuzzbound.lattice`)."""
        rel = object.__new__(cls)
        rel._init(rows, cols, degrees)
        return rel


def _require_same_shape(a: FuzzyRelation, b: FuzzyRelation) -> None:
    if a.rows != b.rows or a.cols != b.cols:
        raise DimensionMismatch(
            f"relations have shapes {a.rows}x{a.cols} and {b.rows}x{b.cols}")


def compose_rel_rel(st: Structure, left: FuzzyRelation,
                    right: FuzzyRelation) -> FuzzyRelation:
    """Sup-t-norm relation product: (left o right)(a, c) = sup_b left(a,b) (x) right(b,c).

    Only positive cells are paired, so the cost is the number of pairs of a
    positive left(a, b) with a positive right(b, c). This assumes the
    t-norm's zero law x (x) 0 = 0, which every t-norm satisfies: a term with
    a zero factor cannot raise a supremum that starts at 0. Each output cell
    sees its positive terms in ascending b, as in the dense product. Every
    cell is 0.0 or a t-norm value, so the result is frozen unchecked.
    """
    if left.cols != right.rows:
        raise DimensionMismatch(
            f"cannot compose {left.rows}x{left.cols} with {right.rows}x{right.cols}")
    tnorm = st.tnorm
    positive = [[(c, v) for c, v in enumerate(row) if v > 0.0]
                for row in right.degrees]
    out = []
    for row in left.degrees:
        best = [0.0] * right.cols
        for lv, cells in zip(row, positive):
            if lv > 0.0:
                for c, rv in cells:
                    v = tnorm(lv, rv)
                    if v > best[c]:
                        best[c] = v
        out.append(tuple(best))
    return FuzzyRelation.trusted(left.rows, right.cols, tuple(out))


def compose_rel_set(st: Structure, rel: FuzzyRelation, g: FuzzySet) -> FuzzySet:
    """(rel o g)(a) = sup_b rel(a, b) (x) g(b)."""
    if g.size != rel.cols:
        raise DimensionMismatch(
            f"set of size {g.size} does not right-compose with {rel.rows}x{rel.cols}")
    tnorm = st.tnorm
    out = []
    for row in rel.degrees:
        best = 0.0
        for b, gv in enumerate(g.degrees):
            if gv > 0.0:
                v = tnorm(row[b], gv)
                if v > best:
                    best = v
        out.append(best)
    return FuzzySet(tuple(out))


def inverse(rel: FuzzyRelation) -> FuzzyRelation:
    """Transpose: inverse(rel)(b, a) = rel(a, b)."""
    # zip(*()) has no rows at all; a 0 x n relation inverts to n empty rows.
    degrees = tuple(zip(*rel.degrees)) if rel.rows else ((),) * rel.cols
    return FuzzyRelation.trusted(rel.cols, rel.rows, degrees)


def subset_degree(st: Structure, g: FuzzySet, f: FuzzySet) -> float:
    """Graded inclusion S(g, f) = inf_a (g(a) => f(a))."""
    if g.size != f.size:
        raise DimensionMismatch(f"sets have sizes {g.size} and {f.size}")
    residuum = st.residuum
    return min((residuum(gv, fv) for gv, fv in zip(g.degrees, f.degrees)),
               default=1.0)


def _leq_row(eps: float, xs: Sequence[float], ys: Sequence[float]) -> bool:
    # x <= y + eps for each cell pair of a row, in C-level maps.
    return all(map(le, xs, map(add, ys, repeat(eps))))


def set_leq(st: Structure, g: FuzzySet, f: FuzzySet) -> bool:
    """Pointwise g <= f within the comparison tolerance."""
    if g.size != f.size:
        raise DimensionMismatch(f"sets have sizes {g.size} and {f.size}")
    return _leq_row(st.eps_cmp, g.degrees, f.degrees)


def rel_leq(st: Structure, a: FuzzyRelation, b: FuzzyRelation) -> bool:
    """Pointwise a <= b within the comparison tolerance."""
    _require_same_shape(a, b)
    eps = st.eps_cmp
    return all(_leq_row(eps, arow, brow)
               for arow, brow in zip(a.degrees, b.degrees))


def relation_to_json(rel: FuzzyRelation) -> dict:
    """Sparse JSON form: ``entries`` lists each positive cell as
    ``[row, col, degree]``, row-major; zero cells are omitted."""
    return {
        "rows": rel.rows,
        "cols": rel.cols,
        "entries": [[r, c, v] for r, row in enumerate(rel.degrees)
                    for c, v in enumerate(row) if v > 0.0],
    }


def _json_index(value, what: str) -> int:
    # int() would truncate 1.9 to 1; bool is an int subclass but not an index.
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputFormatError(f"{what} must be a JSON integer, got {value!r}")
    return value


def relation_from_json(doc: dict,
                       shape: Optional[tuple[int, int]] = None) -> FuzzyRelation:
    """Parse the sparse JSON form. Given ``shape``, a document that declares
    any other shape raises ``DimensionMismatch`` before any cell is built; one
    that declares more than ``MAX_CELLS`` cells, counting ``_ROW_CELLS`` more
    per row, raises ``RelationCapExceeded``, also before. A repeated
    (row, col) entry raises ``InputFormatError``."""
    if not isinstance(doc, dict):
        raise InputFormatError("relation document must be a JSON object")
    try:
        rows = _json_index(doc["rows"], "rows")
        cols = _json_index(doc["cols"], "cols")
    except KeyError as exc:
        raise InputFormatError(f"malformed relation document: {exc}") from None
    if rows < 0 or cols < 0:
        raise InputFormatError(f"relation shape must be >= 0, got {rows}x{cols}")
    if shape is not None and (rows, cols) != shape:
        raise DimensionMismatch(
            f"relation is {rows}x{cols}, expected {shape[0]}x{shape[1]}")
    require_cells(rows * (cols + _ROW_CELLS), f"a {rows}x{cols} relation and its rows",
                  RelationCapExceeded)
    raw = doc.get("entries", [])
    if not isinstance(raw, (list, tuple)):
        raise InputFormatError("relation entries must be a JSON array")
    grid = [[_UNSET] * cols for _ in range(rows)]
    outside = None  # the first entry out of bounds, reported after the rest parse
    for item in raw:
        if not isinstance(item, (list, tuple)) or len(item) != 3:
            raise InputFormatError(f"malformed relation entry {item!r}")
        r, c, v = item
        # The common entry passes these tests; any other takes the full checks.
        if type(r) is not int:
            r = _json_index(r, "entry row")
        if type(c) is not int:
            c = _json_index(c, "entry column")
        if type(v) is not float or not 0.0 < v <= 1.0:
            v = validate_degree(v, "relation degree")
        if 0 <= r < rows and 0 <= c < cols:
            row = grid[r]
            if row[c] is not _UNSET:
                raise InputFormatError(f"relation entry ({r}, {c}) is repeated")
            row[c] = v
        elif outside is None:
            outside = (r, c)
    if outside is not None:
        raise DimensionMismatch(f"entry {outside} outside a {rows}x{cols} relation")
    return FuzzyRelation.trusted(rows, cols, tuple(map(tuple, grid)))

"""Residuated-lattice structures on the unit interval.

A structure bundles a t-norm with its adjoint residuum, plus the comparison
tolerance used everywhere degrees are compared. The three classic structures
(Godel, Lukasiewicz, product) are built in; user-defined pairs plug in through
:func:`custom_structure`, each result checked at the call. The built-ins run
unchecked: they map [0, 1] floats to [0, 1] floats, so relations computed
from them are frozen unchecked. They are linear and their t-norms are
continuous, which the fixpoint results rely on; this is a documented
assumption, not a runtime check. The round kernel also relies on three laws
that follow from monotonicity and adjunction and that the built-ins keep in
floats: (L1) x (x) y <= x (x) 1.0, (L2) (x => y) >= y and (L3) x => y is
monotone in y, so (x => y) >= (x => 0.0).

:class:`Frozen` is the immutable base of ``Structure`` and of the package's
other value classes (sets, relations, automata, results, formulas).
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import DegreeRangeError

DEFAULT_EPS = 1e-9
_MIN_NORMAL = 2.0 ** -1022  # smallest positive normal float

BinaryOp = Callable[[float, float], float]


def validate_degree(value: float, what: str = "degree") -> float:
    """Return ``value`` if it is a real number in [0, 1], else raise."""
    v = value
    if type(v) is not float:  # every loaded degree and checked result passes here
        try:
            if isinstance(v, (bool, str)):  # JSON true or "0.5" is not a degree
                raise TypeError
            v = float(v)
        except (TypeError, ValueError):
            raise DegreeRangeError(
                f"{what} must be a real number, got {value!r}") from None
        except OverflowError:  # an int too large for a float
            raise DegreeRangeError(f"{what} must lie in [0, 1], got {value!r}") from None
    if not 0.0 <= v <= 1.0:
        raise DegreeRangeError(f"{what} must lie in [0, 1], got {v!r}")
    return v


def _godel_tnorm(x: float, y: float) -> float:
    return x if x < y else y


def _godel_residuum(x: float, y: float) -> float:
    return 1.0 if x <= y else y


def _lukasiewicz_tnorm(x: float, y: float) -> float:
    v = x + y - 1.0
    return v if v > 0.0 else 0.0


def _lukasiewicz_residuum(x: float, y: float) -> float:
    v = 1.0 - x + y
    return v if v < 1.0 else 1.0


def _product_tnorm(x: float, y: float) -> float:
    return x * y


def _product_residuum(x: float, y: float) -> float:
    # x = 0 falls under x <= y, so the division is never by zero.
    if x <= y:
        return 1.0
    if x >= _MIN_NORMAL:
        return y / x
    # Subnormal x: the t-norm x * t rounds to a multiple of 2**-1074, so
    # x * t <= y holds in floats up to t = (y + 2**-1075) / x, not y / x
    # (e.g. 5e-324 * 0.5 == 0.0). Scaled by 2**1074 both are exact integers.
    return (math.ldexp(y, 1074) + 0.5) / math.ldexp(x, 1074)


def _checked(name: str, op: BinaryOp) -> BinaryOp:
    def checked(x: float, y: float) -> float:
        try:
            return validate_degree(op(x, y), "result")
        except DegreeRangeError as exc:  # the call is named only on failure
            raise DegreeRangeError(f"{name}({x!r}, {y!r}): {exc}") from None
    return checked


def _restore(cls, fields):
    obj = object.__new__(cls)
    obj._init(*fields)
    return obj


class _FieldTable:
    """``__dataclass_fields__`` of a value class, built on first use.

    The value classes used to be dataclasses, so ``dataclasses.replace``,
    ``fields`` and ``asdict`` still work on them: those functions find their
    fields here. The module is imported only when one of them asks, so a
    start that never does never loads it.
    """

    def __init__(self):
        self.tables = {}

    def __get__(self, obj, owner):
        table = self.tables.get(owner)
        if table is None:
            import dataclasses
            table = self.tables[owner] = dataclasses.make_dataclass(
                owner.__name__, owner.__slots__).__dataclass_fields__
        return table


class Frozen:
    """Base of the immutable value classes.

    A subclass names its fields in ``__slots__``, in the order of its
    constructor's parameters, and sets each once with :meth:`_init`. Two
    instances are equal when they are of the same class and their fields are
    equal, and hash alike then. Pickling and copying restore the fields
    without running ``__init__`` again. Only the most derived class's
    ``__slots__`` are the fields, so a class that has fields is not meant to
    be subclassed with more.
    """

    __slots__ = ()
    __dataclass_fields__ = _FieldTable()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} instances are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} instances are immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return _restore, (type(self), self._fields())


class Structure(Frozen):
    """A residuated lattice on [0, 1]: t-norm, residuum, comparison tolerance.

    A pair other than a built-in one has each result checked at the call: an
    int becomes a float, anything but a real number in [0, 1] raises
    ``DegreeRangeError``. Instances are immutable value objects; all methods
    are pure functions and safe to use from any number of threads.
    """

    __slots__ = ("kind", "tnorm", "residuum", "eps_cmp")

    def __init__(self, kind: str, tnorm: BinaryOp, residuum: BinaryOp,
                 eps_cmp: float = DEFAULT_EPS):
        if not 0.0 <= eps_cmp < math.inf:  # NaN fails both comparisons
            raise ValueError(f"eps_cmp must be a finite number >= 0, got {eps_cmp!r}")
        if (tnorm, residuum) not in _BUILTINS.values():
            tnorm, residuum = _checked("tnorm", tnorm), _checked("residuum", residuum)
        self._init(kind, tnorm, residuum, eps_cmp)

    def __repr__(self) -> str:
        return f"Structure({self.kind!r}, eps_cmp={self.eps_cmp!r})"

    def biresiduum(self, x: float, y: float) -> float:
        """Graded equality: the meet of the residua in both directions."""
        a = self.residuum(x, y)
        b = self.residuum(y, x)
        return a if a < b else b

    def leq(self, x: float, y: float) -> bool:
        """x <= y up to the comparison tolerance."""
        return x <= y + self.eps_cmp

    def approx(self, x: float, y: float) -> bool:
        """|x - y| <= the comparison tolerance."""
        return abs(x - y) <= self.eps_cmp


_BUILTINS: dict[str, tuple[BinaryOp, BinaryOp]] = {
    "godel": (_godel_tnorm, _godel_residuum),
    "lukasiewicz": (_lukasiewicz_tnorm, _lukasiewicz_residuum),
    "product": (_product_tnorm, _product_residuum),
}

STRUCTURE_NAMES = tuple(_BUILTINS)


def structure(name: str, eps_cmp: float = DEFAULT_EPS) -> Structure:
    """Look up a built-in structure by name ("godel", "lukasiewicz", "product")."""
    try:
        tnorm, residuum = _BUILTINS[name]
    except KeyError:
        known = ", ".join(STRUCTURE_NAMES)
        raise ValueError(f"unknown structure {name!r} (known: {known})") from None
    return Structure(name, tnorm, residuum, eps_cmp)


def custom_structure(tnorm: BinaryOp, residuum: BinaryOp,
                     eps_cmp: float = DEFAULT_EPS) -> Structure:
    """Wrap a user-supplied t-norm/residuum pair.

    The pair is expected to satisfy the adjunction x (x) y <= z iff
    x <= (y => z) and the laws (L1) x (x) y <= x (x) 1.0, (L2)
    (x => y) >= y and (L3) (x => y) >= (x => 0.0), which the kernel's skipped
    calls rely on: only then do its outputs match ``naive_dbsim``. Only the
    results are checked, at the call. A computation calls ``residuum(d, 0.0)``
    once per transition of degree d when it starts.
    """
    return Structure("custom", tnorm, residuum, eps_cmp)

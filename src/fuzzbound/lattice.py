"""Residuated-lattice structures on the unit interval.

A structure bundles a t-norm with its adjoint residuum, plus the comparison
tolerance used everywhere degrees are compared. The three classic structures
(Godel, Lukasiewicz, product) are built in; user-defined pairs plug in through
:func:`custom_structure`, each result checked at the call. Each built-in op is
written once, as a format template over its operands; its function here is
the template filled in, and dbsim's round kernel is compiled per built-in
structure with the templates filled in with its own names, while any other
pair runs the same kernel text through calls. The built-ins run unchecked:
they map [0, 1] floats to [0, 1] floats, so relations computed from them are
frozen unchecked. They are linear and their t-norms are continuous, which the
fixpoint results rely on; this is a documented assumption, not a runtime
check. The round kernel also relies on three laws that follow from
monotonicity and adjunction and that the built-ins keep in floats:
(L1) x (x) y <= x (x) 1.0, (L2) (x => y) >= y and (L3) x => y is monotone in
y, so (x => y) >= (x => 0.0). The norms take a t-norm's operands in whichever
order suits the loop, which relies on (C) x (x) y == y (x) x, kept bit for
bit by the built-ins.

:class:`Frozen` is the immutable base of ``Structure`` and of the package's
other value classes (sets, relations, automata, results, formulas).
"""

from __future__ import annotations

import math
from operator import index
from typing import Callable

from .errors import DegreeRangeError

DEFAULT_EPS = 1e-9

BinaryOp = Callable[[float, float], float]


def validate_degree(value: float, what: str = "degree") -> float:
    """Return ``value`` as a float if it is a real number in [0, 1], else
    raise. ``-0.0`` is returned as ``0.0``, so no degree read in or computed
    is ``-0.0`` and equal degrees have equal bits."""
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
    return v if v else 0.0  # -0.0 becomes 0.0; any other float is returned as is


def as_int(n, least: int, what: str) -> int:
    """n as an int >= least: a bool or float raises TypeError first, even 2.0."""
    if type(n) is bool:  # index() takes True as 1
        raise TypeError("'bool' object cannot be interpreted as an integer")
    n = index(n)
    if n < least:
        raise ValueError(f"{what} must be >= {least}")
    return n


def as_tolerance(x, what: str):
    """x if it is a finite number >= 0, for a tolerance: a bool is refused as NaN is."""
    if type(x) is bool or not 0.0 <= x < math.inf:  # NaN fails both comparisons
        raise ValueError(f"{what} must be a finite number >= 0, got {x!r}")
    return x


# Each built-in structure is its two ops, t-norm and residuum, each written
# once as a format template over its operands {x} and {y}, in which {v} may
# name a temporary; it reads nothing but builtins and math. The functions
# here fill the fields in with x, y and v; dbsim's round kernel fills them in
# with its own names and inlines them.
_TEMPLATES: dict[str, tuple[str, str]] = {
    "godel": ("{x} if {x} < {y} else {y}", "1.0 if {x} <= {y} else {y}"),
    "lukasiewicz": ("{v} if ({v} := {x} + {y} - 1.0) > 0.0 else 0.0",
                    "{v} if ({v} := 1.0 - {x} + {y}) < 1.0 else 1.0"),
    # x = 0 falls under x <= y, so the division is never by zero. Below
    # 2**-1022, the smallest positive normal float, x is subnormal: the
    # t-norm x * t rounds to a multiple of 2**-1074, so x * t <= y holds in
    # floats up to t = (y + 2**-1075) / x, not y / x (e.g. 5e-324 * 0.5 ==
    # 0.0). Scaled by 2**1074 both are exact integers.
    "product": ("{x} * {y}",
                "1.0 if {x} <= {y} else {y} / {x} if {x} >= 2.0 ** -1022"
                " else (math.ldexp({y}, 1074) + 0.5) / math.ldexp({x}, 1074)"),
}


def _op(name: str, template: str) -> BinaryOp:
    # The function of a built-in op, defined as a module attribute (pickle
    # finds a structure's ops by name).
    exec(f"def {name}(x: float, y: float) -> float:\n"
         f"    return {template.format(x='x', y='y', v='v')}\n", globals())
    return globals()[name]


_BUILTINS: dict[str, tuple[BinaryOp, BinaryOp]] = {
    name: (_op(f"_{name}_tnorm", tnorm), _op(f"_{name}_residuum", residuum))
    for name, (tnorm, residuum) in _TEMPLATES.items()}
_KINDS = {ops: kind for kind, ops in _BUILTINS.items()}  # built-in pair -> name


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
        eps_cmp = as_tolerance(eps_cmp, "eps_cmp")
        if (tnorm, residuum) not in list(_KINDS):  # compared: an op need not hash
            tnorm, residuum = _checked("tnorm", tnorm), _checked("residuum", residuum)
        self._init(kind, tnorm, residuum, eps_cmp)

    def __repr__(self) -> str:
        return f"Structure({self.kind!r}, eps_cmp={self.eps_cmp!r})"

    def biresiduum(self, x: float, y: float) -> float:
        """Graded equality: the meet of the residua in both directions."""
        a = self.residuum(x, y)
        b = self.residuum(y, x)
        return a if a < b else b


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
    calls rely on: only then do its outputs match ``naive_dbsim``. The
    t-norm is expected to commute exactly, (C) x (x) y == y (x) x, as the
    norms pass its operands in either order. Only the results are checked,
    at the call. A computation calls ``residuum(d, 0.0)`` once per
    transition of degree d, and once per positive initial degree d, when it
    starts. The kernel keeps the norm as a running meet over the rounds,
    exact only for monotone ops, as (L3) is. The pair runs the round kernel
    that the built-ins run with their ops inlined, through calls to it.
    """
    return Structure("custom", tnorm, residuum, eps_cmp)

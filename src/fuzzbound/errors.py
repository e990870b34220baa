"""Exception types shared across the package."""


class FuzzboundError(Exception):
    """Base class for all errors raised by this package."""


class DegreeRangeError(FuzzboundError, ValueError):
    """A truth degree lies outside the unit interval."""


class DimensionMismatch(FuzzboundError, ValueError):
    """Operands have incompatible shapes or domain sizes."""


class AlphabetMismatch(FuzzboundError, ValueError):
    """Two automata do not share the same alphabet."""


class UnknownSymbol(FuzzboundError, ValueError):
    """A word or formula uses a symbol the automaton does not know."""


class WordCapExceeded(FuzzboundError, RuntimeError):
    """Bounded-language enumeration would produce too many words."""


class TraceCapExceeded(FuzzboundError, RuntimeError):
    """A run or a check could hold more relation degrees than the cap."""


class RelationCapExceeded(FuzzboundError, RuntimeError):
    """A relation document or chain declares more cells than the cap."""


class FormulaSyntaxError(FuzzboundError, ValueError):
    """Formula text could not be parsed.

    Carries the character offset at which parsing failed.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DialectError(FuzzboundError, ValueError):
    """A formula does not belong to the dialect a check requires."""


class InputFormatError(FuzzboundError, ValueError):
    """A JSON document does not match the expected schema."""

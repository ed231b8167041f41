"""Exception types shared across the library."""


class PosetError(Exception):
    """Base class for all library errors."""


class DuplicateElement(PosetError):
    """An element identifier occurs more than once."""


class UnknownElement(PosetError):
    """An identifier does not name an element of the poset at hand."""


class CycleDetected(PosetError):
    """Closing the input pairs transitively would relate an element to itself."""


class InvalidParameter(PosetError):
    """A parameter is outside its documented domain."""


class SizeLimitExceeded(PosetError):
    """The instance is larger than the documented bound for this operation."""


class BudgetExceeded(PosetError):
    """A search ran out of its node budget before reaching an answer."""


class NotTame(PosetError):
    """The poset embeds the forbidden two-disjoint-chains pattern.

    ``witness`` is the quadruple (x, x2, y, y2): x < y and x2 < y2 are the
    only relations among the four elements.
    """

    def __init__(self, witness):
        super().__init__(f"not tame; witness {tuple(witness)!r}")
        self.witness = tuple(witness)

    def __reduce__(self):
        # pickle rebuilds from the witness, not from the formatted message
        return NotTame, (self.witness,)


class NotReduced(PosetError):
    """Two distinct elements share the same (down-set, up-set) signature."""


class InternalInvariantViolation(PosetError):
    """A construction that must succeed by construction failed its recheck."""


class FormatError(PosetError):
    """Malformed poset text input."""

"""Exception types shared across the package."""


class PosetLieError(Exception):
    """Base class for every error raised by this package."""


class ParseError(PosetLieError):
    """Malformed poset file."""


class CycleError(PosetLieError):
    """The listed relations violate antisymmetry (a cycle a < ... < a exists)."""


class DisconnectedError(PosetLieError):
    """The comparability graph of the poset is not connected."""


class InvalidParameter(PosetLieError):
    """Bad argument to a family constructor or selector."""


class PreconditionError(PosetLieError):
    """An operation was called outside its documented domain."""


class NotLieAutomorphism(PreconditionError):
    """A map asked to be a Lie automorphism is not one."""


class CocycleError(PosetLieError):
    """A candidate scaling map is not multiplicative on composable pairs."""


class NotInvertible(PosetLieError):
    """Element or linear map has no inverse."""


class NotProperWitness(PosetLieError):
    """The difference map of a candidate decomposition violates a constraint."""


class WellDefinednessError(PosetLieError):
    """A derived map turned out inconsistent; indicates a broken input bijection."""


class ExtractionError(PosetLieError):
    """No support isomorphism can be read off the given bijection."""


class NotClosed(PosetLieError):
    """A set of edge bijections is not a group; carries a witness pair."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class StructureMismatch(PosetLieError):
    """A group fails the structural shape it was checked against."""


class BoundExceeded(PosetLieError):
    """|B| exceeds the CLI's --bound; only the CLI raises it, before any
    search."""

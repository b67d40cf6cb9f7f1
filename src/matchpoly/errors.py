"""Exception types shared across the package."""


class MatchpolyError(Exception):
    """Base class for all errors raised by this package."""


class ZeroPolynomial(MatchpolyError):
    """An operation that requires a nonzero polynomial got the zero polynomial."""


class InvalidFactor(MatchpolyError):
    """The divisor is not a monic polynomial of degree >= 1."""


class DivisionByZero(MatchpolyError, ZeroDivisionError):
    """Division by a zero number-field element."""


class ModulusMismatch(MatchpolyError):
    """Number-field elements with different minimal polynomials were combined."""


class ShapeError(MatchpolyError):
    """A matrix argument is ragged."""


class DuplicateEdge(MatchpolyError):
    """The same edge appears more than once in a graph description."""


class SelfLoop(MatchpolyError):
    """An edge joins a vertex to itself."""


class BadVertex(MatchpolyError):
    """A vertex id is outside the graph's vertex range, or a label repeats."""


class UnknownBuiltin(MatchpolyError):
    """No built-in graph with the requested name."""


class BadSize(MatchpolyError):
    """A size parameter is outside the supported range."""


class TooLarge(MatchpolyError):
    """The input exceeds the scale an exhaustive routine is willing to handle."""


class NotATree(MatchpolyError):
    """A tree-only operation was called on a graph that is not a tree."""


class NotARoot(MatchpolyError):
    """The given root class is not a root of the relevant matching polynomial."""


class NotSpecial(MatchpolyError):
    """The chosen vertex is not special; stability only covers special ones."""


class InvalidCover(MatchpolyError):
    """The path list is not a valid vertex-disjoint path cover."""


class UnknownCampaign(MatchpolyError):
    """No sweep campaign with the requested name."""

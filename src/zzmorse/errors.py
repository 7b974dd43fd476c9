"""Exception taxonomy for the engine.

Every error raised on purpose derives from ZigzagError, so callers (and the
CLI) can catch one base class.  Names state the violated precondition.
"""


class ZigzagError(Exception):
    pass


# --- field / chain / complex layer ---

class BadParameters(ZigzagError):
    """Invalid run or generator parameters (e.g. mu > nu, or a field
    characteristic that is not prime)."""


class ZeroInverse(ZigzagError):
    """Multiplicative inverse of 0 requested."""


class MissingFacet(ZigzagError):
    """A cell insertion references a facet that is not in the complex."""


class BrokenBoundary(ZigzagError):
    """A cell's boundary chain is not a cycle (d(d(cell)) != 0)."""


class UnknownCell(ZigzagError):
    """CellId not present in the complex."""


class EmptyDims(ZigzagError):
    """Cubical grid with a non-positive extent."""


# --- Morse engine ---

class NotCritical(ZigzagError):
    """Morse (co)boundary queried at a non-critical cell."""


class CyclicMatching(ZigzagError):
    """The oriented Hasse diagram of a matching has a directed cycle."""


class NotRemovable(ZigzagError):
    """A removal would leave a cofacet of a removed cell behind."""


class InvalidOp(ZigzagError):
    """Malformed input or an atomic operation inconsistent with the state.

    Raised at the door, by ``run_stream`` and by the complex layer
    (``Complex.insert_cell``) alike, for a block or record of the wrong
    shape, an unhashable id, a boundary that is not a mapping, or a
    dimension or coefficient that is not an integer.
    """


# --- zigzag kernel ---

class KernelError(ZigzagError):
    """The column kernel found one of its own invariants broken."""


# --- validation mode ---

class BrokenInvariant(ZigzagError):
    """A validate-mode audit found an internal inconsistency."""


# --- oracle ---

class TooLarge(ZigzagError):
    """Instance exceeds the oracle's brute-force size bound."""


# --- generators ---

class EmptyCloud(ZigzagError):
    """Point cloud with no points."""


class NonMonotoneLevels(ZigzagError):
    """Levelset values not strictly increasing."""


# --- file formats ---

class RaggedRow(ZigzagError):
    """Point file rows with inconsistent arity."""


class EmptyFile(ZigzagError):
    """Input file contains no data."""


class BadHeader(ZigzagError):
    """Image file header malformed."""


class CountMismatch(ZigzagError):
    """Image file value count does not match the header dims."""


class BadStreamLine(ZigzagError):
    """Stream file line malformed."""

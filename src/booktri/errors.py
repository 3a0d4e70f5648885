"""Exception types shared across the package.

Everything raised on purpose derives from BooktriError so callers (and the
command-line front end) can map failures to exit codes without matching on
message text: each class carries the exit code as ``exit_code``.
"""


class BooktriError(Exception):
    """Base class for all errors raised by booktri.

    exit_code is the status the command line exits with: 1 usage or
    parameter error, 2 parse error, 3 hypothesis violation, 4 resource guard.
    """

    exit_code = 2


class GraphSizeError(BooktriError, ValueError):
    """Vertex count outside the supported 1..1024 range."""

    exit_code = 1


class LoopError(BooktriError, ValueError):
    """Attempt to create a self-loop."""


class BoundsError(BooktriError, IndexError):
    """Vertex index outside 0..n-1."""


class MissingEdgeError(BooktriError, ValueError):
    """Book size queried for a vertex pair that is not an edge."""


class EmptyGraphError(BooktriError, ValueError):
    """Operation requires at least one edge."""


class ParameterError(BooktriError, ValueError):
    """Construction or search parameters outside their valid range."""

    exit_code = 1


class NotTriangleFreeError(BooktriError, ValueError):
    """Input graph contains a triangle; carries one witness triple."""

    exit_code = 3

    def __init__(self, witness):
        self.witness = tuple(witness)
        u, v, w = self.witness
        super().__init__(f"not triangle-free, witness {u} {v} {w}")


class Graph6ParseError(BooktriError, ValueError):
    """Malformed graph6 input; offset is the byte position in the payload."""

    def __init__(self, message, offset):
        self.offset = offset
        super().__init__(f"byte {offset}: {message}")


class EdgeListParseError(BooktriError, ValueError):
    """Malformed edge-list text; line numbers are 1-based."""

    def __init__(self, message, line):
        self.line = line
        super().__init__(f"line {line}: {message}")


class ExplosionGuardError(BooktriError, ValueError):
    """Refused an exhaustive scan that would enumerate too many graphs."""

    exit_code = 4

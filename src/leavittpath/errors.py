"""Exception types shared across the package: ``InvariantViolation`` when
the program is wrong (``lpa`` exits 3), any other ``LpaError`` when its
input is (``lpa`` exits 2)."""


class LpaError(Exception):
    """Base class for all library errors."""


class GraphSyntaxError(LpaError):
    """Text-format parse error, with 1-based line/column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.reason = message


class GraphValidationError(LpaError):
    """A programmatically constructed graph violates a structural invariant."""


class ExpressionError(LpaError):
    """Algebra-expression parse or generator-resolution error."""

    def __init__(self, message: str, column: int | None = None):
        if column is not None:
            message = f"column {column}: {message}"
        super().__init__(message)
        self.column = column


class InvariantViolation(LpaError):
    """An internal consistency check failed on ``graph``.

    ``detail`` says which; ``graph.reproducer(graph)`` renders the graph
    the check ran on, so the failure can be replayed.
    """

    def __init__(self, detail: str, graph):
        super().__init__(detail)
        self.detail = detail
        self.graph = graph

    def __reduce__(self):
        return type(self), (self.detail, self.graph)

"""Exception types shared across the package."""


class QgaError(Exception):
    """Base class for all qga errors."""


class ParseError(QgaError):
    """A data file line could not be parsed."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class KindConflictError(QgaError):
    """An item was used both as a predicate and as a vertex."""


class UnknownItemError(QgaError, KeyError):
    """An id or IRI does not exist in the store or table."""

    # KeyError's __str__ is the repr of its message; print the message itself
    __str__ = Exception.__str__


class VectorFormatError(QgaError):
    """An embedding file is malformed or inconsistent."""


class ResourceLimitError(QgaError):
    """A configured cap (clique node cap, oracle search space) was exceeded."""


class UninterpretableQueryError(QgaError):
    """Phase-I produced no annotated query for the input tokens."""


class InfeasibleAssemblyError(QgaError):
    """Every candidate annotated query failed to assemble."""

    def __init__(self, reasons):
        super().__init__("no annotated query could be assembled: " + "; ".join(reasons))
        self.reasons = reasons

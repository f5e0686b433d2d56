"""Shared exception types."""


class InvalidParameterError(ValueError):
    """A scalar parameter is outside its valid range."""


class RejectedInputError(ValueError):
    """An input payload is structurally malformed (shape/grid mismatch, empty)."""


class StoreLoadError(RuntimeError):
    """An isochronal store file could not be read back intact."""


class UnknownSegmentError(KeyError):
    """A plan query's origin or goal node is not in the graph."""

"""Shared exception types."""


class DimensionError(ValueError):
    """An input's shape does not match the declared ambient dimension."""


class CapacityError(ValueError):
    """A request would exceed a bound on cube rows, counted half-sums, matrix cells or Monte-Carlo samples."""


class DegenerateFunctionError(ValueError):
    """A unit's function is constant: its weight vector or all its degree-1 coefficients vanish."""


class SchemaError(ValueError):
    """A serialized model or dataset file does not match the expected layout."""

"""Shared exception types."""


class DimensionError(ValueError):
    """An input's shape does not match the declared ambient dimension."""


class CapacityError(ValueError):
    """The requested dimension exceeds the exact-enumeration cap."""


class DegenerateFunctionError(ValueError):
    """A unit's function is constant: its weight vector or all its degree-1 coefficients vanish."""


class SchemaError(ValueError):
    """A serialized model or dataset file does not match the expected layout."""

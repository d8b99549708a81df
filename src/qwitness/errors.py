"""Exception types shared across the package."""


class DimensionError(ValueError):
    """A dimension is invalid or two objects have mismatched dimensions."""


class ResourceCapError(RuntimeError):
    """A composite system would exceed the hard size cap."""


class ConfigurationError(ValueError):
    """Parameters, strategies, or protocol selection are inconsistent."""

"""Exception types shared across the library."""


class ResourceKitError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(ResourceKitError):
    pass


class NonFinite(ResourceKitError):
    """An input matrix or vector holds a NaN or an infinite entry."""


class NotHermitian(ResourceKitError):
    pass


class NotPSD(ResourceKitError):
    pass


class TraceDeviation(ResourceKitError):
    pass


class BadIndex(ResourceKitError):
    pass


class AlphaOutOfRange(ResourceKitError):
    pass


class BadExponent(ResourceKitError):
    pass


class NonPositiveEntry(ResourceKitError):
    pass


class BadWeights(ResourceKitError):
    pass


class ChannelInvalid(ResourceKitError):
    pass


class NTooLarge(ResourceKitError):
    pass


class DTooLarge(ResourceKitError):
    pass


class EmptySet(ResourceKitError):
    pass


class BadLength(ResourceKitError):
    pass


class KOutOfRange(ResourceKitError):
    pass


class FeasibilityCheckFailed(ResourceKitError):
    pass


class WitnessEncodingError(ResourceKitError):
    """A witness mixture could not be represented in a family exactly."""

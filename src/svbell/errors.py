"""Exception types shared across the package."""


class PhotonNumberRangeError(ValueError):
    """Photon number per beam exceeds the supported accuracy range (N <= 60)."""


class CapExceededError(RuntimeError):
    """The requested truncation mass is unreachable below the 60-photon limit.

    Signals that the gain is too high for the requested mass.
    """


class EnumerationBudgetError(ValueError):
    """Exhaustive strategy enumeration would exceed the configured budget."""

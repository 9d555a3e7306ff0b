"""Exception types shared across the package."""


class GFrameError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(GFrameError):
    """Operands have incompatible algebra dimensions or module lengths."""


class NotPositive(GFrameError):
    """A matrix required to be positive semidefinite is not."""


class NotTight(GFrameError):
    """A family required to be tight is not."""


class DegenerateSpec(GFrameError):
    """A generator request that cannot be satisfied as specified."""


class BadRange(GFrameError):
    """A numeric range parameter is empty, inverted, or otherwise unusable."""


class AlphaOutOfRange(GFrameError):
    """A perturbation coefficient lies outside its admissible interval."""


class ValidationError(GFrameError):
    """A scenario document does not conform to the schema."""

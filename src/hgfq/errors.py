"""Exception types shared across the package."""


class HgfqError(Exception):
    """Base class for all package-specific errors."""


class NotPrimeError(HgfqError):
    """The requested characteristic is not a prime number."""


class OddPrimeRequiredError(HgfqError):
    """Fields of characteristic 2 are not supported."""


class FieldTooLargeError(HgfqError):
    """The requested field size exceeds the cap of 100000."""


class FieldMismatchError(HgfqError):
    """Operands belong to different fields."""


class LogOfZeroError(HgfqError):
    """The discrete logarithm of zero is undefined."""


class OrderNotDividingError(HgfqError):
    """No character of the requested order exists in this field."""


class BadReductionError(HgfqError):
    """The curve does not reduce to a nonsingular curve over this field."""


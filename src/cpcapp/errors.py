"""Exception types shared across the package."""


class CpcappError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(CpcappError, ValueError):
    """Operands have incompatible or invalid dimensions."""


class ArgumentError(CpcappError, ValueError):
    """A scalar or structural argument is out of its allowed range."""


class DefinitenessError(CpcappError, ValueError):
    """A matrix required to be positive definite is not."""


class ConvergenceError(CpcappError, RuntimeError):
    """An iterative numerical routine exceeded its iteration budget."""


class RankError(CpcappError, ValueError):
    """A matrix required to have full rank is (numerically) rank deficient."""


class ParseError(CpcappError, ValueError):
    """A file could not be parsed; message carries location detail."""

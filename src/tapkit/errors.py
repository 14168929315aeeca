"""Exception hierarchy shared by every tapkit module."""

import numpy as np


class TapkitError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(TapkitError):
    """Operand shapes are incompatible."""


class InputError(TapkitError):
    """An argument violates an operation's precondition."""


class ConfigError(TapkitError):
    """A configuration object is internally inconsistent."""


class ValidationError(TapkitError):
    """Loaded data violates its schema or an invariant."""


class ParseError(TapkitError):
    """A text input could not be parsed."""


class FormatError(TapkitError):
    """A binary container is malformed or truncated."""


class NumericError(TapkitError):
    """A non-finite value appeared where finite values are required."""


def check_float_count(names: str, count: int) -> None:
    """Raise ConfigError naming ``names`` if ``count`` float64 values are
    more than NumPy can hold: their byte size must fit ``np.intp``.

    Sizes come from the command line and may be any int; checking them
    before anything is allocated turns NumPy's ``ValueError``, ``TypeError``
    or ``MemoryError`` into an error that names the field."""
    if count > np.iinfo(np.intp).max // 8:
        raise ConfigError(f"{names} asks for {count} float64 values, "
                          "more than NumPy can hold")

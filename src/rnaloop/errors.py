"""Exception taxonomy shared across the package, and the integer and number
checks that entry points make before comparing a value."""

import numbers


class RnaLoopError(Exception):
    """Base class for all package errors."""


class DimensionError(RnaLoopError, ValueError):
    """Tensor shapes are incompatible for the requested operation."""


class ConfigurationError(RnaLoopError, ValueError):
    """A config value is invalid or inconsistent with the rest of the setup."""


class ContractError(RnaLoopError, RuntimeError):
    """An API precondition or internal invariant was violated."""


class DegenerateSupervisionError(RnaLoopError, ValueError):
    """A supervision mask selects no pixels at all."""


class LabelRangeError(RnaLoopError, IndexError):
    """A class label or target lies outside the range of its classes."""


class TrainingError(RnaLoopError, RuntimeError):
    """Training diverged (non-finite loss)."""


class SerializationError(RnaLoopError, ValueError):
    """An artifact file is corrupt or has an unsupported version."""


class ArtifactError(RnaLoopError, FileNotFoundError):
    """A referenced artifact path could not be resolved."""


def need_int(name: str, value, least: int) -> None:
    """``ConfigurationError`` unless ``value`` is an int (not a bool or a
    float) and at least ``least``."""
    if type(value) is not int or value < least:
        raise ConfigurationError(f"{name} must be >= {least}, as an int; got {value!r}")


def is_real(value) -> bool:
    """Whether ``value`` is a real number, an int or a float (numpy's too) but
    not a bool, so that comparing it cannot raise a bare ``TypeError``."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)

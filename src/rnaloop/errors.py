"""Exception taxonomy shared across the package, the integer and number
checks that entry points make before comparing a value, the one rule for
what a class label is (:func:`need_labels`), and the one maker of random
generators, so that every seed is checked the same way."""

import numbers

import numpy as np


class RnaLoopError(Exception):
    """Base class for all package errors."""


class DimensionError(RnaLoopError, ValueError):
    """Tensor shapes are incompatible for the requested operation."""


class ConfigurationError(RnaLoopError, ValueError):
    """A config value is invalid or inconsistent with the rest of the setup."""


class ContractError(RnaLoopError, RuntimeError):
    """An API precondition or internal invariant was violated."""


class DegenerateSupervisionError(RnaLoopError, ValueError):
    """A supervision input selects nothing: an empty mask or batch."""


class LabelRangeError(RnaLoopError, IndexError):
    """A class label or target lies outside the range of its classes."""


class TrainingError(RnaLoopError, RuntimeError):
    """Training diverged (non-finite loss)."""


class SerializationError(RnaLoopError, ValueError):
    """An artifact file is corrupt or has an unsupported version."""


class ArtifactError(RnaLoopError, FileNotFoundError):
    """A referenced artifact path could not be resolved."""


def is_int(value) -> bool:
    """Whether ``value`` is an integer, Python's or numpy's, but not a bool."""
    # a plain int skips the ABC check, which costs over ten times as much
    return type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool))


def need_int(name: str, value, least: int) -> int:
    """``value`` as a Python int; ``ConfigurationError`` unless it is an
    integer (see :func:`is_int`) and at least ``least``."""
    n = value if type(value) is int else int(value) if is_int(value) else None
    if n is None or n < least:
        raise ConfigurationError(f"{name} must be >= {least}, as an int; got {value!r}")
    return n


def need_labels(name: str, value, shape: tuple[int, ...], classes: int) -> np.ndarray:
    """``value`` as an int64 array of class labels. ``DimensionError``
    unless its shape is ``shape``; ``LabelRangeError`` unless its dtype is
    an integer one (so not bool or float) and every entry lies in
    [0, ``classes``). An empty list or tuple is empty int64 labels; an
    int64 array comes back as it is, not copied."""
    labels = np.asarray(value)
    if isinstance(value, (list, tuple)) and labels.size == 0:
        labels = labels.astype(np.int64)  # np.asarray([]) is float64
    if labels.shape != shape:
        raise DimensionError(f"{name}: expected labels of shape {shape}, got {labels.shape}")
    if labels.dtype.kind not in "iu":
        raise LabelRangeError(f"{name} must be integer class labels, got dtype {labels.dtype}")
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise LabelRangeError(
            f"{name} span [{labels.min()}, {labels.max()}], out of range [0, {classes})")
    return labels.astype(np.int64, copy=False)


def is_real(value) -> bool:
    """Whether ``value`` is a real number that a float holds, an int or a
    float (numpy's too) but not a bool, so that comparing it or taking its
    float cannot raise a bare ``TypeError`` or ``OverflowError``."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:  # an int past the float range
        return False
    return True


def seeded(seed, *stream: int) -> np.random.Generator:
    """The generator of ``seed`` and the stream numbers after it;
    ``ConfigurationError`` unless the seed is an integer >= 0.

    ``SeedSequence([s])`` draws as ``SeedSequence(s)``, so ``seeded(s)`` is
    ``default_rng(s)``."""
    return np.random.default_rng(np.random.SeedSequence([need_int("seed", seed, 0), *stream]))

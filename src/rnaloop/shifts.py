"""Synthetic test-time distribution shifts (corruption kind x severity).

Severity indexes fixed, documented parameter tables; every table is
strictly monotone in effect strength. Shifts apply to inputs only and
never touch targets or signals derived from targets.

The cross-dataset shift is a world instead: ``shifted_world`` of the
training world, fed to the ``taskgen`` generators for the test split.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DimensionError, need_int, seeded
from .taskgen import SceneWorldConfig

KINDS = ("identity", "gaussian_noise", "blur", "pixelate", "contrast")

SEVERITY_TABLES: dict[str, list[float]] = {
    # additive noise standard deviation
    "gaussian_noise": [0.04, 0.08, 0.13, 0.19, 0.26],
    # gaussian blur sigma; kernel radius is ceil(3*sigma)
    "blur": [0.6, 0.9, 1.3, 1.8, 2.5],
    # block edge length for local averaging
    "pixelate": [2, 3, 4, 6, 8],
    # contrast retention factor (smaller = stronger shift)
    "contrast": [0.75, 0.60, 0.45, 0.33, 0.22],
}


@dataclass(frozen=True)
class ShiftSpec:
    """One of ``KINDS`` at a severity in 1..5 (identity ignores it, but it
    must still be an integer >= 1), with the seed of the random kinds; both
    kept as Python ints."""

    kind: str
    severity: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown shift kind {self.kind!r}")
        object.__setattr__(self, "severity", need_int("severity", self.severity, 1))
        if self.kind != "identity" and self.severity > 5:
            raise ConfigurationError(f"severity {self.severity} outside 1..5")
        object.__setattr__(self, "seed", need_int("seed", self.seed, 0))


def _gaussian_kernel(sigma: float) -> np.ndarray:
    radius = int(np.ceil(3.0 * sigma))
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (xs / sigma) ** 2)
    return k / k.sum()


def _blur_axis(x: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    r = len(kernel) // 2
    pads = [(0, 0)] * x.ndim
    pads[axis] = (r, r)
    xp = np.pad(x, pads, mode="reflect")
    win = np.lib.stride_tricks.sliding_window_view(xp, len(kernel), axis=axis)
    return np.tensordot(win, kernel, axes=([-1], [0]))


def _pixelate(x: np.ndarray, block: int) -> np.ndarray:
    h, w = x.shape[-2:]
    hi = np.arange(0, h, block)
    wi = np.arange(0, w, block)
    sums = np.add.reduceat(np.add.reduceat(x, hi, axis=-2), wi, axis=-1)
    hlen = np.minimum(hi + block, h) - hi
    wlen = np.minimum(wi + block, w) - wi
    means = sums / (hlen[:, None] * wlen[None, :])
    return means.repeat(hlen, axis=-2).repeat(wlen, axis=-1)


def apply_shift(x: np.ndarray, spec: ShiftSpec) -> np.ndarray:
    """Corrupt an input in [0,1] whose last two axes are [H,W]; output is
    clipped back to [0,1]. An input of rank below 2 raises
    ``DimensionError``, whatever the kind.

    Identity returns a bit-exact copy. Randomized kinds are deterministic
    under spec.seed.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        raise DimensionError(f"apply_shift: expected an input ending in [H,W], got shape {x.shape}")
    if spec.kind == "identity":
        return x.copy()
    level = SEVERITY_TABLES[spec.kind][spec.severity - 1]
    if spec.kind == "gaussian_noise":
        rng = seeded(spec.seed, 7001, spec.severity)
        out = x + rng.normal(0.0, level, size=x.shape)
    elif spec.kind == "blur":
        kernel = _gaussian_kernel(level)
        out = _blur_axis(_blur_axis(x, kernel, x.ndim - 2), kernel, x.ndim - 1)
    elif spec.kind == "pixelate":
        out = _pixelate(x, int(level))
    else:  # contrast: ShiftSpec admits no other kind
        mean = x.mean(axis=(-2, -1), keepdims=True)
        out = mean + (x - mean) * level
    return np.clip(out, 0.0, 1.0)


def shifted_world(base: SceneWorldConfig) -> SceneWorldConfig:
    """A systematically different scene distribution (cross-dataset stand-in):
    train on one world's generator output and test on this one's."""
    return replace(
        base,
        half_size_range=(6.0, 13.0),
        albedo_range=(0.30, 0.75),
        shapes_per_scene=(2, 6),
    )

"""Procedural desk-scale tasks with exact ground truth.

Scenes are stacks of rectangles and disks over a constant background.
Depth ordering follows the painter's algorithm: shapes are rendered far
to near, so the nearest shape owns every pixel it covers. Rendered
intensity is shaded albedo, which makes depth approximately (but not
exactly) invertible from the image; depth is normalized to [0,1] with
background fixed at 1.0 (far).

Classification images are jittered noisy renderings of K fixed prototype
patterns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import (ConfigurationError, ContractError, DimensionError, TrainingError, is_real, need_int,
                     seeded)
from .nets import Model

_STREAM_SCENE = 101
_STREAM_LABELS = 102
_STREAM_TRAIN = 103

SEG_COMBOS = [
    ("rectangle", "plain"),
    ("disk", "plain"),
    ("rectangle", "striped"),
    ("disk", "striped"),
]

# the scene model that every world shares
SHAPE_KINDS = ("rectangle", "disk")
DEPTH_RANGE = (0.05, 0.90)
BACKGROUND_ALBEDO = 0.35
BACKGROUND_DEPTH = 1.0
SHADE = 0.6
STRIPE_FACTOR = 0.55
STRIPE_PERIOD = 2
# classification: roll of up to JITTER pixels per axis, then gaussian noise
JITTER = 2
NOISE_SIGMA = 0.05


@dataclass(frozen=True)
class SceneWorldConfig:
    """What a world varies; the rest of the scene model is the constants
    above, and the textures are the generator's.

    ``ConfigurationError`` unless grid is an integer >= 1, shapes_per_scene
    a pair of integers 0 <= low <= high, and half_size_range and
    albedo_range pairs of finite reals 0 <= low <= high. The pairs are kept
    as tuples, the counts as Python ints.
    """

    grid: int = 32
    shapes_per_scene: tuple[int, int] = (1, 4)
    half_size_range: tuple[float, float] = (3.0, 9.0)
    albedo_range: tuple[float, float] = (0.45, 0.95)

    def __post_init__(self):
        object.__setattr__(self, "grid", need_int("grid", self.grid, 1))
        for name in ("shapes_per_scene", "half_size_range", "albedo_range"):
            pair = getattr(self, name)
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
                raise ConfigurationError(f"{name} must be a (low, high) pair, got {pair!r}")
            low, high = pair
            if name == "shapes_per_scene":
                low = need_int(f"{name} low", low, 0)
                high = need_int(f"{name} high", high, low)
            elif not (is_real(low) and is_real(high) and 0 <= low <= high < math.inf):
                raise ConfigurationError(f"{name} must be finite reals 0 <= low <= high, got {pair!r}")
            object.__setattr__(self, name, (low, high))


@dataclass
class Shape:
    kind: str
    texture: str
    cx: float
    cy: float
    hw: float
    hh: float
    depth: float
    albedo: float
    seg_class: int = 0


@dataclass
class Dataset:
    task_kind: str
    inputs: np.ndarray  # [N,C,H,W], values in [0,1]
    targets: np.ndarray  # dense [N,1,H,W] in [0,1], labels [N,H,W], or classes [N]

    def __len__(self) -> int:
        return self.inputs.shape[0]


def sample_scene(
    config: SceneWorldConfig, textures: tuple[str, ...], rng: np.random.Generator
) -> list[Shape]:
    """Shapes whose textures are drawn from ``textures``, a subset of the
    textures of ``SEG_COMBOS``."""
    lo, hi = config.shapes_per_scene
    count = int(rng.integers(lo, hi + 1))
    shapes = []
    for _ in range(count):
        kind = SHAPE_KINDS[int(rng.integers(len(SHAPE_KINDS)))]
        texture = textures[int(rng.integers(len(textures)))]
        shapes.append(
            Shape(
                kind=kind,
                texture=texture,
                cx=float(rng.uniform(0, config.grid - 1)),
                cy=float(rng.uniform(0, config.grid - 1)),
                hw=float(rng.uniform(*config.half_size_range)),
                hh=float(rng.uniform(*config.half_size_range)),
                depth=float(rng.uniform(*DEPTH_RANGE)),
                albedo=float(rng.uniform(*config.albedo_range)),
                seg_class=SEG_COMBOS.index((kind, texture)) + 1,
            )
        )
    return shapes


def _coverage(shape: Shape, grid: int) -> np.ndarray:
    ys, xs = np.mgrid[0:grid, 0:grid]
    if shape.kind == "rectangle":
        return (np.abs(xs - shape.cx) <= shape.hw) & (np.abs(ys - shape.cy) <= shape.hh)
    if shape.kind == "disk":
        return (xs - shape.cx) ** 2 + (ys - shape.cy) ** 2 <= shape.hw**2
    raise ConfigurationError(f"unknown shape kind {shape.kind!r}")


def _shape_intensity(shape: Shape, grid: int) -> np.ndarray:
    base = shape.albedo * (1.0 - SHADE * shape.depth)
    img = np.full((grid, grid), base)
    if shape.texture == "striped":
        _, xs = np.mgrid[0:grid, 0:grid]
        stripe = (xs // STRIPE_PERIOD) % 2 == 1
        img[stripe] *= STRIPE_FACTOR
    return img


def render_scene(
    config: SceneWorldConfig, shapes: list[Shape]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rasterize a scene: (intensity image, depth map, class map)."""
    g = config.grid
    depth = np.full((g, g), BACKGROUND_DEPTH)
    image = np.full((g, g), BACKGROUND_ALBEDO * (1.0 - SHADE * BACKGROUND_DEPTH))
    classes = np.zeros((g, g), dtype=np.int64)
    for shape in sorted(shapes, key=lambda s: -s.depth):  # far first, near wins
        cover = _coverage(shape, g)
        depth[cover] = shape.depth
        image[cover] = _shape_intensity(shape, g)[cover]
        classes[cover] = shape.seg_class
    return np.clip(image, 0.0, 1.0), depth, classes


def gen_dense_regression(config: SceneWorldConfig, n: int, seed: int) -> Dataset:
    """Depth-from-intensity scenes of plain shapes; target is the
    normalized depth map."""
    n = need_int("n", n, 1)
    rng = seeded(seed, _STREAM_SCENE)
    inputs = np.empty((n, 1, config.grid, config.grid))
    targets = np.empty((n, 1, config.grid, config.grid))
    for i in range(n):
        img, depth, _ = render_scene(config, sample_scene(config, ("plain",), rng))
        inputs[i, 0] = img
        targets[i, 0] = depth
    return Dataset("dense_regression", inputs, targets)


def gen_dense_segmentation(config: SceneWorldConfig, n: int, K: int, seed: int) -> Dataset:
    """Plain and striped shapes; shape kind+texture decides the class,
    background is class 0, and shapes of a class >= K are left out."""
    n, K = need_int("n", n, 1), need_int("K", K, 2)
    rng = seeded(seed, _STREAM_SCENE)
    if K - 1 > len(SEG_COMBOS):
        raise ConfigurationError(
            f"K={K} exceeds available kind-texture combinations ({len(SEG_COMBOS)} + background)"
        )
    inputs = np.empty((n, 1, config.grid, config.grid))
    targets = np.empty((n, config.grid, config.grid), dtype=np.int64)
    for i in range(n):
        shapes = [s for s in sample_scene(config, ("plain", "striped"), rng) if s.seg_class < K]
        img, _, classes = render_scene(config, shapes)
        inputs[i, 0] = img
        targets[i] = classes
    return Dataset("dense_segmentation", inputs, targets)


def make_prototypes(K: int, proto_seed: int, grid: int = 16) -> np.ndarray:
    """K smooth random patterns in [0.1, 0.9], upsampled from a 4x4 field.

    ``ConfigurationError`` unless K is an int >= 1, grid an int >= 4 that
    4 divides and proto_seed an int >= 0.
    """
    K, grid = need_int("K", K, 1), need_int("grid", grid, 4)
    rng = seeded(proto_seed, _STREAM_SCENE)
    if grid % 4:
        raise ConfigurationError(f"grid {grid} must be divisible by 4, the prototype field's size")
    protos = np.empty((K, grid, grid))
    cell = grid // 4
    for k in range(K):
        coarse = rng.random((4, 4))
        field_ = np.kron(coarse, np.ones((cell, cell)))
        lo, hi = field_.min(), field_.max()
        protos[k] = 0.1 + 0.8 * (field_ - lo) / max(hi - lo, 1e-9)
    return protos


def gen_classification(K: int, n: int, proto_seed: int, seed: int, grid: int = 16) -> Dataset:
    """Renderings of K prototype patterns, each rolled by up to ``JITTER``
    pixels per axis and given gaussian noise of sd ``NOISE_SIGMA``; labels
    balanced.

    The grid and proto_seed are checked as :func:`make_prototypes` checks
    them.
    """
    n, K = need_int("n", n, 1), need_int("K", K, 2)
    rng = seeded(seed, _STREAM_LABELS)
    protos = make_prototypes(K, proto_seed, grid)
    labels = np.tile(np.arange(K), n // K + 1)[:n]
    rng.shuffle(labels)
    inputs = np.empty((n, 1, grid, grid))
    for i, y in enumerate(labels):
        img = np.roll(
            protos[y],
            (int(rng.integers(-JITTER, JITTER + 1)), int(rng.integers(-JITTER, JITTER + 1))),
            axis=(0, 1),
        )
        inputs[i, 0] = np.clip(img + rng.normal(0.0, NOISE_SIGMA, size=img.shape), 0.0, 1.0)
    return Dataset("classification", inputs, labels.astype(np.int64))


# ---------------------------------------------------------------------------
# supervised training of the main network
# ---------------------------------------------------------------------------


def task_loss(task_kind: str, pred: ad.Tensor, targets) -> ad.Tensor:
    if task_kind == "dense_regression":
        return ad.mean_l1(pred, targets)
    if task_kind == "dense_segmentation":
        full = np.ones(targets.shape, bool)
        return ad.masked_cross_entropy(pred, targets, full)
    if task_kind == "classification":
        return ad.softmax_cross_entropy(pred, targets)
    raise ConfigurationError(f"unknown task kind {task_kind!r}")


def train_main(
    model: Model,
    dataset: Dataset,
    epochs: int,
    lr: float,
    seed: int,
    batch_size: int = 8,
) -> tuple[Model, list[float]]:
    """Minibatch SGD on the task loss; returns the model and per-epoch means.

    Before training, ``ContractError`` for a dataset of no images and
    ``DimensionError`` unless its targets are one per input."""
    epochs, batch_size = need_int("epochs", epochs, 1), need_int("batch_size", batch_size, 1)
    rng = seeded(seed, _STREAM_TRAIN)
    if dataset.task_kind != model.spec.task_kind:
        raise ConfigurationError(
            f"dataset task {dataset.task_kind!r} != model task {model.spec.task_kind!r}"
        )
    if model.params.frozen:
        raise ContractError("train_main: every parameter is frozen; call params.set_frozen(False) first")
    n = len(dataset)
    if n == 0:
        raise ContractError("train_main: the dataset holds no images")
    if np.shape(dataset.targets)[:1] != (n,):
        raise DimensionError(
            f"train_main: {n} inputs need one target each, got targets of shape {np.shape(dataset.targets)}")
    curve: list[float] = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            xb = dataset.inputs[idx]
            yb = dataset.targets[idx]
            with ad.Tape() as tape:
                lifted = model.params.lift(tape)
                pred = model.forward(xb, lifted=lifted)
                loss = task_loss(dataset.task_kind, pred, yb)
                value = loss.item()
                if not math.isfinite(value):
                    raise TrainingError(
                        f"training diverged at epoch {epoch} (lr={lr}): loss={value}"
                    )
                ad.backward(loss)
            losses.append(value)
            ad.sgd_step(model.params, model.params.grads_from(tape, lifted), lr)
        curve.append(float(np.mean(losses)))
    return model, curve

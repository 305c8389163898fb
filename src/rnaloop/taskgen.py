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
from .errors import ConfigurationError, ContractError, TrainingError, need_int
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
    above, and the textures are the generator's."""

    grid: int = 32
    shapes_per_scene: tuple[int, int] = (1, 4)
    half_size_range: tuple[float, float] = (3.0, 9.0)
    albedo_range: tuple[float, float] = (0.45, 0.95)


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


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


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
    need_int("n", n, 1)
    need_int("seed", seed, 0)
    rng = _rng(seed, _STREAM_SCENE)
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
    need_int("n", n, 1)
    need_int("K", K, 2)
    need_int("seed", seed, 0)
    if K - 1 > len(SEG_COMBOS):
        raise ConfigurationError(
            f"K={K} exceeds available kind-texture combinations ({len(SEG_COMBOS)} + background)"
        )
    rng = _rng(seed, _STREAM_SCENE)
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
    need_int("K", K, 1)
    need_int("grid", grid, 4)
    need_int("proto_seed", proto_seed, 0)
    if grid % 4:
        raise ConfigurationError(f"grid {grid} must be divisible by 4, the prototype field's size")
    rng = _rng(proto_seed, _STREAM_SCENE)
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
    need_int("n", n, 1)
    need_int("K", K, 2)
    need_int("seed", seed, 0)
    protos = make_prototypes(K, proto_seed, grid)
    labels = np.tile(np.arange(K), n // K + 1)[:n]
    rng = _rng(seed, _STREAM_LABELS)
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
        full = np.ones(targets.shape)
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
    """Minibatch SGD on the task loss; returns the model and per-epoch means."""
    if type(epochs) is not int or epochs < 1 or type(batch_size) is not int or batch_size < 1:
        raise ConfigurationError(
            f"train_main needs integers epochs >= 1 and batch_size >= 1, got {epochs!r} and {batch_size!r}"
        )
    need_int("seed", seed, 0)
    if dataset.task_kind != model.spec.task_kind:
        raise ConfigurationError(
            f"dataset task {dataset.task_kind!r} != model task {model.spec.task_kind!r}"
        )
    if all(p.frozen for _, p in model.params.items()):
        raise ContractError("train_main: every parameter is frozen; call params.set_frozen(False) first")
    rng = _rng(seed, _STREAM_TRAIN)
    n = len(dataset)
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
                ad.backward(loss)
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingError(
                    f"training diverged at epoch {epoch} (lr={lr}): loss={value}"
                )
            losses.append(value)
            ad.sgd_step(model.params, model.params.grads_from(tape, lifted), lr)
        curve.append(float(np.mean(losses)))
    return model, curve

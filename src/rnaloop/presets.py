"""Shipped default configurations for each task family.

Each main network is ``nets.build_main`` of a ``nets.ModelSpec``, and
each controller ``nets.build_controller`` of a ``nets.ControllerSpec``;
the same presets back the tests and the benchmark harness, so parameter
budgets and encodings stay consistent.
"""

from __future__ import annotations

from . import nets

DENSE_GRID = 32
CLS_GRID = 16
NUM_CLASSES = 20
NUM_COARSE = 5
SEG_CLASSES = 5
DENSE_FILM_K = 4
CLS_FILM_K = 3


def dense_main(seed: int, in_ch: int = 1) -> nets.Model:
    """Depth-style regression UNet with the default film sites."""
    return nets.build_main(nets.ModelSpec("dense_regression", in_ch, 1, DENSE_GRID, DENSE_FILM_K), seed)


def dense_controller(main: nets.Model, seed: int) -> nets.Controller:
    """Feedback stack: [prediction, signal values, validity mask]."""
    cspec = nets.ControllerSpec(
        arch="conv",
        in_channels=3,
        film_channels=tuple(c for _, c in main.spec.film_sites),
    )
    return nets.build_controller(cspec, main, seed)


def seg_main(seed: int) -> nets.Model:
    return nets.build_main(
        nets.ModelSpec("dense_segmentation", 1, SEG_CLASSES, DENSE_GRID, DENSE_FILM_K), seed)


def seg_controller(main: nets.Model, seed: int) -> nets.Controller:
    """Feedback stack: [softmax(K), click one-hot(K), validity mask]."""
    cspec = nets.ControllerSpec(
        arch="conv",
        in_channels=2 * SEG_CLASSES + 1,
        film_channels=tuple(c for _, c in main.spec.film_sites),
    )
    return nets.build_controller(cspec, main, seed)


def cls_main(seed: int) -> nets.Model:
    return nets.build_main(nets.ModelSpec("classification", 1, NUM_CLASSES, CLS_GRID, CLS_FILM_K), seed)


def cls_controller(main: nets.Model, seed: int) -> nets.Controller:
    """Feedback vector: [softmax(K) ++ coarse one-hot(C)]."""
    cspec = nets.ControllerSpec(
        arch="mlp",
        in_channels=NUM_CLASSES + NUM_COARSE,
        film_channels=tuple(c for _, c in main.spec.film_sites),
        hidden=12,
    )
    return nets.build_controller(cspec, main, seed)


def densification_dense(seed: int) -> nets.Model:
    """Signal-to-target UNet: input is [signal values, validity mask]."""
    return nets.build_main(nets.ModelSpec("dense_regression", 2, 1, DENSE_GRID, 0), seed)


def control_mains(seed: int) -> tuple[nets.Model, nets.Model]:
    """Same-architecture control: the adapted net and the densification net.

    Both take two input channels (the adapted net feeds [image, zeros],
    the densification net [signal values, mask]), so their parameter
    counts are identical by construction.
    """
    f = dense_main(seed, in_ch=2)
    dens = densification_dense(seed + 1)
    return f, dens


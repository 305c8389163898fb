"""Shipped default configurations for each task family.

Everything here is a thin composition of the builders in :mod:`nets`;
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
    spec = nets.unet_spec("dense_regression", in_ch=in_ch, out_ch=1, grid=DENSE_GRID)
    return nets.insert_film_sites(nets.build_main(spec, seed), DENSE_FILM_K)


def dense_controller(main: nets.Model, seed: int) -> nets.Controller:
    """Feedback stack: [prediction, signal values, validity mask]."""
    cspec = nets.ControllerSpec(
        arch="conv",
        in_channels=3,
        film_channels=[c for _, c in main.spec.film_sites],
    )
    return nets.build_controller(cspec, main, seed)


def seg_main(seed: int, num_classes: int = SEG_CLASSES) -> nets.Model:
    spec = nets.unet_spec("dense_segmentation", in_ch=1, out_ch=num_classes, grid=DENSE_GRID)
    return nets.insert_film_sites(nets.build_main(spec, seed), DENSE_FILM_K)


def seg_controller(main: nets.Model, seed: int, num_classes: int = SEG_CLASSES) -> nets.Controller:
    """Feedback stack: [softmax(K), click one-hot(K), validity mask]."""
    cspec = nets.ControllerSpec(
        arch="conv",
        in_channels=2 * num_classes + 1,
        film_channels=[c for _, c in main.spec.film_sites],
    )
    return nets.build_controller(cspec, main, seed)


def cls_main(seed: int, num_classes: int = NUM_CLASSES) -> nets.Model:
    spec = nets.classifier_spec(num_classes=num_classes, grid=CLS_GRID)
    return nets.insert_film_sites(nets.build_main(spec, seed), CLS_FILM_K)


def cls_controller(
    main: nets.Model, seed: int, num_classes: int = NUM_CLASSES, num_coarse: int = NUM_COARSE
) -> nets.Controller:
    """Feedback vector: [softmax(K) ++ coarse one-hot(C)]."""
    cspec = nets.ControllerSpec(
        arch="mlp",
        in_channels=num_classes + num_coarse,
        film_channels=[c for _, c in main.spec.film_sites],
        hidden=12,
    )
    return nets.build_controller(cspec, main, seed)


def densification_dense(seed: int) -> nets.Model:
    """Signal-to-target UNet: input is [signal values, validity mask]."""
    spec = nets.unet_spec("dense_regression", in_ch=2, out_ch=1, grid=DENSE_GRID)
    return nets.build_main(spec, seed)


def control_mains(seed: int) -> tuple[nets.Model, nets.Model]:
    """Same-architecture control: the adapted net and the densification net.

    Both take two input channels (the adapted net feeds [image, zeros],
    the densification net [signal values, mask]), so their parameter
    counts are identical by construction.
    """
    f = dense_main(seed, in_ch=2)
    dens = densification_dense(seed + 1)
    return f, dens


def control_controller(main: nets.Model, seed: int) -> nets.Controller:
    return dense_controller(main, seed)

